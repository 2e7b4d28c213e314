#pragma once

#include <cstdint>
#include <vector>

#include "core/dtypes/float_type.hpp"
#include "core/ndarray/ndarray.hpp"

namespace sim {

using pyblaz::FloatType;
using pyblaz::index_t;
using pyblaz::NDArray;
using pyblaz::Shape;

/// Configuration of the shallow-water model (§V-A).  Defaults reproduce the
/// paper's setup: a nonperiodic double-gyre wind-forced basin with seamount
/// topography, 100 grid cells in the first dimension, run at an emulated
/// working precision.
struct SweConfig {
  index_t nx = 100;  ///< Grid cells in the first (x) dimension.
  index_t ny = 200;  ///< Grid cells in the second (y) dimension.

  double lx = 1.0e6;  ///< Domain extent in x (m).
  double ly = 2.0e6;  ///< Domain extent in y (m).

  double gravity = 10.0;           ///< g (m/s^2).
  double depth = 500.0;            ///< Mean layer depth H0 (m).
  double coriolis_f0 = 1.0e-4;     ///< f-plane Coriolis parameter (1/s).
  double coriolis_beta = 2.0e-11;  ///< Beta-plane gradient (1/(m s)).

  double wind_stress = 0.12;  ///< Double-gyre wind-stress amplitude (N/m^2).
  double rho = 1.0e3;         ///< Water density (kg/m^3).

  double bottom_friction = 1.0e-6;  ///< Linear drag coefficient (1/s).
  double viscosity = 250.0;         ///< Horizontal eddy viscosity (m^2/s).

  double seamount_height = 100.0;  ///< Seamount amplitude (m).
  double seamount_sigma = 1.5e5;   ///< Seamount Gaussian width (m).

  double dt = 60.0;  ///< Time step (s); CFL-safe for the defaults.

  /// Working precision: state variables are rounded through this storage
  /// type after every step, emulating a simulation run natively at that
  /// precision (the paper's FP16-vs-FP32 experiment).
  FloatType precision = FloatType::kFloat64;

  /// Seed of the initial smooth surface-height perturbation.
  std::uint64_t seed = 1;
};

/// Per-step tendency fields of the forward-backward update, exported for the
/// compressed-form stepper (sim/compressed_stepper.hpp).  The step applies
/// exactly
///   u'   = u   + dt * du,
///   v'   = v   + dt * dv,
///   eta' = eta - dt * flux_x - dt * flux_y,
/// so a compressed shadow of each prognostic field can advance by one fused
/// lincomb per step.  Every step evaluates its tendencies into such a struct:
/// the caller's (step(&tendencies)) or, for a plain step(), one the model
/// owns.  A field that already has the step's shape is reused: its
/// closed-wall faces are re-zeroed and every other cell is overwritten, so
/// passing the same struct each step allocates nothing after the first.  A
/// field of any other shape (a fresh struct's empty ones) is reallocated.
struct SweTendencies {
  NDArray<double> flux_x;  ///< (nx, ny): x-contribution of div(H u).
  NDArray<double> flux_y;  ///< (nx, ny): y-contribution of div(H u).
  /// (nx+1, ny): momentum tendency at u points — Coriolis, pressure
  /// gradient, drag, viscosity, and wind forcing combined.  Zero on the
  /// closed x-walls, where u is pinned to zero.
  NDArray<double> du;
  /// (nx, ny+1): momentum tendency at v points.  Zero on the closed y-walls.
  NDArray<double> dv;
};

/// Both stages' tendencies of one RK2 (Heun) step, exported for the
/// compressed-form stepper: the step applies exactly
///   u'   = u   + (dt/2) * du1   + (dt/2) * du2,
///   v'   = v   + (dt/2) * dv1   + (dt/2) * dv2,
///   eta' = eta - (dt/2) * fx1 - (dt/2) * fy1 - (dt/2) * fx2 - (dt/2) * fy2,
/// so a compressed shadow of the height advances by one fused 5-operand
/// lincomb per step and each momentum track by one fused 3-operand lincomb.
/// Each stage follows SweTendencies' reuse contract.
struct SweRk2Tendencies {
  SweTendencies stage1;  ///< Tendencies evaluated at the step's start state.
  SweTendencies stage2;  ///< Tendencies evaluated at the predicted state.
};

/// All four stages' tendencies of one classical RK4 step, exported for the
/// compressed-form stepper: with s = dt/6 and t = dt/3 the step applies
///   u'   = u + s*du1 + t*du2 + t*du3 + s*du4,
///   v'   = v + s*dv1 + t*dv2 + t*dv3 + s*dv4,
///   eta' = eta - s*fx1 - s*fy1 - t*fx2 - t*fy2 - t*fx3 - t*fy3 - s*fx4 - s*fy4,
/// so a compressed shadow of the height advances by one fused 9-operand
/// lincomb per step and each momentum track by one fused 5-operand lincomb.
/// Each stage follows SweTendencies' reuse contract.
struct SweRk4Tendencies {
  SweTendencies stage1;  ///< Evaluated at the step's start state S0.
  SweTendencies stage2;  ///< Evaluated at S0 + (dt/2) k1.
  SweTendencies stage3;  ///< Evaluated at S0 + (dt/2) k2.
  SweTendencies stage4;  ///< Evaluated at S0 + dt k3.
};

/// 2-D shallow-water model on an Arakawa C-grid with forward-backward time
/// stepping: the substrate of the paper's Fig. 4 precision study.
///
/// State: u (nx+1, ny) on x-faces, v (nx, ny+1) on y-faces, and surface
/// height eta (nx, ny) at cell centers over topography
/// H(x, y) = depth - seamount.  Walls are closed (nonperiodic): normal
/// velocities vanish on the boundary.
class ShallowWaterModel {
 public:
  explicit ShallowWaterModel(const SweConfig& config);

  /// Advance one forward-backward step, then round the state through the
  /// configured precision.
  void step();

  /// step(), additionally exporting the tendency fields the step applied so
  /// a compressed shadow of the state can be advanced by the same update
  /// (one fused lincomb per field) without re-deriving the physics.  The
  /// arithmetic is identical to step(): the tendencies are the exact values
  /// the state update multiplied by dt.  Passing the same struct every step
  /// reuses its storage (see SweTendencies); a null @p tendencies is step().
  void step(SweTendencies* tendencies);

  /// Advance one RK2 (Heun) step built from two forward-backward stages:
  /// stage 1 is a full step() from the current state (its applied update is
  /// the predictor), stage 2 evaluates the same operator at the predicted
  /// state, and the final state is the start state advanced by the average
  /// of the two stages' updates, rounded through the configured precision.
  /// Counts as ONE step in steps_taken().
  void step_rk2();

  /// step_rk2(), additionally exporting both stages' tendency fields so a
  /// compressed shadow can advance by the identical 2-stage combine — a
  /// 5-term expression for height, 3-term for each momentum component
  /// (sim/compressed_stepper.hpp).  Passing the same struct every step
  /// reuses its storage; a null @p tendencies is step_rk2(), whose stage
  /// fields live only for the call.
  void step_rk2(SweRk2Tendencies* tendencies);

  /// Advance one classical RK4 step built from four forward-backward stages:
  /// each stage is one step() whose exported tendencies are k_i; its state
  /// advance is discarded and replaced by the next stage's evaluation point
  /// S0 + c k_i (rounded through the configured precision, like any stored
  /// state).  The final state is S0 advanced by the Simpson-weighted combine
  /// (k1 + 2 k2 + 2 k3 + k4) / 6, rounded through the configured precision.
  /// Counts as ONE step in steps_taken().
  void step_rk4();

  /// step_rk4(), additionally exporting all four stages' tendency fields so
  /// a compressed shadow can advance by the identical 4-stage combine — a
  /// 9-term expression for height, 5-term for each momentum component
  /// (sim/compressed_stepper.hpp).  Passing the same struct every step
  /// reuses its storage; a null @p tendencies is step_rk4(), whose stage
  /// fields live only for the call.
  void step_rk4(SweRk4Tendencies* tendencies);

  /// Advance @p steps steps.
  void run(int steps);

  /// Surface height eta, shaped (nx, ny) — the field Fig. 4 visualizes.
  const NDArray<double>& surface_height() const { return eta_; }

  /// Zonal velocity u at x-faces, shaped (nx+1, ny).
  const NDArray<double>& velocity_u() const { return u_; }

  /// Meridional velocity v at y-faces, shaped (nx, ny+1).
  const NDArray<double>& velocity_v() const { return v_; }

  /// Topography H(x, y) = depth - seamount, shaped (nx, ny).
  const NDArray<double>& topography() const { return depth_field_; }

  /// Domain-integrated surface height (conserved by the closed-basin
  /// continuity equation up to rounding; a test invariant).
  double total_height_anomaly() const;

  /// Largest |u| or |v| (a stability diagnostic).
  double max_speed() const;

  /// Number of steps taken so far.
  int steps_taken() const { return steps_taken_; }

  const SweConfig& config() const { return config_; }

 private:
  void apply_precision();
  /// Copy the state into u0_/v0_/eta0_: the start state S0 of an RK step.
  void save_start_state();

  SweConfig config_;
  double dx_, dy_;
  NDArray<double> u_;            // (nx+1, ny)
  NDArray<double> v_;            // (nx, ny+1)
  NDArray<double> eta_;          // (nx, ny)
  NDArray<double> depth_field_;  // (nx, ny)
  // Wind acceleration at u points, indexed by j: it varies with y only, so
  // one row serves every x-face.
  std::vector<double> wind_u_;
  // Buffers reused across steps, empty until the first step that needs
  // them: the tendencies of a plain step() and the RK start state S0.
  SweTendencies scratch_;
  NDArray<double> u0_, v0_, eta0_;
  int steps_taken_ = 0;
};

}  // namespace sim
