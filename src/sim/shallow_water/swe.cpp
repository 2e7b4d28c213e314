#include "sim/shallow_water/swe.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "core/ndarray/ndarray_ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/util/rng.hpp"

namespace sim {

namespace {

/// Gaussian seamount centered in the basin.
double seamount(double x, double y, const SweConfig& c) {
  const double cx = 0.5 * c.lx;
  const double cy = 0.5 * c.ly;
  const double r2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
  return c.seamount_height * std::exp(-r2 / (2.0 * c.seamount_sigma * c.seamount_sigma));
}

/// Double-gyre zonal wind stress: tau_x(y) = -tau0 cos(2 pi y / Ly), the
/// classic two-cell forcing of wind-driven circulation studies.
double wind_tau_x(double y, const SweConfig& c) {
  return -c.wind_stress * std::cos(2.0 * std::numbers::pi * y / c.ly);
}

/// Give @p field @p shape, reusing its storage when it already has it.
void fit(NDArray<double>& field, const Shape& shape) {
  if (field.shape() != shape) field = NDArray<double>(shape);
}

}  // namespace

ShallowWaterModel::ShallowWaterModel(const SweConfig& config)
    : config_(config),
      dx_(config.lx / static_cast<double>(config.nx)),
      dy_(config.ly / static_cast<double>(config.ny)),
      u_(Shape{config.nx + 1, config.ny}),
      v_(Shape{config.nx, config.ny + 1}),
      eta_(Shape{config.nx, config.ny}),
      depth_field_(Shape{config.nx, config.ny}),
      wind_u_(static_cast<std::size_t>(config.ny)) {
  const index_t nx = config_.nx;
  const index_t ny = config_.ny;

  for (index_t i = 0; i < nx; ++i) {
    for (index_t j = 0; j < ny; ++j) {
      const double x = (static_cast<double>(i) + 0.5) * dx_;
      const double y = (static_cast<double>(j) + 0.5) * dy_;
      depth_field_[i * ny + j] = config_.depth - seamount(x, y, config_);
    }
  }

  // Wind acceleration tau_x / (rho * H) evaluated at u points.
  for (index_t j = 0; j < ny; ++j) {
    const double y = (static_cast<double>(j) + 0.5) * dy_;
    wind_u_[static_cast<std::size_t>(j)] =
        wind_tau_x(y, config_) / (config_.rho * config_.depth);
  }

  // Seed a smooth surface-height perturbation so precision differences have
  // structure to act on from the first step.
  pyblaz::Rng rng(config_.seed);
  NDArray<double> bump = pyblaz::random_smooth(Shape{nx, ny}, rng, 10);
  const double amp = 0.2 / std::max(1e-12, pyblaz::max_abs(bump));
  for (index_t k = 0; k < eta_.size(); ++k) eta_[k] = amp * bump[k];
  apply_precision();
}

void ShallowWaterModel::apply_precision() {
  if (config_.precision == FloatType::kFloat64) return;
  const FloatType p = config_.precision;
  u_.map_inplace([p](double x) { return pyblaz::quantize(x, p); });
  v_.map_inplace([p](double x) { return pyblaz::quantize(x, p); });
  eta_.map_inplace([p](double x) { return pyblaz::quantize(x, p); });
}

void ShallowWaterModel::save_start_state() {
  // Copy-assignment keeps the members' storage once they have the shape.
  u0_ = u_;
  v0_ = v_;
  eta0_ = eta_;
}

void ShallowWaterModel::step() { step(nullptr); }

void ShallowWaterModel::step(SweTendencies* tendencies) {
  const index_t nx = config_.nx;
  const index_t ny = config_.ny;
  const double g = config_.gravity;
  const double dt = config_.dt;
  const double inv_dx = 1.0 / dx_;
  const double inv_dy = 1.0 / dy_;
  const double drag = config_.bottom_friction;
  const double nu = config_.viscosity;

  SweTendencies& t = tendencies ? *tendencies : scratch_;
  fit(t.flux_x, eta_.shape());
  fit(t.flux_y, eta_.shape());
  fit(t.du, u_.shape());
  fit(t.dv, v_.shape());
  // The closed-wall faces, where the velocities are pinned to zero, carry
  // exactly the zero tendency the update contract promises; the stencils
  // below overwrite every other cell.
  for (index_t j = 0; j < ny; ++j) {
    t.du[0 * ny + j] = 0.0;
    t.du[nx * ny + j] = 0.0;
  }
  for (index_t i = 0; i < nx; ++i) {
    t.dv[i * (ny + 1) + 0] = 0.0;
    t.dv[i * (ny + 1) + ny] = 0.0;
  }

  // --- Momentum step (forward): uses current eta. ---
  // du at interior u points (i = 1..nx-1).
  // Each row writes a disjoint slice of du from the previous state, so the
  // tendency is value-deterministic under any chunking.
  pyblaz::parallel::parallel_for(1, nx, 8, [&](index_t row_begin,
                                               index_t row_end) {
  for (index_t i = row_begin; i < row_end; ++i) {
    for (index_t j = 0; j < ny; ++j) {
      const double y = (static_cast<double>(j) + 0.5) * dy_;
      const double f = config_.coriolis_f0 + config_.coriolis_beta * (y - 0.5 * config_.ly);

      // Average v to the u point (free-slip at y walls).
      const double v_avg = 0.25 * (v_[(i - 1) * (ny + 1) + j] +
                                   v_[(i - 1) * (ny + 1) + j + 1] +
                                   v_[i * (ny + 1) + j] + v_[i * (ny + 1) + j + 1]);

      const double deta_dx = (eta_[i * ny + j] - eta_[(i - 1) * ny + j]) * inv_dx;

      // 5-point Laplacian of u (free-slip tangential walls).
      const double u_c = u_[i * ny + j];
      const double u_xm = u_[(i - 1) * ny + j];
      const double u_xp = u_[(i + 1) * ny + j];
      const double u_ym = j > 0 ? u_[i * ny + j - 1] : u_c;
      const double u_yp = j < ny - 1 ? u_[i * ny + j + 1] : u_c;
      const double lap = (u_xp - 2.0 * u_c + u_xm) * inv_dx * inv_dx +
                         (u_yp - 2.0 * u_c + u_ym) * inv_dy * inv_dy;

      t.du[i * ny + j] = f * v_avg - g * deta_dx - drag * u_c + nu * lap +
                         wind_u_[static_cast<std::size_t>(j)];
    }
  }
  });

  // dv at interior v points (j = 1..ny-1).
  pyblaz::parallel::parallel_for(0, nx, 8, [&](index_t row_begin,
                                               index_t row_end) {
  for (index_t i = row_begin; i < row_end; ++i) {
    for (index_t j = 1; j < ny; ++j) {
      const double y = static_cast<double>(j) * dy_;
      const double f = config_.coriolis_f0 + config_.coriolis_beta * (y - 0.5 * config_.ly);

      const double u_avg = 0.25 * (u_[i * ny + j - 1] + u_[i * ny + j] +
                                   u_[(i + 1) * ny + j - 1] + u_[(i + 1) * ny + j]);

      const double deta_dy = (eta_[i * ny + j] - eta_[i * ny + j - 1]) * inv_dy;

      const double v_c = v_[i * (ny + 1) + j];
      const double v_xm = i > 0 ? v_[(i - 1) * (ny + 1) + j] : v_c;
      const double v_xp = i < nx - 1 ? v_[(i + 1) * (ny + 1) + j] : v_c;
      const double v_ym = v_[i * (ny + 1) + j - 1];
      const double v_yp = v_[i * (ny + 1) + j + 1];
      const double lap = (v_xp - 2.0 * v_c + v_xm) * inv_dx * inv_dx +
                         (v_yp - 2.0 * v_c + v_ym) * inv_dy * inv_dy;

      t.dv[i * (ny + 1) + j] = -f * u_avg - g * deta_dy - drag * v_c + nu * lap;
    }
  }
  });

  // Both stencils have read the old velocities, so the update applies in
  // place: u' = u + dt * du, the exact value and spelling the exported
  // tendency promises (-ffp-contract=off keeps it bit-identical).  Row i
  // holds u's row i and, for i < nx, v's row i.
  pyblaz::parallel::parallel_for(0, nx + 1, 8, [&](index_t row_begin,
                                                   index_t row_end) {
    for (index_t i = row_begin; i < row_end; ++i) {
      for (index_t k = i * ny; k < (i + 1) * ny; ++k)
        u_[k] = u_[k] + dt * t.du[k];
      if (i == nx) continue;
      for (index_t k = i * (ny + 1); k < (i + 1) * (ny + 1); ++k)
        v_[k] = v_[k] + dt * t.dv[k];
    }
  });
  // Closed walls: zero normal flow.
  for (index_t j = 0; j < ny; ++j) {
    u_[0 * ny + j] = 0.0;
    u_[nx * ny + j] = 0.0;
  }
  for (index_t i = 0; i < nx; ++i) {
    v_[i * (ny + 1) + 0] = 0.0;
    v_[i * (ny + 1) + ny] = 0.0;
  }

  // --- Continuity step (backward): uses the new velocities. ---
  // d(eta)/dt = -div(H u), with H interpolated to faces.
  pyblaz::parallel::parallel_for(0, nx, 8, [&](index_t row_begin,
                                               index_t row_end) {
  for (index_t i = row_begin; i < row_end; ++i) {
    for (index_t j = 0; j < ny; ++j) {
      const double h_c = depth_field_[i * ny + j];
      const double h_xm = i > 0 ? 0.5 * (h_c + depth_field_[(i - 1) * ny + j]) : h_c;
      const double h_xp = i < nx - 1 ? 0.5 * (h_c + depth_field_[(i + 1) * ny + j]) : h_c;
      const double h_ym = j > 0 ? 0.5 * (h_c + depth_field_[i * ny + j - 1]) : h_c;
      const double h_yp = j < ny - 1 ? 0.5 * (h_c + depth_field_[i * ny + j + 1]) : h_c;

      const double flux_x = (h_xp * u_[(i + 1) * ny + j] - h_xm * u_[i * ny + j]) * inv_dx;
      const double flux_y = (h_yp * v_[i * (ny + 1) + j + 1] - h_ym * v_[i * (ny + 1) + j]) * inv_dy;

      eta_[i * ny + j] -= dt * (flux_x + flux_y);
      t.flux_x[i * ny + j] = flux_x;
      t.flux_y[i * ny + j] = flux_y;
    }
  }
  });

  apply_precision();
  ++steps_taken_;
}

void ShallowWaterModel::step_rk2() { step_rk2(nullptr); }

void ShallowWaterModel::step_rk2(SweRk2Tendencies* tendencies) {
  SweRk2Tendencies local;
  SweRk2Tendencies* stages = tendencies ? tendencies : &local;

  save_start_state();
  const NDArray<double>& u0 = u0_;
  const NDArray<double>& v0 = v0_;
  const NDArray<double>& eta0 = eta0_;

  // Heun over the forward-backward operator: stage 1 is a full FB step from
  // the start state (its exported tendencies are k1 and its result the
  // predicted state); stage 2 evaluates the operator once more at the
  // predicted state to get k2.  The second step's state advance is
  // discarded — the corrector below rebuilds the final state from S0.
  step(&stages->stage1);
  step(&stages->stage2);
  steps_taken_ -= 1;  // The two inner stages count as one RK2 step.

  const double half_dt = 0.5 * config_.dt;
  const SweTendencies& k1 = stages->stage1;
  const SweTendencies& k2 = stages->stage2;

  // Corrector: S' = S0 + (dt/2) k1 + (dt/2) k2, spelled term by term so the
  // compressed shadow tracks advance by the exact same combine — a 5-term
  // expression for height, 3-term for each momentum component (test-pinned;
  // -ffp-contract=off keeps both spellings bit-identical).  Closed-wall
  // faces carry zero tendencies in both stages, so walls stay pinned.
  pyblaz::parallel::parallel_for(
      0, u_.size(), pyblaz::parallel::default_grain(u_.size()),
      [&](index_t begin, index_t end) {
        for (index_t k = begin; k < end; ++k)
          u_[k] = u0[k] + half_dt * k1.du[k] + half_dt * k2.du[k];
      });
  pyblaz::parallel::parallel_for(
      0, v_.size(), pyblaz::parallel::default_grain(v_.size()),
      [&](index_t begin, index_t end) {
        for (index_t k = begin; k < end; ++k)
          v_[k] = v0[k] + half_dt * k1.dv[k] + half_dt * k2.dv[k];
      });
  pyblaz::parallel::parallel_for(
      0, eta_.size(), pyblaz::parallel::default_grain(eta_.size()),
      [&](index_t begin, index_t end) {
        for (index_t k = begin; k < end; ++k)
          eta_[k] = eta0[k] - half_dt * k1.flux_x[k] - half_dt * k1.flux_y[k] -
                    half_dt * k2.flux_x[k] - half_dt * k2.flux_y[k];
      });
  apply_precision();
}

void ShallowWaterModel::step_rk4() { step_rk4(nullptr); }

void ShallowWaterModel::step_rk4(SweRk4Tendencies* tendencies) {
  SweRk4Tendencies local;
  SweRk4Tendencies* stages = tendencies ? tendencies : &local;

  save_start_state();
  const NDArray<double>& u0 = u0_;
  const NDArray<double>& v0 = v0_;
  const NDArray<double>& eta0 = eta0_;

  const double dt = config_.dt;

  // Repositions the state at the next stage's evaluation point S0 + c k,
  // discarding the previous stage's own advance.  Rounded through the
  // configured precision like any stored state, so every stage evaluates
  // the operator at a representable state.
  const auto seek = [&](const SweTendencies& k, double c) {
    pyblaz::parallel::parallel_for(
        0, u_.size(), pyblaz::parallel::default_grain(u_.size()),
        [&](index_t begin, index_t end) {
          for (index_t i = begin; i < end; ++i) u_[i] = u0[i] + c * k.du[i];
        });
    pyblaz::parallel::parallel_for(
        0, v_.size(), pyblaz::parallel::default_grain(v_.size()),
        [&](index_t begin, index_t end) {
          for (index_t i = begin; i < end; ++i) v_[i] = v0[i] + c * k.dv[i];
        });
    pyblaz::parallel::parallel_for(
        0, eta_.size(), pyblaz::parallel::default_grain(eta_.size()),
        [&](index_t begin, index_t end) {
          for (index_t i = begin; i < end; ++i)
            eta_[i] = eta0[i] - c * k.flux_x[i] - c * k.flux_y[i];
        });
    apply_precision();
  };

  // Classical RK4 over the forward-backward operator: each stage is one FB
  // step whose exported tendencies are k_i; its state advance is discarded
  // in favor of the next evaluation point.
  step(&stages->stage1);
  seek(stages->stage1, 0.5 * dt);
  step(&stages->stage2);
  seek(stages->stage2, 0.5 * dt);
  step(&stages->stage3);
  seek(stages->stage3, dt);
  step(&stages->stage4);
  steps_taken_ -= 3;  // The four inner stages count as one RK4 step.

  const double sixth = dt / 6.0;
  const double third = dt / 3.0;
  const SweTendencies& k1 = stages->stage1;
  const SweTendencies& k2 = stages->stage2;
  const SweTendencies& k3 = stages->stage3;
  const SweTendencies& k4 = stages->stage4;

  // Corrector: S' = S0 + (dt/6) k1 + (dt/3) k2 + (dt/3) k3 + (dt/6) k4,
  // spelled term by term so the compressed shadow tracks advance by the
  // exact same combine — a 9-term expression for height, 5-term for each
  // momentum component (test-pinned; -ffp-contract=off keeps both spellings
  // bit-identical).  Closed-wall faces carry zero tendencies in every
  // stage, so walls stay pinned.
  pyblaz::parallel::parallel_for(
      0, u_.size(), pyblaz::parallel::default_grain(u_.size()),
      [&](index_t begin, index_t end) {
        for (index_t k = begin; k < end; ++k)
          u_[k] = u0[k] + sixth * k1.du[k] + third * k2.du[k] +
                  third * k3.du[k] + sixth * k4.du[k];
      });
  pyblaz::parallel::parallel_for(
      0, v_.size(), pyblaz::parallel::default_grain(v_.size()),
      [&](index_t begin, index_t end) {
        for (index_t k = begin; k < end; ++k)
          v_[k] = v0[k] + sixth * k1.dv[k] + third * k2.dv[k] +
                  third * k3.dv[k] + sixth * k4.dv[k];
      });
  pyblaz::parallel::parallel_for(
      0, eta_.size(), pyblaz::parallel::default_grain(eta_.size()),
      [&](index_t begin, index_t end) {
        for (index_t k = begin; k < end; ++k)
          eta_[k] = eta0[k] - sixth * k1.flux_x[k] - sixth * k1.flux_y[k] -
                    third * k2.flux_x[k] - third * k2.flux_y[k] -
                    third * k3.flux_x[k] - third * k3.flux_y[k] -
                    sixth * k4.flux_x[k] - sixth * k4.flux_y[k];
      });
  apply_precision();
}

void ShallowWaterModel::run(int steps) {
  for (int k = 0; k < steps; ++k) step();
}

double ShallowWaterModel::total_height_anomaly() const {
  double total = 0.0;
  for (index_t k = 0; k < eta_.size(); ++k) total += eta_[k];
  return total * dx_ * dy_;
}

double ShallowWaterModel::max_speed() const {
  return std::max(pyblaz::max_abs(u_), pyblaz::max_abs(v_));
}

}  // namespace sim
