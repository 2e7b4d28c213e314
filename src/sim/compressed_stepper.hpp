#pragma once

#include <cstddef>

#include "core/codec/compressor.hpp"
#include "core/ndarray/ndarray.hpp"
#include "core/ops/expr.hpp"
#include "sim/fission/fission.hpp"
#include "sim/shallow_water/swe.hpp"

namespace sim {

using pyblaz::CompressedArray;
using pyblaz::Compressor;
using pyblaz::CompressorSettings;
using pyblaz::LinExpr;

/// How a multi-term compressed-state update is evaluated.
enum class LincombPath {
  /// One ops::lincomb call over all terms: a single terminal rebin per
  /// update — fewer passes and a tighter error bound (rebinning is the only
  /// error source of compressed addition).
  kFused,
  /// The pre-fusion baseline: a chained ops::multiply_scalar + ops::add per
  /// term (one rebin each).  Kept so benchmarks and tests can quantify what
  /// fusion buys.
  kChained,
};

/// Persistent compressed simulation state advanced by linear-combination
/// updates, never round-tripping through NDArray: the state decompresses
/// only when a caller explicitly asks (read()), not per step.  Updates are
/// written as natural expressions over the expression-template front end
/// (core/ops/expr.hpp) —
///
///     stepper.advance(stepper.state() - dt * (fx + fy));
///
/// — and evaluate either as one fused lincomb (one rebin) or, under
/// LincombPath::kChained, as the per-term multiply/add baseline the same
/// expression structure describes (one rebin per binary op).
class CompressedStateStepper {
 public:
  /// Compresses @p initial once; every later update stays in (N, F) form.
  CompressedStateStepper(Compressor compressor, const NDArray<double>& initial,
                         LincombPath path = LincombPath::kFused);

  /// Compress a fresh raw field into the state's layout.  New data has to
  /// enter compressed space somewhere (typically a just-produced tendency
  /// field); the state itself never decompresses.
  CompressedArray encode(const NDArray<double>& field) const {
    return compressor_.compress(field);
  }

  /// state <- the given expression (which normally references state()
  /// itself, e.g. `state() + dt * tendency`).  Fused: the expression's own
  /// single-lincomb evaluation, one rebin.  Chained: the same (operand,
  /// weight) list replayed as the pre-fusion multiply_scalar/add/add_scalar
  /// chain for comparison runs.
  template <std::size_t N>
  void advance(const LinExpr<N>& update) {
    if (path_ == LincombPath::kFused) {
      state_ = update.eval();
      ++rebin_passes_;
      return;
    }
    advance_chained(update.operands.data(), update.weights.data(), N,
                    update.bias);
  }

  const CompressedArray& state() const { return state_; }

  /// Decompress the current state (diagnostics/output path only).
  NDArray<double> read() const { return compressor_.decompress(state_); }

  const Compressor& compressor() const { return compressor_; }
  LincombPath path() const { return path_; }

  /// Rebin passes applied to the state so far — the quantity the fused path
  /// minimizes (each pass is both a sweep over the coefficients and the sole
  /// error source of Table I addition).
  long rebin_passes() const { return rebin_passes_; }

 private:
  void advance_chained(const CompressedArray* const* operands,
                       const double* weights, std::size_t count, double bias);

  Compressor compressor_;
  CompressedArray state_;
  LincombPath path_;
  long rebin_passes_ = 0;
};

/// Time scheme of the compressed shallow-water stepper.
enum class SweScheme {
  /// One forward-backward stage per step (the model's native scheme): each
  /// track advances by one 2- or 3-operand expression.
  kForwardBackward,
  /// RK2 (Heun) built from two forward-backward stages
  /// (ShallowWaterModel::step_rk2): the height track advances by one fused
  /// 5-operand expression per step — the `compressed_lincomb5` bench shape,
  /// exercised end to end — and each momentum track by a 3-operand one.
  kRk2,
  /// Classical RK4 built from four forward-backward stages
  /// (ShallowWaterModel::step_rk4): the height track advances by one fused
  /// 9-operand expression per step (state + all eight stage flux fields)
  /// and each momentum track by a 5-operand one — the widest fused combine
  /// in the tree, still one rebin per track per step.
  kRk4,
};

/// Compressed-form shallow-water stepping with the FULL prognostic state —
/// height, u, and v — living as persistent compressed tracks (the regime
/// ZFP inline-compression stability analyses study: every iterative field
/// compressed across steps, not just one diagnostic).  The C-grid model
/// advances normally and exports the exact tendencies it applied
/// (ShallowWaterModel::step(SweTendencies*)); each track then advances by
/// one natural expression —
///
///     height: h' = h - dt * (fx + fy)      (one fused 3-operand lincomb)
///     u:      u' = u + dt * du             (one fused 2-operand lincomb)
///     v:      v' = v + dt * dv
///
/// — so the only raw-data touchpoint is one compression of each fresh
/// tendency field.  Under SweScheme::kRk2 the model takes Heun steps
/// (step_rk2) and each track's expression widens to both stages' tendencies
/// (height: h - (dt/2)(fx1 + fy1 + fx2 + fy2) as ONE 5-operand lincomb) —
/// still one rebin per track per step.  Run with SweConfig::precision ==
/// kFloat64 (the default) so the raw model applies exactly the exported
/// tendencies.
class CompressedShallowWaterStepper {
 public:
  CompressedShallowWaterStepper(const SweConfig& config,
                                const CompressorSettings& settings,
                                LincombPath path = LincombPath::kFused,
                                SweScheme scheme = SweScheme::kForwardBackward);

  /// One model step + one fused update per compressed track: three rebins
  /// total when fused, regardless of scheme (every expression is one
  /// lincomb).  Chained pays one rebin per binary op instead: four under
  /// kForwardBackward (two for the 3-term height update, one per 2-term
  /// momentum update), eight under kRk2 (four for the 5-term height
  /// update, two per 3-term momentum update), and sixteen under kRk4
  /// (eight for the 9-term height update, four per 5-term momentum
  /// update) — the arity gap RK-style combines exist to measure.
  void step();
  void run(int steps);

  const ShallowWaterModel& model() const { return model_; }
  SweScheme scheme() const { return scheme_; }

  const CompressedArray& compressed_height() const { return height_.state(); }
  const CompressedArray& compressed_u() const { return u_.state(); }
  const CompressedArray& compressed_v() const { return v_.state(); }

  NDArray<double> decompressed_height() const { return height_.read(); }
  NDArray<double> decompressed_u() const { return u_.read(); }
  NDArray<double> decompressed_v() const { return v_.read(); }

  /// max |decompressed track - model field|: the accumulated
  /// compressed-stepping error of each track vs. the uncompressed reference.
  double max_abs_height_error() const;
  double max_abs_u_error() const;
  double max_abs_v_error() const;

  /// Total rebin passes across the three tracks.
  long rebin_passes() const {
    return height_.rebin_passes() + u_.rebin_passes() + v_.rebin_passes();
  }

 private:
  void step_forward_backward();
  void step_rk2();
  void step_rk4();

  ShallowWaterModel model_;
  CompressedStateStepper height_;
  CompressedStateStepper u_;
  CompressedStateStepper v_;
  SweScheme scheme_;
  // The model's tendency output, one struct per scheme, passed on every
  // step so its fields are allocated on the first step and reused after
  // (only the running scheme's struct ever holds storage).
  SweTendencies fb_stages_;
  SweRk2Tendencies rk2_stages_;
  SweRk4Tendencies rk4_stages_;
};

/// Compressed-form fission exposure integral: the trapezoid-rule time
/// integral of the negative-log neutron density over the dataset's sampled
/// steps, E += (Δt/2) ρ_k + (Δt/2) ρ_{k+1}, accumulated as persistent
/// compressed state (fused: one 3-operand lincomb per interval; chained: two
/// rebins).  Also maintains the exact uncompressed integral for error
/// accounting.
class CompressedFissionExposure {
 public:
  CompressedFissionExposure(const FissionConfig& config,
                            const CompressorSettings& settings,
                            LincombPath path = LincombPath::kFused);

  /// True once every sampled interval has been accumulated.
  bool done() const;

  /// Accumulate the next trapezoid interval.
  void advance();
  void run_to_end();

  const CompressedArray& exposure() const { return state_.state(); }
  NDArray<double> decompressed_exposure() const { return state_.read(); }

  /// The exact (uncompressed, double) trapezoid integral over the same
  /// intervals advanced so far.
  const NDArray<double>& reference_exposure() const { return reference_; }

  /// max |decompressed exposure - reference exposure|.
  double max_abs_error() const;

  long rebin_passes() const { return state_.rebin_passes(); }

 private:
  FissionConfig config_;
  CompressedStateStepper state_;
  NDArray<double> reference_;
  // The previous interval's right endpoint, cached raw and compressed:
  // adjacent trapezoids share it, so each sampled density is generated and
  // compressed exactly once across the whole integral.
  NDArray<double> previous_density_;
  CompressedArray previous_compressed_;
  std::size_t next_interval_ = 1;
};

}  // namespace sim
