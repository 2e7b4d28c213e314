#include "sim/compressed_stepper.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/ops/ops.hpp"

namespace sim {

namespace ops = pyblaz::ops;

namespace {

double max_abs_difference(const NDArray<double>& a, const NDArray<double>& b) {
  double worst = 0.0;
  for (pyblaz::index_t k = 0; k < a.size(); ++k)
    worst = std::max(worst, std::fabs(a[k] - b[k]));
  return worst;
}

}  // namespace

CompressedStateStepper::CompressedStateStepper(Compressor compressor,
                                               const NDArray<double>& initial,
                                               LincombPath path)
    : compressor_(std::move(compressor)),
      state_(compressor_.compress(initial)),
      path_(path) {}

void CompressedStateStepper::advance_chained(
    const CompressedArray* const* operands, const double* weights,
    std::size_t count, double bias) {
  // The pre-fusion baseline replayed from the expression's term list:
  // multiply_scalar is exact (and a unit weight on the leading state operand
  // is the bit-exact identity), each add rebins, and a bias costs one more
  // rebin via add_scalar.
  CompressedArray acc = ops::multiply_scalar(*operands[0], weights[0]);
  for (std::size_t i = 1; i < count; ++i) {
    acc = ops::add(acc, ops::multiply_scalar(*operands[i], weights[i]));
    ++rebin_passes_;
  }
  if (bias != 0.0) {
    acc = ops::add_scalar(acc, bias);
    ++rebin_passes_;
  }
  state_ = std::move(acc);
}

CompressedShallowWaterStepper::CompressedShallowWaterStepper(
    const SweConfig& config, const CompressorSettings& settings,
    LincombPath path, SweScheme scheme)
    : model_(config),
      height_(Compressor(settings), model_.surface_height(), path),
      u_(Compressor(settings), model_.velocity_u(), path),
      v_(Compressor(settings), model_.velocity_v(), path),
      scheme_(scheme) {}

void CompressedShallowWaterStepper::step() {
  switch (scheme_) {
    case SweScheme::kRk2:
      step_rk2();
      return;
    case SweScheme::kRk4:
      step_rk4();
      return;
    case SweScheme::kForwardBackward:
      break;
  }
  step_forward_backward();
}

void CompressedShallowWaterStepper::step_forward_backward() {
  const SweTendencies& tendencies = fb_stages_;
  model_.step(&fb_stages_);
  const double dt = model_.config().dt;

  // Each track advances by the natural form of the model's own update; every
  // expression flattens to one fused lincomb (one rebin) over the persistent
  // compressed state plus the freshly compressed tendency fields.
  const CompressedArray fx = height_.encode(tendencies.flux_x);
  const CompressedArray fy = height_.encode(tendencies.flux_y);
  height_.advance(height_.state() - dt * (fx + fy));

  const CompressedArray du = u_.encode(tendencies.du);
  u_.advance(u_.state() + dt * du);

  const CompressedArray dv = v_.encode(tendencies.dv);
  v_.advance(v_.state() + dt * dv);
}

void CompressedShallowWaterStepper::step_rk2() {
  const SweRk2Tendencies& stages = rk2_stages_;
  model_.step_rk2(&rk2_stages_);
  const double half_dt = 0.5 * model_.config().dt;

  // The full 2-stage Heun combine per track, still ONE fused lincomb (one
  // rebin) each: 5 operands for height, 3 per momentum component.  The
  // chained replay pays a rebin per binary op, so RK2 is where the fused
  // path's arity advantage is widest.
  const CompressedArray fx1 = height_.encode(stages.stage1.flux_x);
  const CompressedArray fy1 = height_.encode(stages.stage1.flux_y);
  const CompressedArray fx2 = height_.encode(stages.stage2.flux_x);
  const CompressedArray fy2 = height_.encode(stages.stage2.flux_y);
  height_.advance(height_.state() - half_dt * fx1 - half_dt * fy1 -
                  half_dt * fx2 - half_dt * fy2);

  const CompressedArray du1 = u_.encode(stages.stage1.du);
  const CompressedArray du2 = u_.encode(stages.stage2.du);
  u_.advance(u_.state() + half_dt * du1 + half_dt * du2);

  const CompressedArray dv1 = v_.encode(stages.stage1.dv);
  const CompressedArray dv2 = v_.encode(stages.stage2.dv);
  v_.advance(v_.state() + half_dt * dv1 + half_dt * dv2);
}

void CompressedShallowWaterStepper::step_rk4() {
  const SweRk4Tendencies& stages = rk4_stages_;
  model_.step_rk4(&rk4_stages_);
  const double dt = model_.config().dt;
  const double sixth = dt / 6.0;
  const double third = dt / 3.0;

  // The full 4-stage Simpson combine per track, still ONE fused lincomb
  // (one rebin) each: 9 operands for height — the widest expression in the
  // tree — and 5 per momentum component.  The chained replay pays a rebin
  // per binary op (16 per step), so RK4 maximizes the fused path's arity
  // advantage.
  const CompressedArray fx1 = height_.encode(stages.stage1.flux_x);
  const CompressedArray fy1 = height_.encode(stages.stage1.flux_y);
  const CompressedArray fx2 = height_.encode(stages.stage2.flux_x);
  const CompressedArray fy2 = height_.encode(stages.stage2.flux_y);
  const CompressedArray fx3 = height_.encode(stages.stage3.flux_x);
  const CompressedArray fy3 = height_.encode(stages.stage3.flux_y);
  const CompressedArray fx4 = height_.encode(stages.stage4.flux_x);
  const CompressedArray fy4 = height_.encode(stages.stage4.flux_y);
  height_.advance(height_.state() - sixth * fx1 - sixth * fy1 - third * fx2 -
                  third * fy2 - third * fx3 - third * fy3 - sixth * fx4 -
                  sixth * fy4);

  const CompressedArray du1 = u_.encode(stages.stage1.du);
  const CompressedArray du2 = u_.encode(stages.stage2.du);
  const CompressedArray du3 = u_.encode(stages.stage3.du);
  const CompressedArray du4 = u_.encode(stages.stage4.du);
  u_.advance(u_.state() + sixth * du1 + third * du2 + third * du3 +
             sixth * du4);

  const CompressedArray dv1 = v_.encode(stages.stage1.dv);
  const CompressedArray dv2 = v_.encode(stages.stage2.dv);
  const CompressedArray dv3 = v_.encode(stages.stage3.dv);
  const CompressedArray dv4 = v_.encode(stages.stage4.dv);
  v_.advance(v_.state() + sixth * dv1 + third * dv2 + third * dv3 +
             sixth * dv4);
}

void CompressedShallowWaterStepper::run(int steps) {
  for (int k = 0; k < steps; ++k) step();
}

double CompressedShallowWaterStepper::max_abs_height_error() const {
  return max_abs_difference(height_.read(), model_.surface_height());
}

double CompressedShallowWaterStepper::max_abs_u_error() const {
  return max_abs_difference(u_.read(), model_.velocity_u());
}

double CompressedShallowWaterStepper::max_abs_v_error() const {
  return max_abs_difference(v_.read(), model_.velocity_v());
}

CompressedFissionExposure::CompressedFissionExposure(
    const FissionConfig& config, const CompressorSettings& settings,
    LincombPath path)
    : config_(config),
      state_(Compressor(settings), NDArray<double>(config.grid), path),
      reference_(config.grid),
      previous_density_(
          negative_log_density(fission_time_steps().front(), config)),
      previous_compressed_(state_.encode(previous_density_)) {}

bool CompressedFissionExposure::done() const {
  return next_interval_ >= fission_time_steps().size();
}

void CompressedFissionExposure::advance() {
  if (done())
    throw std::logic_error("CompressedFissionExposure: already at the end");
  const std::vector<int>& steps = fission_time_steps();
  NDArray<double> rho_b = negative_log_density(steps[next_interval_], config_);
  CompressedArray rho_b_compressed = state_.encode(rho_b);
  const double half_dt =
      0.5 * static_cast<double>(steps[next_interval_] -
                                steps[next_interval_ - 1]);

  // One trapezoid interval as a single fused expression (one rebin).
  state_.advance(state_.state() + half_dt * previous_compressed_ +
                 half_dt * rho_b_compressed);

  for (pyblaz::index_t k = 0; k < reference_.size(); ++k)
    reference_[k] += half_dt * (previous_density_[k] + rho_b[k]);
  previous_density_ = std::move(rho_b);
  previous_compressed_ = std::move(rho_b_compressed);
  ++next_interval_;
}

void CompressedFissionExposure::run_to_end() {
  while (!done()) advance();
}

double CompressedFissionExposure::max_abs_error() const {
  return max_abs_difference(state_.read(), reference_);
}

}  // namespace sim
