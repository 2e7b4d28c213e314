/// The compressed-form simulation stepper (src/sim/compressed_stepper.*):
/// persistent compressed state advanced by natural expression-template
/// updates.  Pins the acceptance properties — full compressed u/v/h SWE
/// stepping tracks the uncompressed reference within the chained-path error
/// envelope, momentum tendencies reconstruct the model's own update exactly
/// — plus rebin accounting (fused does one pass per track per update), the
/// fission exposure integral, thread-count invariance, and the generic
/// expression-advance engine.

#include "sim/compressed_stepper.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/codec/serialization.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/expr.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/util/rng.hpp"

namespace pyblaz {
namespace {

CompressorSettings swe_track_settings() {
  return {.block_shape = Shape{16, 16},
          .float_type = FloatType::kFloat32,
          .index_type = IndexType::kInt16};
}

sim::SweConfig small_swe() {
  sim::SweConfig config;
  config.nx = 32;
  config.ny = 64;
  config.lx = 3.2e5;
  config.ly = 6.4e5;
  config.seamount_sigma = 4e4;
  return config;
}

TEST(SweTendencies, StepWithTendenciesMatchesPlainStep) {
  // Exporting the tendencies must not perturb the model: two models from the
  // same config, one stepping plainly and one exporting, stay bit-identical.
  sim::ShallowWaterModel plain(small_swe());
  sim::ShallowWaterModel exporting(small_swe());
  for (int k = 0; k < 5; ++k) {
    plain.step();
    sim::SweTendencies tendencies;
    exporting.step(&tendencies);
    ASSERT_EQ(tendencies.flux_x.shape(), plain.surface_height().shape());
    ASSERT_EQ(tendencies.flux_y.shape(), plain.surface_height().shape());
    ASSERT_EQ(tendencies.du.shape(), plain.velocity_u().shape());
    ASSERT_EQ(tendencies.dv.shape(), plain.velocity_v().shape());
  }
  EXPECT_EQ(plain.surface_height(), exporting.surface_height());
  EXPECT_EQ(plain.velocity_u(), exporting.velocity_u());
  EXPECT_EQ(plain.velocity_v(), exporting.velocity_v());
  EXPECT_EQ(plain.max_speed(), exporting.max_speed());
}

TEST(SweTendencies, TendenciesReconstructTheHeightUpdate) {
  // eta' = eta - dt * flux_x - dt * flux_y, exactly the update the model
  // applied (float64 precision, so no post-step rounding intervenes).
  sim::ShallowWaterModel model(small_swe());
  model.run(3);
  const NDArray<double> before = model.surface_height();
  sim::SweTendencies tendencies;
  model.step(&tendencies);
  const NDArray<double>& after = model.surface_height();
  const double dt = model.config().dt;
  for (index_t k = 0; k < after.size(); ++k) {
    const double reconstructed =
        before[k] - dt * (tendencies.flux_x[k] + tendencies.flux_y[k]);
    EXPECT_NEAR(after[k], reconstructed, 1e-15) << "cell " << k;
  }
}

TEST(SweTendencies, TendenciesReconstructTheMomentumUpdates) {
  // u' = u + dt * du and v' = v + dt * dv, bit-exactly: the model applies
  // the named tendency locals it exports, and the closed-wall faces carry
  // zero tendency (the velocities there are pinned to zero).
  sim::ShallowWaterModel model(small_swe());
  model.run(3);
  const NDArray<double> u_before = model.velocity_u();
  const NDArray<double> v_before = model.velocity_v();
  sim::SweTendencies tendencies;
  model.step(&tendencies);
  const double dt = model.config().dt;

  const NDArray<double>& u_after = model.velocity_u();
  for (index_t k = 0; k < u_after.size(); ++k)
    EXPECT_EQ(u_after[k], u_before[k] + dt * tendencies.du[k]) << "u " << k;
  const NDArray<double>& v_after = model.velocity_v();
  for (index_t k = 0; k < v_after.size(); ++k)
    EXPECT_EQ(v_after[k], v_before[k] + dt * tendencies.dv[k]) << "v " << k;

  // Wall faces: u is pinned on the x-walls, v on the y-walls.
  const index_t nx = model.config().nx;
  const index_t ny = model.config().ny;
  for (index_t j = 0; j < ny; ++j) {
    EXPECT_EQ(tendencies.du[0 * ny + j], 0.0);
    EXPECT_EQ(tendencies.du[nx * ny + j], 0.0);
  }
  for (index_t i = 0; i < nx; ++i) {
    EXPECT_EQ(tendencies.dv[i * (ny + 1) + 0], 0.0);
    EXPECT_EQ(tendencies.dv[i * (ny + 1) + ny], 0.0);
  }
}

// ---------------------------------------------------------------------------
// The reuse contract: a tendencies struct passed on every step keeps its
// storage, and what it holds equals a fresh struct's, bit for bit.

constexpr NDArray<double> sim::SweTendencies::*kTendencyFields[] = {
    &sim::SweTendencies::flux_x, &sim::SweTendencies::flux_y,
    &sim::SweTendencies::du, &sim::SweTendencies::dv};

std::vector<sim::SweTendencies*> stages_of(sim::SweTendencies& t) {
  return {&t};
}
std::vector<sim::SweTendencies*> stages_of(sim::SweRk2Tendencies& t) {
  return {&t.stage1, &t.stage2};
}
std::vector<sim::SweTendencies*> stages_of(sim::SweRk4Tendencies& t) {
  return {&t.stage1, &t.stage2, &t.stage3, &t.stage4};
}

void step_with(sim::ShallowWaterModel& model, sim::SweTendencies* t) {
  model.step(t);
}
void step_with(sim::ShallowWaterModel& model, sim::SweRk2Tendencies* t) {
  model.step_rk2(t);
}
void step_with(sim::ShallowWaterModel& model, sim::SweRk4Tendencies* t) {
  model.step_rk4(t);
}

/// Raw-bit equality: unlike ==, it tells NaN from NaN and -0 from +0.
bool same_bits(const NDArray<double>& a, const NDArray<double>& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * a.vector().size()) == 0;
}

bool same_state(const sim::ShallowWaterModel& a,
                const sim::ShallowWaterModel& b) {
  return same_bits(a.velocity_u(), b.velocity_u()) &&
         same_bits(a.velocity_v(), b.velocity_v()) &&
         same_bits(a.surface_height(), b.surface_height());
}

/// Steps one model with @p reused (its fields pre-set by the caller) and
/// another with a fresh struct per step, checking the contract each step.
template <typename Stages>
void check_reuse_contract(Stages& reused) {
  const sim::SweConfig config = small_swe();
  const index_t nx = config.nx;
  const index_t ny = config.ny;
  sim::ShallowWaterModel reusing(config);
  sim::ShallowWaterModel fresh(config);
  std::vector<const double*> first_pointers;
  for (int step = 0; step < 5; ++step) {
    Stages each;
    step_with(reusing, &reused);
    step_with(fresh, &each);
    ASSERT_TRUE(same_state(reusing, fresh)) << "step " << step;

    const std::vector<sim::SweTendencies*> got = stages_of(reused);
    const std::vector<sim::SweTendencies*> want = stages_of(each);
    std::vector<const double*> pointers;
    for (std::size_t s = 0; s < got.size(); ++s) {
      for (auto field : kTendencyFields) {
        ASSERT_TRUE(same_bits(got[s]->*field, want[s]->*field))
            << "step " << step << " stage " << s;
        pointers.push_back((got[s]->*field).data());
      }
      // Wall faces hold +0 exactly (all bits clear).
      for (index_t j = 0; j < ny; ++j) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[s]->du[0 * ny + j]), 0u);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[s]->du[nx * ny + j]), 0u);
      }
      for (index_t i = 0; i < nx; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[s]->dv[i * (ny + 1)]), 0u);
        EXPECT_EQ(
            std::bit_cast<std::uint64_t>(got[s]->dv[i * (ny + 1) + ny]), 0u);
      }
    }
    // No field is reallocated after the first step.
    if (step == 0)
      first_pointers = pointers;
    else
      EXPECT_EQ(pointers, first_pointers) << "step " << step;
  }
}

/// @p stages with every field at its step shape and filled with NaN, so a
/// cell the step failed to overwrite shows in the bit comparison.
template <typename Stages>
Stages nan_filled() {
  const sim::SweConfig config = small_swe();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Stages stages;
  for (sim::SweTendencies* t : stages_of(stages)) {
    t->flux_x = NDArray<double>(Shape{config.nx, config.ny}, nan);
    t->flux_y = NDArray<double>(Shape{config.nx, config.ny}, nan);
    t->du = NDArray<double>(Shape{config.nx + 1, config.ny}, nan);
    t->dv = NDArray<double>(Shape{config.nx, config.ny + 1}, nan);
  }
  return stages;
}

TEST(SweTendencies, ReusedStructMatchesFreshStructsForwardBackward) {
  auto stages = nan_filled<sim::SweTendencies>();
  check_reuse_contract(stages);
}

TEST(SweTendencies, ReusedStructMatchesFreshStructsRk2) {
  auto stages = nan_filled<sim::SweRk2Tendencies>();
  check_reuse_contract(stages);
}

TEST(SweTendencies, ReusedStructMatchesFreshStructsRk4) {
  auto stages = nan_filled<sim::SweRk4Tendencies>();
  check_reuse_contract(stages);
}

TEST(SweTendencies, WrongShapedFieldsAreResized) {
  // Transposed, flattened, empty, and one row short: each is reallocated to
  // its step shape and then holds what a fresh struct holds.
  const sim::SweConfig config = small_swe();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  sim::SweTendencies stages;
  stages.flux_x = NDArray<double>(Shape{config.ny, config.nx}, nan);
  stages.du = NDArray<double>(Shape{(config.nx + 1) * config.ny}, nan);
  stages.dv = NDArray<double>(Shape{config.nx - 1, config.ny + 1}, nan);
  check_reuse_contract(stages);
  EXPECT_EQ(stages.flux_x.shape(), Shape({config.nx, config.ny}));
  EXPECT_EQ(stages.flux_y.shape(), Shape({config.nx, config.ny}));
  EXPECT_EQ(stages.du.shape(), Shape({config.nx + 1, config.ny}));
  EXPECT_EQ(stages.dv.shape(), Shape({config.nx, config.ny + 1}));
}

TEST(CompressedSweStepper, FusedErrorNoWorseThanChained) {
  // The acceptance property: compressed-form stepping (one fused lincomb per
  // track per step) tracks the uncompressed reference at least as accurately
  // as the chained per-op path it replaces.  The 3-term height update does
  // strictly fewer rebins fused (1 vs 2), so its bound is strict; the 2-term
  // momentum updates rebin once on both paths and differ only in the chained
  // path's float-type rounding of the scaled bin scales, so u/v are pinned
  // to the chained-path error *envelope* rather than strict dominance.
  const int steps = 30;
  sim::CompressedShallowWaterStepper fused(small_swe(), swe_track_settings(),
                                           sim::LincombPath::kFused);
  sim::CompressedShallowWaterStepper chained(small_swe(), swe_track_settings(),
                                             sim::LincombPath::kChained);
  fused.run(steps);
  chained.run(steps);

  // Both steppers advanced the same model trajectory.
  EXPECT_EQ(fused.model().surface_height(), chained.model().surface_height());
  EXPECT_EQ(fused.model().velocity_u(), chained.model().velocity_u());

  const double fused_h = fused.max_abs_height_error();
  const double chained_h = chained.max_abs_height_error();
  EXPECT_LE(fused_h, chained_h + 1e-12);

  const double fused_u = fused.max_abs_u_error();
  const double chained_u = chained.max_abs_u_error();
  EXPECT_LE(fused_u, 1.05 * chained_u + 1e-12);
  const double fused_v = fused.max_abs_v_error();
  const double chained_v = chained.max_abs_v_error();
  EXPECT_LE(fused_v, 1.05 * chained_v + 1e-12);

  // And every compressed track is a faithful shadow of its reference field.
  const double h_scale = max_abs(fused.model().surface_height());
  ASSERT_GT(h_scale, 0.0);
  EXPECT_LT(fused_h, 0.05 * h_scale);
  const double u_scale = max_abs(fused.model().velocity_u());
  ASSERT_GT(u_scale, 0.0);
  EXPECT_LT(fused_u, 0.05 * u_scale);
  const double v_scale = max_abs(fused.model().velocity_v());
  ASSERT_GT(v_scale, 0.0);
  EXPECT_LT(fused_v, 0.05 * v_scale);
}

TEST(CompressedSweStepper, RebinAccounting) {
  // Fused: one rebin per track per step (h, u, v).  Chained: one per binary
  // op — two for the 3-term height update, one for each 2-term momentum
  // update.
  const int steps = 4;
  sim::CompressedShallowWaterStepper fused(small_swe(), swe_track_settings(),
                                           sim::LincombPath::kFused);
  sim::CompressedShallowWaterStepper chained(small_swe(), swe_track_settings(),
                                             sim::LincombPath::kChained);
  fused.run(steps);
  chained.run(steps);
  EXPECT_EQ(fused.rebin_passes(), 3 * steps);
  EXPECT_EQ(chained.rebin_passes(), 4 * steps);
}

TEST(CompressedSweStepper, BitIdenticalAcrossThreadCounts) {
  auto run_track = [] {
    sim::CompressedShallowWaterStepper stepper(
        small_swe(), swe_track_settings(), sim::LincombPath::kFused);
    stepper.run(3);
    return std::make_tuple(
        stepper.compressed_height().biggest, stepper.compressed_height().indices,
        stepper.compressed_u().biggest, stepper.compressed_u().indices,
        stepper.compressed_v().biggest, stepper.compressed_v().indices);
  };
  parallel::set_num_threads(1);
  const auto reference = run_track();
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    EXPECT_EQ(run_track(), reference) << threads << " threads";
  }
  parallel::set_num_threads(0);
}

// ---------------------------------------------------------------------------
// RK2 (Heun) on the expression front end: the height track advances by one
// fused 5-operand expression per step (the compressed_lincomb5 bench shape
// end to end), each momentum track by a 3-operand one.

TEST(CompressedSweStepperRk2, TracksReferenceAndFusedHeightBeatsChained) {
  const int steps = 15;
  sim::CompressedShallowWaterStepper fused(small_swe(), swe_track_settings(),
                                           sim::LincombPath::kFused,
                                           sim::SweScheme::kRk2);
  sim::CompressedShallowWaterStepper chained(small_swe(), swe_track_settings(),
                                             sim::LincombPath::kChained,
                                             sim::SweScheme::kRk2);
  fused.run(steps);
  chained.run(steps);

  EXPECT_EQ(fused.model().steps_taken(), steps);
  EXPECT_EQ(fused.model().surface_height(), chained.model().surface_height());

  // 5-term height update: 1 rebin fused vs 4 chained — strict dominance,
  // and the widest arity gap the SWE stepper exercises.
  EXPECT_LE(fused.max_abs_height_error(),
            chained.max_abs_height_error() + 1e-12);
  // 3-term momentum updates: 1 rebin fused vs 2 chained.
  EXPECT_LE(fused.max_abs_u_error(), chained.max_abs_u_error() + 1e-12);
  EXPECT_LE(fused.max_abs_v_error(), chained.max_abs_v_error() + 1e-12);

  // Every compressed track faithfully shadows its RK2 reference field.
  const double h_scale = max_abs(fused.model().surface_height());
  ASSERT_GT(h_scale, 0.0);
  EXPECT_LT(fused.max_abs_height_error(), 0.05 * h_scale);
  const double u_scale = max_abs(fused.model().velocity_u());
  ASSERT_GT(u_scale, 0.0);
  EXPECT_LT(fused.max_abs_u_error(), 0.05 * u_scale);
  const double v_scale = max_abs(fused.model().velocity_v());
  ASSERT_GT(v_scale, 0.0);
  EXPECT_LT(fused.max_abs_v_error(), 0.05 * v_scale);
}

TEST(CompressedSweStepperRk2, RebinAccounting) {
  // Fused: still one rebin per track per step.  Chained: one per binary op —
  // four for the 5-term height combine, two for each 3-term momentum one.
  const int steps = 3;
  sim::CompressedShallowWaterStepper fused(small_swe(), swe_track_settings(),
                                           sim::LincombPath::kFused,
                                           sim::SweScheme::kRk2);
  sim::CompressedShallowWaterStepper chained(small_swe(), swe_track_settings(),
                                             sim::LincombPath::kChained,
                                             sim::SweScheme::kRk2);
  fused.run(steps);
  chained.run(steps);
  EXPECT_EQ(fused.rebin_passes(), 3 * steps);
  EXPECT_EQ(chained.rebin_passes(), 8 * steps);
}

TEST(CompressedSweStepperRk2, BitIdenticalAcrossThreadCounts) {
  auto run_track = [] {
    sim::CompressedShallowWaterStepper stepper(
        small_swe(), swe_track_settings(), sim::LincombPath::kFused,
        sim::SweScheme::kRk2);
    stepper.run(3);
    return std::make_tuple(
        stepper.compressed_height().biggest, stepper.compressed_height().indices,
        stepper.compressed_u().biggest, stepper.compressed_u().indices,
        stepper.compressed_v().biggest, stepper.compressed_v().indices);
  };
  parallel::set_num_threads(1);
  const auto reference = run_track();
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    EXPECT_EQ(run_track(), reference) << threads << " threads";
  }
  parallel::set_num_threads(0);
}

// ---------------------------------------------------------------------------
// RK4 on the expression front end: the height track advances by one fused
// 9-operand expression per step — the widest combine in the tree — each
// momentum track by a 5-operand one.

TEST(CompressedSweStepperRk4, TracksReferenceAndFusedHeightBeatsChained) {
  const int steps = 15;
  sim::CompressedShallowWaterStepper fused(small_swe(), swe_track_settings(),
                                           sim::LincombPath::kFused,
                                           sim::SweScheme::kRk4);
  sim::CompressedShallowWaterStepper chained(small_swe(), swe_track_settings(),
                                             sim::LincombPath::kChained,
                                             sim::SweScheme::kRk4);
  fused.run(steps);
  chained.run(steps);

  EXPECT_EQ(fused.model().steps_taken(), steps);
  EXPECT_EQ(fused.model().surface_height(), chained.model().surface_height());

  // 9-term height update: 1 rebin fused vs 8 chained — strict dominance,
  // and the widest arity gap in the stepper.
  EXPECT_LE(fused.max_abs_height_error(),
            chained.max_abs_height_error() + 1e-12);
  // 5-term momentum updates: 1 rebin fused vs 4 chained.
  EXPECT_LE(fused.max_abs_u_error(), chained.max_abs_u_error() + 1e-12);
  EXPECT_LE(fused.max_abs_v_error(), chained.max_abs_v_error() + 1e-12);

  // Every compressed track faithfully shadows its RK4 reference field.
  const double h_scale = max_abs(fused.model().surface_height());
  ASSERT_GT(h_scale, 0.0);
  EXPECT_LT(fused.max_abs_height_error(), 0.05 * h_scale);
  const double u_scale = max_abs(fused.model().velocity_u());
  ASSERT_GT(u_scale, 0.0);
  EXPECT_LT(fused.max_abs_u_error(), 0.05 * u_scale);
  const double v_scale = max_abs(fused.model().velocity_v());
  ASSERT_GT(v_scale, 0.0);
  EXPECT_LT(fused.max_abs_v_error(), 0.05 * v_scale);
}

TEST(CompressedSweStepperRk4, RebinAccounting) {
  // Fused: still one rebin per track per step.  Chained: one per binary op —
  // eight for the 9-term height combine, four for each 5-term momentum one.
  const int steps = 3;
  sim::CompressedShallowWaterStepper fused(small_swe(), swe_track_settings(),
                                           sim::LincombPath::kFused,
                                           sim::SweScheme::kRk4);
  sim::CompressedShallowWaterStepper chained(small_swe(), swe_track_settings(),
                                             sim::LincombPath::kChained,
                                             sim::SweScheme::kRk4);
  fused.run(steps);
  chained.run(steps);
  EXPECT_EQ(fused.rebin_passes(), 3 * steps);
  EXPECT_EQ(chained.rebin_passes(), 16 * steps);
}

TEST(CompressedSweStepperRk4, BitIdenticalAcrossThreadCounts) {
  auto run_track = [] {
    sim::CompressedShallowWaterStepper stepper(
        small_swe(), swe_track_settings(), sim::LincombPath::kFused,
        sim::SweScheme::kRk4);
    stepper.run(3);
    return std::make_tuple(
        stepper.compressed_height().biggest, stepper.compressed_height().indices,
        stepper.compressed_u().biggest, stepper.compressed_u().indices,
        stepper.compressed_v().biggest, stepper.compressed_v().indices);
  };
  parallel::set_num_threads(1);
  const auto reference = run_track();
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    EXPECT_EQ(run_track(), reference) << threads << " threads";
  }
  parallel::set_num_threads(0);
}

TEST(CompressedSweStepper, TracksMatchFromPartsWithFreshStructsAllSchemes) {
  // The stepper reuses one tendencies struct across steps; driving the same
  // step from its public parts with a fresh struct per step — model step,
  // one compress per tendency field, one lincomb per track — must give the
  // same tracks bit for bit, under every scheme.
  const Compressor compressor(swe_track_settings());
  for (sim::SweScheme scheme :
       {sim::SweScheme::kForwardBackward, sim::SweScheme::kRk2,
        sim::SweScheme::kRk4}) {
    sim::CompressedShallowWaterStepper stepper(
        small_swe(), swe_track_settings(), sim::LincombPath::kFused, scheme);
    sim::ShallowWaterModel model(small_swe());
    CompressedArray h = compressor.compress(model.surface_height());
    CompressedArray u = compressor.compress(model.velocity_u());
    CompressedArray v = compressor.compress(model.velocity_v());
    const double dt = model.config().dt;
    for (int step = 0; step < 5; ++step) {
      stepper.step();

      // Each stage's tendencies and its weight in the step's combine.
      std::vector<sim::SweTendencies> k;
      std::vector<double> w;
      switch (scheme) {
        case sim::SweScheme::kForwardBackward: {
          sim::SweTendencies t;
          model.step(&t);
          k = {t};
          w = {dt};
          break;
        }
        case sim::SweScheme::kRk2: {
          sim::SweRk2Tendencies t;
          model.step_rk2(&t);
          k = {t.stage1, t.stage2};
          w = {0.5 * dt, 0.5 * dt};
          break;
        }
        case sim::SweScheme::kRk4: {
          sim::SweRk4Tendencies t;
          model.step_rk4(&t);
          k = {t.stage1, t.stage2, t.stage3, t.stage4};
          w = {dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0};
          break;
        }
      }
      std::vector<CompressedArray> fx, fy, du, dv;
      for (const sim::SweTendencies& t : k) {
        fx.push_back(compressor.compress(t.flux_x));
        fy.push_back(compressor.compress(t.flux_y));
        du.push_back(compressor.compress(t.du));
        dv.push_back(compressor.compress(t.dv));
      }
      std::vector<const CompressedArray*> h_ops{&h}, u_ops{&u}, v_ops{&v};
      std::vector<double> h_w{1.0}, m_w{1.0};
      for (std::size_t s = 0; s < k.size(); ++s) {
        h_ops.insert(h_ops.end(), {&fx[s], &fy[s]});
        h_w.insert(h_w.end(), {-w[s], -w[s]});
        u_ops.push_back(&du[s]);
        v_ops.push_back(&dv[s]);
        m_w.push_back(w[s]);
      }
      h = ops::lincomb(h_ops, h_w);
      u = ops::lincomb(u_ops, m_w);
      v = ops::lincomb(v_ops, m_w);

      ASSERT_EQ(serialize(stepper.compressed_height()), serialize(h))
          << "scheme " << static_cast<int>(scheme) << " step " << step;
      ASSERT_EQ(serialize(stepper.compressed_u()), serialize(u))
          << "scheme " << static_cast<int>(scheme) << " step " << step;
      ASSERT_EQ(serialize(stepper.compressed_v()), serialize(v))
          << "scheme " << static_cast<int>(scheme) << " step " << step;
    }
  }
}

TEST(CompressedFissionExposure, FusedErrorNoWorseThanChainedAndSmall) {
  sim::FissionConfig config;
  config.grid = Shape{16, 16, 32};
  const CompressorSettings settings{.block_shape = Shape{8, 8, 8},
                                    .float_type = FloatType::kFloat32,
                                    .index_type = IndexType::kInt16};
  sim::CompressedFissionExposure fused(config, settings,
                                       sim::LincombPath::kFused);
  sim::CompressedFissionExposure chained(config, settings,
                                         sim::LincombPath::kChained);
  fused.run_to_end();
  chained.run_to_end();
  EXPECT_TRUE(fused.done());

  const double fused_error = fused.max_abs_error();
  const double chained_error = chained.max_abs_error();
  EXPECT_LE(fused_error, chained_error + 1e-12);

  const double scale = max_abs(fused.reference_exposure());
  ASSERT_GT(scale, 0.0);
  EXPECT_LT(fused_error, 0.02 * scale);

  // 14 trapezoid intervals: one fused rebin each vs. two chained.
  EXPECT_EQ(fused.rebin_passes(), 14);
  EXPECT_EQ(chained.rebin_passes(), 28);
}

TEST(CompressedStateStepper, AdvanceMatchesDirectLincomb) {
  // The generic engine applied to plain fields: advancing by a natural
  // expression must equal the one explicit ops::lincomb call the expression
  // flattens to.
  Compressor compressor({.block_shape = Shape{8, 8},
                         .float_type = FloatType::kFloat32,
                         .index_type = IndexType::kInt16});
  Rng rng(5501);
  const NDArray<double> initial = random_smooth(Shape{32, 32}, rng, 5);
  const NDArray<double> t1 = random_smooth(Shape{32, 32}, rng, 5);
  const NDArray<double> t2 = random_smooth(Shape{32, 32}, rng, 5);

  sim::CompressedStateStepper stepper(compressor, initial,
                                      sim::LincombPath::kFused);
  const CompressedArray c1 = stepper.encode(t1);
  const CompressedArray c2 = stepper.encode(t2);
  stepper.advance(stepper.state() + 0.5 * c1 - 0.25 * c2);
  EXPECT_EQ(stepper.rebin_passes(), 1);

  const CompressedArray state0 = compressor.compress(initial);
  const CompressedArray expected =
      ops::lincomb({{1.0, &state0}, {0.5, &c1}, {-0.25, &c2}});
  EXPECT_EQ(stepper.state().indices, expected.indices);
  EXPECT_EQ(stepper.state().biggest, expected.biggest);

  // The chained engine replays the same term list as the per-op baseline.
  sim::CompressedStateStepper baseline(compressor, initial,
                                       sim::LincombPath::kChained);
  baseline.advance(baseline.state() + 0.5 * c1 - 0.25 * c2);
  EXPECT_EQ(baseline.rebin_passes(), 2);
  const CompressedArray chained = ops::add(
      ops::add(ops::multiply_scalar(state0, 1.0),
               ops::multiply_scalar(c1, 0.5)),
      ops::multiply_scalar(c2, -0.25));
  EXPECT_EQ(baseline.state().indices, chained.indices);
  EXPECT_EQ(baseline.state().biggest, chained.biggest);
}

}  // namespace
}  // namespace pyblaz
