#include "sim/shallow_water/swe.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/codec/serialization.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/reference/reference.hpp"
#include "sim/compressed_stepper.hpp"

namespace {

using pyblaz::FloatType;
using pyblaz::index_t;
using pyblaz::NDArray;
using pyblaz::Shape;
using sim::ShallowWaterModel;
using sim::SweConfig;

SweConfig small_config() {
  SweConfig config;
  config.nx = 32;
  config.ny = 64;
  config.lx = 3.2e5;
  config.ly = 6.4e5;
  config.seamount_sigma = 5e4;  // Scale the seamount to the smaller basin.
  return config;
}

TEST(ShallowWater, GridShapes) {
  ShallowWaterModel model(small_config());
  EXPECT_EQ(model.surface_height().shape(), Shape({32, 64}));
  EXPECT_EQ(model.topography().shape(), Shape({32, 64}));
}

TEST(ShallowWater, TopographyHasSeamount) {
  SweConfig config = small_config();
  ShallowWaterModel model(config);
  const NDArray<double>& depth = model.topography();
  // The center is shallower than the corners by roughly the seamount height.
  const double center = depth.at({16, 32});
  const double corner = depth.at({0, 0});
  EXPECT_LT(center, corner);
  EXPECT_NEAR(corner, config.depth, 1.0);
  EXPECT_NEAR(corner - center, config.seamount_height, 0.15 * config.seamount_height);
}

TEST(ShallowWater, StaysStableOverManySteps) {
  ShallowWaterModel model(small_config());
  model.run(2000);
  EXPECT_TRUE(std::isfinite(pyblaz::max_abs(model.surface_height())));
  EXPECT_LT(pyblaz::max_abs(model.surface_height()), 50.0);  // Meters.
  EXPECT_LT(model.max_speed(), 10.0);                        // m/s.
}

TEST(ShallowWater, ApproximatelyConservesVolume) {
  // The closed-basin continuity equation conserves the integral of eta.
  ShallowWaterModel model(small_config());
  const double before = model.total_height_anomaly();
  model.run(500);
  const double after = model.total_height_anomaly();
  const double domain_area = 3.2e5 * 6.4e5;
  // Allow a tiny drift relative to a 1 mm uniform change.
  EXPECT_LT(std::fabs(after - before), 1e-3 * domain_area);
}

TEST(ShallowWater, WindSpinsUpCirculation) {
  SweConfig config = small_config();
  config.seed = 3;
  ShallowWaterModel model(config);
  model.run(1000);
  EXPECT_GT(model.max_speed(), 1e-4);  // The gyres are moving.
}

TEST(ShallowWater, DeterministicGivenSeed) {
  ShallowWaterModel a(small_config());
  ShallowWaterModel b(small_config());
  a.run(100);
  b.run(100);
  EXPECT_EQ(a.surface_height(), b.surface_height());
}

TEST(ShallowWater, PrecisionChangesPerturbTheField) {
  // The Fig. 4 premise: FP16 and FP32 runs of the same configuration drift
  // apart, with structured (not pointwise-identical) differences.
  SweConfig c32 = small_config();
  c32.precision = FloatType::kFloat32;
  SweConfig c16 = small_config();
  c16.precision = FloatType::kFloat16;

  ShallowWaterModel m32(c32), m16(c16);
  m32.run(800);
  m16.run(800);

  const double diff = pyblaz::reference::linf_distance(m32.surface_height(),
                                                       m16.surface_height());
  EXPECT_GT(diff, 1e-6);  // Perturbation exists...
  EXPECT_LT(diff, 5.0);   // ...but the low-precision run did not blow up.
}

TEST(ShallowWater, HigherPrecisionTracksFloat64Closer) {
  SweConfig c64 = small_config();
  SweConfig c32 = small_config();
  c32.precision = FloatType::kFloat32;
  SweConfig c16 = small_config();
  c16.precision = FloatType::kFloat16;

  ShallowWaterModel m64(c64), m32(c32), m16(c16);
  const int steps = 600;
  m64.run(steps);
  m32.run(steps);
  m16.run(steps);

  const double err32 = pyblaz::reference::l2_distance(m64.surface_height(),
                                                      m32.surface_height());
  const double err16 = pyblaz::reference::l2_distance(m64.surface_height(),
                                                      m16.surface_height());
  EXPECT_LT(err32, err16);
}

// ---------------------------------------------------------------------------
// RK2 (Heun) stepping: two forward-backward stages combined as
// S' = S0 + (dt/2)(k1 + k2), with both stages' tendencies exported for the
// compressed-form stepper's 5-term height / 3-term momentum expressions.

TEST(ShallowWaterRk2, UpdateMatchesExportedTendenciesExactly) {
  ShallowWaterModel model(small_config());
  model.run(3);  // Leave the initial condition so tendencies are nontrivial.
  const NDArray<double> u0 = model.velocity_u();
  const NDArray<double> v0 = model.velocity_v();
  const NDArray<double> eta0 = model.surface_height();

  sim::SweRk2Tendencies stages;
  model.step_rk2(&stages);
  const double hd = 0.5 * model.config().dt;

  // Bitwise: at kFloat64 the applied update IS the exported term-by-term
  // combine (the same spelling the compressed tracks' expressions use).
  for (index_t k = 0; k < u0.size(); ++k)
    ASSERT_EQ(model.velocity_u()[k],
              u0[k] + hd * stages.stage1.du[k] + hd * stages.stage2.du[k]);
  for (index_t k = 0; k < v0.size(); ++k)
    ASSERT_EQ(model.velocity_v()[k],
              v0[k] + hd * stages.stage1.dv[k] + hd * stages.stage2.dv[k]);
  for (index_t k = 0; k < eta0.size(); ++k)
    ASSERT_EQ(model.surface_height()[k],
              eta0[k] - hd * stages.stage1.flux_x[k] -
                  hd * stages.stage1.flux_y[k] - hd * stages.stage2.flux_x[k] -
                  hd * stages.stage2.flux_y[k]);
}

TEST(ShallowWaterRk2, CountsAsOneStepAndStaysStable) {
  ShallowWaterModel model(small_config());
  for (int k = 0; k < 25; ++k) model.step_rk2();
  EXPECT_EQ(model.steps_taken(), 25);
  EXPECT_TRUE(std::isfinite(pyblaz::max_abs(model.surface_height())));
  EXPECT_LT(pyblaz::max_abs(model.surface_height()), 50.0);  // Meters.
  EXPECT_LT(model.max_speed(), 10.0);                        // m/s.
}

TEST(ShallowWaterRk2, ApproximatelyConservesVolume) {
  SweConfig config = small_config();
  ShallowWaterModel model(config);
  const double before = model.total_height_anomaly();
  for (int k = 0; k < 15; ++k) model.step_rk2();
  const double after = model.total_height_anomaly();
  const double domain_area = config.lx * config.ly;
  // Both stages' continuity updates telescope over the closed basin, so the
  // averaged combine conserves volume to rounding as well.
  EXPECT_LT(std::fabs(after - before), 1e-3 * domain_area);
}

TEST(ShallowWaterRk2, StaysCloseToForwardBackwardOverShortHorizons) {
  // Same operator, different integrator: over a few steps the trajectories
  // must agree to leading order (they differ at O(dt^2) per step), which
  // pins that stage 2 really is evaluated at the predicted state rather
  // than, say, twice at the start state.
  ShallowWaterModel fb(small_config());
  ShallowWaterModel rk2(small_config());
  for (int k = 0; k < 10; ++k) {
    fb.step();
    rk2.step_rk2();
  }
  double worst = 0.0;
  for (index_t k = 0; k < fb.surface_height().size(); ++k)
    worst = std::max(worst, std::fabs(fb.surface_height()[k] -
                                      rk2.surface_height()[k]));
  const double scale = pyblaz::max_abs(fb.surface_height());
  // worst == 0 would mean stage 2 degenerated to stage 1 (RK2 collapses to
  // the FB step); O(scale) would mean a different ODE.  The measured gap sits
  // around 8% of scale after 10 steps — a real integrator difference.
  EXPECT_GT(worst, 0.0);
  EXPECT_LT(worst, 0.25 * scale);
}

// ---------------------------------------------------------------------------
// RK4 stepping: four forward-backward stages combined as
// S' = S0 + (dt/6)(k1 + 2 k2 + 2 k3 + k4), with all four stages' tendencies
// exported for the compressed-form stepper's 9-term height / 5-term momentum
// expressions.

TEST(ShallowWaterRk4, UpdateMatchesExportedTendenciesExactly) {
  ShallowWaterModel model(small_config());
  model.run(3);  // Leave the initial condition so tendencies are nontrivial.
  const NDArray<double> u0 = model.velocity_u();
  const NDArray<double> v0 = model.velocity_v();
  const NDArray<double> eta0 = model.surface_height();

  sim::SweRk4Tendencies stages;
  model.step_rk4(&stages);
  const double sixth = model.config().dt / 6.0;
  const double third = model.config().dt / 3.0;

  // Bitwise: at kFloat64 the applied update IS the exported term-by-term
  // combine (the same spelling the compressed tracks' expressions use).
  for (index_t k = 0; k < u0.size(); ++k)
    ASSERT_EQ(model.velocity_u()[k],
              u0[k] + sixth * stages.stage1.du[k] + third * stages.stage2.du[k] +
                  third * stages.stage3.du[k] + sixth * stages.stage4.du[k]);
  for (index_t k = 0; k < v0.size(); ++k)
    ASSERT_EQ(model.velocity_v()[k],
              v0[k] + sixth * stages.stage1.dv[k] + third * stages.stage2.dv[k] +
                  third * stages.stage3.dv[k] + sixth * stages.stage4.dv[k]);
  for (index_t k = 0; k < eta0.size(); ++k)
    ASSERT_EQ(model.surface_height()[k],
              eta0[k] - sixth * stages.stage1.flux_x[k] -
                  sixth * stages.stage1.flux_y[k] -
                  third * stages.stage2.flux_x[k] -
                  third * stages.stage2.flux_y[k] -
                  third * stages.stage3.flux_x[k] -
                  third * stages.stage3.flux_y[k] -
                  sixth * stages.stage4.flux_x[k] -
                  sixth * stages.stage4.flux_y[k]);
}

TEST(ShallowWaterRk4, CountsAsOneStepAndStaysStable) {
  ShallowWaterModel model(small_config());
  for (int k = 0; k < 25; ++k) model.step_rk4();
  EXPECT_EQ(model.steps_taken(), 25);
  EXPECT_TRUE(std::isfinite(pyblaz::max_abs(model.surface_height())));
  EXPECT_LT(pyblaz::max_abs(model.surface_height()), 50.0);  // Meters.
  EXPECT_LT(model.max_speed(), 10.0);                        // m/s.
}

TEST(ShallowWaterRk4, ApproximatelyConservesVolume) {
  SweConfig config = small_config();
  ShallowWaterModel model(config);
  const double before = model.total_height_anomaly();
  for (int k = 0; k < 15; ++k) model.step_rk4();
  const double after = model.total_height_anomaly();
  const double domain_area = config.lx * config.ly;
  // Every stage's continuity update telescopes over the closed basin, so the
  // Simpson-weighted combine conserves volume to rounding as well.
  EXPECT_LT(std::fabs(after - before), 1e-3 * domain_area);
}

TEST(ShallowWaterRk4, StaysCloseToRk2OverShortHorizons) {
  // Same operator, different integrator order: over a few steps the RK2 and
  // RK4 trajectories must agree to leading order (they differ at O(dt^3) per
  // step), which pins that stages 2-4 really are evaluated at the advanced
  // states rather than all at the start state.
  ShallowWaterModel rk2(small_config());
  ShallowWaterModel rk4(small_config());
  for (int k = 0; k < 10; ++k) {
    rk2.step_rk2();
    rk4.step_rk4();
  }
  double worst = 0.0;
  for (index_t k = 0; k < rk2.surface_height().size(); ++k)
    worst = std::max(worst, std::fabs(rk2.surface_height()[k] -
                                      rk4.surface_height()[k]));
  const double scale = pyblaz::max_abs(rk2.surface_height());
  // worst == 0 would mean the later stages degenerated; O(scale) would mean
  // a different ODE.
  EXPECT_GT(worst, 0.0);
  EXPECT_LT(worst, 0.25 * scale);
}

// ---------------------------------------------------------------------------
// Golden bits: every scheme's state, raw and compressed, after 8 steps.

/// 64-bit FNV-1a over @p bytes, continuing from @p hash.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = 14695981039346656037ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t k = 0; k < bytes; ++k) {
    hash ^= p[k];
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t hash_state(const ShallowWaterModel& model) {
  std::uint64_t hash = fnv1a(nullptr, 0);
  for (const NDArray<double>* field :
       {&model.velocity_u(), &model.velocity_v(), &model.surface_height()})
    hash = fnv1a(field->data(), sizeof(double) * field->vector().size(), hash);
  return hash;
}

std::uint64_t hash_tracks(const sim::CompressedShallowWaterStepper& stepper) {
  std::uint64_t hash = fnv1a(nullptr, 0);
  for (const pyblaz::CompressedArray* track :
       {&stepper.compressed_height(), &stepper.compressed_u(),
        &stepper.compressed_v()}) {
    const std::vector<std::uint8_t> bytes = pyblaz::serialize(*track);
    hash = fnv1a(bytes.data(), bytes.size(), hash);
  }
  return hash;
}

TEST(ShallowWater, GoldenBitsAllSchemes) {
  // The constants were recorded by running this test on the model and the
  // compressed stepper as of commit f2bdc55, before either reused its field
  // buffers across steps (every step then copied u/v into fresh arrays and
  // allocated fresh tendency fields).  Buffer reuse must not move a bit.
  constexpr int kSteps = 8;
  const struct {
    const char* name;
    void (ShallowWaterModel::*step)();
    sim::SweScheme scheme;
    std::uint64_t model_hash;
    std::uint64_t tracks_hash;
  } cases[] = {
      {"forward-backward", &ShallowWaterModel::step,
       sim::SweScheme::kForwardBackward, 0x104bcc6138777130ull,
       0x415d0acdd4bbfe4eull},
      {"rk2", &ShallowWaterModel::step_rk2, sim::SweScheme::kRk2,
       0xd6f7a248db9b74eaull, 0xfb28c4108165abedull},
      {"rk4", &ShallowWaterModel::step_rk4, sim::SweScheme::kRk4,
       0x20eaa3b4a4fb1af5ull, 0xc88c82fa34be2311ull},
  };
  const pyblaz::CompressorSettings settings{
      .block_shape = Shape{16, 16},
      .float_type = FloatType::kFloat32,
      .index_type = pyblaz::IndexType::kInt8};
  for (const auto& c : cases) {
    ShallowWaterModel model(small_config());
    for (int k = 0; k < kSteps; ++k) (model.*c.step)();
    sim::CompressedShallowWaterStepper stepper(
        small_config(), settings, sim::LincombPath::kFused, c.scheme);
    stepper.run(kSteps);
    EXPECT_EQ(hash_state(model), c.model_hash) << c.name;
    EXPECT_EQ(hash_tracks(stepper), c.tracks_hash) << c.name;
  }
}

TEST(ShallowWater, StepCounterAdvances) {
  ShallowWaterModel model(small_config());
  EXPECT_EQ(model.steps_taken(), 0);
  model.run(7);
  EXPECT_EQ(model.steps_taken(), 7);
}

}  // namespace
