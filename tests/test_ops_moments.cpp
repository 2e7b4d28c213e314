/// The scalar reductions share one moments pass (reductions.cpp): these tests
/// pin their bits and their pass counts.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/codec/compressor.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/telemetry/telemetry.hpp"
#include "core/util/rng.hpp"

namespace pyblaz {
namespace {

using Reduction =
    std::function<double(const CompressedArray&, const CompressedArray&)>;

struct NamedReduction {
  const char* name;
  Reduction fn;
  bool binary = false;  ///< Reads both operands.
};

const std::vector<NamedReduction>& all_reductions() {
  static const std::vector<NamedReduction> reductions = {
      {"dot", [](auto& a, auto& b) { return ops::dot(a, b); }, true},
      {"l2_norm", [](auto& a, auto&) { return ops::l2_norm(a); }},
      {"cosine_similarity",
       [](auto& a, auto& b) { return ops::cosine_similarity(a, b); }, true},
      {"structural_similarity",
       [](auto& a, auto& b) { return ops::structural_similarity(a, b); },
       true},
      {"mean", [](auto& a, auto&) { return ops::mean(a); }},
      {"sum", [](auto& a, auto&) { return ops::sum(a); }},
      {"variance", [](auto& a, auto&) { return ops::variance(a); }},
      {"covariance",
       [](auto& a, auto& b) { return ops::covariance(a, b); }, true},
      {"standard_deviation",
       [](auto& a, auto&) { return ops::standard_deviation(a); }},
      {"mean_unpadded", [](auto& a, auto&) { return ops::mean_unpadded(a); }},
      {"variance_unpadded",
       [](auto& a, auto&) { return ops::variance_unpadded(a); }},
      {"covariance_unpadded",
       [](auto& a, auto& b) { return ops::covariance_unpadded(a, b); }, true},
      {"mean_squared_error",
       [](auto& a, auto& b) { return ops::mean_squared_error(a, b); }, true},
      {"psnr", [](auto& a, auto& b) { return ops::psnr(a, b, 2.0); }, true},
      {"pearson_correlation",
       [](auto& a, auto& b) { return ops::pearson_correlation(a, b); }, true},
      // Aliased operands: the same object on both sides.
      {"cosine_similarity(a, a)",
       [](auto& a, auto&) { return ops::cosine_similarity(a, a); }},
      {"structural_similarity(a, a)",
       [](auto& a, auto&) { return ops::structural_similarity(a, a); }},
      {"covariance(a, a)",
       [](auto& a, auto&) { return ops::covariance(a, a); }},
  };
  return reductions;
}

const NamedReduction& reduction_named(std::string_view name) {
  for (const NamedReduction& reduction : all_reductions())
    if (reduction.name == name) return reduction;
  throw std::invalid_argument("no reduction named " + std::string(name));
}

/// 64-bit FNV-1a step over the bits of @p value.
std::uint64_t fnv1a(double value, std::uint64_t hash) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  for (int k = 0; k < 8; ++k) {
    hash ^= (bits >> (8 * k)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

struct Operands {
  CompressedArray a, b;
};

Operands make_operands(const Shape& shape, const CompressorSettings& settings,
                       std::uint64_t seed) {
  Compressor compressor(settings);
  Rng rng(seed);
  const NDArray<double> x = random_smooth(shape, rng);
  NDArray<double> y = random_smooth(shape, rng);
  for (index_t k = 0; k < y.size(); ++k) y[k] = 0.5 * x[k] + y[k] + 0.25;
  return {compressor.compress(x), compressor.compress(y)};
}

/// Every layout of the sweep: 4 float types x 4 index types x (divisible,
/// ragged) shapes x (keep_all, keep_fraction(0.3)) masks.  Both shapes span
/// several chunks of the ordered reduction.
std::vector<Operands> sweep_operands() {
  struct Geometry {
    Shape shape, block;
  };
  const Geometry geometries[] = {{Shape{64, 48}, Shape{8, 8}},
                                 {Shape{37, 29}, Shape{4, 4}}};
  std::vector<Operands> out;
  std::uint64_t seed = 1701;
  for (FloatType ft : kAllFloatTypes)
    for (IndexType it : kAllIndexTypes)
      for (const Geometry& g : geometries)
        for (double keep : {1.0, 0.3}) {
          CompressorSettings settings{
              .block_shape = g.block, .float_type = ft, .index_type = it};
          if (keep < 1.0)
            settings.mask = PruningMask::keep_fraction(g.block, keep);
          out.push_back(make_operands(g.shape, settings, seed++));
        }
  return out;
}

/// A mask keeping only the DC coefficient (kept_per_block() == 1).
PruningMask dc_only_mask(const Shape& block) {
  std::vector<std::uint8_t> flags(static_cast<std::size_t>(block.volume()), 0);
  flags[0] = 1;
  return PruningMask::from_flags(block, std::move(flags));
}

/// A mask that drops the DC coefficient: slot 0 is an AC coefficient.
PruningMask dc_less_mask(const Shape& block) {
  std::vector<std::uint8_t> flags(static_cast<std::size_t>(block.volume()), 0);
  for (index_t k = 1; k < block.volume(); k += 3)
    flags[static_cast<std::size_t>(k)] = 1;
  return PruningMask::from_flags(block, std::move(flags));
}

std::string hex(std::uint64_t hash) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "0x%016llxull",
                static_cast<unsigned long long>(hash));
  return buffer;
}

struct ThreadsGuard {
  ~ThreadsGuard() { parallel::set_num_threads(0); }
};

TEST(OpsMoments, GoldenBitsEveryScalarReduction) {
  // The constants were recorded by running this test on the reductions as of
  // commit 542fe7b, when every product (a.b, a.a, b.b) and every DC total
  // was its own pass.  Sharing one moments pass must not move a bit, at any
  // thread count.
  const struct {
    const char* name;
    std::uint64_t sweep, dc_only;
  } golden[] = {
      {"dot", 0xaced4190bc66bba8ull,
       0xdbbaeee2a7d039deull},
      {"l2_norm", 0xb7bdfb7fc35ab23dull,
       0x3aabb6c29b0c0b03ull},
      {"cosine_similarity", 0xdda3573a1ef03e7dull,
       0xe362632fdca7adf5ull},
      {"structural_similarity", 0xefa39d7278596310ull,
       0xcbb66c1835de2241ull},
      {"mean", 0x93e56518dba6da44ull,
       0x073c8cbc169f89a0ull},
      {"sum", 0x8763967cc5f3c1a8ull,
       0xbf57a94637ad0d0cull},
      {"variance", 0xcaad938cd88de348ull,
       0xc038c83c41f5c9bbull},
      {"covariance", 0x581a3b4bef3ca4d3ull,
       0x68b976da8cd862e2ull},
      {"standard_deviation", 0xe1a9a120e348d37eull,
       0x23d9ec3d6e0805d3ull},
      {"mean_unpadded", 0xb79e1c1a23b2f4d1ull,
       0x8503697e2a47f460ull},
      {"variance_unpadded", 0xf241ef8c09f075ecull,
       0xa37d42a067bebe5dull},
      {"covariance_unpadded", 0x64fcce1bae477d0dull,
       0x4a41565866919447ull},
      {"mean_squared_error", 0x1f2977dad8725b33ull,
       0x6065cbde629829caull},
      {"psnr", 0xa6aabbca15ccfee8ull,
       0xeec718e4a37c08f0ull},
      {"pearson_correlation", 0xcd080f6f98d70466ull,
       0x374c30bffb9a0ebeull},
      {"cosine_similarity(a, a)", 0x9bfa29838378f915ull,
       0x2be2cbea19a827c5ull},
      {"structural_similarity(a, a)", 0xb6337f141f2fe725ull,
       0x2be2cbea19a827c5ull},
      {"covariance(a, a)", 0xcaad938cd88de348ull,
       0xc038c83c41f5c9bbull},
  };
  const auto& reductions = all_reductions();
  ASSERT_EQ(std::size(golden), reductions.size());

  const std::vector<Operands> sweep = sweep_operands();
  std::vector<Operands> dc_only;
  for (FloatType ft : {FloatType::kFloat32, FloatType::kFloat64})
    dc_only.push_back(make_operands(
        Shape{37, 29},
        {.block_shape = Shape{4, 4}, .float_type = ft,
         .index_type = IndexType::kInt16,
         .mask = dc_only_mask(Shape{4, 4})},
        2801));
  ASSERT_EQ(dc_only[0].a.kept_per_block(), 1);

  ThreadsGuard guard;
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    for (std::size_t r = 0; r < reductions.size(); ++r) {
      std::uint64_t sweep_hash = kFnvBasis, dc_only_hash = kFnvBasis;
      for (const Operands& pair : sweep)
        sweep_hash = fnv1a(reductions[r].fn(pair.a, pair.b), sweep_hash);
      for (const Operands& pair : dc_only)
        dc_only_hash = fnv1a(reductions[r].fn(pair.a, pair.b), dc_only_hash);
      EXPECT_EQ(sweep_hash, golden[r].sweep)
          << reductions[r].name << " at " << threads
          << " threads: sweep hashes to " << hex(sweep_hash);
      EXPECT_EQ(dc_only_hash, golden[r].dc_only)
          << reductions[r].name << " at " << threads
          << " threads: DC-only mask hashes to " << hex(dc_only_hash);
    }
  }
}

TEST(OpsMoments, GoldenBitsWithoutDcCoefficient) {
  // The reductions that do not need the DC coefficient must treat slot 0 as
  // an ordinary coefficient when the mask drops it (recorded like the test
  // above).
  const struct {
    const char* name;
    std::uint64_t hash;
  } golden[] = {
      {"dot", 0x87420b61b0c7c6b0ull},
      {"l2_norm", 0x4b756b9c993e15deull},
      {"cosine_similarity", 0x7395bf4a7b41dea3ull},
      {"mean_squared_error", 0xb3ed2c47e0fbb060ull},
  };
  std::vector<Operands> operands;
  std::uint64_t seed = 3301;
  for (IndexType it : kAllIndexTypes)
    operands.push_back(make_operands(
        Shape{61, 45},
        {.block_shape = Shape{8, 8}, .float_type = FloatType::kFloat32,
         .index_type = it, .mask = dc_less_mask(Shape{8, 8})},
        seed++));
  ASSERT_NE(operands[0].a.dc_slot(), 0);

  ThreadsGuard guard;
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    for (const auto& g : golden) {
      const Reduction& fn = reduction_named(g.name).fn;
      std::uint64_t hash = kFnvBasis;
      for (const Operands& pair : operands)
        hash = fnv1a(fn(pair.a, pair.b), hash);
      EXPECT_EQ(hash, g.hash) << g.name << " at " << threads
                              << " threads hashes to " << hex(hash);
    }
  }
}

TEST(OpsMoments, GoldenBitsMixedDomainDot) {
  // dot(A, y) with y uncompressed: every ragged edge gathers zero padding
  // (recorded like the tests above).
  const struct {
    Shape shape, block;
  } geometries[] = {{Shape{37, 29}, Shape{4, 4}},
                    {Shape{10, 12, 14}, Shape{4, 4, 4}},
                    {Shape{45}, Shape{8}}};
  std::vector<std::pair<CompressedArray, NDArray<double>>> operands;
  std::uint64_t seed = 5501;
  for (const auto& g : geometries)
    for (FloatType ft : kAllFloatTypes)
      for (double keep : {1.0, 0.3}) {
        CompressorSettings settings{.block_shape = g.block, .float_type = ft};
        if (keep < 1.0)
          settings.mask = PruningMask::keep_fraction(g.block, keep);
        Rng rng(seed++);
        const NDArray<double> x = random_smooth(g.shape, rng);
        operands.emplace_back(Compressor(settings).compress(x),
                              random_smooth(g.shape, rng));
      }

  ThreadsGuard guard;
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    std::uint64_t hash = kFnvBasis;
    for (const auto& [a, y] : operands) hash = fnv1a(ops::dot(a, y), hash);
    EXPECT_EQ(hash, 0x24a28cf1c502ab2dull)
        << "at " << threads << " threads hashes to " << hex(hash);
  }
}

/// (full coefficient passes, DC passes) that @p op runs.
template <typename Op>
std::pair<std::uint64_t, std::uint64_t> passes(Op&& op) {
  const telemetry::Counter& full = telemetry::counter("ops.reduce.passes");
  const telemetry::Counter& dc = telemetry::counter("ops.reduce.dc_passes");
  const std::uint64_t full_before = full.value(), dc_before = dc.value();
  op();
  return {full.value() - full_before, dc.value() - dc_before};
}

using Passes = std::pair<std::uint64_t, std::uint64_t>;

TEST(OpsMoments, PassCountsPerReduction) {
  const Operands ops_ab = make_operands(
      Shape{64, 48},
      {.block_shape = Shape{8, 8}, .float_type = FloatType::kFloat32,
       .index_type = IndexType::kInt16},
      4401);
  const CompressedArray& a = ops_ab.a;
  const CompressedArray& b = ops_ab.b;
  EXPECT_EQ(passes([&] { ops::dot(a, b); }), Passes(1, 0));
  EXPECT_EQ(passes([&] { ops::l2_norm(a); }), Passes(1, 0));
  EXPECT_EQ(passes([&] { ops::cosine_similarity(a, b); }), Passes(1, 0));
  EXPECT_EQ(passes([&] { ops::structural_similarity(a, b); }), Passes(1, 2));
  EXPECT_EQ(passes([&] { ops::structural_similarity(a, a); }), Passes(1, 1));
  EXPECT_EQ(passes([&] { ops::mean(a); }), Passes(0, 1));
  EXPECT_EQ(passes([&] { ops::variance(a); }), Passes(1, 1));
  EXPECT_EQ(passes([&] { ops::covariance(a, b); }), Passes(1, 2));
  EXPECT_EQ(passes([&] { ops::mean_squared_error(a, b); }), Passes(1, 0));
  EXPECT_EQ(passes([&] { ops::pearson_correlation(a, b); }), Passes(1, 2));

  // An archive query reduces every output o against its neighbour with
  // these six calls.
  EXPECT_EQ(passes([&] {
              ops::dot(a, b);
              ops::l2_norm(a);
              ops::cosine_similarity(a, b);
              ops::structural_similarity(a, b);
              ops::mean(a);
              ops::variance(a);
            }),
            Passes(5, 4));
}

/// Expects @p reduction to throw std::invalid_argument on two layouts that
/// differ only in the mask, in either order, before running any pass: the
/// second operand keeps a quarter of the coefficients, so a pass over it
/// before the check would read past its bins.
void expect_layout_checked_first(const NamedReduction& reduction) {
  Rng rng(4409);
  const NDArray<double> x = random_smooth(Shape{32, 32}, rng);
  const CompressedArray a =
      Compressor({.block_shape = Shape{8, 8}}).compress(x);
  const CompressedArray b =
      Compressor({.block_shape = Shape{8, 8},
                  .mask = PruningMask::keep_fraction(Shape{8, 8}, 0.25)})
          .compress(x);
  EXPECT_EQ(passes([&] {
              EXPECT_THROW(reduction.fn(a, b), std::invalid_argument);
              EXPECT_THROW(reduction.fn(b, a), std::invalid_argument);
            }),
            Passes(0, 0))
      << reduction.name;
}

TEST(OpsMoments, LayoutIsCheckedBeforeAnyPass) {
  for (const NamedReduction& reduction : all_reductions())
    if (reduction.binary) expect_layout_checked_first(reduction);
}

TEST(OpsCosine, ThrowsOnLayoutMismatch) {
  expect_layout_checked_first(reduction_named("cosine_similarity"));
}

TEST(OpsMse, ThrowsOnLayoutMismatch) {
  expect_layout_checked_first(reduction_named("mean_squared_error"));
}

TEST(OpsPearson, ThrowsOnLayoutMismatch) {
  expect_layout_checked_first(reduction_named("pearson_correlation"));
}

TEST(OpsUnpadded, CovarianceThrowsOnLayoutMismatch) {
  expect_layout_checked_first(reduction_named("covariance_unpadded"));
}

}  // namespace
}  // namespace pyblaz
