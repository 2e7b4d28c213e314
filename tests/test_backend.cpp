/// The SIMD kernel backend dispatch layer (src/core/kernels/backend.*): the
/// startup cpuid/CC_KERNEL_BACKEND resolution, the set_backend override, and
/// — the load-bearing property — that EVERY compiled-in backend reproduces
/// the scalar kernels bit for bit across the full property matrix: rebin
/// (max_abs / quantize_bins / unbin) for all four bin types, decode_lincomb
/// at 1..7 operands, decode_lincomb_multi against per-output decode_lincomb,
/// the dense one-axis transform, and the factorized Lee
/// DCT at every supported size.  The scalar kernels are the oracle; the
/// parameterized suite runs once per available backend, so on an AVX2 host
/// the AVX2 table is exhaustively pinned and on any host the scalar table
/// trivially passes (keeping the suite green under the CC_KERNEL_BACKEND
/// ctest legs regardless of ISA).

#include "core/kernels/backend.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/codec/compressor.hpp"
#include "core/kernels/backend_tables.hpp"
#include "core/kernels/fast_transform.hpp"
#include "core/kernels/rebin.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/expr.hpp"
#include "core/ops/ops.hpp"
#include "core/util/rng.hpp"

namespace pyblaz {
namespace {

using kernels::Backend;
using kernels::KernelTable;

/// Restores the active backend on test exit, pass or fail.
struct BackendGuard {
  Backend saved = kernels::active_backend();
  ~BackendGuard() { kernels::set_backend(saved); }
};

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kScalar, Backend::kAvx2})
    if (kernels::backend_available(b)) out.push_back(b);
  return out;
}

/// Bitwise double equality (NaN payloads included): the contract is bit
/// identity, not numeric closeness.
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits " << std::hex
         << std::bit_cast<std::uint64_t>(a) << " vs "
         << std::bit_cast<std::uint64_t>(b) << ")";
}

// ---------------------------------------------------------------------------
// Dispatch selection.

TEST(BackendDispatch, ParseBackendName) {
  bool bad = false;
  EXPECT_EQ(kernels::parse_backend_name("scalar", &bad), Backend::kScalar);
  EXPECT_FALSE(bad);
  EXPECT_EQ(kernels::parse_backend_name("avx2", &bad), Backend::kAvx2);
  EXPECT_FALSE(bad);
  EXPECT_EQ(kernels::parse_backend_name("sse9000", &bad), Backend::kScalar);
  EXPECT_TRUE(bad);
  bad = false;
  EXPECT_EQ(kernels::parse_backend_name("", &bad), Backend::kScalar);
  EXPECT_TRUE(bad);
}

TEST(BackendDispatch, NamesRoundTrip) {
  for (Backend b : {Backend::kScalar, Backend::kAvx2}) {
    bool bad = true;
    EXPECT_EQ(kernels::parse_backend_name(kernels::backend_name(b), &bad), b);
    EXPECT_FALSE(bad);
  }
}

TEST(BackendDispatch, ScalarAlwaysAvailable) {
  BackendGuard guard;
  EXPECT_TRUE(kernels::backend_available(Backend::kScalar));
  EXPECT_TRUE(kernels::set_backend(Backend::kScalar));
  EXPECT_EQ(kernels::active_backend(), Backend::kScalar);
  EXPECT_STREQ(kernels::active().name, "scalar");
}

TEST(BackendDispatch, SetUnavailableBackendFailsAndChangesNothing) {
  BackendGuard guard;
  const Backend before = kernels::active_backend();
  if (!kernels::backend_available(Backend::kAvx2)) {
    EXPECT_FALSE(kernels::set_backend(Backend::kAvx2));
    EXPECT_EQ(kernels::active_backend(), before);
  }
}

TEST(BackendDispatch, ActiveTableMatchesActiveBackend) {
  BackendGuard guard;
  for (Backend b : available_backends()) {
    ASSERT_TRUE(kernels::set_backend(b));
    EXPECT_EQ(kernels::active_backend(), b);
    EXPECT_STREQ(kernels::active().name, kernels::backend_name(b));
  }
}

/// Startup resolution replayed against the environment this process actually
/// launched with — this is what the CC_KERNEL_BACKEND ctest legs exercise:
/// unset -> best available; valid and available -> that backend; invalid or
/// unavailable -> scalar (with a stderr warning, not an error).
TEST(BackendDispatch, StartupRespectsEnvironmentPolicy) {
  const char* env = std::getenv("CC_KERNEL_BACKEND");
  const Backend startup = kernels::startup_backend();
  if (env == nullptr) {
    EXPECT_EQ(startup, kernels::backend_available(Backend::kAvx2)
                           ? Backend::kAvx2
                           : Backend::kScalar);
    return;
  }
  bool bad = false;
  const Backend requested = kernels::parse_backend_name(env, &bad);
  if (bad || !kernels::backend_available(requested))
    EXPECT_EQ(startup, Backend::kScalar);
  else
    EXPECT_EQ(startup, requested);
  EXPECT_TRUE(kernels::backend_available(startup));
}

TEST(BackendDispatch, EverySlotOfEveryTableIsPopulated) {
  for (Backend b : available_backends()) {
    const KernelTable* table = nullptr;
    switch (b) {
      case Backend::kScalar:
        table = &kernels::internal::scalar_table();
        break;
      case Backend::kAvx2:
        table = kernels::internal::avx2_table();
        break;
    }
    ASSERT_NE(table, nullptr) << kernels::backend_name(b);
    EXPECT_NE(table->max_abs, nullptr);
    EXPECT_NE(table->dense_transform_axis, nullptr);
    EXPECT_NE(table->dct_axis, nullptr);
    EXPECT_NE(table->huffman_decode_run, nullptr);
    EXPECT_NE(table->i8.quantize_bins, nullptr);
    EXPECT_NE(table->i16.unbin_block, nullptr);
    EXPECT_NE(table->i32.decode_lincomb, nullptr);
    EXPECT_NE(table->i64.quantize_bins, nullptr);
  }
}

// ---------------------------------------------------------------------------
// Bit-identity property matrix, one full pass per available backend.

class BackendBitIdentity : public ::testing::TestWithParam<Backend> {
 protected:
  const KernelTable& table() {
    switch (GetParam()) {
      case Backend::kAvx2:
        return *kernels::internal::avx2_table();
      case Backend::kScalar:
        break;
    }
    return kernels::internal::scalar_table();
  }
};

/// Coefficient-like doubles with adversarial structure: smooth values, exact
/// half-bin boundaries, clamp overshoots, signed zeros, denormals, huge
/// magnitudes, and (when @p with_nan) NaN/inf.
std::vector<double> adversarial_doubles(index_t count, std::uint64_t seed,
                                        bool with_nan) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(-3.0, 3.0);
  std::vector<double> out(static_cast<std::size_t>(count));
  for (index_t j = 0; j < count; ++j) {
    switch (rng() % 8) {
      case 0:
        out[j] = uniform(rng);
        break;
      case 1:  // Exact half-away rounding boundary.
        out[j] = (static_cast<double>(rng() % 201) - 100.0) + 0.5;
        break;
      case 2:  // Clamp overshoot.
        out[j] = (rng() % 2 ? 1.0 : -1.0) * (300.0 + uniform(rng));
        break;
      case 3:
        out[j] = rng() % 2 ? 0.0 : -0.0;
        break;
      case 4:
        out[j] = uniform(rng) * 1e-300;
        break;
      case 5:
        out[j] = uniform(rng) * 1e12;
        break;
      case 6:
        out[j] = with_nan && (rng() % 4 == 0)
                     ? std::numeric_limits<double>::quiet_NaN()
                     : uniform(rng);
        break;
      default:
        out[j] = with_nan && (rng() % 4 == 0)
                     ? (rng() % 2 ? 1.0 : -1.0) *
                           std::numeric_limits<double>::infinity()
                     : uniform(rng);
        break;
    }
  }
  return out;
}

/// Odd lengths around the vector widths so every tail path runs.
const index_t kCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 67, 256, 261};

TEST_P(BackendBitIdentity, MaxAbs) {
  const KernelTable& t = table();
  for (index_t count : kCounts) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const std::vector<double> c =
          adversarial_doubles(count, 1000 + seed, /*with_nan=*/seed % 2 == 1);
      EXPECT_TRUE(BitEqual(t.max_abs(c.data(), count),
                           kernels::max_abs(c.data(), count)))
          << "count " << count << " seed " << seed;
    }
  }
}

template <typename BinT>
void check_rebin_family(const KernelTable& t) {
  const double radii[] = {1.0, 100.0,
                          std::floor(static_cast<double>(
                              std::numeric_limits<BinT>::max() > 0x7fffffff
                                  ? 0x7fffffff
                                  : std::numeric_limits<BinT>::max()))};
  for (index_t count : kCounts) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const std::vector<double> c =
          adversarial_doubles(count, 7000 + seed, /*with_nan=*/seed == 3);
      for (double r : radii) {
        // quantize_bins: inv chosen like the codec does (r / biggest).
        const double biggest = kernels::max_abs(c.data(), count);
        const double inv = biggest > 0.0 ? r / biggest : 1.0;
        std::vector<BinT> bins_simd(static_cast<std::size_t>(count));
        std::vector<BinT> bins_ref(static_cast<std::size_t>(count));
        kernels::bins<BinT>(t).quantize_bins(c.data(), bins_simd.data(), count,
                                             inv, r);
        kernels::quantize_bins(c.data(), bins_ref.data(), count, inv, r);
        ASSERT_EQ(bins_simd, bins_ref)
            << "quantize count " << count << " r " << r << " seed " << seed;

        // unbin_block on those bins.
        std::vector<double> back_simd(static_cast<std::size_t>(count));
        std::vector<double> back_ref(static_cast<std::size_t>(count));
        const double scale = biggest > 0.0 ? biggest / r : 0.25;
        kernels::bins<BinT>(t).unbin_block(bins_ref.data(), count, scale,
                                           back_simd.data());
        kernels::unbin_block(bins_ref.data(), count, scale, back_ref.data());
        for (index_t j = 0; j < count; ++j)
          ASSERT_TRUE(BitEqual(back_simd[j], back_ref[j]))
              << "unbin count " << count << " j " << j;

        // The dispatched rebin_block composition vs the scalar one.
        std::vector<BinT> out_simd(static_cast<std::size_t>(count));
        std::vector<BinT> out_ref(static_cast<std::size_t>(count));
        const double b_simd = kernels::rebin_block(t, c.data(), count, r,
                                                   FloatType::kFloat32,
                                                   out_simd.data());
        const double b_ref = kernels::rebin_block(c.data(), count, r,
                                                  FloatType::kFloat32,
                                                  out_ref.data());
        ASSERT_TRUE(BitEqual(b_simd, b_ref));
        ASSERT_EQ(out_simd, out_ref);
      }
    }
  }
  // All-zero block: the zero-fill path.
  std::vector<double> zeros(9, 0.0);
  std::vector<BinT> bins_out(9, BinT{42});
  const double biggest = kernels::rebin_block(t, zeros.data(), 9, 100.0,
                                              FloatType::kFloat32,
                                              bins_out.data());
  EXPECT_EQ(biggest, 0.0);
  for (BinT b : bins_out) EXPECT_EQ(b, BinT{0});
}

TEST_P(BackendBitIdentity, RebinFamilyInt8) {
  check_rebin_family<std::int8_t>(table());
}
TEST_P(BackendBitIdentity, RebinFamilyInt16) {
  check_rebin_family<std::int16_t>(table());
}
TEST_P(BackendBitIdentity, RebinFamilyInt32) {
  check_rebin_family<std::int32_t>(table());
}
TEST_P(BackendBitIdentity, RebinFamilyInt64) {
  check_rebin_family<std::int64_t>(table());
}

template <typename BinT>
void check_decode_lincomb(const KernelTable& t) {
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> weight(-2.0, 2.0);
  for (index_t count : kCounts) {
    for (index_t operands = 1; operands <= 7; ++operands) {
      std::vector<std::vector<BinT>> rows(static_cast<std::size_t>(operands));
      std::vector<const BinT*> row_ptrs;
      std::vector<double> scales;
      for (auto& row : rows) {
        row.resize(static_cast<std::size_t>(count));
        for (auto& b : row)
          b = static_cast<BinT>(static_cast<std::int64_t>(rng()) %
                                (std::int64_t{1} << 7));
        row_ptrs.push_back(row.data());
        scales.push_back(weight(rng));
      }
      std::vector<double> out_simd(static_cast<std::size_t>(count));
      std::vector<double> out_ref(static_cast<std::size_t>(count));
      kernels::bins<BinT>(t).decode_lincomb(row_ptrs.data(), scales.data(),
                                            operands, count, out_simd.data());
      kernels::decode_lincomb(row_ptrs.data(), scales.data(), operands, count,
                              out_ref.data());
      for (index_t j = 0; j < count; ++j)
        ASSERT_TRUE(BitEqual(out_simd[j], out_ref[j]))
            << "operands " << operands << " count " << count << " j " << j;
    }
  }
}

TEST_P(BackendBitIdentity, DecodeLincombInt8) {
  check_decode_lincomb<std::int8_t>(table());
}
TEST_P(BackendBitIdentity, DecodeLincombInt16) {
  check_decode_lincomb<std::int16_t>(table());
}
TEST_P(BackendBitIdentity, DecodeLincombInt32) {
  check_decode_lincomb<std::int32_t>(table());
}
TEST_P(BackendBitIdentity, DecodeLincombInt64) {
  check_decode_lincomb<std::int64_t>(table());
}

/// The multi-output kernel against the single-output scalar oracle: each
/// output row must equal a separate decode_lincomb over the same (row,
/// scale) list — the contract that lets the lincomb engine pick either
/// kernel per call.  Term lists repeat rows, within and across outputs.
template <typename BinT>
void check_decode_lincomb_multi(const KernelTable& t) {
  std::mt19937_64 rng(4343);
  std::uniform_real_distribution<double> weight(-2.0, 2.0);
  const std::vector<std::vector<index_t>> outputs = {
      {0}, {1, 1}, {0, 1, 2}, {3, 0, 3, 2, 1}, {2, 2, 2, 2}};
  std::vector<index_t> term_rows, offsets = {0};
  for (const auto& terms : outputs) {
    term_rows.insert(term_rows.end(), terms.begin(), terms.end());
    offsets.push_back(static_cast<index_t>(term_rows.size()));
  }
  const index_t num_outputs = static_cast<index_t>(outputs.size());
  for (index_t count : kCounts) {
    std::vector<std::vector<BinT>> rows(4);
    std::vector<const BinT*> row_ptrs;
    for (auto& row : rows) {
      row.resize(static_cast<std::size_t>(count));
      for (auto& b : row)
        b = static_cast<BinT>(static_cast<std::int64_t>(rng()) %
                              (std::int64_t{1} << 7));
      row_ptrs.push_back(row.data());
    }
    std::vector<double> scales(term_rows.size());
    for (double& s : scales) s = weight(rng);
    std::vector<double> decoded(rows.size() * static_cast<std::size_t>(count));
    std::vector<double> out(static_cast<std::size_t>(num_outputs * count));
    std::vector<double*> out_rows;
    for (index_t k = 0; k < num_outputs; ++k)
      out_rows.push_back(out.data() + k * count);
    kernels::bins<BinT>(t).decode_lincomb_multi(
        row_ptrs.data(), static_cast<index_t>(rows.size()), scales.data(),
        term_rows.data(), offsets.data(), num_outputs, count, decoded.data(),
        out_rows.data());
    for (index_t k = 0; k < num_outputs; ++k) {
      std::vector<const BinT*> term_ptrs;
      for (index_t i = offsets[k]; i < offsets[k + 1]; ++i)
        term_ptrs.push_back(row_ptrs[static_cast<std::size_t>(term_rows[i])]);
      std::vector<double> ref(static_cast<std::size_t>(count));
      kernels::decode_lincomb(term_ptrs.data(), scales.data() + offsets[k],
                              offsets[k + 1] - offsets[k], count, ref.data());
      for (index_t j = 0; j < count; ++j)
        ASSERT_TRUE(BitEqual(out_rows[k][j], ref[j]))
            << "output " << k << " count " << count << " j " << j;
    }
  }
}

TEST_P(BackendBitIdentity, DecodeLincombMultiMatchesSingleOutput) {
  check_decode_lincomb_multi<std::int8_t>(table());
  check_decode_lincomb_multi<std::int16_t>(table());
  check_decode_lincomb_multi<std::int32_t>(table());
  check_decode_lincomb_multi<std::int64_t>(table());
}

TEST_P(BackendBitIdentity, DenseTransformAxis) {
  const KernelTable& t = table();
  std::mt19937_64 rng(808);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  for (index_t n : {index_t{1}, index_t{2}, index_t{3}, index_t{5}, index_t{8},
                    index_t{16}}) {
    std::vector<double> matrix(static_cast<std::size_t>(n * n));
    for (auto& m : matrix) m = uniform(rng);
    for (index_t outer : {index_t{1}, index_t{3}}) {
      for (index_t inner : {index_t{1}, index_t{3}, index_t{16}}) {
        const index_t volume = outer * n * inner;
        std::vector<double> src(static_cast<std::size_t>(volume));
        for (auto& v : src) v = uniform(rng);
        for (bool forward : {true, false}) {
          std::vector<double> dst_simd(static_cast<std::size_t>(volume), -7.0);
          std::vector<double> dst_ref(static_cast<std::size_t>(volume), -7.0);
          t.dense_transform_axis(src.data(), dst_simd.data(), matrix.data(), n,
                                 outer, inner, forward);
          kernels::dense_transform_axis(src.data(), dst_ref.data(),
                                        matrix.data(), n, outer, inner,
                                        forward);
          for (index_t j = 0; j < volume; ++j)
            ASSERT_TRUE(BitEqual(dst_simd[j], dst_ref[j]))
                << "n " << n << " outer " << outer << " inner " << inner
                << " fwd " << forward << " j " << j;
        }
      }
    }
  }
}

TEST_P(BackendBitIdentity, LeeDctAxisAllSupportedSizes) {
  const KernelTable& t = table();
  std::mt19937_64 rng(909);
  std::uniform_real_distribution<double> uniform(-1.0, 1.0);
  for (index_t n : {index_t{2}, index_t{4}, index_t{8}, index_t{16},
                    index_t{32}, index_t{64}, index_t{128}}) {
    for (index_t outer : {index_t{1}, index_t{3}}) {
      for (index_t inner : {index_t{1}, index_t{3}, index_t{8}}) {
        const index_t volume = outer * n * inner;
        std::vector<double> base(static_cast<std::size_t>(volume));
        for (auto& v : base) v = uniform(rng);
        for (bool forward : {true, false}) {
          std::vector<double> data_simd = base;
          std::vector<double> data_ref = base;
          std::vector<double> tmp_simd(static_cast<std::size_t>(volume));
          std::vector<double> tmp_ref(static_cast<std::size_t>(volume));
          t.dct_axis(data_simd.data(), tmp_simd.data(), n, outer, inner,
                     forward);
          kernels::dct_fast_axis(data_ref.data(), tmp_ref.data(), n, outer,
                                 inner, forward);
          for (index_t j = 0; j < volume; ++j)
            ASSERT_TRUE(BitEqual(data_simd[j], data_ref[j]))
                << "n " << n << " outer " << outer << " inner " << inner
                << " fwd " << forward << " j " << j;
        }
      }
    }
  }
}

/// End to end: the full codec (compress bytes, lincomb indices, decompressed
/// values) must be identical whichever backend is active.
TEST_P(BackendBitIdentity, EndToEndCodecMatchesScalarBackend) {
  BackendGuard guard;
  CompressorSettings settings;
  settings.block_shape = Shape{16, 16};
  settings.float_type = FloatType::kFloat32;
  settings.index_type = IndexType::kInt16;
  Compressor compressor(settings);
  Rng rng(777);
  const NDArray<double> a_raw = random_smooth(Shape{48, 80}, rng, 6);
  const NDArray<double> b_raw = random_smooth(Shape{48, 80}, rng, 6);

  auto run = [&] {
    const CompressedArray a = compressor.compress(a_raw);
    const CompressedArray b = compressor.compress(b_raw);
    const CompressedArray mix = a + 0.5 * b - 0.125 * a;
    return std::make_tuple(a.biggest, a.indices, mix.biggest, mix.indices,
                           compressor.decompress(mix).vector());
  };

  ASSERT_TRUE(kernels::set_backend(Backend::kScalar));
  const auto reference = run();
  ASSERT_TRUE(kernels::set_backend(GetParam()));
  EXPECT_EQ(run(), reference);
}

INSTANTIATE_TEST_SUITE_P(
    AllAvailable, BackendBitIdentity, ::testing::ValuesIn(available_backends()),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return std::string(kernels::backend_name(info.param));
    });

}  // namespace
}  // namespace pyblaz
