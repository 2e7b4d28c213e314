#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/cache/block_cache.hpp"
#include "core/codec/compressor.hpp"
#include "core/codec/serialization.hpp"
#include "core/error/error.hpp"
#include "core/fault/fault.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/telemetry/telemetry.hpp"
#include "core/util/rng.hpp"

namespace pyblaz {
namespace {

struct FaultGuard {
  ~FaultGuard() { fault::disarm_all(); }
};

struct SchedulerGuard {
  ~SchedulerGuard() {
    parallel::set_serialize_regions(false);
    parallel::set_num_threads(0);
    parallel::set_num_shards(0);
  }
};

/// Restores the process-wide default cache capacity (tests run in one
/// process; the suite's default is cache-off).
struct CacheCapacityGuard {
  ~CacheCapacityGuard() { cache::set_default_capacity(0); }
};

// ---------------------------------------------------------------------------
// BlockCache unit semantics (synthetic fills, no codec involved).
// ---------------------------------------------------------------------------

cache::BlockCache::FillFn pattern_fill(index_t kb, index_t volume) {
  return [kb, volume](double* buffer) {
    for (index_t j = 0; j < volume; ++j)
      buffer[j] = static_cast<double>(kb * volume + j);
  };
}

TEST(BlockCacheUnit, HitMissCountingAndPayload) {
  cache::BlockCache cache(4, 8, /*num_shards=*/1);
  auto first = cache.fetch(0, pattern_fill(0, 8));
  auto again = cache.fetch(0, pattern_fill(0, 8));
  EXPECT_EQ(first.data(), again.data());
  EXPECT_EQ(again[5], 5.0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(cache.resident_blocks(), 1);
  EXPECT_EQ(cache.dirty_blocks(), 0);
}

TEST(BlockCacheUnit, LruEvictionOrder) {
  cache::BlockCache cache(2, 4, /*num_shards=*/1);
  (void)cache.fetch(0, pattern_fill(0, 4));
  (void)cache.fetch(1, pattern_fill(1, 4));
  (void)cache.fetch(0, pattern_fill(0, 4));  // 0 is now most recent.
  (void)cache.fetch(2, pattern_fill(2, 4));  // Evicts 1, the LRU block.
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.resident_blocks(), 2);
}

TEST(BlockCacheUnit, DirtyBlocksArePinned) {
  cache::BlockCache cache(1, 4, /*num_shards=*/1);
  cache.write(5, pattern_fill(5, 4), [](double* buffer) { buffer[0] = -1.0; });
  // A stream of clean fetches cycles the one clean slot but can never evict
  // the dirty block.
  for (index_t kb = 0; kb < 4; ++kb) (void)cache.fetch(kb, pattern_fill(kb, 4));
  EXPECT_TRUE(cache.contains(5));
  EXPECT_EQ(cache.dirty_blocks(), 1);
  EXPECT_EQ(cache.resident_blocks(), 2);  // Pinned dirty + one clean.
}

TEST(BlockCacheUnit, FlushWritesBackAscendingThenTrims) {
  cache::BlockCache cache(2, 4, /*num_shards=*/1);
  for (index_t kb : {3, 1, 2})
    cache.write(kb, pattern_fill(kb, 4),
                [](double* buffer) { buffer[0] = 9.0; });
  std::vector<index_t> order;
  const index_t written = cache.flush(
      [&](index_t kb, const double* block) {
        order.push_back(kb);
        EXPECT_EQ(block[0], 9.0);
      });
  EXPECT_EQ(written, 3);
  EXPECT_EQ(order, (std::vector<index_t>{1, 2, 3}));
  EXPECT_EQ(cache.dirty_blocks(), 0);
  EXPECT_EQ(cache.stats().writebacks, 3u);
  // Written-back blocks leave the cache: their buffers hold the pre-encode
  // values, not what the archive now decodes to.
  EXPECT_EQ(cache.resident_blocks(), 0);
}

TEST(BlockCacheUnit, RefKeepsEvictedBufferAlive) {
  cache::BlockCache cache(1, 4, /*num_shards=*/1);
  auto ref = cache.fetch(0, pattern_fill(0, 4));
  (void)cache.fetch(1, pattern_fill(1, 4));  // Evicts block 0.
  EXPECT_FALSE(cache.contains(0));
  EXPECT_EQ(ref[3], 3.0);  // The proxy still owns the buffer.
}

TEST(BlockCacheUnit, DefaultCapacityOverride) {
  CacheCapacityGuard guard;
  cache::set_default_capacity(7);
  EXPECT_EQ(cache::default_capacity_blocks(), 7);
  cache::set_default_capacity(-3);
  EXPECT_EQ(cache::default_capacity_blocks(), 0);
}

TEST(BlockCacheUnit, ShardedKeysLandInDistinctShards) {
  cache::BlockCache cache(16, 4);  // Default sharding: min(8, capacity) = 8.
  EXPECT_EQ(cache.num_shards(), 8);
  for (index_t kb = 0; kb < 16; ++kb) (void)cache.fetch(kb, pattern_fill(kb, 4));
  EXPECT_EQ(cache.resident_blocks(), 16);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

// ---------------------------------------------------------------------------
// Random-access reads: get / decompress_roi vs full decompress.
// ---------------------------------------------------------------------------

struct AccessCase {
  const char* name;
  Shape array_shape;
  Shape block_shape;
  FloatType float_type;
  IndexType index_type;
  TransformKind transform;
  bool prune_half = false;
  bool prune_dc = false;
};

CompressorSettings settings_for(const AccessCase& p) {
  CompressorSettings settings{.block_shape = p.block_shape,
                              .float_type = p.float_type,
                              .index_type = p.index_type,
                              .transform = p.transform};
  if (p.prune_half)
    settings.mask = PruningMask::keep_fraction(p.block_shape, 0.5);
  if (p.prune_dc) {
    // Adversarial: the DC coefficient itself is pruned away.
    std::vector<std::uint8_t> flags(
        static_cast<std::size_t>(p.block_shape.volume()), 0);
    for (std::size_t j = 1; j < flags.size() && j < 7; ++j) flags[j] = 1;
    settings.mask = PruningMask::from_flags(p.block_shape, std::move(flags));
  }
  return settings;
}

class RandomAccess : public ::testing::TestWithParam<AccessCase> {};

TEST_P(RandomAccess, GetMatchesFullDecompressBitForBit) {
  CacheCapacityGuard guard;
  const auto& p = GetParam();
  Compressor compressor(settings_for(p));
  Rng rng(907);
  const NDArray<double> data = random_smooth(p.array_shape, rng);
  const CompressedArray compressed = compressor.compress(data);
  const NDArray<double> full = compressor.decompress(compressed);

  for (index_t capacity : {index_t{0}, index_t{1}, index_t{3}}) {
    cache::set_default_capacity(capacity);
    const CompressedArray fresh = compressed;  // Fresh decode state per leg.
    for_each_index(p.array_shape, [&](const std::vector<index_t>& idx) {
      EXPECT_EQ(fresh.get(idx), full.at(idx)) << "capacity " << capacity;
    });
    if (capacity > 0) {
      ASSERT_NE(fresh.block_cache(), nullptr);
      EXPECT_GT(fresh.cached_blocks(), 0);
    } else {
      EXPECT_EQ(fresh.block_cache(), nullptr);
    }
  }
}

TEST_P(RandomAccess, RoiMatchesFullDecompressBitForBit) {
  CacheCapacityGuard guard;
  const auto& p = GetParam();
  Compressor compressor(settings_for(p));
  Rng rng(908);
  const NDArray<double> data = random_smooth(p.array_shape, rng);
  const CompressedArray compressed = compressor.compress(data);
  const NDArray<double> full = compressor.decompress(compressed);
  const int d = p.array_shape.ndim();

  // Full array, one element, and an off-grid interior window per axis.
  std::vector<std::pair<std::vector<index_t>, std::vector<index_t>>> regions;
  std::vector<index_t> zeros(static_cast<std::size_t>(d), 0);
  std::vector<index_t> ones(static_cast<std::size_t>(d), 1);
  regions.emplace_back(zeros, p.array_shape.dims());
  regions.emplace_back(zeros, ones);
  std::vector<index_t> lo(static_cast<std::size_t>(d)), hi(lo);
  for (int axis = 0; axis < d; ++axis) {
    lo[static_cast<std::size_t>(axis)] =
        std::min<index_t>(1, p.array_shape[axis] - 1);
    hi[static_cast<std::size_t>(axis)] = p.array_shape[axis];
  }
  regions.emplace_back(lo, hi);

  for (index_t capacity : {index_t{0}, index_t{2}, index_t{64}}) {
    cache::set_default_capacity(capacity);
    const CompressedArray fresh = compressed;
    for (const auto& [rlo, rhi] : regions) {
      const NDArray<double> roi = fresh.decompress_roi(rlo, rhi);
      for_each_index(roi.shape(), [&](const std::vector<index_t>& idx) {
        std::vector<index_t> src = idx;
        for (int axis = 0; axis < d; ++axis)
          src[static_cast<std::size_t>(axis)] +=
              rlo[static_cast<std::size_t>(axis)];
        EXPECT_EQ(roi.at(idx), full.at(src)) << "capacity " << capacity;
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RandomAccess,
    ::testing::Values(
        AccessCase{"ragged_2d", Shape{7, 5}, Shape{4, 4}, FloatType::kFloat32,
                   IndexType::kInt8, TransformKind::kDCT},
        AccessCase{"haar_1d", Shape{21}, Shape{8}, FloatType::kFloat32,
                   IndexType::kInt16, TransformKind::kHaar},
        AccessCase{"pruned_3d", Shape{5, 6, 7}, Shape{2, 4, 8},
                   FloatType::kFloat64, IndexType::kInt16, TransformKind::kDCT,
                   /*prune_half=*/true},
        AccessCase{"pruned_dc", Shape{12, 9}, Shape{4, 4}, FloatType::kFloat32,
                   IndexType::kInt8, TransformKind::kDCT, /*prune_half=*/false,
                   /*prune_dc=*/true}),
    [](const auto& info) { return info.param.name; });

TEST(RandomAccessValidation, RejectsBadIndicesAndRegions) {
  Compressor compressor({.block_shape = Shape{4, 4}});
  Rng rng(11);
  const CompressedArray compressed =
      compressor.compress(random_smooth(Shape{8, 8}, rng));
  EXPECT_THROW((void)compressed.get({8, 0}), std::out_of_range);
  EXPECT_THROW((void)compressed.get({0}), std::out_of_range);
  EXPECT_THROW((void)compressed.decompress_roi({0, 0}, {0, 4}),
               std::invalid_argument);
  EXPECT_THROW((void)compressed.decompress_roi({0, 0}, {9, 4}),
               std::invalid_argument);
  EXPECT_THROW((void)compressed.decompress_roi({0}, {4}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Write path: dirty blocks, flush, bit-identical write-back.
// ---------------------------------------------------------------------------

CompressedArray compress_case(const Compressor& compressor, const Shape& shape,
                              unsigned seed) {
  Rng rng(seed);
  return compressor.compress(random_smooth(shape, rng));
}

TEST(WriteBack, SetIsVisibleThroughReadsBeforeFlush) {
  CacheCapacityGuard guard;
  Compressor compressor({.block_shape = Shape{4, 4}});

  // Cache on: pre-flush reads see exactly the written (quantized) value —
  // the decoded buffer is authoritative until flush re-encodes it.
  cache::set_default_capacity(8);
  CompressedArray cached = compress_case(compressor, Shape{8, 8}, 21);
  cached.set({3, 3}, 0.25);
  EXPECT_EQ(cached.get({3, 3}), quantize(0.25, cached.float_type));
  NDArray<double> roi = cached.decompress_roi({0, 0}, {4, 4});
  EXPECT_EQ(roi.at({3, 3}), cached.get({3, 3}));

  // Cache off: set() re-encodes immediately (lossy, as the codec is), so
  // reads reflect the round-tripped value — and agree with a full decode.
  cache::set_default_capacity(0);
  CompressedArray direct = compress_case(compressor, Shape{8, 8}, 21);
  direct.set({3, 3}, 0.25);
  const NDArray<double> full = compressor.decompress(direct);
  EXPECT_EQ(direct.get({3, 3}), full.at({3, 3}));
  roi = direct.decompress_roi({0, 0}, {4, 4});
  EXPECT_EQ(roi.at({3, 3}), direct.get({3, 3}));
}

TEST(WriteBack, FlushedBlocksBitIdenticalToDirectReencode) {
  CacheCapacityGuard guard;
  cache::set_default_capacity(4);
  Compressor compressor({.block_shape = Shape{4, 4},
                         .float_type = FloatType::kFloat32,
                         .index_type = IndexType::kInt8});
  const CompressedArray original = compress_case(compressor, Shape{11, 9}, 33);
  const index_t kept = original.kept_per_block();

  // Touch two of the six blocks through the cache...
  CompressedArray cached = original;
  cached.set({0, 0}, 3.5);
  cached.set({1, 2}, -1.25);   // Same block as (0, 0).
  cached.set({10, 8}, 0.125);  // The ragged corner block.
  EXPECT_EQ(cached.dirty_cached_blocks(), 2);
  EXPECT_EQ(cached.flush_cache(), 2);
  EXPECT_EQ(cached.dirty_cached_blocks(), 0);

  // ...and re-encode the same decoded data directly through the compressor.
  NDArray<double> decoded = compressor.decompress(original);
  decoded.at({0, 0}) = static_cast<double>(quantize(3.5, original.float_type));
  decoded.at({1, 2}) =
      static_cast<double>(quantize(-1.25, original.float_type));
  decoded.at({10, 8}) =
      static_cast<double>(quantize(0.125, original.float_type));
  const CompressedArray direct = compressor.compress(decoded);

  // Touched blocks match the direct re-encode bit for bit; untouched blocks
  // keep their original bytes (flush never re-rounds them).
  const Shape grid = original.block_grid();
  const std::vector<index_t> touched = {0 * grid[1] + 0, 2 * grid[1] + 2};
  for (index_t kb = 0; kb < original.num_blocks(); ++kb) {
    const bool is_touched =
        std::find(touched.begin(), touched.end(), kb) != touched.end();
    const CompressedArray& expected = is_touched ? direct : original;
    EXPECT_EQ(cached.biggest[static_cast<std::size_t>(kb)],
              expected.biggest[static_cast<std::size_t>(kb)])
        << "block " << kb;
    for (index_t j = 0; j < kept; ++j)
      EXPECT_EQ(cached.indices.get(static_cast<std::size_t>(kb * kept + j)),
                expected.indices.get(static_cast<std::size_t>(kb * kept + j)))
          << "block " << kb << " slot " << j;
  }
}

TEST(WriteBack, FullySetArrayMatchesDirectReencodeBytes) {
  CacheCapacityGuard guard;
  cache::set_default_capacity(2);  // Tiny cache: dirty pinning must not care.
  Compressor compressor({.block_shape = Shape{4, 4}});
  const CompressedArray original = compress_case(compressor, Shape{8, 12}, 47);

  CompressedArray cached = original;
  NDArray<double> decoded = compressor.decompress(original);
  const Shape grid = original.block_grid();
  for_each_index(grid, [&](const std::vector<index_t>& block_idx) {
    // One write per block, so every block is dirty.
    std::vector<index_t> element = block_idx;
    for (std::size_t axis = 0; axis < element.size(); ++axis)
      element[axis] *= original.block_shape[static_cast<int>(axis)];
    const double value =
        0.5 + static_cast<double>(element[0]) - static_cast<double>(element[1]);
    cached.set(element, value);
    decoded.at(element) =
        static_cast<double>(quantize(value, original.float_type));
  });
  EXPECT_EQ(cached.dirty_cached_blocks(), original.num_blocks());
  cached.flush_cache();

  const CompressedArray direct = compressor.compress(decoded);
  EXPECT_EQ(serialize(cached), serialize(direct));
}

TEST(WriteBack, CacheOffSingleWritesMatchCachedFlush) {
  CacheCapacityGuard guard;
  Compressor compressor({.block_shape = Shape{4, 4}});
  const CompressedArray original = compress_case(compressor, Shape{9, 7}, 55);

  cache::set_default_capacity(0);
  CompressedArray direct = original;
  direct.set({0, 0}, 1.5);
  direct.set({8, 6}, -2.5);

  cache::set_default_capacity(16);
  CompressedArray cached = original;
  cached.set({0, 0}, 1.5);
  cached.set({8, 6}, -2.5);
  cached.flush_cache();

  EXPECT_EQ(serialize(direct), serialize(cached));
}

TEST(WriteBack, ReadAfterFlushDecodesTheArchive) {
  // flush_cache() re-encodes the written buffer, which is lossy, so the
  // buffer itself must not keep serving reads: after the flush a read
  // returns what a cache-off decode of the same archive returns, and a
  // second write to the block starts from that decode, as cache-off does.
  CacheCapacityGuard guard;
  Compressor compressor({.block_shape = Shape{4, 4}});
  const CompressedArray original = compress_case(compressor, Shape{8, 8}, 67);

  cache::set_default_capacity(0);
  CompressedArray direct = original;
  direct.set({1, 2}, 0.75);

  cache::set_default_capacity(16);
  CompressedArray cached = original;
  cached.set({1, 2}, 0.75);
  ASSERT_EQ(cached.flush_cache(), 1);
  ASSERT_EQ(serialize(cached), serialize(direct));
  const NDArray<double> roi = cached.decompress_roi({0, 0}, {4, 4});
  const double element = cached.get({1, 2});

  cache::set_default_capacity(0);
  const CompressedArray uncached = cached;  // Same archive, no cache.
  const NDArray<double> want = uncached.decompress_roi({0, 0}, {4, 4});
  for (index_t k = 0; k < want.size(); ++k)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(roi[k]),
              std::bit_cast<std::uint64_t>(want[k]))
        << "element " << k;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(element),
            std::bit_cast<std::uint64_t>(uncached.get({1, 2})));

  direct.set({2, 1}, -0.5);
  cache::set_default_capacity(16);
  cached.set({2, 1}, -0.5);
  ASSERT_EQ(cached.flush_cache(), 1);
  EXPECT_EQ(serialize(cached), serialize(direct));
}

TEST(WriteBack, DirtyArchiveGuards) {
  CacheCapacityGuard guard;
  cache::set_default_capacity(8);
  Compressor compressor({.block_shape = Shape{4, 4}});
  CompressedArray array = compress_case(compressor, Shape{8, 8}, 61);
  array.set({1, 1}, 2.0);
  EXPECT_THROW((void)serialize(array), std::logic_error);
  EXPECT_THROW((void)serialize_v2(array), std::logic_error);
  EXPECT_THROW((void)compressor.decompress(array), std::logic_error);
  EXPECT_THROW((void)CompressedArray(array), std::logic_error);

  // Moves carry the dirty cache along; flushing afterwards works.
  CompressedArray moved = std::move(array);
  EXPECT_EQ(moved.dirty_cached_blocks(), 1);
  EXPECT_EQ(moved.flush_cache(), 1);
  EXPECT_NO_THROW((void)serialize(moved));

  // invalidate_cache() drops unflushed writes entirely.
  moved.set({1, 1}, -4.0);
  moved.invalidate_cache();
  EXPECT_EQ(moved.dirty_cached_blocks(), 0);
  EXPECT_NO_THROW((void)serialize(moved));
}

// ---------------------------------------------------------------------------
// Determinism: capacity / threads / shards never change a single bit.
// ---------------------------------------------------------------------------

TEST(CacheDeterminism, BitIdenticalAcrossCapacityThreadsShards) {
  CacheCapacityGuard capacity_guard;
  SchedulerGuard scheduler_guard;
  Compressor compressor({.block_shape = Shape{4, 4},
                         .index_type = IndexType::kInt16});
  const CompressedArray compressed =
      compress_case(compressor, Shape{19, 13}, 71);

  auto read_everything = [&](const CompressedArray& array) {
    std::vector<double> out;
    const NDArray<double> roi = array.decompress_roi({2, 1}, {17, 12});
    out.insert(out.end(), roi.vector().begin(), roi.vector().end());
    for (index_t i = 0; i < 19; i += 3)
      for (index_t j = 0; j < 13; j += 2) out.push_back(array.get({i, j}));
    const NDArray<double> map =
        ops::structural_similarity_map(array, array, {});
    out.insert(out.end(), map.vector().begin(), map.vector().end());
    return out;
  };

  cache::set_default_capacity(0);
  parallel::set_num_threads(1);
  const std::vector<double> baseline = read_everything(compressed);

  for (index_t capacity : {index_t{0}, index_t{1}, index_t{3}, index_t{64}}) {
    for (int threads : {1, 4}) {
      for (int shards : {1, 4}) {
        cache::set_default_capacity(capacity);
        parallel::set_num_threads(threads);
        parallel::set_num_shards(shards);
        const CompressedArray fresh = compressed;
        const std::vector<double> got = read_everything(fresh);
        ASSERT_EQ(got.size(), baseline.size());
        EXPECT_EQ(0, std::memcmp(got.data(), baseline.data(),
                                 got.size() * sizeof(double)))
            << "capacity " << capacity << " threads " << threads << " shards "
            << shards;
      }
    }
  }
}

TEST(CacheDeterminism, ConcurrentRoiReadsMatchReference) {
  CacheCapacityGuard guard;
  cache::set_default_capacity(8);
  Compressor compressor({.block_shape = Shape{4, 4}});
  const CompressedArray compressed =
      compress_case(compressor, Shape{24, 24}, 83);
  const NDArray<double> full = compressor.decompress(compressed);

  constexpr int kThreads = 4;
  constexpr int kRounds = 12;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      for (int round = 0; round < kRounds; ++round) {
        const index_t lo0 = (t * 3 + round) % 12;
        const index_t lo1 = (t * 5 + round * 2) % 12;
        const NDArray<double> roi =
            compressed.decompress_roi({lo0, lo1}, {lo0 + 9, lo1 + 9});
        for_each_index(roi.shape(), [&](const std::vector<index_t>& idx) {
          if (roi.at(idx) != full.at({idx[0] + lo0, idx[1] + lo1}))
            ++failures[static_cast<std::size_t>(t)];
        });
      }
    });
  }
  for (auto& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;

  ASSERT_NE(compressed.block_cache(), nullptr);
  const auto stats = compressed.block_cache()->stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

// ---------------------------------------------------------------------------
// Fused SSIM map stays bit-identical to the blockwise recomposition.
// ---------------------------------------------------------------------------

TEST(FusedSimilarityMap, MatchesBlockwiseRecomposition) {
  Compressor compressor({.block_shape = Shape{4, 4}});
  const CompressedArray a = compress_case(compressor, Shape{13, 10}, 91);
  const CompressedArray b = compress_case(compressor, Shape{13, 10}, 92);
  const ops::SsimParams params;

  const NDArray<double> fused = ops::structural_similarity_map(a, b, params);

  const NDArray<double> mu_a = ops::blockwise_mean(a);
  const NDArray<double> mu_b = ops::blockwise_mean(b);
  const NDArray<double> var_a = ops::blockwise_variance(a);
  const NDArray<double> var_b = ops::blockwise_variance(b);
  const NDArray<double> cov_ab = ops::blockwise_covariance(a, b);
  for (index_t k = 0; k < fused.size(); ++k) {
    const double ma = mu_a[k], mb = mu_b[k];
    const double va = std::max(var_a[k], 0.0), vb = std::max(var_b[k], 0.0);
    const double sa = std::sqrt(va), sb = std::sqrt(vb);
    const double sl = params.luminance_stabilizer;
    const double sc = params.contrast_stabilizer;
    const double luminance = (2.0 * ma * mb + sl) / (ma * ma + mb * mb + sl);
    const double contrast = (2.0 * sa * sb + sc) / (va + vb + sc);
    const double structure = (cov_ab[k] + sc / 2.0) / (sa * sb + sc / 2.0);
    const double expected = std::pow(luminance, params.luminance_weight) *
                            std::pow(contrast, params.contrast_weight) *
                            std::pow(structure, params.structure_weight);
    EXPECT_EQ(fused[k], expected) << "block " << k;
  }
}

// ---------------------------------------------------------------------------
// Telemetry surfacing and fault injection.
// ---------------------------------------------------------------------------

TEST(CacheTelemetry, CountersAppearInSnapshot) {
  CacheCapacityGuard guard;
  cache::set_default_capacity(4);
  Compressor compressor({.block_shape = Shape{4, 4}});
  const CompressedArray compressed = compress_case(compressor, Shape{8, 8}, 97);
  (void)compressed.get({0, 0});
  (void)compressed.get({0, 0});

  const auto snapshot = telemetry::snapshot();
  std::uint64_t hits = 0, misses = 0;
  bool lookup_seen = false;
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "cache.hits") hits = counter.value;
    if (counter.name == "cache.misses") misses = counter.value;
  }
  for (const auto& histogram : snapshot.histograms)
    if (histogram.name == "cache.lookup_ns" && histogram.count > 0)
      lookup_seen = true;
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_TRUE(lookup_seen);
}

TEST(CacheFault, FillAllocationFailureSurfacesErrorAndCacheStaysConsistent) {
  CacheCapacityGuard capacity_guard;
  FaultGuard fault_guard;
  cache::set_default_capacity(8);
  Compressor compressor({.block_shape = Shape{4, 4}});
  const CompressedArray compressed =
      compress_case(compressor, Shape{8, 8}, 101);

  (void)compressed.get({0, 0});  // Block 0 fills successfully.
  ASSERT_TRUE(fault::arm("cache.fill.alloc:badalloc,nth=0"));
  try {
    (void)compressed.get({0, 7});  // Block 1's fill allocation fails.
    FAIL() << "expected cc::Error";
  } catch (const cc::Error& error) {
    EXPECT_EQ(error.code(), cc::ErrorCode::kResourceExhausted);
    EXPECT_EQ(error.site(), "cache.fill.alloc");
  }
  EXPECT_GE(fault::fired("cache.fill.alloc"), 1u);

  // The failed fill inserted nothing; the cache still serves and can fill
  // the block once allocation succeeds again.
  EXPECT_EQ(compressed.cached_blocks(), 1);
  fault::disarm_all();
  const NDArray<double> full = compressor.decompress(compressed);
  EXPECT_EQ(compressed.get({0, 7}), full.at({0, 7}));
  EXPECT_EQ(compressed.cached_blocks(), 2);
}

}  // namespace
}  // namespace pyblaz
