/// Decoded-block cache benchmark: measures what the cache subsystem
/// (core/cache/block_cache.hpp) buys and what it costs.
///
///   - roi_read: a hot 24x24 window read repeatedly through decompress_roi
///     with the cache warm ("cached"), with the cache off ("direct": partial
///     per-block decode every call), and via the pre-ROI alternative of
///     decompressing the whole array per read ("full").  The cached-over-full
///     ratio is the headline acceptance number (>= 5x on a cache-resident
///     hot set).
///   - get_sweep: a fixed pseudo-random single-element get() stream under a
///     capacity sweep; each entry records its measured hit rate, so the JSON
///     carries the hit-rate curve, not just timings.
///   - write_set: one write per block across a working set, through the
///     cache (set() + one flush_cache() per call) and with the cache off
///     (every set() pays an immediate decode + re-encode) — the write-back
///     overhead comparison.
///
/// Usage: bench_block_cache [OUTPUT.json] [--smoke]
///
/// Writes BENCH_cache.local.json by default (gitignored; pass a path when
/// refreshing the committed baseline via tools/bench_merge.py).  --smoke
/// shrinks the array and the sweep for CI.  tools/bench_compare.py diffs the
/// cache[] JSON section against a baseline (informational, never gating).  The
/// determinism contract means none of these knobs change a single output
/// bit; the test suite pins that, this harness only measures time.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/cache/block_cache.hpp"
#include "core/codec/compressor.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/util/rng.hpp"

namespace {

using namespace pyblaz;  // NOLINT

using bench::Report;

double hit_rate_of(const CompressedArray& array) {
  const cache::BlockCache* cache = array.block_cache();
  if (!cache) return -1.0;
  const auto stats = cache->stats();
  const double total = static_cast<double>(stats.hits + stats.misses);
  return total > 0.0 ? static_cast<double>(stats.hits) / total : -1.0;
}

/// Times `op` into cache[] with the hit rate `array` saw while it ran (-1
/// when there is no cached array).  The hit rate is read only after timing.
void run(Report& report, const std::string& name, const std::string& impl,
         const Shape& shape, index_t elements, const CompressedArray* array,
         const std::function<void()>& op) {
  const double seconds = bench::time_op(op);
  const double hit_rate = array ? hit_rate_of(*array) : -1.0;
  report.record("cache", {{"name", name},
                          {"impl", impl},
                          {"shape", bench::shape_string(shape)},
                          {"elements_per_call", elements},
                          {"seconds_per_call", seconds},
                          {"hit_rate", hit_rate}});
}

/// Hot-window reads: cached vs direct partial decode vs full decompress.
void bench_roi_read(Report& report, const Compressor& compressor,
                    const CompressedArray& compressed, const Shape& shape) {
  const std::vector<index_t> lo = {8, 8};
  const std::vector<index_t> hi = {32, 32};
  const index_t roi_elements = 24 * 24;

  cache::set_default_capacity(64);
  const CompressedArray cached = compressed;
  NDArray<double> roi = cached.decompress_roi(lo, hi);  // Warm the hot set.
  run(report, "roi_read", "cached", shape, roi_elements, &cached,
      [&] { roi = cached.decompress_roi(lo, hi); });

  cache::set_default_capacity(0);
  const CompressedArray direct = compressed;
  run(report, "roi_read", "direct", shape, roi_elements, nullptr,
      [&] { roi = direct.decompress_roi(lo, hi); });

  NDArray<double> full = compressor.decompress(compressed);
  run(report, "roi_read", "full", shape, roi_elements, nullptr,
      [&] { full = compressor.decompress(compressed); });
}

/// Hit-rate curve: one fixed pseudo-random get() stream, capacity swept.
void bench_get_sweep(Report& report, const CompressedArray& compressed,
                     const Shape& shape, const std::vector<index_t>& capacities,
                     index_t stream_length) {
  // The access stream is fixed across capacities (and runs), so the hit-rate
  // column is a property of capacity alone.
  Rng rng(12);
  std::vector<std::vector<index_t>> stream;
  stream.reserve(static_cast<std::size_t>(stream_length));
  for (index_t i = 0; i < stream_length; ++i) {
    std::vector<index_t> idx(static_cast<std::size_t>(shape.ndim()));
    for (int axis = 0; axis < shape.ndim(); ++axis)
      idx[static_cast<std::size_t>(axis)] = rng.integer(0, shape[axis] - 1);
    stream.push_back(std::move(idx));
  }

  for (index_t capacity : capacities) {
    cache::set_default_capacity(capacity);
    const CompressedArray array = compressed;
    double sink = 0.0;
    index_t next = 0;
    run(report, "get_sweep", "c" + std::to_string(capacity), shape, 1, &array,
        [&] {
          sink += array.get(stream[static_cast<std::size_t>(next)]);
          next = (next + 1) % stream_length;
        });
    if (sink == 1e300) std::printf("unreachable\n");  // Defeat dead-code elim.
  }
}

/// Write-back: one write per block over a working set, cached (deferred
/// re-encode at flush, decoded buffers reused across calls) vs cache-off
/// (every set() is a full decode + re-encode of its block).
void bench_write_set(Report& report, const CompressedArray& compressed,
                     const Shape& shape) {
  const Shape grid = compressed.block_grid();
  std::vector<std::vector<index_t>> targets;
  for_each_index(grid, [&](const std::vector<index_t>& block_idx) {
    std::vector<index_t> element = block_idx;
    for (std::size_t axis = 0; axis < element.size(); ++axis)
      element[axis] *= compressed.block_shape[static_cast<int>(axis)];
    targets.push_back(std::move(element));
  });
  const index_t elements = static_cast<index_t>(targets.size());
  double value = 0.0;

  cache::set_default_capacity(compressed.num_blocks());
  CompressedArray cached = compressed;
  run(report, "write_set", "cached", shape, elements, nullptr, [&] {
    for (const auto& idx : targets) cached.set(idx, value);
    value += 1.0 / 1024.0;
    cached.flush_cache();
  });

  cache::set_default_capacity(0);
  CompressedArray direct = compressed;
  run(report, "write_set", "direct", shape, elements, nullptr, [&] {
    for (const auto& idx : targets) direct.set(idx, value);
    value += 1.0 / 1024.0;
  });
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_cache.local.json";
  bool smoke = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0)
      smoke = true;
    else
      out_path = argv[a];
  }

  const Shape array_shape = smoke ? Shape{96, 96} : Shape{256, 256};
  const Shape block_shape{8, 8};
  const std::vector<index_t> capacities =
      smoke ? std::vector<index_t>{16, 144}
            : std::vector<index_t>{16, 64, 256, 1024};
  const index_t stream_length = smoke ? 512 : 4096;

  Compressor compressor({.block_shape = block_shape,
                         .float_type = FloatType::kFloat32,
                         .index_type = IndexType::kInt8});
  Rng rng(11);
  const CompressedArray compressed =
      compressor.compress(random_smooth(array_shape, rng, 6));

  Report report;
  bench_roi_read(report, compressor, compressed, array_shape);
  bench_get_sweep(report, compressed, array_shape, capacities, stream_length);
  bench_write_set(report, compressed, array_shape);
  cache::set_default_capacity(0);  // Restore the CC_CACHE_BLOCKS default.

  bench::print_ratios(
      report,
      {{.title = "hot-ROI read speedup over full decompress",
        .section = "cache", .key = "impl", .num = "full", .den = "cached",
        .lo = 5.0,
        .warning = "cached hot-ROI read measured <5x over full decompress; "
                   "expected >=5x on a cache-resident hot set"},
       {.title = "cached over cache-off (roi_read: direct partial decode; "
                 "write_set: set all blocks + flush vs immediate re-encode)",
        .section = "cache", .key = "impl", .num = "direct", .den = "cached"}});

  if (!report.write_json(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
