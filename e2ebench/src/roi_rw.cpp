// roi_rw: one closed-loop client reads and writes a 2048^2 float32/int8
// array (block 8x8, 65,536 blocks) through a 4096-block decoded-block
// cache.  Accesses are 32x32 ROI reads drawn Zipf(s=1) over 1024 window
// positions; one access in eight is a set(); every 64th access is
// flush_cache() followed by l2_norm.  One request is one access.  The cache
// does most of the work here and nowhere else; writes run beside reads, so
// a read-path gain that costs write-back shows.
//
// The array is cut into 1024 tiles of 64x64 (8x8 blocks), each holding one
// read window of 4x4 blocks.  A set() lands in the same Zipf-drawn tile but
// in one of the 48 blocks outside its window, and no block is written twice
// in an epoch.  The library keeps a flushed block cached as the buffer it
// encoded, not as the archive now decodes it, so a read or a second write
// of such a block differs from cache-off (README, "Known defect"); the
// sequence never does either, and context() reports the defect from a
// one-block probe instead.
//
// Every epoch replays the same access sequence from the pristine archive
// with a fresh cache, so hit, miss, eviction and write-back counts repeat
// exactly.  The reference is the same sequence replayed at cache capacity 0.

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/cache/block_cache.hpp"
#include "core/codec/compressor.hpp"
#include "core/codec/serialization.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/ops.hpp"
#include "core/reference/reference.hpp"
#include "core/util/rng.hpp"
#include "harness.hpp"

namespace e2e {
namespace {

using pyblaz::CompressedArray;
using pyblaz::Compressor;
using pyblaz::CompressorSettings;
using pyblaz::index_t;
using pyblaz::NDArray;
using pyblaz::Shape;

constexpr index_t kEdge = 2048;
constexpr index_t kBlock = 8;
constexpr index_t kGrid = kEdge / kBlock;      // Blocks per axis.
constexpr index_t kWindow = 32;                // ROI edge.
constexpr index_t kTile = 64;                  // One window per tile.
constexpr index_t kTiles = (kEdge / kTile) * (kEdge / kTile);  // 1024.
constexpr long kCapacity = 4096;
constexpr int kEpochAccesses = 8192;
constexpr int kSetEvery = 8;
constexpr int kFlushEvery = 64;

enum class Kind { kRead, kSet, kFlush };

struct Access {
  Kind kind = Kind::kRead;
  index_t x = 0, y = 0;  // ROI corner, or the element a set() writes.
  double value = 0.0;
};

/// What an access must reproduce: the ROI hash of a read, or the archive
/// hash and l2_norm bits after a flush.
struct Expected {
  std::uint64_t hash = 0;
  std::uint64_t l2_bits = 0;
  double l2_ref = 0.0;  // Uncompressed l2 norm at a flush.
};

/// A tile's read window and the corners of the blocks outside it, in the
/// seeded order set() takes them.
struct Tile {
  index_t wx = 0, wy = 0;
  std::vector<std::pair<index_t, index_t>> free_blocks;
  std::size_t next_free = 0;
};

std::uint64_t roi_hash(const NDArray<double>& roi) {
  return hash_bytes(roi.data(), roi.vector().size() * sizeof(double));
}

class RoiRw final : public Workload {
 public:
  explicit RoiRw(const Options& options) : compressor_(settings()) {
    pyblaz::Rng rng(options.seed);
    // A smooth field centred on zero.  int8 error scales with a block's
    // largest coefficient, so an off-centre field would tie max_rel_error
    // to how far the seed happens to shift it.
    raw_ = pyblaz::random_smooth(Shape({kEdge, kEdge}), rng, 6);
    const auto [lo_it, hi_it] =
        std::minmax_element(raw_.vector().begin(), raw_.vector().end());
    const double lo = *lo_it, hi = *hi_it;
    range_ = hi - lo;
    for (double& v : raw_.vector()) v -= 0.5 * (lo + hi);

    // One window per 64x64 tile, shifted by a seeded multiple of the block
    // edge so windows stay block-aligned; Zipf ranks map to tiles through a
    // seeded permutation.
    for (index_t tx = 0; tx < kEdge / kTile; ++tx) {
      for (index_t ty = 0; ty < kEdge / kTile; ++ty) {
        Tile tile;
        const index_t ox = rng.integer(0, 4), oy = rng.integer(0, 4);
        tile.wx = tx * kTile + kBlock * ox;
        tile.wy = ty * kTile + kBlock * oy;
        for (index_t bx = 0; bx < kTile / kBlock; ++bx)
          for (index_t by = 0; by < kTile / kBlock; ++by)
            if (bx < ox || bx >= ox + kWindow / kBlock || by < oy ||
                by >= oy + kWindow / kBlock)
              tile.free_blocks.emplace_back(tx * kTile + bx * kBlock,
                                            ty * kTile + by * kBlock);
        std::shuffle(tile.free_blocks.begin(), tile.free_blocks.end(),
                     rng.engine());
        tiles_.push_back(std::move(tile));
      }
    }
    std::shuffle(tiles_.begin(), tiles_.end(), rng.engine());
    std::vector<double> cdf(static_cast<std::size_t>(kTiles));
    double total = 0.0;
    for (index_t k = 0; k < kTiles; ++k) {
      total += 1.0 / static_cast<double>(k + 1);
      cdf[static_cast<std::size_t>(k)] = total;
    }
    auto zipf_tile = [&]() -> Tile& {
      const double u = rng.uniform(0.0, total);
      const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
      const auto k = std::min<std::ptrdiff_t>(it - cdf.begin(), kTiles - 1);
      return tiles_[static_cast<std::size_t>(k)];
    };
    for (int a = 0; a < kEpochAccesses; ++a) {
      Access acc;
      if (a % kFlushEvery == kFlushEvery - 1) {
        acc.kind = Kind::kFlush;
      } else if (a % kSetEvery == 3) {
        // The tile's next unwritten block outside its window; a tile with
        // none left is drawn again.
        Tile* tile = &zipf_tile();
        while (tile->next_free == tile->free_blocks.size()) tile = &zipf_tile();
        const auto [bx, by] = tile->free_blocks[tile->next_free++];
        acc.kind = Kind::kSet;
        acc.x = bx + rng.integer(0, kBlock - 1);
        acc.y = by + rng.integer(0, kBlock - 1);
        // An update: the stored value nudged by up to 5% of the range.
        acc.value =
            raw_[acc.x * kEdge + acc.y] + rng.uniform(-0.05, 0.05) * range_;
      } else {
        const Tile& tile = zipf_tile();
        acc.x = tile.wx;
        acc.y = tile.wy;
      }
      accesses_.push_back(acc);
    }
  }

  int clients() const override { return 1; }
  int scheduler_threads() const override { return 2; }
  long cache_capacity() const override { return kCapacity; }

  double setup() override {
    const auto t0 = Clock::now();
    {
      trace::Scope span("codec.compress");
      pristine_ = compressor_.compress(raw_);
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (trace::enabled())
      compress_bytes_ += static_cast<std::uint64_t>(raw_.size()) * 8;
    return seconds;
  }

  void precompute() override {
    // The cache-off replay: every set() decodes, modifies and re-encodes
    // its block at once, and flush_cache() is a no-op.
    pyblaz::cache::set_default_capacity(0);
    CompressedArray array = pristine_;
    current_ = raw_;
    std::vector<double> latencies;
    double busy = 0.0;
    for (const Access& acc : accesses_) {
      Expected e;
      const auto t0 = Clock::now();
      switch (acc.kind) {
        case Kind::kRead: {
          const NDArray<double> roi = array.decompress_roi(
              {acc.x, acc.y}, {acc.x + kWindow, acc.y + kWindow});
          latencies.push_back(
              std::chrono::duration<double>(Clock::now() - t0).count());
          e.hash = roi_hash(roi);
          break;
        }
        case Kind::kSet:
          array.set({acc.x, acc.y}, acc.value);
          latencies.push_back(
              std::chrono::duration<double>(Clock::now() - t0).count());
          current_.at({acc.x, acc.y}) = acc.value;
          break;
        case Kind::kFlush: {
          array.flush_cache();
          const double l2 = pyblaz::ops::l2_norm(array);
          latencies.push_back(
              std::chrono::duration<double>(Clock::now() - t0).count());
          e.hash = hash_archive(array);
          e.l2_bits = bits_of(l2);
          e.l2_ref = pyblaz::reference::l2_norm(current_);
          break;
        }
      }
      busy += latencies.back();
      expected_.push_back(e);
    }
    const std::vector<std::uint8_t> bytes = pyblaz::serialize(array);
    final_hash_ = hash_bytes(bytes.data(), bytes.size());
    bytes_per_value_ =
        static_cast<double>(bytes.size()) / static_cast<double>(raw_.size());
    cap0_req_per_s_ = static_cast<double>(latencies.size()) / busy;
    cap0_p50_ms_ = quantile(latencies, 0.5) * 1e3;
    cap0_p99_ms_ = quantile(latencies, 0.99) * 1e3;
    stale_read_elements_ = stale_read_elements();
    pyblaz::cache::set_default_capacity(kCapacity);
  }

  Phase run(double seconds, bool /*trace_run*/,
            std::int64_t min_requests) override {
    Phase phase;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::int64_t request = 0;
    do {
      epoch(phase, request);
    } while (Clock::now() < deadline ||
             static_cast<std::int64_t>(phase.latencies_s.size()) < min_requests);
    phase.req_per_s = closed_loop_rate(phase.latencies_s);
    phase.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return phase;
  }

  double bytes_per_value() const override { return bytes_per_value_; }

  void layer_metrics(const LayerView& view, Metrics& out) const override {
    const auto& s = epoch_stats_;
    const double lookups = static_cast<double>(s.hits + s.misses);
    if (lookups > 0.0)
      out["cache.hit_rate"].value = static_cast<double>(s.hits) / lookups;
    out["cache.misses"].value = static_cast<double>(s.misses);
    out["cache.evictions"].value = static_cast<double>(s.evictions);
    out["cache.writebacks"].value = static_cast<double>(s.writebacks);
    const double compress_s = view.total_self_s("codec.compress");
    if (compress_s > 0.0)
      out["codec.compress_MBps"].value =
          static_cast<double>(compress_bytes_.load()) / compress_s / 1e6;
  }

  void context(Metrics& out) override {
    out["cap0.req_per_s"] = Metric{cap0_req_per_s_, "1/s"};
    out["cap0.latency_p50_ms"] = Metric{cap0_p50_ms_, "ms"};
    out["cap0.latency_p99_ms"] = Metric{cap0_p99_ms_, "ms"};
    out["defect.stale_read_elements"] =
        Metric{static_cast<double>(stale_read_elements_), "count"};
  }

 private:
  static CompressorSettings settings() {
    CompressorSettings s;
    s.block_shape = Shape({kBlock, kBlock});
    s.float_type = pyblaz::FloatType::kFloat32;
    s.index_type = pyblaz::IndexType::kInt8;
    return s;
  }

  /// The defect the access sequence steers round: one set() in the first
  /// block of the hottest window, flush_cache(), then a read of that block,
  /// once through the cache and once at capacity 0.  Returns how many of
  /// its elements differ in any bit; 0 once the cache re-reads flushed
  /// blocks from the archive.
  index_t stale_read_elements() const {
    const index_t x = tiles_.front().wx, y = tiles_.front().wy;
    const double value = raw_[x * kEdge + y] + 0.05 * range_;
    auto read_after_flush = [&](long capacity) {
      pyblaz::cache::set_default_capacity(capacity);
      CompressedArray array = pristine_;
      array.set({x, y}, value);
      array.flush_cache();
      return array.decompress_roi({x, y}, {x + kBlock, y + kBlock});
    };
    const NDArray<double> direct = read_after_flush(0);
    const NDArray<double> cached = read_after_flush(kCapacity);
    index_t differing = 0;
    for (index_t k = 0; k < kBlock * kBlock; ++k)
      differing += bits_of(cached[k]) != bits_of(direct[k]);
    return differing;
  }

  /// max |roi - current| over the window, normalised by the field's range.
  double roi_error(const NDArray<double>& roi, const Access& acc,
                   const NDArray<double>& current) const {
    double worst = 0.0;
    for (index_t i = 0; i < kWindow; ++i)
      for (index_t j = 0; j < kWindow; ++j)
        worst = std::max(worst,
                         std::fabs(roi[i * kWindow + j] -
                                   current[(acc.x + i) * kEdge + acc.y + j]));
    return worst / range_;
  }

  /// One pass over the access sequence from the pristine archive with a
  /// fresh cache; every access is checked against the cache-off replay, and
  /// every read and l2_norm it returns adds its own error against the raw
  /// field with the writes applied, whether or not its check passed.
  void epoch(Phase& phase, std::int64_t& request) {
    CompressedArray array = pristine_;  // A copy carries no cache.
    current_ = raw_;
    for (std::size_t i = 0; i < accesses_.size(); ++i, ++request) {
      const Access& acc = accesses_[i];
      const Expected& want = expected_[i];
      NDArray<double> roi;
      double l2 = 0.0;
      const auto t0 = Clock::now();
      {
        trace::RequestScope scope(request);
        switch (acc.kind) {
          case Kind::kRead: {
            trace::Scope span("cache.roi");
            roi = array.decompress_roi({acc.x, acc.y},
                                       {acc.x + kWindow, acc.y + kWindow});
            break;
          }
          case Kind::kSet: {
            trace::Scope span("cache.set");
            array.set({acc.x, acc.y}, acc.value);
            break;
          }
          case Kind::kFlush: {
            {
              trace::Scope span("cache.flush");
              array.flush_cache();
            }
            trace::Scope span("ops.reduce");
            l2 = pyblaz::ops::l2_norm(array);
            break;
          }
        }
      }
      const double latency =
          std::chrono::duration<double>(Clock::now() - t0).count();
      phase.latencies_s.push_back(latency);
      ++phase.attempted;

      switch (acc.kind) {
        case Kind::kRead:
          phase.max_rel_error =
              std::max(phase.max_rel_error, roi_error(roi, acc, current_));
          if (roi_hash(roi) != want.hash)
            phase.fail("roi_rw access " + std::to_string(i) +
                       ": a read differs from the cache-off read");
          break;
        case Kind::kSet:
          current_.at({acc.x, acc.y}) = acc.value;
          break;
        case Kind::kFlush:
          phase.max_rel_error = std::max(phase.max_rel_error,
                                         scalar_rel_error(l2, want.l2_ref));
          if (hash_archive(array) != want.hash)
            phase.fail("roi_rw access " + std::to_string(i) +
                       ": the archive after flush_cache() differs from the "
                       "cache-off replay");
          else if (bits_of(l2) != want.l2_bits)
            phase.fail("roi_rw access " + std::to_string(i) +
                       ": l2_norm after flush_cache() differs from the "
                       "cache-off replay");
          break;
      }
    }
    const std::vector<std::uint8_t> bytes = pyblaz::serialize(array);
    if (hash_bytes(bytes.data(), bytes.size()) != final_hash_)
      phase.fail("roi_rw: the final archive bytes differ from the cache-off "
                 "replay");
    const pyblaz::cache::BlockCache* cache = array.block_cache();
    const pyblaz::cache::BlockCache::Stats stats =
        cache != nullptr ? cache->stats() : pyblaz::cache::BlockCache::Stats{};
    if (!have_stats_) {
      epoch_stats_ = stats;
      have_stats_ = true;
    } else if (stats.hits != epoch_stats_.hits ||
               stats.misses != epoch_stats_.misses ||
               stats.evictions != epoch_stats_.evictions ||
               stats.writebacks != epoch_stats_.writebacks) {
      phase.fail("roi_rw: cache counts differ between epochs of one access "
                 "sequence");
    }
  }

  Compressor compressor_;
  NDArray<double> raw_;
  NDArray<double> current_;  // raw_ with the epoch's writes so far applied.
  double range_ = 1.0;
  std::vector<Tile> tiles_;  // In Zipf rank order.
  std::vector<Access> accesses_;
  CompressedArray pristine_;
  std::vector<Expected> expected_;
  std::uint64_t final_hash_ = 0;
  double bytes_per_value_ = 0.0;
  double cap0_req_per_s_ = 0.0;
  double cap0_p50_ms_ = 0.0;
  double cap0_p99_ms_ = 0.0;
  index_t stale_read_elements_ = 0;
  pyblaz::cache::BlockCache::Stats epoch_stats_;
  bool have_stats_ = false;
  std::atomic<std::uint64_t> compress_bytes_{0};
};

}  // namespace

std::unique_ptr<Workload> make_roi_rw(const Options& options) {
  return std::make_unique<RoiRw>(options);
}

}  // namespace e2e
