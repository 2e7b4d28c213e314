#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/ndarray/shape.hpp"

namespace pyblaz::cache {

/// Default cache capacity in blocks, read once from CC_CACHE_BLOCKS (0 or
/// unset = caching disabled; a bad value warns on stderr and disables).
/// Applies to caches created after the call; existing caches keep their
/// capacity.
index_t default_capacity_blocks();

/// Override the default capacity at runtime (tests, benchmarks, service
/// configuration).  Negative values clamp to 0 (disabled).
void set_default_capacity(index_t blocks);

/// A bounded, sharded LRU cache of decoded blocks for one compressed array
/// (the zfp-style proxy design named in ROADMAP.md).
///
/// Entries are keyed by flat block index and hold the fully decoded,
/// storage-float-rounded block buffer (block_volume doubles, padding zeroed —
/// the blockio::decode_block output domain).  Reads go through fetch(),
/// which returns a DecodedBlockRef proxy; writes go through write(), which
/// marks the block dirty.  Dirty blocks are re-encoded by flush() through the
/// same kernels:: pipeline the compressor uses.
///
/// Determinism contract (pinned by tests/test_block_cache.cpp):
///  - A decoded block's bytes are a pure function of the archive, so cached
///    reads are bit-identical to direct decodes at any capacity, eviction
///    order, thread count, or shard count.
///  - Dirty blocks are PINNED: eviction only ever drops clean blocks, and
///    write-back happens exclusively in flush().  Encode∘decode is lossy and
///    not idempotent, so evicting-and-re-encoding a dirty block mid-stream
///    would make archive bytes depend on capacity and access order; pinning
///    means every dirty block is re-encoded exactly once, from exactly one
///    decoded buffer, and the flushed archive is bit-identical to compressing
///    the decoded data directly.  The capacity bound therefore applies to the
///    clean population; the dirty population is bounded by the write set
///    until flush() runs.
///
/// Thread safety: the key space is sharded (block index modulo shard count),
/// each shard behind its own mutex, so concurrent regions touching different
/// blocks don't serialize on one lock.  Miss fills (block decodes) run
/// outside the shard lock; when two threads race to fill the same block the
/// first insert wins and the loser's identical buffer is discarded.
/// Concurrent fetches of any blocks are safe.  A block being written must
/// not be concurrently read or written — the same aliasing rule as an
/// NDArray — and flush() must not run concurrently with writes.
class BlockCache {
 public:
  /// @p capacity_blocks must be >= 1 (capacity 0 means "no cache" and is
  /// handled by not constructing one).  @p num_shards 0 picks the default
  /// (min(8, capacity)); tests pass 1 for exact whole-cache LRU semantics.
  BlockCache(index_t capacity_blocks, index_t block_volume,
             int num_shards = 0);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Read proxy for one decoded block.  Holds the buffer alive even if the
  /// block is evicted while the ref is outstanding.
  class DecodedBlockRef {
   public:
    const double* data() const { return buffer_->data(); }
    double operator[](index_t j) const {
      return (*buffer_)[static_cast<std::size_t>(j)];
    }

   private:
    friend class BlockCache;
    explicit DecodedBlockRef(std::shared_ptr<const std::vector<double>> buffer)
        : buffer_(std::move(buffer)) {}
    std::shared_ptr<const std::vector<double>> buffer_;
  };

  /// Decode callback: fill the given buffer (block_volume doubles) with the
  /// decoded block.  Called outside the shard lock on a miss.
  using FillFn = std::function<void(double*)>;
  /// In-place mutation of a decoded block buffer.
  using MutateFn = std::function<void(double*)>;
  /// Re-encode callback: write the decoded buffer back into the archive.
  using WritebackFn = std::function<void(index_t kb, const double* block)>;

  /// Return block @p kb, decoding it via @p fill on a miss (which may evict
  /// the least-recently-used clean block).  Throws cc::Error
  /// (kResourceExhausted) if the buffer allocation fails — fault site
  /// "cache.fill.alloc" — leaving the cache unchanged.
  DecodedBlockRef fetch(index_t kb, const FillFn& fill);

  /// Apply @p mutate to block @p kb's decoded buffer and mark it dirty
  /// (decoding it via @p fill first if absent).  Dirty blocks are pinned
  /// until flush().
  void write(index_t kb, const FillFn& fill, const MutateFn& mutate);

  /// Re-encode every dirty block via @p writeback (ascending block index
  /// within each shard), then drop it from the cache, so the next access
  /// decodes the re-encoded archive block.  Returns the number of blocks
  /// written back.
  index_t flush(const WritebackFn& writeback);

  /// Drop every entry, including dirty ones (their writes are lost).
  void clear();

  index_t capacity() const { return capacity_; }
  index_t block_volume() const { return block_volume_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  index_t resident_blocks() const;
  index_t dirty_blocks() const;
  bool contains(index_t kb) const;

  /// Per-cache counters (process-wide telemetry counters cache.* aggregate
  /// across caches; these are for tests and bench introspection).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<std::vector<double>> data;
    std::uint64_t tick = 0;
    bool dirty = false;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<index_t, Entry> entries;
    std::uint64_t tick = 0;
    index_t capacity = 0;
    index_t dirty = 0;
  };

  Shard& shard_for(index_t kb) {
    return shards_[static_cast<std::size_t>(kb) % shards_.size()];
  }
  std::shared_ptr<std::vector<double>> allocate_buffer() const;
  /// Evict LRU clean entries until one more clean entry fits the shard's
  /// capacity (caller holds the shard lock).
  void evict_for_insert_locked(Shard& shard);

  index_t capacity_;
  index_t block_volume_;
  std::uint64_t block_bytes_;
  std::vector<Shard> shards_;

  // Per-cache counters on relaxed atomics — observability only, never
  // branched on, and off the shard locks so stats cost no serialization.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> writebacks_{0};
};

}  // namespace pyblaz::cache
