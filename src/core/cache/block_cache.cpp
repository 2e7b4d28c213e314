#include "core/cache/block_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

#include "core/error/error.hpp"
#include "core/fault/fault.hpp"
#include "core/telemetry/telemetry.hpp"

namespace pyblaz::cache {

namespace {

/// CC_CACHE_BLOCKS, parsed once at first use.  Same contract as the other
/// runtime knobs: unset or 0 disables, a bad value warns and disables (never
/// fatal, never silent).
index_t parse_env_capacity() {
  const char* value = std::getenv("CC_CACHE_BLOCKS");
  if (!value || !*value) return 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 0) {
    std::fprintf(stderr,
                 "pyblaz: CC_CACHE_BLOCKS=\"%s\" is not a non-negative "
                 "integer; decoded-block caching disabled\n",
                 value);
    return 0;
  }
  return static_cast<index_t>(parsed);
}

/// -1 = environment not read yet.
std::atomic<index_t> g_default_capacity{-1};

constexpr int kDefaultShards = 8;

}  // namespace

index_t default_capacity_blocks() {
  index_t value = g_default_capacity.load(std::memory_order_relaxed);
  if (value < 0) {
    // Racing first readers parse the same environment value; idempotent.
    value = parse_env_capacity();
    g_default_capacity.store(value, std::memory_order_relaxed);
  }
  return value;
}

void set_default_capacity(index_t blocks) {
  g_default_capacity.store(std::max<index_t>(0, blocks),
                           std::memory_order_relaxed);
}

BlockCache::BlockCache(index_t capacity_blocks, index_t block_volume,
                       int num_shards)
    : capacity_(std::max<index_t>(1, capacity_blocks)),
      block_volume_(block_volume),
      block_bytes_(static_cast<std::uint64_t>(block_volume) * sizeof(double)),
      shards_(static_cast<std::size_t>(
          num_shards > 0
              ? num_shards
              : static_cast<int>(std::min<index_t>(kDefaultShards,
                                                   capacity_)))) {
  // Distribute the capacity over the shards; every shard holds at least one
  // block (shard count never exceeds capacity on the default path).
  const index_t n = static_cast<index_t>(shards_.size());
  for (index_t s = 0; s < n; ++s) {
    shards_[static_cast<std::size_t>(s)].capacity =
        std::max<index_t>(1, capacity_ / n + (s < capacity_ % n ? 1 : 0));
  }
}

std::shared_ptr<std::vector<double>> BlockCache::allocate_buffer() const {
  try {
    fault::point("cache.fill.alloc");
    return std::make_shared<std::vector<double>>(
        static_cast<std::size_t>(block_volume_));
  } catch (const std::bad_alloc&) {
    cc::raise(cc::ErrorCode::kResourceExhausted, "cache.fill.alloc",
              "allocation of a decoded-block buffer failed");
  }
}

void BlockCache::evict_for_insert_locked(Shard& shard) {
  static telemetry::Counter& evictions = telemetry::counter("cache.evictions");
  while (static_cast<index_t>(shard.entries.size()) - shard.dirty + 1 >
         shard.capacity) {
    auto victim = shard.entries.end();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (auto it = shard.entries.begin(); it != shard.entries.end(); ++it) {
      if (!it->second.dirty && it->second.tick < oldest) {
        oldest = it->second.tick;
        victim = it;
      }
    }
    if (victim == shard.entries.end()) return;  // Everything dirty (pinned).
    shard.entries.erase(victim);
    evictions.increment();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

BlockCache::DecodedBlockRef BlockCache::fetch(index_t kb, const FillFn& fill) {
  static telemetry::Counter& hits = telemetry::counter("cache.hits");
  static telemetry::Counter& misses = telemetry::counter("cache.misses");
  static telemetry::Counter& avoided =
      telemetry::counter("cache.decode_avoided_bytes");
  static telemetry::Histogram& lookup_ns =
      telemetry::histogram("cache.lookup_ns");
  telemetry::ScopedLatency latency(lookup_ns);

  Shard& shard = shard_for(kb);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(kb);
    if (it != shard.entries.end()) {
      it->second.tick = ++shard.tick;
      hits.increment();
      avoided.add(block_bytes_);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return DecodedBlockRef(it->second.data);
    }
  }

  // Miss: decode outside the shard lock so misses on different blocks (and
  // hits on this shard) proceed concurrently.
  auto buffer = allocate_buffer();
  fill(buffer->data());

  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(kb);
  if (it != shard.entries.end()) {
    // Another thread filled this block while we decoded; identical bytes
    // (decode is deterministic), first insert wins.
    it->second.tick = ++shard.tick;
    hits_.fetch_add(1, std::memory_order_relaxed);
    hits.increment();
    return DecodedBlockRef(it->second.data);
  }
  misses.increment();
  misses_.fetch_add(1, std::memory_order_relaxed);
  evict_for_insert_locked(shard);
  auto [pos, inserted] =
      shard.entries.emplace(kb, Entry{std::move(buffer), ++shard.tick, false});
  return DecodedBlockRef(pos->second.data);
}

void BlockCache::write(index_t kb, const FillFn& fill, const MutateFn& mutate) {
  static telemetry::Counter& hits = telemetry::counter("cache.hits");
  static telemetry::Counter& misses = telemetry::counter("cache.misses");
  static telemetry::Counter& avoided =
      telemetry::counter("cache.decode_avoided_bytes");
  static telemetry::Histogram& lookup_ns =
      telemetry::histogram("cache.lookup_ns");
  telemetry::ScopedLatency latency(lookup_ns);

  Shard& shard = shard_for(kb);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(kb);
    if (it != shard.entries.end()) {
      it->second.tick = ++shard.tick;
      if (!it->second.dirty) {
        it->second.dirty = true;
        ++shard.dirty;
      }
      mutate(it->second.data->data());
      hits.increment();
      avoided.add(block_bytes_);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }

  auto buffer = allocate_buffer();
  fill(buffer->data());

  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(kb);
  if (it == shard.entries.end()) {
    misses.increment();
    misses_.fetch_add(1, std::memory_order_relaxed);
    // Dirty blocks are pinned, not counted against the clean capacity; no
    // eviction is needed to admit one.
    it = shard.entries.emplace(kb, Entry{std::move(buffer), ++shard.tick, true})
             .first;
    ++shard.dirty;
  } else {
    hits.increment();
    hits_.fetch_add(1, std::memory_order_relaxed);
    it->second.tick = ++shard.tick;
    if (!it->second.dirty) {
      it->second.dirty = true;
      ++shard.dirty;
    }
  }
  mutate(it->second.data->data());
}

index_t BlockCache::flush(const WritebackFn& writeback) {
  static telemetry::Counter& writebacks =
      telemetry::counter("cache.writebacks");
  index_t written = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.dirty == 0) continue;
    // Ascending block order: deterministic, and blocks write disjoint archive
    // rows, so the order never affects the flushed bytes.
    std::vector<index_t> dirty_kbs;
    dirty_kbs.reserve(static_cast<std::size_t>(shard.dirty));
    for (const auto& [kb, entry] : shard.entries)
      if (entry.dirty) dirty_kbs.push_back(kb);
    std::sort(dirty_kbs.begin(), dirty_kbs.end());
    for (index_t kb : dirty_kbs) {
      auto it = shard.entries.find(kb);
      writeback(kb, it->second.data->data());
      // The buffer holds the written values, not what the archive now
      // decodes to (encode∘decode is lossy), so it must not serve reads:
      // drop it, and the next access decodes the re-encoded block.
      shard.entries.erase(it);
      --shard.dirty;
      ++written;
      writebacks.increment();
      writebacks_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return written;
}

void BlockCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.entries.clear();
    shard.dirty = 0;
  }
}

index_t BlockCache::resident_blocks() const {
  index_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += static_cast<index_t>(shard.entries.size());
  }
  return total;
}

index_t BlockCache::dirty_blocks() const {
  index_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.dirty;
  }
  return total;
}

bool BlockCache::contains(index_t kb) const {
  const auto& shard =
      shards_[static_cast<std::size_t>(kb) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.entries.find(kb) != shard.entries.end();
}

BlockCache::Stats BlockCache::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.writebacks = writebacks_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace pyblaz::cache
