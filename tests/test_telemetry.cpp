/// The runtime telemetry layer (core/telemetry/): named counters and
/// log-bucketed latency histograms striped over per-thread shards, RAII trace
/// spans with a Chrome trace-event JSON exporter, and the CC_STATS / CC_TRACE
/// sink policy.  Pins the acceptance properties: counts are exact under
/// concurrent writers (sharding is a performance trick, never a correctness
/// one), quantiles are exact for bucket-boundary samples, the flushed trace
/// is structurally well-formed with balanced begin/end pairs, bad env values
/// disable rather than guess (mirroring CC_KERNEL_BACKEND), and the disabled
/// hot path allocates nothing.
///
/// This translation unit replaces the global allocator with a counting
/// forwarder (all variants, including aligned and nothrow) so the
/// zero-allocation claim is tested literally, not by inspection.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel/thread_pool.hpp"
#include "core/telemetry/telemetry.hpp"
#include "core/telemetry/trace.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every global new (scalar/array, throwing/nothrow,
// aligned or not) bumps one relaxed counter and forwards to malloc.  Deletes
// forward to free (glibc's posix_memalign blocks are free()-compatible).
// Constant-initialized so allocations during static init are counted safely.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocation_count{0};

void* counted_alloc(std::size_t size) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* pointer = nullptr;
  if (posix_memalign(&pointer, align, size ? size : align) != 0) return nullptr;
  return pointer;
}

std::uint64_t allocation_count() {
  return g_allocation_count.load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc_aligned(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pyblaz {
namespace {

const telemetry::HistogramSnapshot* find_histogram(
    const telemetry::Snapshot& snapshot, const std::string& name) {
  for (const telemetry::HistogramSnapshot& h : snapshot.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

std::uint64_t find_counter(const telemetry::Snapshot& snapshot,
                           const std::string& name) {
  for (const telemetry::CounterSnapshot& c : snapshot.counters)
    if (c.name == name) return c.value;
  return std::uint64_t{0};
}

TEST(Telemetry, CounterSumsExactlyAcrossThreads) {
  telemetry::Counter& counter = telemetry::counter("test.counter.exact");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) counter.increment();
      counter.add(5);
    });
  for (std::thread& thread : threads) thread.join();
  // Sharding must never lose or double-count an add.
  EXPECT_EQ(counter.value(), kThreads * (kAddsPerThread + 5));
  EXPECT_EQ(find_counter(telemetry::snapshot(), "test.counter.exact"),
            counter.value());
}

TEST(Telemetry, RegistryReturnsSameHandleAndRejectsKindMismatch) {
  telemetry::Counter& a = telemetry::counter("test.registry.same");
  telemetry::Counter& b = telemetry::counter("test.registry.same");
  EXPECT_EQ(&a, &b) << "one name, one metric object";
  EXPECT_THROW(telemetry::histogram("test.registry.same"), std::logic_error)
      << "a counter name cannot be re-registered as a histogram";
  telemetry::histogram("test.registry.hist");
  EXPECT_THROW(telemetry::counter("test.registry.hist"), std::logic_error);
}

TEST(Telemetry, BucketIndexAndLowerBoundRoundTrip) {
  using telemetry::Histogram;
  // Every bucket's lower bound maps back to that bucket (the representative
  // value is in its own bucket)...
  for (int index = 0; index < Histogram::kNumBuckets; ++index)
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_lower_bound(index)),
              index)
        << "bucket " << index;
  // ...values 0..7 are exact, and the mapping preserves order with lower
  // bounds never above the value they represent.
  for (std::uint64_t v = 0; v < 8; ++v)
    EXPECT_EQ(Histogram::bucket_lower_bound(Histogram::bucket_index(v)), v);
  std::uint64_t previous_index = 0;
  for (std::uint64_t v : {std::uint64_t{1}, std::uint64_t{8},
                          std::uint64_t{100}, std::uint64_t{1000},
                          std::uint64_t{123456789}, std::uint64_t{1} << 40,
                          ~std::uint64_t{0}}) {
    const int index = Histogram::bucket_index(v);
    EXPECT_GE(static_cast<std::uint64_t>(index), previous_index);
    EXPECT_LE(Histogram::bucket_lower_bound(index), v);
    EXPECT_LT(index, Histogram::kNumBuckets);
    previous_index = static_cast<std::uint64_t>(index);
  }
}

TEST(Telemetry, HistogramQuantilesExactOnBucketBoundaries) {
  // 64, 256, and 4096 are exact bucket lower bounds, so the type-1 quantile
  // must return them exactly: p50 = 64 (rank 50 of 100), p95 = 256 (rank
  // 95), p99 = 4096 (rank 99).
  telemetry::Histogram& h = telemetry::histogram("test.hist.quantiles");
  for (int i = 0; i < 50; ++i) h.record(64);
  for (int i = 0; i < 45; ++i) h.record(256);
  for (int i = 0; i < 5; ++i) h.record(4096);

  const telemetry::Snapshot snap = telemetry::snapshot();
  const telemetry::HistogramSnapshot* hs =
      find_histogram(snap, "test.hist.quantiles");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 100u);
  EXPECT_EQ(hs->sum, 50u * 64 + 45u * 256 + 5u * 4096);
  EXPECT_DOUBLE_EQ(hs->mean(), 352.0);
  EXPECT_EQ(hs->quantile(0.50), 64u);
  EXPECT_EQ(hs->quantile(0.95), 256u);
  EXPECT_EQ(hs->quantile(0.99), 4096u);
  EXPECT_EQ(hs->quantile(0.0), 64u) << "rank clamps to the first sample";
  EXPECT_EQ(hs->quantile(1.0), 4096u);
  EXPECT_EQ(hs->max_bucket_bound(), 4096u);
}

TEST(Telemetry, ShardMergeExactUnderParallelForHammer) {
  // The merge-on-snapshot claim under the real scheduler: every chunk of a
  // parallel_for hammers the same counter and histogram, and the snapshot
  // still accounts for every single record.
  telemetry::Counter& counter = telemetry::counter("test.hammer.counter");
  telemetry::Histogram& h = telemetry::histogram("test.hammer.hist");
  constexpr index_t kIterations = 200000;
  parallel::parallel_for(0, kIterations, /*grain=*/512,
                         [&](index_t begin, index_t end) {
                           for (index_t i = begin; i < end; ++i) {
                             counter.increment();
                             h.record(static_cast<std::uint64_t>(i) & 1023);
                           }
                         });
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kIterations));
  const telemetry::Snapshot snap = telemetry::snapshot();
  const telemetry::HistogramSnapshot* hs =
      find_histogram(snap, "test.hammer.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, static_cast<std::uint64_t>(kIterations));
}

TEST(Telemetry, SnapshotJsonHasSchemaAndQuantileFields) {
  telemetry::counter("test.json.counter").add(7);
  telemetry::histogram("test.json.hist").record(64);
  const std::string json = telemetry::snapshot().to_json();
  EXPECT_NE(json.find("\"schema\": \"pyblaz-telemetry-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\": 7"), std::string::npos);
  for (const char* field : {"\"p50\":", "\"p95\":", "\"p99\":", "\"count\":",
                            "\"mean\":", "\"unit\": \"ns\""})
    EXPECT_NE(json.find(field), std::string::npos) << field;
}

TEST(Telemetry, SinkEnvPolicyMirrorsKernelBackend) {
  using telemetry::internal::parse_sink_env;
  using telemetry::internal::SinkKind;
  // Unset: disabled and NOT an error.
  const auto unset = parse_sink_env(nullptr);
  EXPECT_EQ(unset.kind, SinkKind::kDisabled);
  EXPECT_FALSE(unset.bad);
  // Set-but-empty: a bad value — warn-and-disable, never guess.
  const auto empty = parse_sink_env("");
  EXPECT_EQ(empty.kind, SinkKind::kDisabled);
  EXPECT_TRUE(empty.bad);
  // "stderr" is the only non-path spelling.
  const auto err = parse_sink_env("stderr");
  EXPECT_EQ(err.kind, SinkKind::kStderr);
  EXPECT_FALSE(err.bad);
  // Anything else is a file path.
  const auto file = parse_sink_env("/tmp/stats.json");
  EXPECT_EQ(file.kind, SinkKind::kFile);
  EXPECT_EQ(file.path, "/tmp/stats.json");
  EXPECT_FALSE(file.bad);
}

TEST(Telemetry, UnopenableSinkWarnsAndReturnsFalse) {
  telemetry::internal::SinkPolicy policy;
  policy.kind = telemetry::internal::SinkKind::kFile;
  policy.path = "/nonexistent-dir-for-test/stats.json";
  EXPECT_FALSE(telemetry::internal::write_to_sink(policy, "{}", "CC_STATS"));
}

TEST(Telemetry, TraceFlushIsBalancedWellFormedJson) {
  const std::string path =
      ::testing::TempDir() + "/pyblaz_trace_test.json";
  telemetry::set_trace_sink(path);
  ASSERT_TRUE(telemetry::trace_enabled());
  {
    telemetry::TraceSpan outer("test.span.outer");
    telemetry::TraceSpan inner("test.span.inner", 42);
  }
  // Spans from pool threads land in per-thread buffers and must all flush.
  parallel::parallel_for(0, 64, /*grain=*/4, [&](index_t begin, index_t end) {
    for (index_t i = begin; i < end; ++i)
      telemetry::TraceSpan span("test.span.chunk");
  });
  const std::size_t written = telemetry::flush_trace();
  EXPECT_GE(written, 2u + 2u * 64u) << "2 nested + 64 chunk spans, B and E";
  telemetry::set_trace_sink("");  // Leave tracing off for later tests.
  EXPECT_FALSE(telemetry::trace_enabled());

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char chunk[4096];
  for (std::size_t n; (n = std::fread(chunk, 1, sizeof(chunk), f)) > 0;)
    text.append(chunk, n);
  std::fclose(f);
  std::remove(path.c_str());

  EXPECT_NE(text.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(text.find("\"test.span.outer\""), std::string::npos);
  EXPECT_NE(text.find("\"test.span.inner\""), std::string::npos);
  EXPECT_NE(text.find("\"args\": {\"v\": 42}"), std::string::npos);
  // Begin/end balance: tools/trace_check.py does full stack matching in CI;
  // here the structural invariant is equal B and E counts.
  std::size_t begins = 0, ends = 0;
  for (std::size_t at = 0;
       (at = text.find("\"ph\": \"B\"", at)) != std::string::npos; ++at)
    ++begins;
  for (std::size_t at = 0;
       (at = text.find("\"ph\": \"E\"", at)) != std::string::npos; ++at)
    ++ends;
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(begins + ends, written);
  // Braces balance (every event object closes; the document closes).
  std::ptrdiff_t depth = 0;
  for (char c : text) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Telemetry, DisabledHotPathAllocatesNothing) {
  // Warm up everything that legitimately allocates once: registration, this
  // thread's shard slot, the trace state.
  telemetry::set_trace_sink("");
  telemetry::Counter& counter = telemetry::counter("test.zeroalloc.counter");
  telemetry::Histogram& h = telemetry::histogram("test.zeroalloc.hist");
  counter.increment();
  h.record(1);
  { telemetry::TraceSpan warm("test.zeroalloc.span"); }

  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 10000; ++i) {
    counter.add(3);
    h.record(static_cast<std::uint64_t>(i));
    telemetry::ScopedLatency latency(h);
    telemetry::TraceSpan span("test.zeroalloc.span", 7);
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "counters, histograms, and disabled spans must not touch the heap";
}

}  // namespace
}  // namespace pyblaz
