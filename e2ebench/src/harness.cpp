#include "harness.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>

namespace e2e {

// ---------------------------------------------------------------- tracing

namespace trace {

struct ThreadLog {
  int thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::int32_t> stack;
  std::int64_t request = -1;
};

namespace {

std::atomic<bool> g_enabled{false};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadLog>> logs;  // Guarded by mutex.
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadLog& local_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    auto owned = std::make_unique<ThreadLog>();
    owned->spans.reserve(1 << 16);
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    owned->thread = static_cast<int>(r.logs.size());
    log = owned.get();
    r.logs.push_back(std::move(owned));
  }
  return *log;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* name) {
  if (!enabled()) return;
  log_ = &local_log();
  index_ = static_cast<std::int32_t>(log_->spans.size());
  const std::int32_t parent = log_->stack.empty() ? -1 : log_->stack.back();
  log_->spans.push_back(SpanRecord{name, log_->request, parent, now_ns(), 0});
  log_->stack.push_back(index_);
}

Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  log_->stack.pop_back();
}

namespace {

std::int64_t swap_request(std::int64_t id) {
  if (!enabled()) return -1;
  ThreadLog& log = local_log();
  const std::int64_t previous = log.request;
  log.request = id;
  return previous;
}

}  // namespace

RequestScope::RequestScope(std::int64_t request_id)
    : previous_(swap_request(request_id)), scope_("request") {}

RequestScope::~RequestScope() {
  // The request span closes after this body, so restore the id through a
  // still-open log; a disabled tracer never swapped it.
  if (enabled()) local_log().request = previous_;
}

Summary summarize() {
  Summary out;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& log : r.logs) {
    const std::vector<SpanRecord>& spans = log->spans;
    std::vector<double> covered(spans.size(), 0.0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0)
        covered[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      const double total = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      const double self = total - covered[i];
      for (auto* table : {&out.by_name, &out.in_request}) {
        if (table == &out.in_request && s.request < 0) continue;
        NameTotals& t = (*table)[s.name];
        ++t.calls;
        t.self_s += self;
      }
      ++out.spans;
    }
  }
  return out;
}

bool write_csv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,request,parent,name,start_ns,end_ns\n");
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& log : r.logs)
    for (const SpanRecord& s : log->spans)
      std::fprintf(f, "%d,%lld,%d,%s,%llu,%llu\n", log->thread,
                   static_cast<long long>(s.request), s.parent, s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
  return std::fclose(f) == 0;
}

}  // namespace trace

// ------------------------------------------------------------ statistics

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double segmented_quantile(const std::vector<double>& values, double q) {
  const std::size_t n = values.size();
  if (n < kTailSegments) return quantile(values, q);
  std::vector<double> per_segment;
  for (std::size_t k = 0; k < kTailSegments; ++k) {
    const auto first = static_cast<std::ptrdiff_t>(k * n / kTailSegments);
    const auto last = static_cast<std::ptrdiff_t>((k + 1) * n / kTailSegments);
    per_segment.push_back(quantile(
        std::vector<double>(values.begin() + first, values.begin() + last), q));
  }
  return median(std::move(per_segment));
}

namespace {

const pyblaz::telemetry::HistogramSnapshot* find_histogram(
    const pyblaz::telemetry::Snapshot& s, const std::string& name) {
  for (const auto& h : s.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

}  // namespace

double histogram_delta_quantile(const pyblaz::telemetry::Snapshot& before,
                                const pyblaz::telemetry::Snapshot& after,
                                const std::string& name, double q) {
  const auto* a = find_histogram(after, name);
  if (a == nullptr) return 0.0;
  const auto* b = find_histogram(before, name);
  pyblaz::telemetry::HistogramSnapshot delta = *a;
  if (b != nullptr) {
    delta.count -= b->count;
    delta.sum -= b->sum;
    for (std::size_t i = 0; i < delta.buckets.size(); ++i)
      delta.buckets[i] -= b->buckets[i];
  }
  return static_cast<double>(delta.quantile(q));
}

std::uint64_t counter_delta(const pyblaz::telemetry::Snapshot& before,
                            const pyblaz::telemetry::Snapshot& after,
                            const std::string& name) {
  std::uint64_t a = 0, b = 0;
  for (const auto& c : after.counters)
    if (c.name == name) a = c.value;
  for (const auto& c : before.counters)
    if (c.name == name) b = c.value;
  return a - b;
}

// --------------------------------------------------------------- hashing

std::uint64_t hash_bytes(const void* data, std::size_t size,
                         std::uint64_t seed) {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed ^ (size * kMul);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * kMul;
    h ^= h >> 29;
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, p + i, size - i);
  h = (h ^ tail) * kMul;
  return h ^ (h >> 32);
}

std::uint64_t hash_archive(const pyblaz::CompressedArray& array) {
  const std::uint64_t h = hash_bytes(
      array.biggest.data(), array.biggest.size() * sizeof(double));
  return array.indices.visit([&](const auto* bins) {
    return hash_bytes(bins, array.indices.byte_size(), h);
  });
}

std::uint64_t bits_of(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

// ---------------------------------------------------------------- errors

double field_rel_error(const double* x, const double* ref, std::size_t n) {
  if (n == 0) return 0.0;
  double lo = ref[0], hi = ref[0], worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    lo = std::min(lo, ref[i]);
    hi = std::max(hi, ref[i]);
    worst = std::max(worst, std::fabs(x[i] - ref[i]));
  }
  return hi > lo ? worst / (hi - lo) : worst;
}

double scalar_rel_error(double x, double ref) {
  const double diff = std::fabs(x - ref);
  return ref != 0.0 ? diff / std::fabs(ref) : diff;
}

// --------------------------------------------------------------- results

void Phase::fail(const std::string& message) {
  ++failed;
  if (failures.size() < 8) failures.push_back(message);
}

void Phase::merge(const Phase& other) {
  attempted += other.attempted;
  failed += other.failed;
  latencies_s.insert(latencies_s.end(), other.latencies_s.begin(),
                     other.latencies_s.end());
  max_rel_error = std::max(max_rel_error, other.max_rel_error);
  for (const std::string& f : other.failures)
    if (failures.size() < 8) failures.push_back(f);
}

double closed_loop_rate(const std::vector<double>& latencies_s) {
  double busy_s = 0.0;
  for (double l : latencies_s) busy_s += l;
  return busy_s > 0.0 ? static_cast<double>(latencies_s.size()) / busy_s : 0.0;
}

double LayerView::per_request_ms(const char* span) const {
  return requests > 0 ? in_request_self_s(span) * 1e3 /
                            static_cast<double>(requests)
                      : 0.0;
}

double LayerView::per_call_s(const char* span) const {
  auto it = summary.in_request.find(span);
  if (it == summary.in_request.end() || it->second.calls == 0) return 0.0;
  return it->second.self_s / static_cast<double>(it->second.calls);
}

double LayerView::total_self_s(const char* span) const {
  auto it = summary.by_name.find(span);
  return it == summary.by_name.end() ? 0.0 : it->second.self_s;
}

double LayerView::in_request_self_s(const char* span) const {
  auto it = summary.in_request.find(span);
  return it == summary.in_request.end() ? 0.0 : it->second.self_s;
}

double LayerView::unattributed_ms() const {
  return per_request_ms("request");
}

void zero_layer_metrics(Metrics& out) {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"container.deserialize_ms", "ms"},
      {"container.serialize_ms", "ms"},
      {"container.MBps_computed", "MB/s"},
      {"codec.compress_ms", "ms"},
      {"codec.compress_MBps", "MB/s"},
      {"codec.decompress_ms", "ms"},
      {"ops.lincomb_batch_ms", "ms"},
      {"ops.lincomb_ms", "ms"},
      {"ops.reduce_ms", "ms"},
      {"ops.bin_GBps_computed", "GB/s"},
      {"ops.decodes_avoided", "count"},
      {"ops.rebin_passes", "count"},
      {"cache.hit_rate", "fraction"},
      {"cache.roi_us", "us"},
      {"cache.set_us", "us"},
      {"cache.flush_ms", "ms"},
      {"cache.misses", "count"},
      {"cache.evictions", "count"},
      {"cache.writebacks", "count"},
      {"sched.queue_wait_p50_ms", "ms"},
      {"sched.queue_wait_p99_ms", "ms"},
      {"sim.model_step_ms", "ms"},
      {"unattributed_ms", "ms"},
      {"trace.overhead_frac", "fraction"},
  };
  for (const auto& [name, unit] : units) out[name] = Metric{0.0, unit};
}

}  // namespace e2e
