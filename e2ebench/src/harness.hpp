#pragma once

// Shared pieces of the end-to-end benchmark: command-line options, the span
// recorder used by traced runs, latency statistics, bit-pattern hashing for
// output checks, and the result/metric plumbing every workload reports
// through.  Nothing here calls into the library's layers; the workloads do,
// wrapping each call in a trace::Scope.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/codec/compressed_array.hpp"
#include "core/telemetry/telemetry.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;   // Span dump path for --trace 1 ("" = none).
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  std::string cpu_model = "unknown";
};

// ---------------------------------------------------------------- tracing

namespace trace {

/// One recorded span.  parent indexes the same thread's span log (-1 for a
/// root); request is the id of the request the span belongs to (-1 outside
/// any request, e.g. set-up).
struct SpanRecord {
  const char* name;
  std::int64_t request;
  std::int32_t parent;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// Spans are recorded only while enabled; a disabled Scope is one relaxed
/// load and a branch.
void set_enabled(bool on);
bool enabled();

/// RAII span around one call into a layer.  Spans of one thread nest by
/// scope; the innermost open span is the parent of the next one.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  struct ThreadLog* log_ = nullptr;
  std::int32_t index_ = -1;
};

/// The root span of one request; every span opened inside it carries
/// @p request_id.
class RequestScope {
 public:
  explicit RequestScope(std::int64_t request_id);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  std::int64_t previous_ = -1;
  Scope scope_;
};

/// Per-name aggregate over every recorded span: call count and summed self
/// time (duration minus the part covered by direct children).
struct NameTotals {
  std::uint64_t calls = 0;
  double self_s = 0.0;
};

struct Summary {
  std::map<std::string, NameTotals> by_name;
  /// Totals of spans recorded inside a request only (request >= 0).
  std::map<std::string, NameTotals> in_request;
  std::uint64_t spans = 0;
};

/// Aggregate every recorded span.  Call only while no thread is recording.
Summary summarize();

/// Write every recorded span as CSV (thread,request,parent,name,start_ns,
/// end_ns) to @p path.  Returns false when the file cannot be written.
bool write_csv(const std::string& path);

}  // namespace trace

// ------------------------------------------------------------ statistics

/// Linearly interpolated quantile of @p values (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// The median over kTailSegments consecutive, equal slices of @p values
/// (in completion order) of each slice's @p q quantile.  A tail the program
/// makes recurs in every slice and is kept; a host stall that lands in a
/// few slices is not.
double segmented_quantile(const std::vector<double>& values, double q);

inline constexpr std::size_t kTailSegments = 10;

/// Quantile of a telemetry histogram's growth between two snapshots, in the
/// histogram's unit (type-1 bucket lower bound, as telemetry reports it).
double histogram_delta_quantile(const pyblaz::telemetry::Snapshot& before,
                                const pyblaz::telemetry::Snapshot& after,
                                const std::string& name, double q);

std::uint64_t counter_delta(const pyblaz::telemetry::Snapshot& before,
                            const pyblaz::telemetry::Snapshot& after,
                            const std::string& name);

// --------------------------------------------------------------- hashing

/// 64-bit hash of raw bytes; equal inputs give equal hashes, so comparing
/// hashes compares bit patterns.
std::uint64_t hash_bytes(const void* data, std::size_t size,
                         std::uint64_t seed = 0);

/// Hash of an array's archive fields (N and F) — what serialize() encodes.
std::uint64_t hash_archive(const pyblaz::CompressedArray& array);

std::uint64_t bits_of(double value);

// ---------------------------------------------------------------- errors

/// max |x - ref| / (max(ref) - min(ref)).
double field_rel_error(const double* x, const double* ref, std::size_t n);

/// |x - ref| / |ref| (|x - ref| when ref is 0).
double scalar_rel_error(double x, double ref);

// --------------------------------------------------------------- results

/// What one measured phase of a workload produced.
struct Phase {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<double> latencies_s;  ///< One per completed request.
  /// Closed-loop throughput: the sum over clients of closed_loop_rate().
  double req_per_s = 0.0;
  double max_rel_error = 0.0;
  double seconds = 0.0;             ///< Wall time of the phase.
  std::vector<std::string> failures;  ///< First few failure messages.

  void fail(const std::string& message);
  void merge(const Phase& other);
};

/// Closed-loop throughput of one client: its completed requests divided
/// by the summed latency of those requests.
double closed_loop_rate(const std::vector<double>& latencies_s);

struct Metric {
  double value = 0.0;
  std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/// Per-request and per-call layer metrics derived from a traced phase.
struct LayerView {
  const trace::Summary& summary;
  std::int64_t requests;

  /// Self time of @p span inside requests, per request, in ms.
  double per_request_ms(const char* span) const;
  /// Mean self time of one @p span call inside requests, in seconds.
  double per_call_s(const char* span) const;
  /// Self time of @p span (inside and outside requests), in seconds.
  double total_self_s(const char* span) const;
  double in_request_self_s(const char* span) const;
  /// Request wall time not covered by any layer span, per request, in ms.
  double unattributed_ms() const;
};

/// One benchmark workload.  main() calls setup() repeatedly (each call
/// rebuilds the system from the generated inputs and returns its own
/// seconds), then precompute() once, then run() for a warm-up and for each
/// measured phase.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual int clients() const = 0;
  /// Scheduler thread count (callers + workers) pinned for this workload.
  virtual int scheduler_threads() const = 0;
  virtual long cache_capacity() const = 0;
  /// Build the system once and return the seconds it took.
  virtual double setup() = 0;
  /// Harness-only reference results; excluded from setup_s.
  virtual void precompute() = 0;
  /// Run closed-loop requests for at least @p seconds and at least
  /// @p min_requests requests, in whole units (an epoch, or one request per
  /// client).  @p trace_run is true in every phase of a --trace 1 run,
  /// whether or not spans are being recorded: a workload that splits a call
  /// into its public parts for tracing does so in both halves.
  virtual Phase run(double seconds, bool trace_run,
                    std::int64_t min_requests) = 0;
  /// Serialized v3 bytes of the final archive per element.
  virtual double bytes_per_value() const = 0;
  /// Workload-specific layer metrics of the last traced run() (byte rates
  /// and cache counts); main() fills the span- and telemetry-derived
  /// ones and every name starts at 0, so a layer that is not on this
  /// workload's path reads 0.
  virtual void layer_metrics(const LayerView& view, Metrics& out) const = 0;
  /// Context numbers that are reported but not gated.
  virtual void context(Metrics& out) { (void)out; }
};

std::unique_ptr<Workload> make_archive_query(const Options& options);
std::unique_ptr<Workload> make_swe_rk2(const Options& options);
std::unique_ptr<Workload> make_roi_rw(const Options& options);

/// Fill every per-layer metric of the benchmark, with its unit, with 0 so a
/// workload only sets the ones on its path.
void zero_layer_metrics(Metrics& out);

/// Minimum requests in the measured phase of an untraced run: p99 needs ten
/// samples beyond it.
inline constexpr std::int64_t kMinRequests = 1000;

/// Minimum requests in each half of a traced run, which reports per-request
/// means and no percentile.
inline constexpr std::int64_t kMinTracedRequests = 200;

}  // namespace e2e
