// End-to-end benchmark: the command-line entry point.
//
//   e2ebench --workload archive_query|swe_rk2|roi_rw --seed N --seconds S
//            --trace 0|1 [--trace-out PATH] [--git-sha SHA]
//            [--src-digest HEX] [--cpu-model NAME]
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// runs half the time untraced and half traced, and reports the per-layer
// split of the traced half plus the tracing overhead.  Both print a
// fingerprint line, a context line (numbers reported but not gated), and,
// last, one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "build_info.hpp"
#include "core/cache/block_cache.hpp"
#include "core/kernels/backend.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "harness.hpp"

namespace {

using namespace e2e;  // NOLINT

constexpr int kShards = 8;
// Set-up runs at least this many times and for at least this long.  The
// set-ups of one process drift as it warms and as the host shifts; over six
// roi_rw processes, the median of two seconds of set-ups spread about a
// third as much as the median of the first eleven.
constexpr std::size_t kMinSetups = 5;
constexpr double kSetupSeconds = 2.0;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") o.workload = value;
    else if (key == "--seed") o.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") o.seconds = std::atof(value.c_str());
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--trace-out") o.trace_out = value;
    else if (key == "--git-sha") o.git_sha = value;
    else if (key == "--src-digest") o.src_digest = value;
    else if (key == "--cpu-model") o.cpu_model = value;
    else return false;
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

int run(const Options& options) {
  std::unique_ptr<Workload> workload;
  if (options.workload == "archive_query") workload = make_archive_query(options);
  else if (options.workload == "swe_rk2") workload = make_swe_rk2(options);
  else if (options.workload == "roi_rw") workload = make_roi_rw(options);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  // Pin the scheduler and the cache so the run does not depend on CC_*
  // environment defaults.
  pyblaz::parallel::set_num_threads(workload->scheduler_threads());
  pyblaz::parallel::set_num_shards(kShards);
  pyblaz::cache::set_default_capacity(workload->cache_capacity());

  const pyblaz::kernels::Backend backend = pyblaz::kernels::active_backend();
  std::printf(
      "{\"fingerprint\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"cpu_model\": %s, \"nproc\": %u, \"backend\": %s, "
      "\"build_flags\": %s, \"compiler\": %s, \"git_sha\": %s, "
      "\"src_digest\": %s, \"clients\": %d, \"scheduler_threads\": %d, "
      "\"shards\": %d, \"cache_capacity_blocks\": %ld}}\n",
      json_string(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      json_number(options.seconds).c_str(), options.trace ? 1 : 0,
      json_string(options.cpu_model).c_str(),
      std::thread::hardware_concurrency(),
      json_string(pyblaz::kernels::backend_name(backend)).c_str(),
      json_string(E2E_BUILD_FLAGS).c_str(), json_string(E2E_COMPILER).c_str(),
      json_string(options.git_sha).c_str(),
      json_string(options.src_digest).c_str(), workload->clients(),
      pyblaz::parallel::num_threads(), pyblaz::parallel::num_shards(),
      workload->cache_capacity());
  std::fflush(stdout);

  // Set-up, repeated; the median is setup_s.  Traced runs record the
  // set-up's layer calls too (outside any request).
  trace::set_enabled(options.trace);
  std::vector<double> setups;
  const auto setup_start = Clock::now();
  do {
    setups.push_back(workload->setup());
  } while (setups.size() < kMinSetups ||
           std::chrono::duration<double>(Clock::now() - setup_start).count() <
               kSetupSeconds);
  trace::set_enabled(false);

  workload->precompute();

  Phase all;  // Every checked request of the process.
  all.merge(
      workload->run(std::min(1.0, options.seconds / 10.0), options.trace, 0));

  Metrics metrics;
  if (!options.trace) {
    const Phase phase = workload->run(options.seconds, false, kMinRequests);
    all.merge(phase);
    metrics["setup_s"] = Metric{median(setups), "s"};
    metrics["req_per_s"] = Metric{phase.req_per_s, "1/s"};
    metrics["latency_p50_ms"] =
        Metric{quantile(phase.latencies_s, 0.5) * 1e3, "ms"};
    metrics["latency_p99_ms"] =
        Metric{segmented_quantile(phase.latencies_s, 0.99) * 1e3, "ms"};
    metrics["max_rel_error"] = Metric{phase.max_rel_error, "fraction"};
    metrics["bytes_per_value"] = Metric{workload->bytes_per_value(), "B/value"};
    metrics["peak_rss_mb"] = Metric{peak_rss_mb(), "MB"};
    std::fprintf(stderr, "%s: %zu requests in %.2f s\n", options.workload.c_str(),
                 phase.latencies_s.size(), phase.seconds);
  } else {
    // Both halves take the traced run's code path, so trace.overhead_frac
    // is the cost of recording spans alone.
    const double half = options.seconds / 2.0;
    const Phase untraced = workload->run(half, true, kMinTracedRequests);
    all.merge(untraced);

    const pyblaz::telemetry::Snapshot before = pyblaz::telemetry::snapshot();
    const long passes0 = pyblaz::ops::lincomb_rebin_passes();
    trace::set_enabled(true);
    const Phase traced = workload->run(half, true, kMinTracedRequests);
    trace::set_enabled(false);
    const long passes = pyblaz::ops::lincomb_rebin_passes() - passes0;
    const pyblaz::telemetry::Snapshot after = pyblaz::telemetry::snapshot();
    all.merge(traced);

    const trace::Summary summary = trace::summarize();
    const auto requests = static_cast<std::int64_t>(traced.latencies_s.size());
    const LayerView view{summary, requests};
    zero_layer_metrics(metrics);
    auto set = [&](const char* name, double value) {
      metrics[name].value = value;
    };
    set("container.deserialize_ms", view.per_request_ms("container.deserialize"));
    set("container.serialize_ms", view.per_request_ms("container.serialize"));
    set("codec.compress_ms", view.per_request_ms("codec.compress"));
    set("codec.decompress_ms", view.per_request_ms("codec.decompress"));
    set("ops.lincomb_batch_ms", view.per_request_ms("ops.lincomb_batch"));
    set("ops.lincomb_ms", view.per_request_ms("ops.lincomb"));
    set("ops.reduce_ms", view.per_request_ms("ops.reduce"));
    set("sim.model_step_ms", view.per_request_ms("sim.model_step"));
    set("cache.roi_us", view.per_call_s("cache.roi") * 1e6);
    set("cache.set_us", view.per_call_s("cache.set") * 1e6);
    set("cache.flush_ms", view.per_call_s("cache.flush") * 1e3);
    set("ops.decodes_avoided",
        static_cast<double>(counter_delta(before, after,
                                          "ops.lincomb_batch.decodes_avoided")) /
            static_cast<double>(requests));
    set("ops.rebin_passes",
        static_cast<double>(passes) / static_cast<double>(requests));
    set("sched.queue_wait_p50_ms",
        histogram_delta_quantile(before, after, "sched.region.queue_wait_ns",
                                 0.5) * 1e-6);
    set("sched.queue_wait_p99_ms",
        histogram_delta_quantile(before, after, "sched.region.queue_wait_ns",
                                 0.99) * 1e-6);
    set("unattributed_ms", view.unattributed_ms());
    set("trace.overhead_frac", 1.0 - traced.req_per_s / untraced.req_per_s);
    workload->layer_metrics(view, metrics);

    if (!options.trace_out.empty() && !trace::write_csv(options.trace_out))
      std::fprintf(stderr, "warning: could not write spans to %s\n",
                   options.trace_out.c_str());
    std::fprintf(stderr, "%s: %llu spans over %lld traced requests\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(summary.spans),
                 static_cast<long long>(requests));
  }

  Metrics context;
  workload->context(context);
  context["failed_share"] = Metric{
      static_cast<double>(all.failed) / static_cast<double>(all.attempted),
      "fraction"};
  std::printf("{\"context\": %s}\n", json_metrics(context).c_str());
  for (const std::string& f : all.failures)
    std::fprintf(stderr, "check failed: %s\n", f.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              all.failed == 0 ? "true" : "false",
              static_cast<long long>(all.attempted),
              static_cast<long long>(all.failed), json_metrics(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH] [--git-sha SHA] "
                 "[--src-digest HEX] [--cpu-model NAME]\n");
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
