/// Multi-client scheduler benchmark: M concurrent sessions each running the
/// canonical request pipeline — compress → fused lincomb (via the expression
/// front end) → decompress — against the process-wide scheduler, measuring
/// whether independent requests actually overlap.
///
/// Usage: bench_multi_client [OUTPUT.json] [--smoke] [--batch]
///
/// Every (mode, clients) cell fires `clients` threads that run the identical
/// session workload; the harness records aggregate throughput plus p50/p95
/// per-request latency.  Two modes run side by side on the same binary:
///
///   serialized — parallel::set_serialize_regions(true): top-level regions
///                queue through one gate, the pre-sharding scheduler's
///                behavior (the baseline);
///   sharded    — the concurrent-region scheduler (the default).
///
/// The acceptance story (ISSUE 5 / docs/PERF.md) is measured overlap:
/// sharded aggregate throughput at 2+ clients beats the serialized baseline
/// on a multi-core machine, with bit-identical results — every client checks
/// its bytes against a precomputed sequential reference every iteration, so
/// the benchmark doubles as a concurrency correctness harness.  On a
/// single-core host the two modes are expected to tie (there is nothing to
/// overlap onto); the harness prints that caveat instead of a warning.
///
/// --batch swaps the per-request work for the coalesced-session shape: each
/// client builds K=4 expressions sharing 3 of 4 operands and submits them as
/// ONE BatchEval::eval() (one ops::lincomb_batch call) instead of four
/// separate lincomb calls.  The reference every client checks against is computed
/// by SEQUENTIAL per-expression evaluation, so these cells gate the
/// batch==sequential bit-identity contract under concurrency, not just the
/// scheduler.  Batched cells record under the distinct name
/// "compress_lincomb_batch" so they diff independently in concurrency[].
///
/// Results land in a `concurrency[]` section (same JSON schema as
/// bench_micro_kernels); tools/bench_compare.py diffs it and
/// tools/bench_merge.py folds it into the committed BENCH_kernels.json.
/// --smoke shrinks arrays and iteration counts for CI.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/codec/compressor.hpp"
#include "core/codec/serialization.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/expr.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/util/rng.hpp"

namespace {

using namespace pyblaz;  // NOLINT

struct BenchConfig {
  Shape array_shape{256, 256};
  int iterations = 60;
  int warmup = 3;
  std::vector<int> client_counts{1, 2, 4};
};

struct CellResult {
  std::string mode;
  int clients = 0;
  int threads = 0;
  int iterations_per_client = 0;
  double seconds_total = 0.0;
  double ops_per_second = 0.0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
};

CompressorSettings session_settings() {
  CompressorSettings settings;
  settings.block_shape = Shape{8, 8};
  settings.float_type = FloatType::kFloat32;
  settings.index_type = IndexType::kInt8;
  settings.transform = TransformKind::kDCT;
  return settings;
}

/// One request: encode a fresh field, combine it with two standing
/// compressed operands through the expression front end (one fused lincomb,
/// one rebin), and decode the result — the compress/operate/decompress
/// stream shape inline-compression pipelines keep in flight.
///
/// With `batched` set, the combine step widens to the coalesced-session
/// shape: K=4 expressions of arity 4 sharing 3 operands (fresh, standing_b,
/// standing_c) plus one per-expression standing_d[k], submitted as a single
/// BatchEval::eval().  request_reference() evaluates the same expressions
/// one lincomb at a time, so the run_cell bit-check doubles as a
/// batch==sequential identity gate under concurrency.
struct SessionWorkload {
  Compressor compressor{session_settings()};
  NDArray<double> input;
  CompressedArray standing_b;
  CompressedArray standing_c;
  std::array<CompressedArray, 4> standing_d;
  bool batched = false;

  SessionWorkload(const Shape& shape, bool batched_mode)
      : input(shape), batched(batched_mode) {
    Rng rng(11);
    input = random_smooth(shape, rng, 6);
    standing_b = compressor.compress(random_smooth(shape, rng, 6));
    standing_c = compressor.compress(random_smooth(shape, rng, 6));
    for (auto& d : standing_d)
      d = compressor.compress(random_smooth(shape, rng, 6));
  }

  std::pair<std::vector<std::uint8_t>, NDArray<double>> request() const {
    const CompressedArray fresh = compressor.compress(input);
    if (batched) {
      const auto exprs = batch_exprs(fresh);
      BatchEval batch;
      for (const auto& e : exprs) batch.add(e);
      return pack(batch.eval());
    }
    const CompressedArray mix = fresh - 0.5 * standing_b + 0.25 * standing_c;
    return {serialize(mix), compressor.decompress(mix)};
  }

  /// What request() must reproduce bit for bit.  In batch mode this
  /// evaluates the same K expressions sequentially — one lincomb each — so
  /// any divergence between the fused multi-output path and per-expression
  /// evaluation fails every client's check.
  std::pair<std::vector<std::uint8_t>, NDArray<double>> request_reference()
      const {
    if (!batched) return request();
    const CompressedArray fresh = compressor.compress(input);
    const auto exprs = batch_exprs(fresh);
    std::vector<CompressedArray> results;
    results.reserve(exprs.size());
    for (const auto& e : exprs) results.push_back(e.eval());
    return pack(results);
  }

 private:
  /// K=4 expressions sharing fresh/standing_b/standing_c — the 3-of-4
  /// sharing shape bench_lincomb_batch's acceptance workload uses.
  std::array<LinExpr<4>, 4> batch_exprs(const CompressedArray& fresh) const {
    std::array<LinExpr<4>, 4> exprs;
    for (int k = 0; k < 4; ++k)
      exprs[static_cast<std::size_t>(k)] =
          fresh - 0.5 * standing_b + 0.25 * standing_c +
          (0.125 * (k + 1)) * standing_d[static_cast<std::size_t>(k)];
    return exprs;
  }

  /// Serialized bytes of every result concatenated (so the bit-check covers
  /// all K outputs) plus the decoded first result, mirroring the
  /// single-expression pipeline's decode step.
  std::pair<std::vector<std::uint8_t>, NDArray<double>> pack(
      const std::vector<CompressedArray>& results) const {
    std::vector<std::uint8_t> bytes;
    for (const CompressedArray& r : results) {
      const std::vector<std::uint8_t> one = serialize(r);
      bytes.insert(bytes.end(), one.begin(), one.end());
    }
    return {std::move(bytes), compressor.decompress(results.front())};
  }
};

/// Linear-interpolated quantile on the sorted sample (numpy's default): the
/// rank is a real position q*(n-1), not a truncated index, so p99 over e.g.
/// 120 samples blends the two straddling order statistics instead of
/// silently rounding down to p98.3.
double percentile(std::vector<double>& sorted_ascending, double q) {
  if (sorted_ascending.empty()) return 0.0;
  const double pos = q * (static_cast<double>(sorted_ascending.size()) - 1.0);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted_ascending.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_ascending[lo] * (1.0 - frac) + sorted_ascending[hi] * frac;
}

/// Run one (mode, clients) cell.  Returns false on any bit-mismatch against
/// the sequential reference.
bool run_cell(const BenchConfig& config, const SessionWorkload& workload,
              const std::vector<std::uint8_t>& reference_bytes,
              const NDArray<double>& reference_decoded, bool serialized,
              int clients, CellResult* result) {
  parallel::set_serialize_regions(serialized);

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> mismatches{0};
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  std::atomic<double> last_finish_seconds{0.0};

  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& mine = latencies[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(config.iterations));
      for (int w = 0; w < config.warmup; ++w) (void)workload.request();
      ++ready;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < config.iterations; ++i) {
        const auto r0 = std::chrono::steady_clock::now();
        const auto [bytes, decoded] = workload.request();
        const auto r1 = std::chrono::steady_clock::now();
        mine.push_back(std::chrono::duration<double>(r1 - r0).count());
        // Every client, every iteration: concurrent execution must produce
        // exactly the sequential bytes and bits.
        if (bytes != reference_bytes ||
            decoded.vector() != reference_decoded.vector())
          ++mismatches;
      }
      const double finish =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      double seen = last_finish_seconds.load();
      while (finish > seen &&
             !last_finish_seconds.compare_exchange_weak(seen, finish)) {
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double start_offset =
      std::chrono::duration<double>(start - t0).count();
  const double wall = last_finish_seconds.load() - start_offset;

  std::vector<double> all;
  for (auto& mine : latencies) all.insert(all.end(), mine.begin(), mine.end());
  std::sort(all.begin(), all.end());

  result->mode = serialized ? "serialized" : "sharded";
  result->clients = clients;
  result->threads = parallel::num_threads();
  result->iterations_per_client = config.iterations;
  result->seconds_total = wall;
  result->ops_per_second =
      static_cast<double>(clients * config.iterations) / wall;
  result->p50_seconds = percentile(all, 0.50);
  result->p95_seconds = percentile(all, 0.95);
  result->p99_seconds = percentile(all, 0.99);

  std::printf(
      "%-10s clients=%d threads=%d  %8.2f ops/s  p50 %7.2f ms  p95 %7.2f ms  "
      "p99 %7.2f ms%s\n",
      result->mode.c_str(), clients, result->threads, result->ops_per_second,
      result->p50_seconds * 1e3, result->p95_seconds * 1e3,
      result->p99_seconds * 1e3, mismatches.load() ? "  BIT-MISMATCH" : "");
  std::fflush(stdout);
  return mismatches.load() == 0;
}

std::string shape_string(const Shape& shape) {
  std::string text;
  for (int axis = 0; axis < shape.ndim(); ++axis) {
    if (axis) text += "x";
    text += std::to_string(shape[axis]);
  }
  return text;
}

bool write_json(const std::string& path, const char* cell_name,
                const Shape& shape, const std::vector<CellResult>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\n  \"schema\": \"pyblaz-bench-kernels-v1\",\n");
  std::fprintf(f, "  \"results\": [\n  ],\n  \"concurrency\": [\n");
  const std::string shape_text = shape_string(shape);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& r = cells[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"shape\": "
                 "\"%s\", \"mode\": \"%s\", \"clients\": %d, \"threads\": %d, "
                 "\"iterations_per_client\": %d, \"seconds_total\": %.6e, "
                 "\"ops_per_second\": %.6e, \"p50_seconds\": %.6e, "
                 "\"p95_seconds\": %.6e, \"p99_seconds\": %.6e}%s\n",
                 cell_name, shape_text.c_str(), r.mode.c_str(), r.clients,
                 r.threads,
                 r.iterations_per_client, r.seconds_total, r.ops_per_second,
                 r.p50_seconds, r.p95_seconds, r.p99_seconds,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_multi_client.local.json";
  bool smoke = false;
  bool batch = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[a], "--batch") == 0)
      batch = true;
    else
      out_path = argv[a];
  }

  BenchConfig config;
  if (smoke) {
    config.array_shape = Shape{96, 96};
    config.iterations = 12;
    config.warmup = 1;
    config.client_counts = {1, 2};
  }

  const SessionWorkload workload(config.array_shape, batch);
  // Sequential reference: what every concurrent client must reproduce (in
  // --batch mode, computed per-expression so it also gates the batched
  // path's bit-identity contract).
  const auto [reference_bytes, reference_decoded] =
      workload.request_reference();
  if (batch)
    std::printf("batch mode: each request coalesces 4 expressions (3 of 4 "
                "operands shared) into one BatchEval::eval()\n");

  std::vector<CellResult> cells;
  bool all_identical = true;
  for (bool serialized : {true, false}) {
    for (int clients : config.client_counts) {
      CellResult cell;
      all_identical &= run_cell(config, workload, reference_bytes,
                                reference_decoded, serialized, clients, &cell);
      cells.push_back(cell);
    }
  }
  parallel::set_serialize_regions(false);

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("\noverlap (sharded over serialized aggregate throughput):\n");
  bool overlap_suspect = false;
  for (int clients : config.client_counts) {
    const CellResult* sharded = nullptr;
    const CellResult* serialized = nullptr;
    for (const CellResult& r : cells) {
      if (r.clients != clients) continue;
      (r.mode == "sharded" ? sharded : serialized) = &r;
    }
    if (!sharded || !serialized || serialized->ops_per_second <= 0) continue;
    const double ratio = sharded->ops_per_second / serialized->ops_per_second;
    std::printf("  clients=%d  %5.2fx\n", clients, ratio);
    if (clients >= 2 && ratio < 1.2) overlap_suspect = true;
  }
  if (overlap_suspect) {
    if (hw <= 1)
      std::printf(
          "note: single-core host — concurrent clients have nothing to "
          "overlap onto, so sharded ~= serialized here is the expected "
          "physics; re-measure on a machine with cores.\n");
    else
      std::fprintf(stderr,
                   "warning: <1.2x overlap at 2+ clients on a %u-core host — "
                   "regions may still be queueing; rerun on a quiet machine "
                   "before trusting this\n",
                   hw);
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: concurrent results diverged from the sequential "
                 "reference\n");
    return 1;
  }
  const char* cell_name =
      batch ? "compress_lincomb_batch" : "compress_lincomb_decompress";
  if (!write_json(out_path, cell_name, config.array_shape, cells)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
