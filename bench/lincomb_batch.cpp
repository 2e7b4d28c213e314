/// Batched lincomb benchmark: what ops::lincomb_batch buys over evaluating
/// the same expressions one ops::lincomb call at a time.
///
///   - shared3of4_i32: the acceptance workload — K=4 expressions of arity 4
///     over a 7-array operand set where every expression shares 3 operands
///     (16 terms, 7 distinct), int32 bins.  "sequential" evaluates the 4
///     requests as 4 lincomb calls; "batch" is one lincomb_batch call that
///     decodes each distinct operand's coefficient row once per block and
///     fans it into all 4 outputs.  The batch-over-sequential ratio is the
///     headline acceptance number (>= 1.5x single-thread).  int32 bins make
///     the 7-operand set ~7 MB — well past L2 on typical hosts — so the
///     sequential path re-reads 16 bin rows per block out of the slower cache
///     levels while the batch reads each of the 7 distinct rows once; that
///     traffic gap is the regime the decode-amortization model describes.
///   - shared3of4_i8: the same expressions over int8 bins — the honesty row
///     for cache-resident narrow-bin workloads, where int->double conversion
///     is a small fraction of the work and the ratio sits near 1.0x (the
///     batch then mostly saves per-call overhead, not decode work).
///   - noshare: 4 expressions with fully disjoint operand sets, where
///     lincomb_batch stages no row and streams every operand, as
///     sequential evaluation does; the ratio should sit near 1.0x.
///
/// Every run first verifies the batch outputs bit-identical (indices and
/// biggest both) to per-expression sequential evaluation and exits nonzero
/// on any mismatch, so wiring this into CI gates correctness even though the
/// timing diff stays warn-only.
///
/// Usage: bench_lincomb_batch [OUTPUT.json] [--smoke]
///
/// Writes BENCH_lincomb_batch.local.json by default (gitignored; pass a path
/// when refreshing the committed baseline via tools/bench_merge.py).  --smoke
/// shrinks the arrays for CI.  tools/bench_compare.py diffs the batch[] JSON
/// section against a baseline (informational, never gating).  Timing
/// is single-thread (CC_THREADS pinned to 1 here) to keep the ratio a pure
/// decode-amortization measurement.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/codec/compressor.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/util/rng.hpp"

namespace {

using namespace pyblaz;  // NOLINT

using bench::Report;

/// A request batch plus the arrays backing it (requests hold pointers).
struct Workload {
  std::vector<CompressedArray> arrays;
  std::vector<std::vector<const CompressedArray*>> operand_lists;
  std::vector<std::vector<double>> weight_lists;
  int distinct = 0;

  std::vector<ops::LincombRequest> requests() const {
    std::vector<ops::LincombRequest> reqs;
    reqs.reserve(operand_lists.size());
    for (std::size_t k = 0; k < operand_lists.size(); ++k)
      reqs.push_back({std::span<const CompressedArray* const>(
                          operand_lists[k].data(), operand_lists[k].size()),
                      std::span<const double>(weight_lists[k]), 0.0});
    return reqs;
  }
};

/// K=4 arity-4 requests over 3 shared + 4 unique arrays (16 terms, 7
/// distinct) — the acceptance workload from ISSUE 10.
Workload make_shared_workload(const Compressor& compressor,
                              const Shape& shape) {
  Workload w;
  Rng rng(7);
  for (int i = 0; i < 7; ++i)
    w.arrays.push_back(compressor.compress(random_smooth(shape, rng, 6)));
  for (int k = 0; k < 4; ++k) {
    w.operand_lists.push_back(
        {&w.arrays[0], &w.arrays[1], &w.arrays[2], &w.arrays[3 + k]});
    w.weight_lists.push_back({1.0, -0.25 * (k + 1), 0.5, 0.125 * (k + 1)});
  }
  w.distinct = 7;
  return w;
}

/// K=4 arity-2 requests with fully disjoint operands (8 terms, 8 distinct):
/// nothing to share, so lincomb_batch stages no row and streams every
/// operand; this row measures the batch's overhead honestly.
Workload make_noshare_workload(const Compressor& compressor,
                               const Shape& shape) {
  Workload w;
  Rng rng(9);
  for (int i = 0; i < 8; ++i)
    w.arrays.push_back(compressor.compress(random_smooth(shape, rng, 6)));
  for (int k = 0; k < 4; ++k) {
    w.operand_lists.push_back({&w.arrays[2 * k], &w.arrays[2 * k + 1]});
    w.weight_lists.push_back({0.75, -0.5 * (k + 1)});
  }
  w.distinct = 8;
  return w;
}

/// Evaluates @p reqs one lincomb call at a time into @p out, releasing the
/// previous contents first.  Both timed paths use this release-before-evaluate
/// discipline: freeing the prior results before computing lets the allocator
/// serve every ~1 MB output buffer from the same warm pages call after call.
/// Building the new results while the old ones are still live instead forces
/// fresh mappings each call, and the page-fault churn it leaves behind was
/// measured to slow the OTHER path's trials by ~35% — poisoning the ratio,
/// not just the absolute numbers.
void eval_sequential(std::span<const ops::LincombRequest> reqs,
                     std::vector<CompressedArray>& out) {
  out.clear();
  out.reserve(reqs.size());
  for (const auto& req : reqs)
    out.push_back(ops::lincomb(req.operands, req.weights, req.bias));
}

/// The CI gate: batch outputs must match sequential bit-for-bit.
bool check_bit_identity(const Workload& w, const char* label) {
  const auto reqs = w.requests();
  std::vector<CompressedArray> sequential;
  eval_sequential(reqs, sequential);
  const std::vector<CompressedArray> batch =
      ops::lincomb_batch(std::span<const ops::LincombRequest>(reqs));
  if (batch.size() != sequential.size()) {
    std::fprintf(stderr, "FAIL %s: batch returned %zu results, expected %zu\n",
                 label, batch.size(), sequential.size());
    return false;
  }
  for (std::size_t k = 0; k < batch.size(); ++k) {
    if (batch[k].indices != sequential[k].indices ||
        batch[k].biggest != sequential[k].biggest) {
      std::fprintf(stderr,
                   "FAIL %s: output %zu differs from sequential lincomb — "
                   "bit-identity contract broken\n",
                   label, k);
      return false;
    }
  }
  return true;
}

/// Times a workload's sequential and batch paths in interleaved trials
/// (0.2 s x 7): one call is milliseconds of compute whose ratio is partly a
/// memory-system property, so alternating trials land slow drift (frequency
/// scaling, a noisy co-tenant, page-cache state) on both sides instead of
/// biasing whichever ran second.
void bench_workload(Report& report, const Workload& w, const std::string& name,
                    const Shape& shape) {
  const auto reqs = w.requests();
  const index_t k = static_cast<index_t>(reqs.size());

  std::vector<CompressedArray> sink;
  const std::vector<double> seconds = bench::time_ops(
      {[&] { eval_sequential(reqs, sink); },
       [&] {
         sink.clear();  // Release-before-evaluate; see eval_sequential.
         sink = ops::lincomb_batch(std::span<const ops::LincombRequest>(reqs));
       }},
      /*trial_seconds=*/0.2, /*trials=*/7);
  if (sink.empty()) std::printf("unreachable\n");  // Defeat dead-code elim.
  for (std::size_t side = 0; side < 2; ++side)
    report.record("batch", {{"name", name},
                            {"impl", side == 0 ? "sequential" : "batch"},
                            {"shape", bench::shape_string(shape)},
                            {"elements_per_call", k * shape.volume()},
                            {"expressions", k},
                            {"distinct_operands", w.distinct},
                            {"seconds_per_call", seconds[side]}});
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_lincomb_batch.local.json";
  bool smoke = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0)
      smoke = true;
    else
      out_path = argv[a];
  }

  // Single-thread by contract: the acceptance ratio is a decode-amortization
  // measurement, not a scheduler one (and CI hosts are often single-core).
  parallel::set_num_threads(1);

  const Shape array_shape = smoke ? Shape{96, 96} : Shape{512, 512};
  const Shape block_shape{8, 8};
  Compressor comp_i32({.block_shape = block_shape,
                       .float_type = FloatType::kFloat32,
                       .index_type = IndexType::kInt32});
  Compressor comp_i8({.block_shape = block_shape,
                      .float_type = FloatType::kFloat32,
                      .index_type = IndexType::kInt8});

  const Workload shared_i32 = make_shared_workload(comp_i32, array_shape);
  const Workload shared_i8 = make_shared_workload(comp_i8, array_shape);
  const Workload noshare = make_noshare_workload(comp_i32, array_shape);

  // Gate before timing: a fast batch that computes different bits is a bug,
  // not a result.
  if (!check_bit_identity(shared_i32, "shared3of4_i32") ||
      !check_bit_identity(shared_i8, "shared3of4_i8") ||
      !check_bit_identity(noshare, "noshare"))
    return 1;
  std::printf("bit-identity check passed (batch == sequential, all "
              "workloads)\n\n");

  Report report;
  bench_workload(report, shared_i32, "shared3of4_i32", array_shape);
  bench_workload(report, shared_i8, "shared3of4_i8", array_shape);
  bench_workload(report, noshare, "noshare", array_shape);

  // shared3of4_i32 (int32 bins, 1 thread) is the >=1.5x acceptance row; the
  // cache-resident int8 row and the no-share row are expected near 1.0x.
  bench::print_ratios(report, {{.title = "batch speedup over sequential",
                                .section = "batch",
                                .key = "impl",
                                .num = "sequential",
                                .den = "batch"}});
  const auto speedup =
      report.ratio("batch", {{"name", "shared3of4_i32"}, {"impl", "sequential"}},
                   {{"name", "shared3of4_i32"}, {"impl", "batch"}});
  if (!smoke && speedup && *speedup < 1.5)
    std::fprintf(stderr,
                 "warning: batch measured <1.5x over sequential; expected "
                 ">=1.5x on the full-size shared3of4_i32 workload — rerun "
                 "on a quiet machine before trusting this\n");

  if (!report.write_json(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
