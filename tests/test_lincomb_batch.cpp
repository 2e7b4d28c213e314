/// Batched multi-expression evaluation (ops::lincomb_batch + BatchEval):
/// K lincomb expressions over a shared operand set evaluate in one blocked
/// pass — each distinct operand's bin row decoded once per block through
/// kernels::decode_lincomb_multi — and every output must be bit-identical to
/// evaluating its expression alone, across shapes, dtypes, arities, thread
/// counts, shard counts, kernel backends, and cache capacities.  Also pins
/// the operand-dedup accounting (telemetry counters), the K-rebins-per-batch
/// contract, the no-sharing case, and clean behavior around the
/// cache.fill.alloc fault site.

#include <gtest/gtest.h>

#include <new>
#include <stdexcept>
#include <vector>

#include "core/cache/block_cache.hpp"
#include "core/codec/compressor.hpp"
#include "core/error/error.hpp"
#include "core/fault/fault.hpp"
#include "core/kernels/backend.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/expr.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/telemetry/telemetry.hpp"
#include "core/util/rng.hpp"

namespace pyblaz {
namespace {

using kernels::Backend;

CompressorSettings settings_for(Shape block,
                                FloatType ftype = FloatType::kFloat32,
                                IndexType itype = IndexType::kInt8,
                                TransformKind kind = TransformKind::kDCT) {
  return {.block_shape = std::move(block),
          .float_type = ftype,
          .index_type = itype,
          .transform = kind};
}

void expect_bit_identical(const CompressedArray& a, const CompressedArray& b,
                          const std::string& label) {
  EXPECT_EQ(a.indices, b.indices) << label;
  EXPECT_EQ(a.biggest, b.biggest) << label;
}

std::vector<CompressedArray> sequential_eval(
    std::span<const ops::LincombRequest> requests) {
  std::vector<CompressedArray> out;
  out.reserve(requests.size());
  for (const ops::LincombRequest& req : requests)
    out.push_back(ops::lincomb(req.operands, req.weights, req.bias));
  return out;
}

void expect_batch_matches(std::span<const ops::LincombRequest> requests,
                          const std::string& label) {
  const std::vector<CompressedArray> reference = sequential_eval(requests);
  const std::vector<CompressedArray> batched = ops::lincomb_batch(requests);
  ASSERT_EQ(batched.size(), reference.size()) << label;
  for (std::size_t k = 0; k < reference.size(); ++k)
    expect_bit_identical(batched[k], reference[k],
                         label + " output " + std::to_string(k));
}

/// The acceptance workload: K=4 expressions of arity 4 sharing 3 operands —
/// expression k reads {shared0, shared1, shared2, unique_k} with
/// per-expression weights.  16 terms, 7 distinct operands.
struct AcceptanceBatch {
  std::vector<CompressedArray> arrays;  // [0..2] shared, [3..6] unique.
  std::vector<std::vector<const CompressedArray*>> operands;
  std::vector<std::vector<double>> weights;
  std::vector<ops::LincombRequest> requests;

  AcceptanceBatch(const CompressorSettings& settings, const Shape& shape,
                  unsigned seed = 42, double bias = 0.0) {
    Compressor compressor(settings);
    Rng rng(seed);
    for (int i = 0; i < 7; ++i)
      arrays.push_back(compressor.compress(random_smooth(shape, rng, 5)));
    for (int k = 0; k < 4; ++k) {
      operands.push_back({&arrays[0], &arrays[1], &arrays[2],
                          &arrays[static_cast<std::size_t>(3 + k)]});
      weights.push_back({1.0, -0.25 * (k + 1), 0.5, 0.125 * (k + 1)});
    }
    for (int k = 0; k < 4; ++k)
      requests.push_back({std::span<const CompressedArray* const>(
                              operands[static_cast<std::size_t>(k)]),
                          std::span<const double>(
                              weights[static_cast<std::size_t>(k)]),
                          bias});
  }
};

struct ParallelGuard {
  ~ParallelGuard() {
    parallel::set_num_threads(0);
    parallel::set_num_shards(0);
  }
};

struct BackendGuard {
  Backend saved = kernels::active_backend();
  ~BackendGuard() { kernels::set_backend(saved); }
};

struct CacheGuard {
  ~CacheGuard() { cache::set_default_capacity(0); }
};

struct FaultGuard {
  ~FaultGuard() { fault::disarm_all(); }
};

TEST(LincombBatch, BatchMatchesSequentialAcrossLayouts) {
  struct Case {
    Shape array_shape;
    Shape block_shape;
    FloatType ftype;
    IndexType itype;
    TransformKind kind;
  };
  const Case cases[] = {
      {Shape{32, 32}, Shape{8, 8}, FloatType::kFloat32, IndexType::kInt8,
       TransformKind::kDCT},
      {Shape{33, 21}, Shape{8, 8}, FloatType::kFloat32, IndexType::kInt16,
       TransformKind::kDCT},  // Ragged edges.
      {Shape{16, 16, 16}, Shape{4, 4, 4}, FloatType::kFloat64,
       IndexType::kInt32, TransformKind::kDCT},
      {Shape{32, 32}, Shape{16, 16}, FloatType::kFloat16, IndexType::kInt8,
       TransformKind::kHaar},
      {Shape{64}, Shape{16}, FloatType::kBFloat16, IndexType::kInt16,
       TransformKind::kHaar},
      {Shape{24, 24}, Shape{8, 8}, FloatType::kFloat32, IndexType::kInt64,
       TransformKind::kDCT},  // int64 bins ride the scalar slot everywhere.
  };
  int index = 0;
  for (const Case& c : cases) {
    AcceptanceBatch batch(settings_for(c.block_shape, c.ftype, c.itype, c.kind),
                          c.array_shape, 100 + static_cast<unsigned>(index));
    expect_batch_matches(batch.requests, "layout case " + std::to_string(index));
    ++index;
  }
}

TEST(LincombBatch, BatchMatchesSequentialAcrossAritiesAndBias) {
  // Mixed arities in one batch — including a single-term expression, an
  // expression with a repeated operand (two terms, same pointer), and
  // nonzero per-request biases — all sharing operands with the others.
  Compressor compressor(settings_for(Shape{8, 8}));
  Rng rng(7);
  std::vector<CompressedArray> arrays;
  for (int i = 0; i < 4; ++i)
    arrays.push_back(compressor.compress(random_smooth(Shape{40, 24}, rng, 5)));

  const std::vector<std::vector<const CompressedArray*>> operand_lists = {
      {&arrays[0]},                                      // arity 1
      {&arrays[0], &arrays[1]},                          // arity 2
      {&arrays[1], &arrays[1]},                          // repeated operand
      {&arrays[0], &arrays[1], &arrays[2], &arrays[3],
       &arrays[2]},                                      // arity 5 (odd tail)
  };
  const std::vector<std::vector<double>> weight_lists = {
      {2.0}, {1.0, -0.5}, {0.25, 0.75}, {1.0, 1.0, -1.0, 0.5, 0.125}};
  const double biases[] = {0.0, 0.1, 0.0, -0.2};

  std::vector<ops::LincombRequest> requests;
  for (std::size_t k = 0; k < operand_lists.size(); ++k)
    requests.push_back(
        {std::span<const CompressedArray* const>(operand_lists[k]),
         std::span<const double>(weight_lists[k]), biases[k]});
  expect_batch_matches(requests, "mixed arity");
}

TEST(LincombBatch, BatchMatchesSequentialAcrossThreadsAndShards) {
  ParallelGuard guard;
  AcceptanceBatch batch(settings_for(Shape{8, 8}), Shape{48, 40}, 11);
  parallel::set_num_threads(1);
  parallel::set_num_shards(1);
  const std::vector<CompressedArray> reference =
      sequential_eval(batch.requests);
  for (int threads : {1, 4}) {
    for (int shards : {1, 8}) {
      parallel::set_num_threads(threads);
      parallel::set_num_shards(shards);
      const std::vector<CompressedArray> batched =
          ops::lincomb_batch(batch.requests);
      ASSERT_EQ(batched.size(), reference.size());
      for (std::size_t k = 0; k < reference.size(); ++k)
        expect_bit_identical(batched[k], reference[k],
                             "threads=" + std::to_string(threads) +
                                 " shards=" + std::to_string(shards) +
                                 " output " + std::to_string(k));
    }
  }
}

TEST(LincombBatch, BatchBitIdenticalAcrossBackends) {
  BackendGuard guard;
  AcceptanceBatch batch(settings_for(Shape{8, 8}), Shape{40, 24}, 13);
  ASSERT_TRUE(kernels::set_backend(Backend::kScalar));
  const std::vector<CompressedArray> reference =
      sequential_eval(batch.requests);
  for (Backend backend : {Backend::kScalar, Backend::kAvx2}) {
    if (!kernels::backend_available(backend)) continue;
    ASSERT_TRUE(kernels::set_backend(backend));
    const std::vector<CompressedArray> batched =
        ops::lincomb_batch(batch.requests);
    const std::vector<CompressedArray> sequential =
        sequential_eval(batch.requests);
    ASSERT_EQ(batched.size(), reference.size());
    for (std::size_t k = 0; k < reference.size(); ++k) {
      const std::string label = std::string("backend ") +
                                kernels::backend_name(backend) + " output " +
                                std::to_string(k);
      expect_bit_identical(batched[k], reference[k], label + " (vs scalar)");
      expect_bit_identical(sequential[k], reference[k],
                           label + " (sequential vs scalar)");
    }
  }
}

TEST(LincombBatch, BatchUnchangedByCacheCapacity) {
  CacheGuard guard;
  AcceptanceBatch batch(settings_for(Shape{8, 8}), Shape{40, 24}, 17);
  cache::set_default_capacity(0);
  const std::vector<CompressedArray> reference =
      sequential_eval(batch.requests);
  for (int capacity : {0, 64}) {
    cache::set_default_capacity(capacity);
    // Attach + warm a decoded-block cache on the shared operands: the batch
    // works in coefficient space and must neither consult nor disturb it.
    if (capacity > 0)
      for (int i = 0; i < 3; ++i)
        (void)batch.arrays[static_cast<std::size_t>(i)].get({0, 0});
    const std::vector<CompressedArray> batched =
        ops::lincomb_batch(batch.requests);
    ASSERT_EQ(batched.size(), reference.size());
    for (std::size_t k = 0; k < reference.size(); ++k)
      expect_bit_identical(batched[k], reference[k],
                           "capacity=" + std::to_string(capacity) +
                               " output " + std::to_string(k));
  }
}

TEST(LincombBatch, OperandDedupCounters) {
  AcceptanceBatch batch(settings_for(Shape{8, 8}), Shape{40, 24}, 19);
  const index_t num_blocks = batch.arrays[0].num_blocks();
  telemetry::Counter& calls = telemetry::counter("ops.lincomb_batch.calls");
  telemetry::Counter& expressions =
      telemetry::counter("ops.lincomb_batch.expressions");
  telemetry::Counter& distinct =
      telemetry::counter("ops.lincomb_batch.operands_distinct");
  telemetry::Counter& avoided =
      telemetry::counter("ops.lincomb_batch.decodes_avoided");

  const std::uint64_t calls0 = calls.value();
  const std::uint64_t exprs0 = expressions.value();
  const std::uint64_t distinct0 = distinct.value();
  const std::uint64_t avoided0 = avoided.value();
  (void)ops::lincomb_batch(batch.requests);
  EXPECT_EQ(calls.value() - calls0, 1u);
  EXPECT_EQ(expressions.value() - exprs0, 4u);
  // 16 terms over 7 distinct operands: 9 bin-row decodes saved per block.
  EXPECT_EQ(distinct.value() - distinct0, 7u);
  EXPECT_EQ(avoided.value() - avoided0,
            9u * static_cast<std::uint64_t>(num_blocks));

  // Operands are deduplicated by POINTER: an equal-valued copy is a separate
  // decode (and the batch still evaluates correctly).
  const CompressedArray copy = batch.arrays[0];
  const std::vector<const CompressedArray*> ops_a = {&batch.arrays[0],
                                                     &batch.arrays[1]};
  const std::vector<const CompressedArray*> ops_b = {&copy, &batch.arrays[1]};
  const std::vector<double> w = {1.0, -1.0};
  const std::vector<ops::LincombRequest> copy_requests = {
      {std::span<const CompressedArray* const>(ops_a),
       std::span<const double>(w), 0.0},
      {std::span<const CompressedArray* const>(ops_b),
       std::span<const double>(w), 0.0},
  };
  const std::uint64_t distinct1 = distinct.value();
  expect_batch_matches(copy_requests, "copied operand");
  EXPECT_EQ(distinct.value() - distinct1, 3u)
      << "a value-equal copy must count as a distinct operand";
}

TEST(LincombBatch, NothingSharedAvoidsNoDecodes) {
  // Two disjoint expressions: nothing to amortize, so the batch runs the
  // single-output kernel per output and avoids zero decodes — results
  // identical to per-request evaluation, one terminal rebin per output.
  Compressor compressor(settings_for(Shape{8, 8}));
  Rng rng(23);
  std::vector<CompressedArray> arrays;
  for (int i = 0; i < 4; ++i)
    arrays.push_back(compressor.compress(random_smooth(Shape{24, 24}, rng, 4)));
  const std::vector<const CompressedArray*> ops_a = {&arrays[0], &arrays[1]};
  const std::vector<const CompressedArray*> ops_b = {&arrays[2], &arrays[3]};
  const std::vector<double> w = {0.5, -0.5};
  const std::vector<ops::LincombRequest> requests = {
      {std::span<const CompressedArray* const>(ops_a),
       std::span<const double>(w), 0.0},
      {std::span<const CompressedArray* const>(ops_b),
       std::span<const double>(w), 0.0},
  };
  telemetry::Counter& avoided =
      telemetry::counter("ops.lincomb_batch.decodes_avoided");
  const std::uint64_t avoided0 = avoided.value();
  expect_batch_matches(requests, "disjoint batch");
  EXPECT_EQ(avoided.value() - avoided0, 0u);
  const long rebins0 = ops::lincomb_rebin_passes();
  (void)ops::lincomb_batch(requests);
  EXPECT_EQ(ops::lincomb_rebin_passes() - rebins0, 2);
}

TEST(LincombBatch, RebinAccountingKPerBatch) {
  // Shared or not, a K-request batch performs exactly K terminal rebins.
  AcceptanceBatch shared(settings_for(Shape{8, 8}), Shape{24, 24}, 29);
  long before = ops::lincomb_rebin_passes();
  (void)ops::lincomb_batch(shared.requests);
  EXPECT_EQ(ops::lincomb_rebin_passes() - before, 4)
      << "fused batch: one terminal rebin per output";

  const std::vector<const CompressedArray*> solo = {&shared.arrays[0]};
  const std::vector<double> w = {2.0};
  const std::vector<ops::LincombRequest> single = {
      {std::span<const CompressedArray* const>(solo),
       std::span<const double>(w), 0.0}};
  before = ops::lincomb_rebin_passes();
  (void)ops::lincomb_batch(single);
  EXPECT_EQ(ops::lincomb_rebin_passes() - before, 1)
      << "single request: one rebin";
}

TEST(LincombBatch, EmptyBatchAndValidation) {
  EXPECT_TRUE(ops::lincomb_batch({}).empty());

  Compressor compressor(settings_for(Shape{8, 8}));
  Compressor other(settings_for(Shape{4, 4}));
  Rng rng(31);
  const CompressedArray a = compressor.compress(random_smooth(Shape{16, 16}, rng));
  const CompressedArray b = compressor.compress(random_smooth(Shape{16, 16}, rng));
  const CompressedArray mismatched =
      other.compress(random_smooth(Shape{16, 16}, rng));

  const std::vector<const CompressedArray*> ok = {&a, &b};
  const std::vector<const CompressedArray*> bad_layout = {&a, &mismatched};
  const std::vector<const CompressedArray*> empty_ops = {};
  const std::vector<double> w2 = {1.0, 1.0};
  const std::vector<double> w1 = {1.0};
  const std::vector<double> w0 = {};

  const std::vector<ops::LincombRequest> no_operands = {
      {std::span<const CompressedArray* const>(empty_ops),
       std::span<const double>(w0), 0.0}};
  EXPECT_THROW((void)ops::lincomb_batch(no_operands), std::invalid_argument);

  const std::vector<ops::LincombRequest> weight_mismatch = {
      {std::span<const CompressedArray* const>(ok),
       std::span<const double>(w1), 0.0}};
  EXPECT_THROW((void)ops::lincomb_batch(weight_mismatch),
               std::invalid_argument);

  const std::vector<ops::LincombRequest> layout_mismatch = {
      {std::span<const CompressedArray* const>(bad_layout),
       std::span<const double>(w2), 0.0}};
  EXPECT_THROW((void)ops::lincomb_batch(layout_mismatch),
               std::invalid_argument);
}

TEST(LincombBatch, DirtyCachedOperandIsRejectedUntilFlush) {
  CacheGuard guard;
  cache::set_default_capacity(16);
  Compressor compressor(settings_for(Shape{8, 8}));
  Rng rng(37);
  CompressedArray a = compressor.compress(random_smooth(Shape{24, 24}, rng));
  const CompressedArray b =
      compressor.compress(random_smooth(Shape{24, 24}, rng));
  a.set({0, 0}, 3.25);  // Dirty, pinned, not yet in the archive fields.
  ASSERT_GT(a.dirty_cached_blocks(), 0);

  const std::vector<const CompressedArray*> ops_a = {&a, &b};
  const std::vector<const CompressedArray*> ops_b = {&a};
  const std::vector<double> w2 = {1.0, 1.0};
  const std::vector<double> w1 = {2.0};
  const std::vector<ops::LincombRequest> requests = {
      {std::span<const CompressedArray* const>(ops_a),
       std::span<const double>(w2), 0.0},
      {std::span<const CompressedArray* const>(ops_b),
       std::span<const double>(w1), 0.0},
  };
  EXPECT_THROW((void)ops::lincomb_batch(requests), std::logic_error);

  a.flush_cache();
  expect_batch_matches(requests, "after flush");
}

TEST(LincombBatch, CacheFillAllocFaultMidBatchLeavesOutputsUnchanged) {
  // Arm the cache.fill.alloc site with a cache attached to the operands: the
  // batch pass reads coefficient rows directly, never fills the cache, so it
  // must complete with bit-identical outputs while the armed fault stays
  // pending; the next cache *fill* (a cold get) then fails cleanly and a
  // retry after disarm succeeds.
  CacheGuard cache_guard;
  FaultGuard fault_guard;
  cache::set_default_capacity(64);
  AcceptanceBatch batch(settings_for(Shape{8, 8}), Shape{40, 24}, 41);
  for (int i = 0; i < 3; ++i)
    (void)batch.arrays[static_cast<std::size_t>(i)].get({0, 0});
  const std::vector<CompressedArray> reference =
      sequential_eval(batch.requests);

  ASSERT_TRUE(fault::arm("cache.fill.alloc:badalloc,nth=0"));
  const std::vector<CompressedArray> batched =
      ops::lincomb_batch(batch.requests);
  ASSERT_EQ(batched.size(), reference.size());
  for (std::size_t k = 0; k < reference.size(); ++k)
    expect_bit_identical(batched[k], reference[k],
                         "armed-fault output " + std::to_string(k));

  // A cold block *does* fill — the armed badalloc fires there (surfacing as
  // the typed resource-exhausted error), not in the batch — and recovery
  // after disarm works.
  EXPECT_THROW((void)batch.arrays[0].get({39, 23}), cc::Error);
  EXPECT_GE(fault::fired("cache.fill.alloc"), 1u);
  fault::disarm_all();
  EXPECT_NO_THROW((void)batch.arrays[0].get({39, 23}));
  const std::vector<CompressedArray> again =
      ops::lincomb_batch(batch.requests);
  for (std::size_t k = 0; k < reference.size(); ++k)
    expect_bit_identical(again[k], reference[k],
                         "post-recovery output " + std::to_string(k));
}

TEST(LincombBatch, BatchEvalMatchesPerExpressionEval) {
  Compressor compressor(settings_for(Shape{8, 8}));
  Rng rng(43);
  const CompressedArray h =
      compressor.compress(random_smooth(Shape{40, 24}, rng, 5));
  const CompressedArray fx =
      compressor.compress(random_smooth(Shape{40, 24}, rng, 5));
  const CompressedArray fy =
      compressor.compress(random_smooth(Shape{40, 24}, rng, 5));
  const CompressedArray g =
      compressor.compress(random_smooth(Shape{40, 24}, rng, 5));
  const double dt = 0.125;

  BatchEval batch;
  EXPECT_TRUE(batch.empty());
  batch.add(h - dt * (fx + fy)).add(0.5 * h + 0.5 * g + 0.25);
  batch.add(g);  // Bare array: unit-weight single term.
  EXPECT_EQ(batch.size(), 3u);

  const long before = ops::lincomb_rebin_passes();
  const std::vector<CompressedArray> results = batch.eval();
  EXPECT_EQ(ops::lincomb_rebin_passes() - before, 3);
  ASSERT_EQ(results.size(), 3u);
  expect_bit_identical(results[0], (h - dt * (fx + fy)).eval(), "batch expr 0");
  expect_bit_identical(results[1], (0.5 * h + 0.5 * g + 0.25).eval(),
                       "batch expr 1");
  expect_bit_identical(results[2], as_expr(g).eval(), "batch expr 2");

  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.eval().empty());
}

}  // namespace
}  // namespace pyblaz
