#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/codec/workspace.hpp"
#include "core/kernels/backend.hpp"
#include "core/ops/ops.hpp"
#include "core/ops/ops_internal.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/telemetry/telemetry.hpp"
#include "core/telemetry/trace.hpp"

namespace pyblaz::ops {

namespace {

/// One increment per evaluated expression = one terminal rebin pass over its
/// result.  Lives in the telemetry registry (visible in CC_STATS snapshots
/// as ops.lincomb.rebin_passes); ops::lincomb_rebin_passes() reads it.
telemetry::Counter& rebin_passes_counter() {
  static telemetry::Counter& counter =
      telemetry::counter("ops.lincomb.rebin_passes");
  return counter;
}

/// A result array with the layout of @p first and a fresh (zero) bin buffer.
/// Deliberately NOT `CompressedArray out = first`: that would copy the whole
/// bin payload only to immediately replace it — per output, per call.
CompressedArray make_output(const CompressedArray& first) {
  CompressedArray out;
  out.shape = first.shape;
  out.block_shape = first.block_shape;
  out.float_type = first.float_type;
  out.index_type = first.index_type;
  out.transform = first.transform;
  out.mask = first.mask;
  out.biggest.resize(first.biggest.size());
  out.indices = BinIndices(first.index_type, first.indices.size());
  return out;
}

}  // namespace

long lincomb_rebin_passes() {
  return static_cast<long>(rebin_passes_counter().value());
}

namespace internal {

LincombPlan plan_lincombs(std::span<const LincombRequest> requests,
                          const char* op) {
  for (const LincombRequest& req : requests) {
    if (req.operands.empty())
      throw std::invalid_argument(std::string(op) +
                                  ": at least one operand required");
    if (req.operands.size() != req.weights.size())
      throw std::invalid_argument(
          std::string(op) + ": weights.size() must equal operands.size()");
  }
  const CompressedArray& first = *requests[0].operands[0];
  LincombPlan plan;
  plan.offsets.reserve(requests.size() + 1);
  plan.offsets.push_back(0);
  plan.bias_shifts.reserve(requests.size());
  std::unordered_map<const CompressedArray*, index_t> row_of;
  for (const LincombRequest& req : requests) {
    if (req.bias != 0.0) require_dc(first, (std::string(op) + " bias").c_str());
    for (std::size_t i = 0; i < req.operands.size(); ++i) {
      const CompressedArray* operand = req.operands[i];
      first.require_layout_match(*operand);
      operand->require_flushed(op);
      auto [it, inserted] =
          row_of.try_emplace(operand, static_cast<index_t>(plan.distinct.size()));
      if (inserted) plan.distinct.push_back(operand);
      plan.term_rows.push_back(it->second);
      plan.term_weights.push_back(req.weights[i]);
    }
    plan.offsets.push_back(static_cast<index_t>(plan.term_rows.size()));
    plan.bias_shifts.push_back(req.bias * dc_scale(first.block_shape));
  }
  // Stage-first row order: operands that feed more than one term move to the
  // front, each group keeping first-use order, and term_rows follow them.
  std::vector<index_t> uses(plan.distinct.size(), 0);
  for (index_t row : plan.term_rows) ++uses[static_cast<std::size_t>(row)];
  std::vector<index_t> position(uses.size());
  std::vector<const CompressedArray*> ordered;
  ordered.reserve(uses.size());
  for (const bool staged : {true, false}) {
    for (std::size_t d = 0; d < uses.size(); ++d) {
      if ((uses[d] > 1) != staged) continue;
      position[d] = static_cast<index_t>(ordered.size());
      ordered.push_back(plan.distinct[d]);
    }
    if (staged) plan.num_staged = static_cast<index_t>(ordered.size());
  }
  plan.distinct = std::move(ordered);
  for (index_t& row : plan.term_rows)
    row = position[static_cast<std::size_t>(row)];
  return plan;
}

std::vector<CompressedArray> evaluate_lincombs(const LincombPlan& plan) {
  const CompressedArray& first = *plan.distinct[0];
  const index_t num_blocks = first.num_blocks();
  const index_t kept = first.kept_per_block();
  const std::size_t num_outputs = plan.bias_shifts.size();
  const std::size_t num_terms = plan.term_rows.size();
  const std::size_t num_rows = plan.distinct.size();
  const double r = static_cast<double>(first.radius());
  const auto num_staged = static_cast<std::size_t>(plan.num_staged);

  std::vector<CompressedArray> results;
  results.reserve(num_outputs);
  for (std::size_t k = 0; k < num_outputs; ++k)
    results.push_back(make_output(first));

  // Dispatch resolved once, outside the block loop: every chunk then calls
  // through plain function pointers (SIMD backends are bit-identical to
  // scalar, so results cannot depend on the host ISA).
  const kernels::KernelTable& table = kernels::active();

  first.indices.visit([&](const auto* first_bins) {
    using BinT = std::remove_cvref_t<decltype(*first_bins)>;
    const kernels::BinKernels<BinT>& kern = kernels::bins<BinT>(table);
    // One shared index type across operands and outputs (layout matching),
    // so a single dispatch covers every row.
    std::vector<const BinT*> bases(num_rows);
    for (std::size_t d = 0; d < num_rows; ++d)
      plan.distinct[d]->indices.visit([&](const auto* f) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(*f)>, BinT>)
          bases[d] = f;
      });
    std::vector<BinT*> out_bases(num_outputs);
    for (std::size_t k = 0; k < num_outputs; ++k)
      results[k].indices.visit_mutable([&](auto* p) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(*p)>, BinT>)
          out_bases[k] = p;
      });

    // Per-term biggest-row base pointers, hoisted so the per-block scale loop
    // is two flat passes (gather + multiply, then a vectorizable divide)
    // instead of a pointer chase per term.
    std::vector<const double*> term_biggest(num_terms);
    for (std::size_t t = 0; t < num_terms; ++t)
      term_biggest[t] =
          plan.distinct[static_cast<std::size_t>(plan.term_rows[t])]
              ->biggest.data();

    parallel::parallel_for(
        0, num_blocks, parallel::default_grain(num_blocks),
        [&](index_t begin, index_t end) {
          // Lane 0: one coefficient row per output.  Lane 1: the kernel's
          // staged rows, one converted double row per operand that feeds more
          // than one term.  Both come from the per-thread workspace and are
          // reused across blocks and chunks.
          double* coeffs = pyblaz::internal::coefficient_workspace(
              num_outputs * static_cast<std::size_t>(kept));
          double* decoded =
              num_staged > 0
                  ? pyblaz::internal::coefficient_workspace(
                        num_staged * static_cast<std::size_t>(kept), 1)
                  : nullptr;
          std::vector<const BinT*> rows(num_rows);
          std::vector<double> scales(num_terms);
          std::vector<double*> out_rows(num_outputs);
          for (std::size_t k = 0; k < num_outputs; ++k)
            out_rows[k] = coeffs + k * static_cast<std::size_t>(kept);
          for (index_t kb = begin; kb < end; ++kb) {
            for (std::size_t d = 0; d < num_rows; ++d)
              rows[d] = bases[d] + kb * kept;
            // Per term, weight * biggest[kb] / r, left to right; splitting
            // the multiply and the divide into two passes keeps that order
            // (the divide pass vectorizes, and IEEE division is identical
            // per lane).
            for (std::size_t t = 0; t < num_terms; ++t)
              scales[t] = plan.term_weights[t] *
                          term_biggest[t][static_cast<std::size_t>(kb)];
            for (std::size_t t = 0; t < num_terms; ++t)
              scales[t] = scales[t] / r;
            kern.decode_lincomb_multi(rows.data(), plan.num_staged,
                                      scales.data(), plan.term_rows.data(),
                                      plan.offsets.data(),
                                      static_cast<index_t>(num_outputs), kept,
                                      decoded, out_rows.data());
            for (std::size_t k = 0; k < num_outputs; ++k) {
              double* c = out_rows[k];
              if (plan.bias_shifts[k] != 0.0) c[0] += plan.bias_shifts[k];
              results[k].biggest[static_cast<std::size_t>(kb)] =
                  kernels::rebin_block(table, c, kept, r, first.float_type,
                                       out_bases[k] + kb * kept);
            }
          }
        });
  });
  rebin_passes_counter().add(num_outputs);
  return results;
}

}  // namespace internal

std::vector<CompressedArray> lincomb_batch(
    std::span<const LincombRequest> requests) {
  if (requests.empty()) return {};

  static telemetry::Counter& calls =
      telemetry::counter("ops.lincomb_batch.calls");
  static telemetry::Counter& expressions =
      telemetry::counter("ops.lincomb_batch.expressions");
  static telemetry::Counter& operands_distinct =
      telemetry::counter("ops.lincomb_batch.operands_distinct");
  static telemetry::Counter& decodes_avoided =
      telemetry::counter("ops.lincomb_batch.decodes_avoided");
  static telemetry::Histogram& wall =
      telemetry::histogram("ops.lincomb_batch.wall_ns");

  calls.increment();
  expressions.add(requests.size());
  telemetry::ScopedLatency latency(wall);
  telemetry::TraceSpan span("ops.lincomb_batch",
                            static_cast<std::uint64_t>(requests.size()));

  const internal::LincombPlan plan =
      internal::plan_lincombs(requests, "lincomb_batch");
  operands_distinct.add(plan.distinct.size());
  // Every term beyond the distinct set would have been a separate bin-row
  // decode in per-request evaluation, once per block.
  decodes_avoided.add(
      static_cast<std::uint64_t>(plan.term_rows.size() - plan.distinct.size()) *
      static_cast<std::uint64_t>(plan.distinct[0]->num_blocks()));
  return internal::evaluate_lincombs(plan);
}

}  // namespace pyblaz::ops
