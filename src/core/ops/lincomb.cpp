#include <algorithm>
#include <vector>

#include "core/ops/expr.hpp"
#include "core/ops/ops.hpp"
#include "core/ops/ops_internal.hpp"
#include "core/telemetry/telemetry.hpp"
#include "core/telemetry/trace.hpp"

namespace pyblaz::ops {

namespace {

/// Calls bucketed by operand count: arities 1..7 get their own counter, the
/// tail shares one.  Resolved through a small static table so the hot path
/// never builds a name string.
telemetry::Counter& arity_counter(std::size_t num_operands) {
  static telemetry::Counter* const counters[] = {
      &telemetry::counter("ops.lincomb.arity1"),
      &telemetry::counter("ops.lincomb.arity2"),
      &telemetry::counter("ops.lincomb.arity3"),
      &telemetry::counter("ops.lincomb.arity4"),
      &telemetry::counter("ops.lincomb.arity5"),
      &telemetry::counter("ops.lincomb.arity6"),
      &telemetry::counter("ops.lincomb.arity7"),
      &telemetry::counter("ops.lincomb.arity8plus"),
  };
  return *counters[std::min<std::size_t>(num_operands, 8) - 1];
}

}  // namespace

/// The fused expression behind the whole compressed-arithmetic family: a
/// one-request batch through the shared lincomb engine (lincomb_batch.cpp),
/// which gathers every operand's specified coefficients per block into one
/// coefficient row and rebins once at the end.  A chained ops::add sequence
/// pays one rebin — the only error source of Table I addition — per binary
/// op; an n-term lincomb pays exactly one, so it is both fewer passes and a
/// strictly tighter error bound.
CompressedArray lincomb(std::span<const CompressedArray* const> operands,
                        std::span<const double> weights, double bias) {
  const LincombRequest request{operands, weights, bias};
  const internal::LincombPlan plan =
      internal::plan_lincombs({&request, 1}, "lincomb");

  static telemetry::Counter& calls = telemetry::counter("ops.lincomb.calls");
  static telemetry::Histogram& wall =
      telemetry::histogram("ops.lincomb.wall_ns");
  calls.increment();
  arity_counter(operands.size()).increment();
  telemetry::ScopedLatency latency(wall);
  telemetry::TraceSpan span("ops.lincomb",
                            static_cast<std::uint64_t>(operands.size()));
  return std::move(internal::evaluate_lincombs(plan).front());
}

CompressedArray lincomb(
    std::initializer_list<std::pair<double, const CompressedArray*>> terms,
    double bias) {
  std::vector<const CompressedArray*> operands;
  std::vector<double> weights;
  operands.reserve(terms.size());
  weights.reserve(terms.size());
  for (const auto& [weight, array] : terms) {
    weights.push_back(weight);
    operands.push_back(array);
  }
  return lincomb(std::span<const CompressedArray* const>(operands),
                 std::span<const double>(weights), bias);
}

CompressedArray linear_combination(double alpha, const CompressedArray& a,
                                   double beta, const CompressedArray& b) {
  // A two-term expression: flattens to the identical lincomb call.
  return (alpha * a + beta * b).eval();
}

}  // namespace pyblaz::ops
