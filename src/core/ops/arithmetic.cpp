#include <algorithm>
#include <cmath>

#include "core/kernels/rebin.hpp"
#include "core/ops/expr.hpp"
#include "core/ops/ops.hpp"
#include "core/ops/ops_internal.hpp"
#include "core/parallel/thread_pool.hpp"

namespace pyblaz::ops {

namespace internal {

std::vector<double> blockwise_mean_vector(const CompressedArray& a) {
  require_dc(a, "blockwise mean");
  a.require_flushed("blockwise mean");
  const index_t num_blocks = a.num_blocks();
  const index_t kept = a.kept_per_block();
  const double r = static_cast<double>(a.radius());
  const double c = dc_scale(a.block_shape);
  std::vector<double> means(static_cast<std::size_t>(num_blocks));
  a.indices.visit([&](const auto* f) {
    parallel::parallel_for(
        0, num_blocks, parallel::default_grain(num_blocks),
        [&](index_t begin, index_t end) {
          for (index_t kb = begin; kb < end; ++kb) {
            const double dc = a.biggest[static_cast<std::size_t>(kb)] *
                              static_cast<double>(f[kb * kept]) / r;
            means[static_cast<std::size_t>(kb)] = dc / c;
          }
        });
  });
  return means;
}

}  // namespace internal

void specified_coefficients_into(const CompressedArray& a,
                                 std::span<double> out) {
  a.require_flushed("specified_coefficients");
  const index_t num_blocks = a.num_blocks();
  const index_t kept = a.kept_per_block();
  const double r = static_cast<double>(a.radius());
  if (out.size() < static_cast<std::size_t>(num_blocks * kept))
    throw std::invalid_argument(
        "specified_coefficients_into: output span too small");

  a.indices.visit([&](const auto* fdata) {
    parallel::parallel_for(
        0, num_blocks, parallel::default_grain(num_blocks),
        [&](index_t begin, index_t end) {
          for (index_t kb = begin; kb < end; ++kb)
            kernels::unbin_block(fdata + kb * kept, kept,
                                 a.biggest[static_cast<std::size_t>(kb)] / r,
                                 out.data() + kb * kept);
        });
  });
}

std::vector<double> specified_coefficients(const CompressedArray& a) {
  std::vector<double> coefficients(
      static_cast<std::size_t>(a.num_blocks() * a.kept_per_block()));
  specified_coefficients_into(a, coefficients);
  return coefficients;
}

CompressedArray negate(const CompressedArray& a) {
  CompressedArray out = a;
  out.indices.negate_all();
  return out;
}

CompressedArray add(const CompressedArray& a, const CompressedArray& b) {
  // Ĉ = F1 ⊙ N1 ⊘ r + F2 ⊙ N2 ⊘ r (specified coefficients of the sum),
  // summed and re-binned block by block: the unit-weight two-term expression,
  // which flattens to exactly one fused lincomb.
  return (a + b).eval();
}

CompressedArray subtract(const CompressedArray& a, const CompressedArray& b) {
  // A - B as a single fused pass: the -1 weight folds b's negation into the
  // decode scale, so no negated copy of b is ever materialized.
  return (a - b).eval();
}

CompressedArray add_scalar(const CompressedArray& a, double x) {
  // Unconditional even for x = 0, matching the documented contract (the
  // expression itself only demands the DC coefficient for a nonzero bias).
  internal::require_dc(a, "scalar addition");
  // The unary lincomb: decode, DC-shift by x * sqrt(prod(i)), rebin once.
  return (a + x).eval();
}

CompressedArray multiply_scalar(const CompressedArray& a, double x) {
  CompressedArray out = a;
  const double magnitude = std::fabs(x);
  for (auto& n : out.biggest) n = quantize(n * magnitude, a.float_type);
  if (std::signbit(x)) out.indices.negate_all();
  return out;
}

}  // namespace pyblaz::ops
