#include <cmath>
#include <utility>

#include "core/ops/ops.hpp"
#include "core/ops/ops_internal.hpp"
#include "core/parallel/thread_pool.hpp"

namespace pyblaz::ops {

namespace {

/// Σ over blocks of N_k F_k[0] / r: the DC accumulation shared by mean(),
/// sum(), and the centering prologue of the inner products.  An *ordered*
/// parallel reduction — chunk partials combine in block order — so the
/// result is bit-identical at any thread count.
template <typename BinT>
double dc_total(const CompressedArray& a, const BinT* f) {
  const index_t num_blocks = a.num_blocks();
  const index_t kept = a.kept_per_block();
  const double r = static_cast<double>(a.radius());
  return parallel::parallel_reduce(
      index_t{0}, num_blocks, parallel::default_grain(num_blocks), 0.0,
      [&](index_t begin, index_t end, double acc) {
        for (index_t kb = begin; kb < end; ++kb)
          acc += a.biggest[static_cast<std::size_t>(kb)] *
                 static_cast<double>(f[kb * kept]) / r;
        return acc;
      },
      [](double x, double y) { return x + y; });
}

/// Σ(Ĉ1 ⊙ Ĉ2) over kept coefficients, optionally centering the DC
/// coefficients of both operands (used by dot, covariance, and l2_norm).
double coefficient_inner_product(const CompressedArray& a,
                                 const CompressedArray& b, bool center_dc,
                                 const char* op) {
  a.require_flushed(op);
  b.require_flushed(op);
  const index_t num_blocks = a.num_blocks();
  const index_t kept = a.kept_per_block();
  const double r = static_cast<double>(a.radius());

  double total = 0.0;
  a.indices.visit([&](const auto* f1_data) {
    b.indices.visit([&](const auto* f2_data) {
      double mean_dc_a = 0.0, mean_dc_b = 0.0;
      if (center_dc) {
        // (Σ Ĉ...1) ⊘ c with c = prod(ceil(s ⊘ i)) = number of blocks
        // (Algorithm 8).
        mean_dc_a = dc_total(a, f1_data) / static_cast<double>(num_blocks);
        mean_dc_b = dc_total(b, f2_data) / static_cast<double>(num_blocks);
      }

      // Ordered reduction: per-chunk partials combine in block order, so the
      // floating-point result is independent of the thread count (unlike an
      // OpenMP `reduction(+)`, whose combine order is scheduling-dependent).
      total = parallel::parallel_reduce(
          index_t{0}, num_blocks, parallel::default_grain(num_blocks), 0.0,
          [&](index_t begin, index_t end, double acc) {
            for (index_t kb = begin; kb < end; ++kb) {
              const double s1 = a.biggest[static_cast<std::size_t>(kb)] / r;
              const double s2 = b.biggest[static_cast<std::size_t>(kb)] / r;
              const auto* f1 = f1_data + kb * kept;
              const auto* f2 = f2_data + kb * kept;
              double partial = 0.0;
              for (index_t slot = 0; slot < kept; ++slot) {
                double c1 = s1 * static_cast<double>(f1[slot]);
                double c2 = s2 * static_cast<double>(f2[slot]);
                if (center_dc && slot == 0) {
                  c1 -= mean_dc_a;
                  c2 -= mean_dc_b;
                }
                partial += c1 * c2;
              }
              acc += partial;
            }
            return acc;
          },
          [](double x, double y) { return x + y; });
    });
  });
  return total;
}

}  // namespace

double dot(const CompressedArray& a, const CompressedArray& b) {
  a.require_layout_match(b);
  return coefficient_inner_product(a, b, /*center_dc=*/false, "dot");
}

double mean(const CompressedArray& a) {
  internal::require_dc(a, "mean");
  a.require_flushed("mean");
  const double total_dc =
      a.indices.visit([&](const auto* f) { return dc_total(a, f); });
  // mean(Ĉ...1) ⊘ sqrt(prod(i)) (Algorithm 7).
  return total_dc / static_cast<double>(a.num_blocks()) /
         internal::dc_scale(a.block_shape);
}

double covariance(const CompressedArray& a, const CompressedArray& b) {
  a.require_layout_match(b);
  internal::require_dc(a, "covariance");
  // mean(Ĉ1 ⊙ Ĉ2) over all (padded) positions; pruned slots contribute zero
  // to the numerator but still count in the denominator.
  const double padded_volume = static_cast<double>(
      a.num_blocks() * a.block_shape.volume());
  return coefficient_inner_product(a, b, /*center_dc=*/true, "covariance") /
         padded_volume;
}

double variance(const CompressedArray& a) { return covariance(a, a); }

double standard_deviation(const CompressedArray& a) {
  return std::sqrt(variance(a));
}

double l2_norm(const CompressedArray& a) {
  return std::sqrt(
      coefficient_inner_product(a, a, /*center_dc=*/false, "l2_norm"));
}

double cosine_similarity(const CompressedArray& a, const CompressedArray& b) {
  const double m = l2_norm(a) * l2_norm(b);
  return dot(a, b) / m;
}

double sum(const CompressedArray& a) {
  internal::require_dc(a, "sum");
  a.require_flushed("sum");
  const double total_dc =
      a.indices.visit([&](const auto* f) { return dc_total(a, f); });
  // Block sum = block mean * prod(i) = DC * sqrt(prod(i)); padding zeros
  // contribute nothing, so this is the true-element sum.
  return total_dc * internal::dc_scale(a.block_shape);
}

double mean_unpadded(const CompressedArray& a) {
  return sum(a) / static_cast<double>(a.shape.volume());
}

double covariance_unpadded(const CompressedArray& a, const CompressedArray& b) {
  a.require_layout_match(b);
  internal::require_dc(a, "covariance");
  const double n = static_cast<double>(a.shape.volume());
  // E[AB] - E[A]E[B]; dot() ignores padding because zero products vanish.
  return dot(a, b) / n - mean_unpadded(a) * mean_unpadded(b);
}

double variance_unpadded(const CompressedArray& a) {
  return covariance_unpadded(a, a);
}

}  // namespace pyblaz::ops
