#include <cmath>
#include <type_traits>

#include "core/ops/ops.hpp"
#include "core/ops/ops_internal.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/telemetry/telemetry.hpp"

namespace pyblaz::ops {

namespace {

using internal::Moments;
using internal::Products;

/// Σ over blocks of N_k F_k[0] / r: the DC accumulation shared by mean(),
/// sum(), and the centering prologue of the moments pass.  An *ordered*
/// parallel reduction — chunk partials combine in block order — so the
/// result is bit-identical at any thread count.
double dc_total(const CompressedArray& a) {
  static telemetry::Counter& dc_passes =
      telemetry::counter("ops.reduce.dc_passes");
  dc_passes.increment();
  const index_t num_blocks = a.num_blocks();
  const index_t kept = a.kept_per_block();
  const double r = static_cast<double>(a.radius());
  return a.indices.visit([&](const auto* f) {
    return parallel::parallel_reduce(
        index_t{0}, num_blocks, parallel::default_grain(num_blocks), 0.0,
        [&](index_t begin, index_t end, double acc) {
          for (index_t kb = begin; kb < end; ++kb)
            acc += a.biggest[static_cast<std::size_t>(kb)] *
                   static_cast<double>(f[kb * kept]) / r;
          return acc;
        },
        [](double x, double y) { return x + y; });
  });
}

/// The pass behind internal::moments: per block, one `partial` per wanted
/// product over the kept slots, slot 0 shifted by the mean DC only when
/// centering (so a mask without the DC coefficient is summed as is).  Four
/// blocks run side by side: each block's partials are independent add
/// chains, and they still join the accumulators in block order, so the bits
/// are those of a one-block-at-a-time pass.  kAA reads only fa.
template <Products kWanted, typename TA, typename TB>
Moments sweep(const CompressedArray& a, const TA* fa, const CompressedArray& b,
              const TB* fb, bool center_dc, double mean_dc_a,
              double mean_dc_b) {
  const index_t num_blocks = a.num_blocks();
  const index_t kept = a.kept_per_block();
  const double r = static_cast<double>(a.radius());
  const auto add_blocks = [&](auto lanes, index_t kb, Moments& acc) {
    constexpr int kLanes = decltype(lanes)::value;
    double s1[kLanes], s2[kLanes];
    double ab[kLanes] = {}, aa[kLanes] = {}, bb[kLanes] = {};
    for (int j = 0; j < kLanes; ++j) {
      s1[j] = a.biggest[static_cast<std::size_t>(kb + j)] / r;
      s2[j] = b.biggest[static_cast<std::size_t>(kb + j)] / r;
    }
    for (index_t slot = 0; slot < kept; ++slot) {
      for (int j = 0; j < kLanes; ++j) {
        double c1 = s1[j] * static_cast<double>(fa[(kb + j) * kept + slot]);
        double c2 = s2[j] * static_cast<double>(fb[(kb + j) * kept + slot]);
        if (center_dc && slot == 0) {
          c1 -= mean_dc_a;
          c2 -= mean_dc_b;
        }
        if constexpr (kWanted != Products::kAA) ab[j] += c1 * c2;
        if constexpr (kWanted != Products::kAB) aa[j] += c1 * c1;
        if constexpr (kWanted == Products::kAll) bb[j] += c2 * c2;
      }
    }
    for (int j = 0; j < kLanes; ++j) acc += Moments{ab[j], aa[j], bb[j]};
  };
  // Ordered reduction: per-chunk partials combine in block order, so the
  // floating-point result is independent of the thread count (unlike an
  // OpenMP `reduction(+)`, whose combine order is scheduling-dependent).
  return parallel::parallel_reduce(
      index_t{0}, num_blocks, parallel::default_grain(num_blocks), Moments{},
      [&](index_t begin, index_t end, Moments acc) {
        index_t kb = begin;
        for (; kb + 4 <= end; kb += 4)
          add_blocks(std::integral_constant<int, 4>{}, kb, acc);
        for (; kb < end; ++kb)
          add_blocks(std::integral_constant<int, 1>{}, kb, acc);
        return acc;
      },
      [](Moments x, const Moments& y) { return x += y; });
}

}  // namespace

namespace internal {

Moments moments(const CompressedArray& a, const CompressedArray& b,
                Products wanted, bool center_dc, const char* op) {
  // Every check runs before the first pass: a mismatched b would be read
  // out of bounds.
  a.require_layout_match(b);
  if (center_dc) require_dc(a, op);
  a.require_flushed(op);
  b.require_flushed(op);
  static telemetry::Counter& passes = telemetry::counter("ops.reduce.passes");
  passes.increment();

  double dc_a = 0.0, dc_b = 0.0;
  if (center_dc) {
    // (Σ Ĉ...1) ⊘ c with c = prod(ceil(s ⊘ i)) = number of blocks
    // (Algorithm 8).
    dc_a = dc_total(a);
    dc_b = &a == &b || wanted == Products::kAA ? dc_a : dc_total(b);
  }
  const double num_blocks = static_cast<double>(a.num_blocks());
  const double mean_a = dc_a / num_blocks, mean_b = dc_b / num_blocks;
  Moments out;
  a.indices.visit([&](const auto* fa) {
    if (wanted == Products::kAA)
      out = sweep<Products::kAA>(a, fa, a, fa, center_dc, mean_a, mean_a);
    else
      b.indices.visit([&](const auto* fb) {
        out = wanted == Products::kAB
                  ? sweep<Products::kAB>(a, fa, b, fb, center_dc, mean_a,
                                         mean_b)
                  : sweep<Products::kAll>(a, fa, b, fb, center_dc, mean_a,
                                          mean_b);
      });
  });
  out.dc_a = dc_a;
  out.dc_b = dc_b;
  return out;
}

}  // namespace internal

double dot(const CompressedArray& a, const CompressedArray& b) {
  return internal::moments(a, b, Products::kAB, /*center_dc=*/false, "dot")
      .ab;
}

double mean(const CompressedArray& a) {
  internal::require_dc(a, "mean");
  a.require_flushed("mean");
  // mean(Ĉ...1) ⊘ sqrt(prod(i)) (Algorithm 7).
  return dc_total(a) / static_cast<double>(a.num_blocks()) /
         internal::dc_scale(a.block_shape);
}

// Covariance and variance: mean(Ĉ1 ⊙ Ĉ2) of the DC-centered coefficients over
// all (padded) positions; pruned slots contribute zero to the numerator but
// still count in the denominator.
double covariance(const CompressedArray& a, const CompressedArray& b) {
  return internal::moments(a, b, Products::kAB, /*center_dc=*/true,
                           "covariance")
             .ab /
         internal::padded_volume(a);
}

double variance(const CompressedArray& a) {
  return internal::moments(a, a, Products::kAA, /*center_dc=*/true,
                           "variance")
             .aa /
         internal::padded_volume(a);
}

double standard_deviation(const CompressedArray& a) {
  return std::sqrt(variance(a));
}

double l2_norm(const CompressedArray& a) {
  return std::sqrt(
      internal::moments(a, a, Products::kAA, /*center_dc=*/false, "l2_norm")
          .aa);
}

double cosine_similarity(const CompressedArray& a, const CompressedArray& b) {
  const Moments m = internal::moments(a, b, Products::kAll,
                                      /*center_dc=*/false, "cosine_similarity");
  return m.ab / (std::sqrt(m.aa) * std::sqrt(m.bb));
}

double sum(const CompressedArray& a) {
  internal::require_dc(a, "sum");
  a.require_flushed("sum");
  // Block sum = block mean * prod(i) = DC * sqrt(prod(i)); padding zeros
  // contribute nothing, so this is the true-element sum.
  return dc_total(a) * internal::dc_scale(a.block_shape);
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
