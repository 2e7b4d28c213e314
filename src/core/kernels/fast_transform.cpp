#include "core/kernels/fast_transform.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

namespace pyblaz::kernels {

namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440084436210485;

/// Lee's secant factors for size M: sec[p] = 1 / (2 cos(pi (2p+1) / (2M))).
template <index_t M>
const double* sec_table() {
  static const std::array<double, M / 2> table = [] {
    std::array<double, M / 2> t{};
    for (index_t p = 0; p < M / 2; ++p)
      t[static_cast<std::size_t>(p)] =
          0.5 / std::cos(std::numbers::pi * (2.0 * static_cast<double>(p) + 1.0) /
                         (2.0 * static_cast<double>(M)));
    return t;
  }();
  return table.data();
}

// All panel kernels below are templated on kScalar (inner == 1 known at
// compile time) so the last, contiguous axis runs fully unrolled scalar code
// while strided axes vectorize across the inner dimension.  The orthonormal
// sqrt(2/n) output scaling (sqrt(1/n) for the DC row) is fused into the
// top-level combine/deinterleave pass (kScaled) instead of costing its own
// sweep over the panel; recursive calls run unscaled ("raw" DCT).

/// Lee's recursive factorization of the raw DCT-II,
/// c[k] = sum_p x[p] cos(pi (2p+1) k / (2M)), in place on an M x inner panel.
/// Split M into half-size even/odd subproblems (O(M log M) total), recursing
/// with the roles of @p x and @p tmp swapped so no extra scratch is needed.
template <index_t M, bool kScalar, bool kScaled>
void lee_forward(double* __restrict x, double* __restrict tmp,
                 index_t inner_dyn, double scale, double dc_scale) {
  if constexpr (M == 1) {
    (void)x;
    (void)tmp;
    (void)inner_dyn;
    (void)scale;
    (void)dc_scale;
  } else {
    const index_t inner = kScalar ? 1 : inner_dyn;
    constexpr index_t kHalf = M / 2;
    const double* sec = sec_table<M>();
    for (index_t p = 0; p < kHalf; ++p) {
      const double* __restrict xa = x + p * inner;
      const double* __restrict xb = x + (M - 1 - p) * inner;
      double* __restrict g = tmp + p * inner;
      double* __restrict h = tmp + (kHalf + p) * inner;
      const double s = sec[p];
#pragma omp simd
      for (index_t i = 0; i < inner; ++i) {
        g[i] = xa[i] + xb[i];
        h[i] = (xa[i] - xb[i]) * s;
      }
    }
    lee_forward<kHalf, kScalar, false>(tmp, x, inner_dyn, 1.0, 1.0);
    lee_forward<kHalf, kScalar, false>(tmp + kHalf * inner, x + kHalf * inner,
                                       inner_dyn, 1.0, 1.0);
    // Interleave: even outputs from G, odd outputs H[k] + H[k+1] (H[M/2] = 0),
    // applying the orthonormal scaling here when this is the top-level call.
    for (index_t k = 0; k < kHalf; ++k) {
      const double* __restrict gk = tmp + k * inner;
      const double* __restrict hk = tmp + (kHalf + k) * inner;
      double* __restrict xe = x + (2 * k) * inner;
      double* __restrict xo = x + (2 * k + 1) * inner;
      if constexpr (kScaled) {
        const double fe = k == 0 ? dc_scale : scale;
        if (k + 1 < kHalf) {
          const double* __restrict hk1 = hk + inner;
#pragma omp simd
          for (index_t i = 0; i < inner; ++i) {
            xe[i] = gk[i] * fe;
            xo[i] = (hk[i] + hk1[i]) * scale;
          }
        } else {
#pragma omp simd
          for (index_t i = 0; i < inner; ++i) {
            xe[i] = gk[i] * fe;
            xo[i] = hk[i] * scale;
          }
        }
      } else {
        if (k + 1 < kHalf) {
          const double* __restrict hk1 = hk + inner;
#pragma omp simd
          for (index_t i = 0; i < inner; ++i) {
            xe[i] = gk[i];
            xo[i] = hk[i] + hk1[i];
          }
        } else {
#pragma omp simd
          for (index_t i = 0; i < inner; ++i) {
            xe[i] = gk[i];
            xo[i] = hk[i];
          }
        }
      }
    }
  }
}

/// Transpose of lee_forward (the raw DCT-III), step for step in reverse:
/// deinterleave (absorbing the diagonal scaling at the top level), recurse,
/// butterfly with the secant factors.
template <index_t M, bool kScalar, bool kScaled>
void lee_inverse(double* __restrict x, double* __restrict tmp,
                 index_t inner_dyn, double scale, double dc_scale) {
  if constexpr (M == 1) {
    (void)x;
    (void)tmp;
    (void)inner_dyn;
    (void)scale;
    (void)dc_scale;
  } else {
    const index_t inner = kScalar ? 1 : inner_dyn;
    constexpr index_t kHalf = M / 2;
    const double* sec = sec_table<M>();
    // Deinterleave: G'[k] = c[2k], H'[k] = c[2k+1] + c[2k-1] (c[-1] = 0).
    for (index_t k = 0; k < kHalf; ++k) {
      const double* __restrict xe = x + (2 * k) * inner;
      const double* __restrict xo = x + (2 * k + 1) * inner;
      double* __restrict g = tmp + k * inner;
      double* __restrict h = tmp + (kHalf + k) * inner;
      if constexpr (kScaled) {
        if (k == 0) {
#pragma omp simd
          for (index_t i = 0; i < inner; ++i) {
            g[i] = xe[i] * dc_scale;
            h[i] = xo[i] * scale;
          }
        } else {
          const double* __restrict xo_prev = xo - 2 * inner;
#pragma omp simd
          for (index_t i = 0; i < inner; ++i) {
            g[i] = xe[i] * scale;
            h[i] = (xo[i] + xo_prev[i]) * scale;
          }
        }
      } else {
        if (k == 0) {
#pragma omp simd
          for (index_t i = 0; i < inner; ++i) {
            g[i] = xe[i];
            h[i] = xo[i];
          }
        } else {
          const double* __restrict xo_prev = xo - 2 * inner;
#pragma omp simd
          for (index_t i = 0; i < inner; ++i) {
            g[i] = xe[i];
            h[i] = xo[i] + xo_prev[i];
          }
        }
      }
    }
    lee_inverse<kHalf, kScalar, false>(tmp, x, inner_dyn, 1.0, 1.0);
    lee_inverse<kHalf, kScalar, false>(tmp + kHalf * inner, x + kHalf * inner,
                                       inner_dyn, 1.0, 1.0);
    // Butterfly: x[p] = g[p] + sec[p] h[p], x[M-1-p] = g[p] - sec[p] h[p].
    for (index_t p = 0; p < kHalf; ++p) {
      const double* __restrict g = tmp + p * inner;
      const double* __restrict h = tmp + (kHalf + p) * inner;
      double* __restrict xa = x + p * inner;
      double* __restrict xb = x + (M - 1 - p) * inner;
      const double s = sec[p];
#pragma omp simd
      for (index_t i = 0; i < inner; ++i) {
        const double t = s * h[i];
        xa[i] = g[i] + t;
        xb[i] = g[i] - t;
      }
    }
  }
}

/// One whole axis of orthonormal DCT panels, dispatch hoisted out of the
/// panel loop.
template <index_t M, bool kScalar>
void dct_axis_impl(double* data, double* tmp, index_t outer, index_t inner,
                   bool forward) {
  const double scale = std::sqrt(2.0 / static_cast<double>(M));
  const double dc_scale = scale * kInvSqrt2;
  const index_t panel = M * inner;
  if (forward) {
    for (index_t o = 0; o < outer; ++o, data += panel)
      lee_forward<M, kScalar, true>(data, tmp, inner, scale, dc_scale);
  } else {
    for (index_t o = 0; o < outer; ++o, data += panel)
      lee_inverse<M, kScalar, true>(data, tmp, inner, scale, dc_scale);
  }
}

template <index_t M>
void dct_axis(double* data, double* tmp, index_t outer, index_t inner,
              bool forward) {
  if (inner == 1) {
    dct_axis_impl<M, true>(data, tmp, outer, inner, forward);
  } else {
    dct_axis_impl<M, false>(data, tmp, outer, inner, forward);
  }
}

/// Butterfly Haar analysis: each level averages/differences adjacent pairs,
/// leaving detail coefficients in their final coarse-to-fine positions and
/// recursing on the n/2 scaling coefficients.  O(n) per panel line.
template <bool kScalar>
void haar_panel_forward(double* __restrict x, double* __restrict tmp, index_t n,
                        index_t inner_dyn) {
  const index_t inner = kScalar ? 1 : inner_dyn;
  for (index_t len = n; len > 1; len /= 2) {
    const index_t half = len / 2;
    for (index_t k = 0; k < half; ++k) {
      const double* __restrict a = x + (2 * k) * inner;
      const double* __restrict b = a + inner;
      double* __restrict s = tmp + k * inner;
      double* __restrict d = tmp + (half + k) * inner;
#pragma omp simd
      for (index_t i = 0; i < inner; ++i) {
        s[i] = (a[i] + b[i]) * kInvSqrt2;
        d[i] = (a[i] - b[i]) * kInvSqrt2;
      }
    }
    std::copy(tmp, tmp + len * inner, x);
  }
}

/// Butterfly Haar synthesis: levels in reverse, reconstructing pairs from
/// scaling + detail coefficients.
template <bool kScalar>
void haar_panel_inverse(double* __restrict x, double* __restrict tmp, index_t n,
                        index_t inner_dyn) {
  const index_t inner = kScalar ? 1 : inner_dyn;
  for (index_t len = 2; len <= n; len *= 2) {
    const index_t half = len / 2;
    for (index_t k = 0; k < half; ++k) {
      const double* __restrict s = x + k * inner;
      const double* __restrict d = x + (half + k) * inner;
      double* __restrict a = tmp + (2 * k) * inner;
      double* __restrict b = a + inner;
#pragma omp simd
      for (index_t i = 0; i < inner; ++i) {
        a[i] = (s[i] + d[i]) * kInvSqrt2;
        b[i] = (s[i] - d[i]) * kInvSqrt2;
      }
    }
    std::copy(tmp, tmp + len * inner, x);
  }
}

template <bool kScalar>
void haar_axis_impl(double* data, double* tmp, index_t n, index_t outer,
                    index_t inner, bool forward) {
  const index_t panel = n * inner;
  if (forward) {
    for (index_t o = 0; o < outer; ++o, data += panel)
      haar_panel_forward<kScalar>(data, tmp, n, inner);
  } else {
    for (index_t o = 0; o < outer; ++o, data += panel)
      haar_panel_inverse<kScalar>(data, tmp, n, inner);
  }
}

bool is_power_of_two(index_t n) { return n >= 1 && (n & (n - 1)) == 0; }

/// Contract one axis of a block with the basis matrix (moved here from
/// BlockTransform so the autotune probe below times exactly this code).
/// The block is viewed as (outer, n, inner); forward uses H[k][k2], inverse
/// H[k2][k].  Templating on the axis length N gives the compiler
/// compile-time trip counts for the hot loops; N == 0 is the dynamic
/// fallback.
template <index_t N>
void apply_axis(const double* src, double* dst, const double* h, index_t n_dyn,
                index_t outer, index_t inner, bool forward) {
  const index_t n = N > 0 ? N : n_dyn;
  if (inner == 1) {
    // Lines are contiguous.  Forward: saxpy with contiguous matrix rows;
    // inverse: dot products with contiguous matrix rows.
    for (index_t o = 0; o < outer; ++o) {
      const double* line = src + o * n;
      double* out = dst + o * n;
      if (forward) {
        std::fill(out, out + n, 0.0);
        for (index_t k = 0; k < n; ++k) {
          const double v = line[k];
          const double* hrow = h + k * n;
          for (index_t k2 = 0; k2 < n; ++k2) out[k2] += v * hrow[k2];
        }
      } else {
        for (index_t k2 = 0; k2 < n; ++k2) {
          const double* hrow = h + k2 * n;
          double total = 0.0;
          for (index_t k = 0; k < n; ++k) total += line[k] * hrow[k];
          out[k2] = total;
        }
      }
    }
  } else {
    for (index_t o = 0; o < outer; ++o) {
      const double* base = src + o * n * inner;
      double* sbase = dst + o * n * inner;
      std::fill(sbase, sbase + n * inner, 0.0);
      for (index_t k = 0; k < n; ++k) {
        const double* line = base + k * inner;
        for (index_t k2 = 0; k2 < n; ++k2) {
          const double w = forward ? h[k * n + k2] : h[k2 * n + k];
          double* out = sbase + k2 * inner;
          for (index_t in = 0; in < inner; ++in) out[in] += w * line[in];
        }
      }
    }
  }
}

}  // namespace

void dense_transform_axis(const double* src, double* dst, const double* matrix,
                          index_t n, index_t outer, index_t inner,
                          bool forward) {
  switch (n) {
    case 1:
      std::copy(src, src + outer * inner, dst);
      return;
    case 2:
      apply_axis<2>(src, dst, matrix, n, outer, inner, forward);
      return;
    case 4:
      apply_axis<4>(src, dst, matrix, n, outer, inner, forward);
      return;
    case 8:
      apply_axis<8>(src, dst, matrix, n, outer, inner, forward);
      return;
    case 16:
      apply_axis<16>(src, dst, matrix, n, outer, inner, forward);
      return;
    case 32:
      apply_axis<32>(src, dst, matrix, n, outer, inner, forward);
      return;
    case 64:
      apply_axis<64>(src, dst, matrix, n, outer, inner, forward);
      return;
    case 128:
      apply_axis<128>(src, dst, matrix, n, outer, inner, forward);
      return;
    default:
      apply_axis<0>(src, dst, matrix, n, outer, inner, forward);
      return;
  }
}

bool fast_axis_supported(TransformKind kind, index_t n) {
  if (n == 1) return true;
  switch (kind) {
    case TransformKind::kDCT:
      return n == 2 || n == 4 || n == 8 || n == 16 || n == 32 || n == 64 ||
             n == 128;
    case TransformKind::kHaar:
      return is_power_of_two(n);
  }
  return false;
}

bool fast_axis_preferred(TransformKind kind, index_t n) {
  if (!fast_axis_supported(kind, n)) return false;
  // The dense matrix apply has compile-time trip counts and no inter-level
  // copies, so it wins on very short Haar axes where the butterfly's level
  // overhead dominates (measured in bench/micro_kernels.cpp).
  if (kind == TransformKind::kHaar) return n == 1 || n >= 8;
  return true;
}

void fast_transform_axis(TransformKind kind, double* data, double* tmp,
                         index_t n, index_t outer, index_t inner,
                         bool forward) {
  if (n == 1) return;  // The length-1 basis is the identity.
  if (kind == TransformKind::kHaar) {
    if (inner == 1) {
      haar_axis_impl<true>(data, tmp, n, outer, inner, forward);
    } else {
      haar_axis_impl<false>(data, tmp, n, outer, inner, forward);
    }
    return;
  }
  dct_fast_axis(data, tmp, n, outer, inner, forward);
}

const double* dct_secant_table(index_t m) {
  switch (m) {
    case 2:
      return sec_table<2>();
    case 4:
      return sec_table<4>();
    case 8:
      return sec_table<8>();
    case 16:
      return sec_table<16>();
    case 32:
      return sec_table<32>();
    case 64:
      return sec_table<64>();
    case 128:
      return sec_table<128>();
    default:
      throw std::logic_error("dct_secant_table: unsupported size " +
                             std::to_string(m));
  }
}

void dct_fast_axis(double* data, double* tmp, index_t n, index_t outer,
                   index_t inner, bool forward) {
  switch (n) {
    case 2:
      dct_axis<2>(data, tmp, outer, inner, forward);
      break;
    case 4:
      dct_axis<4>(data, tmp, outer, inner, forward);
      break;
    case 8:
      dct_axis<8>(data, tmp, outer, inner, forward);
      break;
    case 16:
      dct_axis<16>(data, tmp, outer, inner, forward);
      break;
    case 32:
      dct_axis<32>(data, tmp, outer, inner, forward);
      break;
    case 64:
      dct_axis<64>(data, tmp, outer, inner, forward);
      break;
    case 128:
      dct_axis<128>(data, tmp, outer, inner, forward);
      break;
    default:
      // Loud failure rather than silently returning untransformed data: this
      // is reachable only if a size is added to fast_axis_supported() without
      // a matching dispatch case here.
      throw std::logic_error(
          "dct_fast_axis: no factorized DCT kernel for n = " +
          std::to_string(n));
  }
}

}  // namespace pyblaz::kernels
