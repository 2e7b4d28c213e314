/// AVX2 kernel backend.
///
/// Every kernel here must reproduce the scalar oracle in rebin.hpp /
/// fast_transform.cpp *bit for bit* (see docs/PERF.md, "SIMD backends").
/// The rules that make that possible:
///
///  - No FMA, ever: the project builds with -ffp-contract=off and the scalar
///    kernels round after every multiply and add, so each SIMD kernel uses
///    separate mul/add intrinsics (-mavx2 does not enable FMA contraction).
///  - Per-element operation order is preserved exactly; vectorization only
///    runs independent elements side by side.  The one reduction (max_abs)
///    splits into lane accumulators, which is exact because max never rounds.
///  - std::round (half away from zero) is synthesized from truncation:
///    t = trunc(x); |x - t| >= 0.5 selects t +/- 1.  x - t is exact (it is
///    the fraction bits of x), and |x| >= 2^52 gives t == x, diff == 0.
///  - NaN semantics follow the scalar kernels: vmaxpd/vminpd return their
///    *second* operand on an unordered compare, so max_abs keeps the
///    accumulator when the new |c| is NaN (std::max drops NaN) while clamp
///    propagates a NaN value (std::clamp keeps it).
///  - double -> int conversion truncates via cvttpd + byte shuffles, never
///    a saturating pack: gcc's scalar cast produces 0x80000000 -> truncated
///    bytes for NaN, and a saturating pack would disagree.
///  - The int64 bin type stays on the scalar kernels (AVX2 has no packed
///    double<->int64 conversion, and its 2^53 radius exceeds int32 range).
///
/// This TU is compiled with -mavx2 on x86-64 (CMakeLists.txt sets the
/// per-file flag) and collapses to a nullptr-returning stub elsewhere, so
/// the dispatcher needs no platform #ifdefs.

#include "core/kernels/backend_tables.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/kernels/fast_transform.hpp"
#include "core/kernels/rebin.hpp"

namespace pyblaz::kernels {
namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440084436210485;

inline __m256d abs_pd(__m256d v) {
  const __m256d mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  return _mm256_and_pd(v, mask);
}

/// std::round: nearest integral, halfway cases away from zero.
inline __m256d round_half_away(__m256d x) {
  const __m256d t =
      _mm256_round_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d diff = _mm256_sub_pd(x, t);  // Exact: the fraction bits of x.
  const __m256d sign_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x8000000000000000ULL));
  const __m256d one_signed =
      _mm256_or_pd(_mm256_set1_pd(1.0), _mm256_and_pd(x, sign_mask));
  const __m256d away = _mm256_add_pd(t, one_signed);
  const __m256d mask =
      _mm256_cmp_pd(abs_pd(diff), _mm256_set1_pd(0.5), _CMP_GE_OQ);
  // NaN x: the compare is false and t (== NaN) passes through, like
  // std::round.
  return _mm256_blendv_pd(t, away, mask);
}

/// std::clamp(v, lo, hi) with std::clamp's NaN behavior (a NaN value
/// propagates): vmaxpd/vminpd return the second operand on unordered, so v
/// must be the second operand of both.
inline __m256d clamp_pd(__m256d v, __m256d lo, __m256d hi) {
  return _mm256_min_pd(hi, _mm256_max_pd(lo, v));
}

// --- int <-> double lane conversions ---------------------------------------

inline __m256d load4_pd(const std::int8_t* p) {
  std::int32_t raw;
  std::memcpy(&raw, p, sizeof raw);
  return _mm256_cvtepi32_pd(_mm_cvtepi8_epi32(_mm_cvtsi32_si128(raw)));
}

inline __m256d load4_pd(const std::int16_t* p) {
  std::int64_t raw;
  std::memcpy(&raw, p, sizeof raw);
  return _mm256_cvtepi32_pd(_mm_cvtepi16_epi32(_mm_cvtsi64_si128(raw)));
}

inline __m256d load4_pd(const std::int32_t* p) {
  return _mm256_cvtepi32_pd(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// A staged row of the lincomb kernel, already converted to double.
inline __m256d load4_pd(const double* p) { return _mm256_loadu_pd(p); }

/// Truncating double -> int stores.  cvttpd yields 0x80000000 for NaN and
/// out-of-range values; taking the low bytes matches gcc's scalar cast chain
/// (cvttsd2si + integer truncation) exactly.
inline void store4(std::int8_t* p, __m256d v) {
  const __m128i q = _mm256_cvttpd_epi32(v);
  const __m128i bytes = _mm_shuffle_epi8(
      q, _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                       -1, -1));
  const std::int32_t raw = _mm_cvtsi128_si32(bytes);
  std::memcpy(p, &raw, sizeof raw);
}

inline void store4(std::int16_t* p, __m256d v) {
  const __m128i q = _mm256_cvttpd_epi32(v);
  const __m128i words = _mm_shuffle_epi8(
      q, _mm_setr_epi8(0, 1, 4, 5, 8, 9, 12, 13, -1, -1, -1, -1, -1, -1, -1,
                       -1));
  const std::int64_t raw = _mm_cvtsi128_si64(words);
  std::memcpy(p, &raw, sizeof raw);
}

inline void store4(std::int32_t* p, __m256d v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm256_cvttpd_epi32(v));
}

// --- family 1: rebin -------------------------------------------------------

double max_abs_avx2(const double* c, index_t count) {
  __m256d acc = _mm256_setzero_pd();
  index_t j = 0;
  for (; j + 4 <= count; j += 4)
    // v as the first operand: a NaN |c[j]| keeps the accumulator, matching
    // std::max(biggest, fab).
    acc = _mm256_max_pd(abs_pd(_mm256_loadu_pd(c + j)), acc);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double biggest = 0.0;
  for (double lane : lanes) biggest = std::max(biggest, lane);
  for (; j < count; ++j) biggest = std::max(biggest, std::fabs(c[j]));
  return biggest;
}

template <typename BinT>
void quantize_bins_avx2(const double* c, BinT* bins, index_t count, double inv,
                        double r) {
  const __m256d vinv = _mm256_set1_pd(inv);
  const __m256d vlo = _mm256_set1_pd(-r);
  const __m256d vhi = _mm256_set1_pd(r);
  index_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const __m256d scaled = _mm256_mul_pd(_mm256_loadu_pd(c + j), vinv);
    store4(bins + j, clamp_pd(round_half_away(scaled), vlo, vhi));
  }
  for (; j < count; ++j)
    bins[j] = static_cast<BinT>(std::clamp(std::round(c[j] * inv), -r, r));
}

// --- family 1: unbin and the lincomb kernel's row primitives ---------------

/// The AVX2 ScalarRows (rebin.hpp): the same four primitives with the same
/// per-element association (mul, mul, add; a pair rounds before it
/// accumulates), only run four lanes at a time.  Each row is a bin row or a
/// staged double row; load4_pd converts either exactly.  unbin is also the
/// table's unbin_block slot.
struct Avx2Rows {
  template <typename A, typename B>
  static void axpby(const A* a, double sa, const B* b, double sb,
                    index_t count, double* c) {
    const __m256d va = _mm256_set1_pd(sa);
    const __m256d vb = _mm256_set1_pd(sb);
    index_t j = 0;
    for (; j + 4 <= count; j += 4)
      _mm256_storeu_pd(c + j,
                       _mm256_add_pd(_mm256_mul_pd(va, load4_pd(a + j)),
                                     _mm256_mul_pd(vb, load4_pd(b + j))));
    for (; j < count; ++j)
      c[j] = sa * static_cast<double>(a[j]) + sb * static_cast<double>(b[j]);
  }

  template <typename A, typename B>
  static void axpby_accumulate(const A* a, double sa, const B* b, double sb,
                               index_t count, double* c) {
    const __m256d va = _mm256_set1_pd(sa);
    const __m256d vb = _mm256_set1_pd(sb);
    index_t j = 0;
    for (; j + 4 <= count; j += 4) {
      const __m256d pair = _mm256_add_pd(_mm256_mul_pd(va, load4_pd(a + j)),
                                         _mm256_mul_pd(vb, load4_pd(b + j)));
      _mm256_storeu_pd(c + j, _mm256_add_pd(_mm256_loadu_pd(c + j), pair));
    }
    for (; j < count; ++j)
      c[j] += sa * static_cast<double>(a[j]) + sb * static_cast<double>(b[j]);
  }

  template <typename A>
  static void unbin(const A* a, index_t count, double s, double* c) {
    const __m256d vs = _mm256_set1_pd(s);
    index_t j = 0;
    for (; j + 4 <= count; j += 4)
      _mm256_storeu_pd(c + j, _mm256_mul_pd(vs, load4_pd(a + j)));
    for (; j < count; ++j) c[j] = s * static_cast<double>(a[j]);
  }

  template <typename A>
  static void accumulate(const A* a, double s, index_t count, double* c) {
    const __m256d vs = _mm256_set1_pd(s);
    index_t j = 0;
    for (; j + 4 <= count; j += 4)
      _mm256_storeu_pd(c + j, _mm256_add_pd(_mm256_loadu_pd(c + j),
                                            _mm256_mul_pd(vs, load4_pd(a + j))));
    for (; j < count; ++j) c[j] += s * static_cast<double>(a[j]);
  }
};

// --- family 3: dense one-axis transform ------------------------------------

void dense_transform_axis_avx2(const double* src, double* dst,
                               const double* h, index_t n, index_t outer,
                               index_t inner, bool forward) {
  if (n == 1) {
    std::copy(src, src + outer * inner, dst);
    return;
  }
  if (inner == 1) {
    for (index_t o = 0; o < outer; ++o) {
      const double* line = src + o * n;
      double* out = dst + o * n;
      if (forward) {
        // Saxpy with contiguous matrix rows; out[k2] updates are independent
        // across k2, so vectorizing across outputs preserves each output's
        // k-ordered accumulation.
        std::fill(out, out + n, 0.0);
        for (index_t k = 0; k < n; ++k) {
          const double v = line[k];
          const __m256d vv = _mm256_set1_pd(v);
          const double* hrow = h + k * n;
          index_t k2 = 0;
          for (; k2 + 4 <= n; k2 += 4)
            _mm256_storeu_pd(
                out + k2,
                _mm256_add_pd(_mm256_loadu_pd(out + k2),
                              _mm256_mul_pd(vv, _mm256_loadu_pd(hrow + k2))));
          for (; k2 < n; ++k2) out[k2] += v * hrow[k2];
        }
      } else {
        // Four output dot products side by side, k strictly ascending, so
        // every output's add sequence matches the scalar dot exactly.
        index_t k2 = 0;
        for (; k2 + 4 <= n; k2 += 4) {
          __m256d total = _mm256_setzero_pd();
          for (index_t k = 0; k < n; ++k) {
            const __m256d col =
                _mm256_set_pd(h[(k2 + 3) * n + k], h[(k2 + 2) * n + k],
                              h[(k2 + 1) * n + k], h[(k2 + 0) * n + k]);
            total = _mm256_add_pd(
                total, _mm256_mul_pd(_mm256_set1_pd(line[k]), col));
          }
          _mm256_storeu_pd(out + k2, total);
        }
        for (; k2 < n; ++k2) {
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
          const __m256d vw = _mm256_set1_pd(w);
          double* out = sbase + k2 * inner;
          index_t in = 0;
          for (; in + 4 <= inner; in += 4)
            _mm256_storeu_pd(
                out + in,
                _mm256_add_pd(_mm256_loadu_pd(out + in),
                              _mm256_mul_pd(vw, _mm256_loadu_pd(line + in))));
          for (; in < inner; ++in) out[in] += w * line[in];
        }
      }
    }
  }
}

// --- family 3: Lee DCT butterflies -----------------------------------------

/// Lee's forward recursion, mirroring fast_transform.cpp's lee_forward pass
/// for pass, vectorized across the inner dimension like the scalar kernel's
/// omp simd loops.  Only instantiated for the shapes where this measurably
/// beats the scalar recursion (see dct_axis_avx2's gate): an across-p
/// variant for inner == 1 was measured at 0.3-0.5x scalar — the reversed
/// loads and even/odd interleaves cost more than the arithmetic they feed —
/// and removed.
template <index_t M, bool kScaled>
void lee_forward_avx2(double* __restrict x, double* __restrict tmp,
                      index_t inner, double scale, double dc_scale) {
  if constexpr (M == 1) {
    (void)x;
    (void)tmp;
    (void)inner;
    (void)scale;
    (void)dc_scale;
  } else {
    constexpr index_t kHalf = M / 2;
    static const double* const sec = dct_secant_table(M);
    {
      for (index_t p = 0; p < kHalf; ++p) {
        const double* __restrict xa = x + p * inner;
        const double* __restrict xb = x + (M - 1 - p) * inner;
        double* __restrict g = tmp + p * inner;
        double* __restrict hh = tmp + (kHalf + p) * inner;
        const double s = sec[p];
        const __m256d vs = _mm256_set1_pd(s);
        index_t i = 0;
        for (; i + 4 <= inner; i += 4) {
          const __m256d a = _mm256_loadu_pd(xa + i);
          const __m256d b = _mm256_loadu_pd(xb + i);
          _mm256_storeu_pd(g + i, _mm256_add_pd(a, b));
          _mm256_storeu_pd(hh + i, _mm256_mul_pd(_mm256_sub_pd(a, b), vs));
        }
        for (; i < inner; ++i) {
          g[i] = xa[i] + xb[i];
          hh[i] = (xa[i] - xb[i]) * s;
        }
      }
    }
    lee_forward_avx2<kHalf, false>(tmp, x, inner, 1.0, 1.0);
    lee_forward_avx2<kHalf, false>(tmp + kHalf * inner, x + kHalf * inner,
                                   inner, 1.0, 1.0);
    // Interleave: even outputs from G, odd outputs H[k] + H[k+1].
    {
      for (index_t k = 0; k < kHalf; ++k) {
        const double* __restrict gk = tmp + k * inner;
        const double* __restrict hk = tmp + (kHalf + k) * inner;
        double* __restrict xe = x + (2 * k) * inner;
        double* __restrict xo = x + (2 * k + 1) * inner;
        const double fe = kScaled ? (k == 0 ? dc_scale : scale) : 1.0;
        const __m256d vfe = _mm256_set1_pd(fe);
        const __m256d vscale = _mm256_set1_pd(scale);
        const bool has_next = k + 1 < kHalf;
        const double* __restrict hk1 = has_next ? hk + inner : nullptr;
        index_t i = 0;
        for (; i + 4 <= inner; i += 4) {
          const __m256d g = _mm256_loadu_pd(gk + i);
          const __m256d hv = _mm256_loadu_pd(hk + i);
          const __m256d ho =
              has_next ? _mm256_add_pd(hv, _mm256_loadu_pd(hk1 + i)) : hv;
          if constexpr (kScaled) {
            _mm256_storeu_pd(xe + i, _mm256_mul_pd(g, vfe));
            _mm256_storeu_pd(xo + i, _mm256_mul_pd(ho, vscale));
          } else {
            _mm256_storeu_pd(xe + i, g);
            _mm256_storeu_pd(xo + i, ho);
          }
        }
        for (; i < inner; ++i) {
          const double ho = has_next ? hk[i] + hk1[i] : hk[i];
          if constexpr (kScaled) {
            xe[i] = gk[i] * fe;
            xo[i] = ho * scale;
          } else {
            xe[i] = gk[i];
            xo[i] = ho;
          }
        }
      }
    }
  }
}

/// Transpose of lee_forward_avx2, mirroring the scalar lee_inverse.
template <index_t M, bool kScaled>
void lee_inverse_avx2(double* __restrict x, double* __restrict tmp,
                      index_t inner, double scale, double dc_scale) {
  if constexpr (M == 1) {
    (void)x;
    (void)tmp;
    (void)inner;
    (void)scale;
    (void)dc_scale;
  } else {
    constexpr index_t kHalf = M / 2;
    static const double* const sec = dct_secant_table(M);
    // Deinterleave: G'[k] = c[2k], H'[k] = c[2k+1] + c[2k-1] (c[-1] = 0).
    {
      for (index_t k = 0; k < kHalf; ++k) {
        const double* __restrict xe = x + (2 * k) * inner;
        const double* __restrict xo = x + (2 * k + 1) * inner;
        double* __restrict g = tmp + k * inner;
        double* __restrict hh = tmp + (kHalf + k) * inner;
        const double* __restrict xo_prev = k > 0 ? xo - 2 * inner : nullptr;
        const double ge = kScaled ? (k == 0 ? dc_scale : scale) : 1.0;
        const __m256d vge = _mm256_set1_pd(ge);
        const __m256d vscale = _mm256_set1_pd(scale);
        index_t i = 0;
        for (; i + 4 <= inner; i += 4) {
          const __m256d e = _mm256_loadu_pd(xe + i);
          const __m256d o = _mm256_loadu_pd(xo + i);
          const __m256d hsum =
              k > 0 ? _mm256_add_pd(o, _mm256_loadu_pd(xo_prev + i)) : o;
          if constexpr (kScaled) {
            _mm256_storeu_pd(g + i, _mm256_mul_pd(e, vge));
            _mm256_storeu_pd(hh + i, _mm256_mul_pd(hsum, vscale));
          } else {
            _mm256_storeu_pd(g + i, e);
            _mm256_storeu_pd(hh + i, hsum);
          }
        }
        for (; i < inner; ++i) {
          const double hsum = k > 0 ? xo[i] + xo_prev[i] : xo[i];
          if constexpr (kScaled) {
            g[i] = xe[i] * ge;
            hh[i] = hsum * scale;
          } else {
            g[i] = xe[i];
            hh[i] = hsum;
          }
        }
      }
    }
    lee_inverse_avx2<kHalf, false>(tmp, x, inner, 1.0, 1.0);
    lee_inverse_avx2<kHalf, false>(tmp + kHalf * inner, x + kHalf * inner,
                                   inner, 1.0, 1.0);
    // Butterfly: x[p] = g[p] + sec[p] h[p], x[M-1-p] = g[p] - sec[p] h[p].
    {
      for (index_t p = 0; p < kHalf; ++p) {
        const double* __restrict g = tmp + p * inner;
        const double* __restrict hh = tmp + (kHalf + p) * inner;
        double* __restrict xa = x + p * inner;
        double* __restrict xb = x + (M - 1 - p) * inner;
        const double s = sec[p];
        const __m256d vs = _mm256_set1_pd(s);
        index_t i = 0;
        for (; i + 4 <= inner; i += 4) {
          const __m256d t = _mm256_mul_pd(vs, _mm256_loadu_pd(hh + i));
          const __m256d gv = _mm256_loadu_pd(g + i);
          _mm256_storeu_pd(xa + i, _mm256_add_pd(gv, t));
          _mm256_storeu_pd(xb + i, _mm256_sub_pd(gv, t));
        }
        for (; i < inner; ++i) {
          const double t = s * hh[i];
          xa[i] = g[i] + t;
          xb[i] = g[i] - t;
        }
      }
    }
  }
}

template <index_t M>
void dct_panels_avx2(double* data, double* tmp, index_t outer, index_t inner,
                     bool forward) {
  const double scale = std::sqrt(2.0 / static_cast<double>(M));
  const double dc_scale = scale * kInvSqrt2;
  const index_t panel = M * inner;
  if (forward) {
    for (index_t o = 0; o < outer; ++o, data += panel)
      lee_forward_avx2<M, true>(data, tmp, inner, scale, dc_scale);
  } else {
    for (index_t o = 0; o < outer; ++o, data += panel)
      lee_inverse_avx2<M, true>(data, tmp, inner, scale, dc_scale);
  }
}

void dct_axis_avx2(double* data, double* tmp, index_t n, index_t outer,
                   index_t inner, bool forward) {
  // The intrinsic panels only pay where the across-inner loops run full
  // vectors and the recursion is deep enough to amortize per-panel setup:
  // measured against the scalar Lee recursion (generic -march build, see
  // docs/PERF.md), inner >= 4 with n >= 32 wins 1.3-1.5x while every other
  // shape is at or below parity.  Everything else takes the scalar path —
  // same algorithm, same bits, no cost to being honest about it.
  if (inner >= 4 && n >= 32) {
    switch (n) {
      case 32:
        dct_panels_avx2<32>(data, tmp, outer, inner, forward);
        return;
      case 64:
        dct_panels_avx2<64>(data, tmp, outer, inner, forward);
        return;
      case 128:
        dct_panels_avx2<128>(data, tmp, outer, inner, forward);
        return;
      default:
        break;
    }
  }
  dct_fast_axis(data, tmp, n, outer, inner, forward);
}

// --- table ------------------------------------------------------------------

template <typename BinT>
constexpr BinKernels<BinT> avx2_bin_kernels() {
  return {&quantize_bins_avx2<BinT>, &Avx2Rows::unbin<BinT>,
          &decode_lincomb_multi<BinT, Avx2Rows>};
}

}  // namespace

namespace internal {

const KernelTable* avx2_table() {
  static const KernelTable table = {
      "avx2",
      &max_abs_avx2,
      avx2_bin_kernels<std::int8_t>(),
      avx2_bin_kernels<std::int16_t>(),
      avx2_bin_kernels<std::int32_t>(),
      scalar_table().i64,  // See the file comment.
      &dense_transform_axis_avx2,
      &dct_axis_avx2,
  };
  return &table;
}

}  // namespace internal
}  // namespace pyblaz::kernels

#else  // !defined(__AVX2__)

namespace pyblaz::kernels::internal {

const KernelTable* avx2_table() { return nullptr; }

}  // namespace pyblaz::kernels::internal

#endif
