#pragma once

#include <algorithm>
#include <cmath>

#include "core/dtypes/float_type.hpp"
#include "core/ndarray/shape.hpp"

namespace pyblaz::kernels {

/// The binning/unbinning hot loops (§III-A d, Algorithm 3), written once for
/// the compressor and every compressed-space operation that rebins.  All
/// kernels are branch-free per element, use restrict pointers, and carry
/// `omp simd` hints; they are the single source of truth for the arithmetic
/// so every caller quantizes bit-identically.

/// max |c_j| over a contiguous coefficient row.
inline double max_abs(const double* __restrict c, index_t count) {
  double biggest = 0.0;
#pragma omp simd reduction(max : biggest)
  for (index_t j = 0; j < count; ++j)
    biggest = std::max(biggest, std::fabs(c[j]));
  return biggest;
}

/// Quantize a contiguous coefficient row into bin indices:
/// bins[j] = clamp(round(c[j] * inv), -r, r) with inv = r / biggest.
template <typename BinT>
inline void quantize_bins(const double* __restrict c, BinT* __restrict bins,
                          index_t count, double inv, double r) {
#pragma omp simd
  for (index_t j = 0; j < count; ++j)
    bins[j] = static_cast<BinT>(std::clamp(std::round(c[j] * inv), -r, r));
}

/// quantize_bins over a pruned selection: coefficient offsets[slot] feeds bin
/// slot (the compressor's binning + pruning step in one pass).
template <typename BinT>
inline void quantize_bins_gather(const double* __restrict c,
                                 const index_t* __restrict offsets,
                                 BinT* __restrict bins, index_t kept,
                                 double inv, double r) {
#pragma omp simd
  for (index_t slot = 0; slot < kept; ++slot)
    bins[slot] = static_cast<BinT>(
        std::clamp(std::round(c[offsets[slot]] * inv), -r, r));
}

/// Re-bin one block's coefficient row into (N_k, F_k): find-max, round the
/// max through the storage float type, then clamp-round every coefficient
/// into its bin.  Returns the stored N_k.  The final step of Algorithms 2
/// and 4 and the only error source of compressed-space arithmetic.
template <typename BinT>
inline double rebin_block(const double* __restrict c, index_t count, double r,
                          FloatType float_type, BinT* __restrict bins) {
  const double biggest = quantize(max_abs(c, count), float_type);
  if (biggest == 0.0) {
    std::fill(bins, bins + count, BinT{0});
  } else {
    quantize_bins(c, bins, count, r / biggest, r);
  }
  return biggest;
}

/// Decode one block's bin row back to specified coefficients:
/// c[j] = scale * f[j] with scale = N_k / r (Algorithm 3).
template <typename BinT>
inline void unbin_block(const BinT* __restrict f, index_t count, double scale,
                        double* __restrict c) {
#pragma omp simd
  for (index_t j = 0; j < count; ++j)
    c[j] = scale * static_cast<double>(f[j]);
}

/// unbin_block over a pruned selection: bin slot feeds coefficient
/// offsets[slot]; the caller zero-fills the pruned positions.
template <typename BinT>
inline void unbin_scatter(const BinT* __restrict f,
                          const index_t* __restrict offsets, index_t kept,
                          double scale, double* __restrict c) {
  for (index_t slot = 0; slot < kept; ++slot)
    c[offsets[slot]] = scale * static_cast<double>(f[slot]);
}

/// Fused decode of a linear combination: c[j] = s1 f1[j] + s2 f2[j], the
/// shared core of Algorithm 2 (addition) and its alpha/beta generalization.
template <typename Bin1T, typename Bin2T>
inline void decode_axpby(const Bin1T* __restrict f1, double s1,
                         const Bin2T* __restrict f2, double s2, index_t count,
                         double* __restrict c) {
#pragma omp simd
  for (index_t j = 0; j < count; ++j)
    c[j] = s1 * static_cast<double>(f1[j]) + s2 * static_cast<double>(f2[j]);
}

/// Accumulating variant of decode_axpby: c[j] += s1 f1[j] + s2 f2[j].  Lets
/// decode_lincomb sweep the coefficient row once per *pair* of operands.
template <typename Bin1T, typename Bin2T>
inline void decode_axpby_accumulate(const Bin1T* __restrict f1, double s1,
                                    const Bin2T* __restrict f2, double s2,
                                    index_t count, double* __restrict c) {
#pragma omp simd
  for (index_t j = 0; j < count; ++j)
    c[j] += s1 * static_cast<double>(f1[j]) + s2 * static_cast<double>(f2[j]);
}

/// Accumulating single-operand decode: c[j] += s f[j] (tail of an odd-arity
/// decode_lincomb).
template <typename BinT>
inline void decode_accumulate(const BinT* __restrict f, double s, index_t count,
                              double* __restrict c) {
#pragma omp simd
  for (index_t j = 0; j < count; ++j) c[j] += s * static_cast<double>(f[j]);
}

/// Fused n-ary decode of one block's linear combination,
/// c[j] = Σ_i s[i] f[i][j]: the single-output reference that every
/// decode_lincomb_multi output must match bit for bit (the tests' oracle).
/// All operands share one bin type (binary compressed ops require matching
/// index types).  Operands stream pairwise so the coefficient row — which
/// stays cache-resident — is swept ceil(n/2) times instead of n.  For n = 2
/// this is exactly decode_axpby, so the binary ops rewired through lincomb
/// quantize bit-identically to their previous dedicated loops.
template <typename BinT>
inline void decode_lincomb(const BinT* const* __restrict f,
                           const double* __restrict s, index_t num_operands,
                           index_t count, double* __restrict c) {
  index_t i = 0;
  if (num_operands >= 2) {
    decode_axpby(f[0], s[0], f[1], s[1], count, c);
    i = 2;
  } else if (num_operands == 1) {
    unbin_block(f[0], count, s[0], c);
    i = 1;
  } else {
    std::fill(c, c + count, 0.0);
  }
  for (; i + 1 < num_operands; i += 2)
    decode_axpby_accumulate(f[i], s[i], f[i + 1], s[i + 1], count, c);
  if (i < num_operands) decode_accumulate(f[i], s[i], count, c);
}

/// The scalar row primitives of decode_lincomb_multi's pairwise fold.  Each
/// takes either row type: a bin row streamed straight from storage or a
/// staged double row (int -> double is exact, so both give the same bits).
/// A SIMD backend supplies its own struct with the same four members.
struct ScalarRows {
  template <typename A, typename B>
  static void axpby(const A* a, double sa, const B* b, double sb,
                    index_t count, double* c) {
    decode_axpby(a, sa, b, sb, count, c);
  }
  template <typename A, typename B>
  static void axpby_accumulate(const A* a, double sa, const B* b, double sb,
                               index_t count, double* c) {
    decode_axpby_accumulate(a, sa, b, sb, count, c);
  }
  template <typename A>
  static void unbin(const A* a, index_t count, double s, double* c) {
    unbin_block(a, count, s, c);
  }
  template <typename A>
  static void accumulate(const A* a, double s, index_t count, double* c) {
    decode_accumulate(a, s, count, c);
  }
};

/// The lincomb kernel: evaluate K linear combinations of one block's bin
/// rows, the per-block engine of ops::lincomb and ops::lincomb_batch.
///
/// Terms are flattened: output k owns terms [offsets[k], offsets[k+1]); term
/// t reads rows[term_rows[t]] with scale scales[t].  Rows [0, num_staged) are
/// the ones that feed more than one term: each is converted to double once,
/// into decoded[d*count ..] (caller scratch of num_staged * count doubles),
/// and every term on it reads the staged row.  Every other term streams its
/// bin row directly, so with nothing staged this is decode_lincomb's loop.
/// The staged-or-streamed choice is made per term, once per block.
///
/// Bit-identity contract: out[k][j] is computed with exactly the per-element
/// association of decode_lincomb — first pair via a*b + c*d, subsequent pairs
/// summed then accumulated, odd tail accumulated alone, single-term outputs
/// as one multiply — and int->double conversion is exact for every bin value
/// (|bin| <= 2^53), so each output row is bit-identical to a separate
/// decode_lincomb call with the same (row, scale) list.  @p Rows supplies the
/// row primitives (ScalarRows here, the ISA's own in a SIMD backend).
template <typename BinT, typename Rows = ScalarRows>
inline void decode_lincomb_multi(const BinT* const* rows, index_t num_staged,
                                 const double* scales, const index_t* term_rows,
                                 const index_t* offsets, index_t num_outputs,
                                 index_t count, double* decoded,
                                 double* const* out) {
  // 1.0 * x == x exactly, so staging is the single-term primitive.
  for (index_t d = 0; d < num_staged; ++d)
    Rows::unbin(rows[d], count, 1.0, decoded + d * count);
  // Hand @p f term t's row: the staged double row or the bin row itself.
  const auto with_row = [&](index_t t, auto&& f) {
    const index_t row = term_rows[t];
    if (row < num_staged) {
      f(static_cast<const double*>(decoded + row * count));
    } else {
      f(rows[row]);
    }
  };
  for (index_t k = 0; k < num_outputs; ++k) {
    const index_t end = offsets[k + 1];
    double* c = out[k];
    index_t t = offsets[k];
    if (end - t >= 2) {
      with_row(t, [&](const auto* a) {
        with_row(t + 1, [&](const auto* b) {
          Rows::axpby(a, scales[t], b, scales[t + 1], count, c);
        });
      });
      t += 2;
    } else if (end - t == 1) {
      with_row(t, [&](const auto* a) { Rows::unbin(a, count, scales[t], c); });
      t += 1;
    } else {
      std::fill(c, c + count, 0.0);
    }
    for (; t + 1 < end; t += 2)
      with_row(t, [&](const auto* a) {
        with_row(t + 1, [&](const auto* b) {
          Rows::axpby_accumulate(a, scales[t], b, scales[t + 1], count, c);
        });
      });
    if (t < end)
      with_row(t,
               [&](const auto* a) { Rows::accumulate(a, scales[t], count, c); });
  }
}

/// Round a coefficient row through the storage float type in place.  The
/// float32 case (the default) is a tight vectorizable loop; the 16-bit types
/// go through their bit-exact conversion helpers.
void quantize_block(double* __restrict x, index_t count, FloatType type);

}  // namespace pyblaz::kernels
