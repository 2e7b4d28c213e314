#pragma once

#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "core/codec/compressed_array.hpp"
#include "core/ndarray/ndarray.hpp"

namespace pyblaz::ops {

/// Compressed-space operations (§IV, Table I).  All operate directly on the
/// compressed representation {s, i, N, F}; none decompresses.  Binary
/// operations require both operands to share shape, block shape, types,
/// transform, and pruning mask (they throw std::invalid_argument otherwise).
/// Every operation reads the raw archive fields (biggest/indices), which
/// reflect a cached set() only after flush_cache(): operands with unflushed
/// dirty cached blocks are rejected with std::logic_error
/// (CompressedArray::require_flushed), so no result depends on the cache
/// capacity.
///
/// Error characteristics (Table I):
///  - negation, scalar multiplication: no additional error,
///  - element-wise addition, scalar addition: rebinning error only,
///  - dot, mean, covariance, variance, L2 norm, cosine similarity, SSIM:
///    no additional error beyond compression error,
///  - Wasserstein distance: approximation error as a function of block size.

/// Ĉ (Algorithm 3): the specified coefficients N ⊙ F ⊘ r, laid out as
/// num_blocks() * kept_per_block() in block-major, kept-slot-minor order.
std::vector<double> specified_coefficients(const CompressedArray& a);

/// Decode Ĉ into caller-provided storage (same layout as
/// specified_coefficients) so hot callers can reuse one buffer across calls
/// instead of paying a fresh allocation each time.  @p out must hold at least
/// num_blocks() * kept_per_block() doubles (throws std::invalid_argument
/// otherwise).
void specified_coefficients_into(const CompressedArray& a,
                                 std::span<double> out);

/// Algorithm 1: -A, by negating F.  Exact.
CompressedArray negate(const CompressedArray& a);

/// Algorithm 2: A + B element-wise.  Sums specified coefficients and rebins
/// against the new per-block biggest coefficient (the only error source).
CompressedArray add(const CompressedArray& a, const CompressedArray& b);

/// A - B = A + (-B): the compressed-space "difference" used by the paper's
/// shallow-water experiment (§V-A).
CompressedArray subtract(const CompressedArray& a, const CompressedArray& b);

/// Algorithm 4: A + x for scalar x, by shifting each block's first (DC)
/// coefficient by x * sqrt(prod(i)) and rebinning.  Requires the DC
/// coefficient to be unpruned.
CompressedArray add_scalar(const CompressedArray& a, double x);

/// Algorithm 5: A * x for scalar x, by scaling N by |x| and flipping F's sign
/// if x < 0.  Exact (no rebinning).
CompressedArray multiply_scalar(const CompressedArray& a, double x);

/// Algorithm 6: the dot product Σ(Ĉ1 ⊙ Ĉ2), equal to the uncompressed dot
/// product because the orthonormal transform preserves dot products.
double dot(const CompressedArray& a, const CompressedArray& b);

/// Algorithm 7: the array mean, mean(Ĉ...1) / sqrt(prod(i)).  Exact when the
/// array shape is a multiple of the block shape; the zero padding of ragged
/// edges otherwise leaks into the blockwise means (the compressed form cannot
/// distinguish stored zeros from padding).
double mean(const CompressedArray& a);

/// Algorithm 8: the (population) covariance of A and B, via centered
/// coefficients.
double covariance(const CompressedArray& a, const CompressedArray& b);

/// Algorithm 9: the (population) variance, Covariance(A, A).
double variance(const CompressedArray& a);

/// sqrt(variance).
double standard_deviation(const CompressedArray& a);

/// Algorithm 10: ‖A‖₂ = ‖Ĉ‖₂ (orthonormality).
double l2_norm(const CompressedArray& a);

/// Algorithm 11: cosine similarity dot(A,B) / (‖A‖₂ ‖B‖₂).
double cosine_similarity(const CompressedArray& a, const CompressedArray& b);

/// Parameters of Algorithm 12 (SSIM).  Defaults follow the SSIM convention
/// C1 = (0.01 L)², C2 = (0.03 L)² for data range L = 1.
struct SsimParams {
  double luminance_stabilizer = 1e-4;   ///< s_l.
  double contrast_stabilizer = 9e-4;    ///< s_c (the structure term uses s_c/2).
  double luminance_weight = 1.0;        ///< w_l.
  double contrast_weight = 1.0;         ///< w_c.
  double structure_weight = 1.0;        ///< w_s.
};

/// Algorithm 12: global structural similarity l^wl * c^wc * s^ws built from
/// compressed-space mean/variance/covariance.
double structural_similarity(const CompressedArray& a, const CompressedArray& b,
                             const SsimParams& params = {});

/// Spatially resolved SSIM (extension): Algorithm 12 evaluated per block from
/// the blockwise mean/variance/covariance, yielding an array shaped
/// ceil(s ⊘ i) — the compressed-space analog of the windowed SSIM map used
/// in image quality assessment, with the block shape as the window.  Values
/// near 1 mean the corresponding region is unchanged; the map localizes
/// degradation the global score averages away.
NDArray<double> structural_similarity_map(const CompressedArray& a,
                                          const CompressedArray& b,
                                          const SsimParams& params = {});

/// Algorithm 13: approximate p-order Wasserstein distance between the
/// blockwise-mean approximations of A and B.  Arrays that do not already sum
/// to 1 are pushed through softmax first.  @p stable selects a log-domain
/// evaluation that survives large p (p ≳ 40 underflows the naive form —
/// matching the paper's observation that all peaks vanish for p ≥ 80);
/// stable = false reproduces the naive arithmetic.
double wasserstein_distance(const CompressedArray& a, const CompressedArray& b,
                            double p, bool stable = true);

/// Block-wise mean (§IV-A 6): an array shaped ceil(s ⊘ i) of block means,
/// Ĉ...1 / sqrt(prod(i)).  This is the coarse proxy Algorithm 13 is built on.
NDArray<double> blockwise_mean(const CompressedArray& a);

/// Block-wise (population) variance (§IV-A 8), computed from each block's
/// centered coefficients.
NDArray<double> blockwise_variance(const CompressedArray& a);

/// Block-wise standard deviation: sqrt of blockwise_variance.
NDArray<double> blockwise_standard_deviation(const CompressedArray& a);

/// Block-wise covariance of A and B (§IV-A 7).
NDArray<double> blockwise_covariance(const CompressedArray& a,
                                     const CompressedArray& b);

// ---------------------------------------------------------------------------
// Extensions beyond the paper: padding-corrected statistics.
//
// The paper's mean/covariance (Algorithms 7 and 8) average over the *padded*
// array, so ragged shapes bias them (§IV-A).  But two quantities are immune
// to zero padding: the element sum (padding contributes zero to every block's
// DC coefficient) and the dot product (zero times anything is zero).  The
// operations below rebuild the statistics from those, so they converge to the
// true values for any shape — still entirely in compressed space.
// ---------------------------------------------------------------------------

/// Σ A over the true (uncropped) elements: sqrt(prod(i)) * Σ DC_k.  Exact
/// under padding; requires the DC coefficient.
double sum(const CompressedArray& a);

/// Padding-corrected mean: sum / prod(s).  Coincides with mean() on
/// divisible shapes.
double mean_unpadded(const CompressedArray& a);

/// Padding-corrected covariance: dot(A, B)/prod(s) - mean(A) mean(B).
double covariance_unpadded(const CompressedArray& a, const CompressedArray& b);

/// Padding-corrected variance: dot(A, A)/prod(s) - mean(A)^2.
double variance_unpadded(const CompressedArray& a);

// ---------------------------------------------------------------------------
// Extensions beyond the paper: derived metrics and mixed-domain operations.
// All are compositions of the Table I primitives, so they inherit the same
// error characteristics.
// ---------------------------------------------------------------------------

/// Fused n-ary linear combination with a single terminal rebin:
/// Σ_i weights[i] * operands[i] + bias, evaluated entirely in compressed
/// space.  Per block, all operands' specified coefficients accumulate into
/// one reusable per-thread row and the result rebins **once** — where the
/// equivalent chained add/multiply_scalar sequence pays one rebin (the only
/// error source of Table I addition) per binary op.  An n-term update is
/// therefore both one pass instead of n and carries a strictly tighter error
/// bound.  @p bias shifts the DC coefficient like add_scalar (requires the
/// DC coefficient to be kept when nonzero).  All operands must share the
/// layout of operands[0]; weights.size() must equal operands.size() and be
/// at least 1.  add/subtract/add_scalar/linear_combination are thin wrappers
/// over this kernel and quantize bit-identically to it.
CompressedArray lincomb(std::span<const CompressedArray* const> operands,
                        std::span<const double> weights, double bias = 0.0);

/// Brace-friendly lincomb: ops::lincomb({{1.0, &a}, {-dt, &b}}, bias).
CompressedArray lincomb(
    std::initializer_list<std::pair<double, const CompressedArray*>> terms,
    double bias = 0.0);

/// One expression of a batch: Σ_i weights[i] * operands[i] + bias, the same
/// term list a single lincomb call takes.  Non-owning views — the arrays and
/// the weight storage must outlive the lincomb_batch call.
struct LincombRequest {
  std::span<const CompressedArray* const> operands;
  std::span<const double> weights;
  double bias = 0.0;
};

/// Batched multi-expression evaluation: evaluate every request in ONE blocked
/// pass, decoding each *distinct* operand's coefficient row once per block
/// and fanning it into all K output rows through the lincomb kernel
/// (kernels::decode_lincomb_multi), then finishing each output with its own
/// terminal rebin.  Per block, int->double bin decodes fall from Σ_k arity_k
/// to the number of distinct operands — the request-batching amortization the
/// service layer coalesces concurrent expressions for.
///
/// Outputs are bit-identical to calling ops::lincomb(requests[k]) one at a
/// time, at any thread count, shard count, kernel backend, or cache capacity;
/// results[k] corresponds to requests[k].  ops::lincomb is itself the
/// one-request case of this pass.  Operands are deduplicated by pointer —
/// two terms share a decode only when they reference the same
/// CompressedArray object; an operand that feeds one term streams from its
/// bins instead (same bits, no amortization).  Every
/// request's operands must share the layout of the first request's first
/// operand; a request with a nonzero bias requires the DC coefficient, like
/// lincomb.  Rebin accounting: a K-request batch performs exactly K terminal
/// rebin passes (lincomb_rebin_passes() advances by K).
std::vector<CompressedArray> lincomb_batch(
    std::span<const LincombRequest> requests);

/// Process-wide count of terminal rebin passes performed by ops::lincomb and
/// ops::lincomb_batch — exactly one per expression, which is the fused
/// pipeline's defining property.
/// Everything that routes through lincomb (add, subtract, add_scalar,
/// linear_combination, and every expression-template evaluation from
/// core/ops/expr.hpp) bumps it once; the exact rebin-free operations
/// (negate, multiply_scalar) never do.  Monotonic and thread-safe; intended
/// for rebin-count accounting in tests and diagnostics — take a delta around
/// the region of interest.
long lincomb_rebin_passes();

/// α A + β B in one fused pass (generalizes Algorithm 2; rebinning is the
/// only error source).  Layouts must match.  Equivalent to the 2-operand
/// lincomb.
CompressedArray linear_combination(double alpha, const CompressedArray& a,
                                   double beta, const CompressedArray& b);

/// Mean squared error between A and B over the true element count:
/// (‖A‖² - 2<A,B> + ‖B‖²) / prod(s).  No additional error beyond compression.
double mean_squared_error(const CompressedArray& a, const CompressedArray& b);

/// Peak signal-to-noise ratio, 10 log10(peak² / MSE), in dB.  @p peak is the
/// data range (1.0 for normalized data).  Returns +inf for identical arrays.
double psnr(const CompressedArray& a, const CompressedArray& b,
            double peak = 1.0);

/// Pearson correlation coefficient: covariance / (σ_A σ_B) (padding-corrected
/// statistics, so it is meaningful on ragged shapes too).
double pearson_correlation(const CompressedArray& a, const CompressedArray& b);

/// Block-wise L2 norms: an array shaped ceil(s ⊘ i) whose entry k is the L2
/// norm of block k, sqrt(Σ Ĉ_k²) (orthonormality per block).
NDArray<double> blockwise_l2_norm(const CompressedArray& a);

/// Mixed-domain dot product: <A, y> where A is compressed and y is a raw
/// array of the same shape.  Blocks of y are transformed on the fly and
/// contracted with A's specified coefficients — no decompression of A, no
/// compression of y.  Useful for applying fixed analysis weights (quadrature
/// rules, filters) to compressed data.  @p impl selects the transform
/// implementation for y's on-the-fly transform (pass TransformImpl::kDense
/// to keep an all-dense debugging baseline consistent).
double dot(const CompressedArray& a, const NDArray<double>& y,
           TransformImpl impl = TransformImpl::kAuto);

}  // namespace pyblaz::ops
