#pragma once

#include "core/ndarray/shape.hpp"
#include "core/transform/transform.hpp"

namespace pyblaz::kernels {

/// True when the factorized O(n log n) path can transform an axis of length
/// @p n: always for n = 1 (identity), the Lee/recursive DCT-II for
/// n in {2, 4, 8, 16, 32, 64, 128}, and the butterfly Haar for any power of
/// two.
bool fast_axis_supported(TransformKind kind, index_t n);

/// True when the factorized path is supported AND preferred over the dense
/// matrix apply for this axis length — what TransformImpl::kAuto uses.  A
/// fixed, host-independent heuristic: every supported DCT size, and Haar for
/// n = 1 or n >= 8 (very short Haar axes are dominated by butterfly level
/// overhead, so the dense path keeps them).
bool fast_axis_preferred(TransformKind kind, index_t n);

/// Dense matrix contraction of one axis of a row-major block viewed as
/// (outer, n, inner), out of place (@p src -> @p dst): forward contracts
/// with basis rows, inverse with basis columns.  @p matrix is the n x n
/// orthonormal basis.  This is TransformImpl::kDense's kernel.
void dense_transform_axis(const double* src, double* dst, const double* matrix,
                          index_t n, index_t outer, index_t inner,
                          bool forward);

/// In-place factorized transform along one axis of a row-major block viewed
/// as (outer, n, inner): each of the @p outer panels is an n x inner slab
/// whose n dimension is contracted with the orthonormal basis.  The butterfly
/// arithmetic runs elementwise across the inner dimension, so strided axes
/// vectorize as well as contiguous ones.
///
/// @p tmp must hold n * inner doubles and must not alias @p data.  Requires
/// fast_axis_supported(kind, n); call the dense matrix path otherwise.
void fast_transform_axis(TransformKind kind, double* data, double* tmp,
                         index_t n, index_t outer, index_t inner, bool forward);

/// The DCT arm of fast_transform_axis on its own: in-place factorized Lee
/// DCT along one axis.  Requires fast_axis_supported(kDCT, n) and n > 1.
/// This is the scalar implementation behind KernelTable::dct_axis; the SIMD
/// backends replace the panel kernels but must match it bit for bit.
void dct_fast_axis(double* data, double* tmp, index_t n, index_t outer,
                   index_t inner, bool forward);

/// Lee's secant factors for a supported DCT size @p m: the length-m/2 table
/// sec[p] = 1 / (2 cos(pi (2p+1) / (2m))).  Exposed so SIMD backends load
/// the *same* table memory as the scalar recursion instead of recomputing
/// values that libm could conceivably round differently.
const double* dct_secant_table(index_t m);

}  // namespace pyblaz::kernels
