#pragma once

#include <cstdint>

#include "core/dtypes/float_type.hpp"
#include "core/ndarray/shape.hpp"
#include "core/util/bitstream.hpp"

namespace pyblaz::kernels {

/// Runtime-dispatched SIMD kernel backends.
///
/// The scalar kernels in rebin.hpp / fast_transform.cpp stay the single
/// source of truth for the arithmetic; each SIMD backend is a drop-in table
/// of function pointers that must reproduce the scalar results *bit for bit*
/// (docs/PERF.md, "SIMD backends", spells out the reduction-tree contract
/// that makes this possible).  The table is resolved exactly once, before
/// main() runs any codec work: by default the best backend the CPU supports,
/// overridable with CC_KERNEL_BACKEND=scalar|avx2 (an unrecognized or
/// unavailable value warns on stderr and falls back to scalar) or
/// programmatically with set_backend().  Hot paths hoist `const KernelTable&
/// t = active()` once per operation, so dispatch costs one atomic load per
/// block loop, not per element or per call.

enum class Backend : std::uint8_t { kScalar = 0, kAvx2 = 1 };

/// One entry of the 2-symbol Huffman decode LUT (see szx/huffman.hpp):
/// indexed by the next 8 stream bits, it resolves up to two complete codes
/// per probe.  nsyms == 0 means the first code is longer than 8 bits and the
/// caller must fall back to the bit-serial decoder for one symbol.
struct HuffmanLut2Entry {
  std::int32_t sym0 = -1;
  std::int32_t sym1 = -1;
  std::uint8_t len0 = 0;        ///< Bits of the first code (0 when nsyms == 0).
  std::uint8_t total_bits = 0;  ///< len0 + len1 when nsyms == 2.
  std::uint8_t nsyms = 0;
};

/// The LUT above is indexed by this many stream bits.  huffman.cpp
/// static_asserts its serial fast-path table uses the same width.
inline constexpr int kHuffmanLutBits = 8;

/// Per-bin-index-type kernel slots.  Signatures mirror the scalar templates
/// in rebin.hpp exactly; see there for semantics.
template <typename BinT>
struct BinKernels {
  void (*quantize_bins)(const double* c, BinT* bins, index_t count, double inv,
                        double r);
  void (*unbin_block)(const BinT* f, index_t count, double scale, double* c);
  void (*decode_lincomb)(const BinT* const* f, const double* s,
                         index_t num_operands, index_t count, double* c);
  /// Multi-output batched decode (see rebin.hpp decode_lincomb_multi): K
  /// flattened linear combinations over num_rows shared bin rows; decoded is
  /// caller scratch of at least num_rows * count doubles.
  void (*decode_lincomb_multi)(const BinT* const* rows, index_t num_rows,
                               const double* scales, const index_t* term_rows,
                               const index_t* offsets, index_t num_outputs,
                               index_t count, double* decoded,
                               double* const* out);
};

/// A complete kernel backend.  Every slot is non-null in every table; slots a
/// backend does not accelerate point at the scalar implementation (e.g. the
/// int64 bin type, whose 2^53 arithmetic radius exceeds what packed
/// double<->int32 conversion covers, stays scalar in the AVX2 table).
struct KernelTable {
  const char* name;

  /// max |c_j|, matching rebin.hpp max_abs bit for bit (NaNs are dropped the
  /// way std::max drops them; the reduction splits into independent lane
  /// accumulators, which is exact because max never rounds).
  double (*max_abs)(const double* c, index_t count);

  BinKernels<std::int8_t> i8;
  BinKernels<std::int16_t> i16;
  BinKernels<std::int32_t> i32;
  BinKernels<std::int64_t> i64;

  /// Dense one-axis transform, matching kernels::dense_transform_axis.
  void (*dense_transform_axis)(const double* src, double* dst,
                               const double* matrix, index_t n, index_t outer,
                               index_t inner, bool forward);

  /// Factorized Lee DCT over one axis, matching the DCT arm of
  /// kernels::fast_transform_axis (Haar stays scalar in every backend).
  /// @p n must satisfy fast_axis_supported(kDct, n).
  void (*dct_axis)(double* data, double* tmp, index_t n, index_t outer,
                   index_t inner, bool forward);

  /// Batched 2-symbol Huffman decode; see HuffmanCoder::decode_run.
  index_t (*huffman_decode_run)(const HuffmanLut2Entry* lut, BitReader& reader,
                                std::int32_t* out, index_t count,
                                std::int32_t stop_symbol);
};

/// Typed accessor so generic (BinT-templated) call sites can pick their slot
/// group without spelling the member name.
template <typename BinT>
const BinKernels<BinT>& bins(const KernelTable& table);
template <>
inline const BinKernels<std::int8_t>& bins(const KernelTable& t) {
  return t.i8;
}
template <>
inline const BinKernels<std::int16_t>& bins(const KernelTable& t) {
  return t.i16;
}
template <>
inline const BinKernels<std::int32_t>& bins(const KernelTable& t) {
  return t.i32;
}
template <>
inline const BinKernels<std::int64_t>& bins(const KernelTable& t) {
  return t.i64;
}

/// The active backend's table.  One relaxed atomic load; callers on hot
/// paths should hoist the reference once per operation.
const KernelTable& active();

/// The currently active backend.
Backend active_backend();

/// The backend the startup resolution (CC_KERNEL_BACKEND / cpuid) picked,
/// before any set_backend() overrides.  Exposed for dispatch tests.
Backend startup_backend();

/// Whether @p backend is both compiled into this binary and supported by the
/// running CPU.  kScalar is always available.
bool backend_available(Backend backend);

/// Switch the active table.  Returns false (and changes nothing) when the
/// backend is unavailable.  Not meant for concurrent use with in-flight codec
/// work; intended for startup configuration, tests, and benchmarks.
bool set_backend(Backend backend);

/// Display name ("scalar", "avx2").
const char* backend_name(Backend backend);

/// Parse a CC_KERNEL_BACKEND value.  Unrecognized values return kScalar and
/// set *bad.  Exposed for the dispatch-selection tests.
Backend parse_backend_name(const char* value, bool* bad);

/// rebin_block through a dispatch table: max_abs + quantize + bin, the same
/// composition as the scalar kernels::rebin_block in rebin.hpp.
template <typename BinT>
inline double rebin_block(const KernelTable& t, const double* c, index_t count,
                          double r, FloatType float_type, BinT* bins_out) {
  const double biggest = quantize(t.max_abs(c, count), float_type);
  if (biggest == 0.0) {
    for (index_t j = 0; j < count; ++j) bins_out[j] = BinT{0};
  } else {
    bins<BinT>(t).quantize_bins(c, bins_out, count, r / biggest, r);
  }
  return biggest;
}

}  // namespace pyblaz::kernels
