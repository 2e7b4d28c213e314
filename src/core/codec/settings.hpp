#pragma once

#include <optional>
#include <string>

#include "core/codec/pruning.hpp"
#include "core/dtypes/float_type.hpp"
#include "core/dtypes/index_type.hpp"
#include "core/ndarray/shape.hpp"
#include "core/transform/transform.hpp"

namespace pyblaz {

/// Compression settings (§III).  Unlike error-bounded compressors (SZ), the
/// compression ratio is a function of these settings alone and is independent
/// of the data; the error, conversely, depends on how well the settings suit
/// the data.
struct CompressorSettings {
  /// Block shape i.  Every extent must be a power of two (§III-A); shapes
  /// need not be hypercubic.
  Shape block_shape;

  /// Floating-point storage type (input conversion + stored N).
  FloatType float_type = FloatType::kFloat32;

  /// Integer bin-index type (stored F).
  IndexType index_type = IndexType::kInt8;

  /// Orthonormal transform applied per block.
  TransformKind transform = TransformKind::kDCT;

  /// Transform implementation: kAuto dispatches to the factorized O(n log n)
  /// kernels where available, kDense forces the dense matrix apply.  A
  /// performance knob only — it does not affect the compressed format, and
  /// arrays produced by either implementation interoperate.  Which axes
  /// kAuto considers "available" is decided by kernels::fast_axis_preferred,
  /// a fixed host-independent heuristic.
  TransformImpl transform_impl = TransformImpl::kAuto;

  /// Pruning mask; std::nullopt means keep all coefficients.
  std::optional<PruningMask> mask;

  /// The mask actually in effect (resolves nullopt to keep-all).
  PruningMask effective_mask() const {
    return mask ? *mask : PruningMask::keep_all(block_shape);
  }

  /// Throws std::invalid_argument if the settings are malformed (empty or
  /// non-power-of-two block shape, mask shaped differently from the block).
  void validate() const;

  /// One-line human-readable description, e.g.
  /// "block (4, 4, 4), float32, int8, dct, kept 64/64".
  std::string describe() const;
};

}  // namespace pyblaz
