#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/codec/bin_indices.hpp"
#include "core/codec/pruning.hpp"
#include "core/dtypes/float_type.hpp"
#include "core/dtypes/index_type.hpp"
#include "core/ndarray/ndarray.hpp"
#include "core/ndarray/shape.hpp"
#include "core/transform/transform.hpp"

namespace pyblaz {

namespace cache {
class BlockCache;
}  // namespace cache

namespace detail {
struct DecodeState;
}  // namespace detail

/// A compressed array (§III-B): the set {s, i, N, F} plus the information
/// required for decompression (float/index types, transform kind, pruning
/// mask P).
///
/// - `shape` (s): the original array shape.
/// - `block_shape` (i): the block shape used during compression.
/// - `biggest` (N): per block, the biggest-magnitude transform coefficient,
///   already rounded through `float_type` (it is *stored* in that type).
/// - `indices` (F): per block, the bin indices of the kept coefficients in
///   mask kept-offset order, each in [-r, r] for the index-type radius r.
///
/// The specified coefficient for kept slot j of block k decodes as
/// biggest[k] * indices[k * kept + j] / r (Algorithm 3); every
/// compressed-space operation works on these without inverse-transforming.
class CompressedArray {
 public:
  CompressedArray();
  ~CompressedArray();

  /// Copies and moves transfer the archive fields; the lazy decode state
  /// (transform matrices + decoded-block cache, see get() below) stays with
  /// the source on copy and moves with the array on move, so a copy can
  /// never observe another array's cached blocks.  Copying or copy-assigning
  /// an array with unflushed dirty cached blocks throws std::logic_error —
  /// the archive bytes don't reflect the writes yet (call flush_cache()).
  CompressedArray(const CompressedArray& other);
  CompressedArray& operator=(const CompressedArray& other);
  CompressedArray(CompressedArray&& other) noexcept;
  CompressedArray& operator=(CompressedArray&& other) noexcept;

  Shape shape;             ///< Original shape s.
  Shape block_shape;       ///< Block shape i.
  FloatType float_type = FloatType::kFloat32;
  IndexType index_type = IndexType::kInt8;
  TransformKind transform = TransformKind::kDCT;
  PruningMask mask;        ///< Kept-coefficient selection P.

  std::vector<double> biggest;  ///< N: one value per block.
  BinIndices indices;           ///< F: num_blocks() * kept_per_block(), stored
                                ///< at the index type's true width.

  /// Arrangement of blocks b = ceil(s ⊘ i).
  Shape block_grid() const { return Shape::ceil_div(shape, block_shape); }

  /// Number of blocks, prod(b).
  index_t num_blocks() const { return block_grid().volume(); }

  /// Kept coefficients per block, Σ P.
  index_t kept_per_block() const { return mask.kept_count(); }

  /// The binning radius used in arithmetic (arithmetic_radius of the index
  /// type: the nominal r = 2^(b-1) - 1 capped at 2^53 for int64).
  std::int64_t radius() const { return pyblaz::arithmetic_radius(index_type); }

  /// Position of the DC coefficient inside each block's kept slots, or -1 if
  /// the DC coefficient was pruned away.  Operations that read block means
  /// (mean, covariance, scalar addition, Wasserstein) need this to be 0.
  index_t dc_slot() const;

  /// True when @p other has identical shape, block shape, types, transform,
  /// and mask — the precondition for the binary compressed-space operations.
  bool layout_matches(const CompressedArray& other) const;

  /// Throws std::invalid_argument when layouts differ (used by binary ops).
  void require_layout_match(const CompressedArray& other) const;

  // --- Random access & the decoded-block cache (docs/PERF.md) -------------
  //
  // get()/set()/decompress_roi() decode only the touched blocks, through the
  // per-block path shared with Compressor (core/codec/block_access.hpp).
  // When CC_CACHE_BLOCKS (or cache::set_default_capacity) is nonzero, the
  // first random access attaches a bounded LRU cache of decoded blocks
  // (core/cache/block_cache.hpp) and repeated reads hit decoded data; when
  // zero (the default) every access decodes the block directly.  Cached and
  // direct reads are bit-identical at any capacity, thread count, or shard
  // count; both decode with the default (auto) transform implementation —
  // the same bits as a default-configured Compressor.

  /// One element, decoding (at most) its block.  @p indices must be inside
  /// shape (throws std::out_of_range otherwise).
  double get(const std::vector<index_t>& indices) const;

  /// Decode the half-open region [lo, hi) into an array of shape hi - lo,
  /// touching only the blocks the region intersects.  Requires
  /// 0 <= lo < hi <= shape elementwise (throws std::invalid_argument).
  NDArray<double> decompress_roi(const std::vector<index_t>& lo,
                                 const std::vector<index_t>& hi) const;

  /// Overwrite one element, rounding @p value through the float type.  With
  /// the cache enabled the write lands in the decoded block (marked dirty
  /// and pinned) and reaches the archive at flush_cache(); without it the
  /// block is decoded, modified, and re-encoded immediately.  Reads through
  /// this array see the write either way; the raw archive fields
  /// (biggest/indices) and serialize() only reflect it after flush_cache().
  void set(const std::vector<index_t>& indices, double value);

  /// Re-encode every dirty cached block into the archive (bit-identical to
  /// compressing the decoded data directly) and unpin them.  Returns the
  /// number of blocks written back.  No-op without a cache.
  index_t flush_cache();

  /// Drop all cached blocks, including dirty ones (their writes are lost),
  /// and the lazy decode state.  Also useful after mutating
  /// biggest/indices in place.
  void invalidate_cache() const;

  /// Cached / dirty-cached block counts (0 when no cache is attached).
  index_t cached_blocks() const;
  index_t dirty_cached_blocks() const;

  /// The precondition of every path that reads the raw archive fields
  /// (biggest/indices) without going through the cache: copies,
  /// serialization, Compressor::decompress, and every ops:: operation.
  /// Throws std::logic_error naming @p op when dirty cached blocks hold
  /// writes the archive fields don't reflect yet (call flush_cache()).
  void require_flushed(const char* op) const;

  /// The attached cache, or nullptr when disabled or not yet created.
  /// Exposed for tests and benchmarks.
  cache::BlockCache* block_cache() const;

 private:
  /// Lazily created decode state: cached transform matrices, block grid, and
  /// (when enabled) the decoded-block cache.  Not part of the logical value:
  /// copies don't share it, comparison and serialization ignore it.  Returns
  /// a shared_ptr so a concurrent invalidate_cache() can't free state that a
  /// running access still uses.
  std::shared_ptr<detail::DecodeState> decode_state() const;
  mutable std::atomic<std::shared_ptr<detail::DecodeState>> decode_state_{};
};

}  // namespace pyblaz
