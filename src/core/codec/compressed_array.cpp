#include "core/codec/compressed_array.hpp"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cache/block_cache.hpp"
#include "core/codec/block_access.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/telemetry/telemetry.hpp"
#include "core/telemetry/trace.hpp"
#include "core/transform/block_transform.hpp"

namespace pyblaz {

namespace detail {

/// Everything random access needs that is derivable from the archive fields
/// but expensive to rebuild per call: the block grid, the transform matrices
/// (built with TransformImpl::kAuto — the default Compressor configuration,
/// so random-access bits match a default compressor's decompress), and, when
/// enabled, the decoded-block cache.
struct DecodeState {
  Shape grid;
  BlockTransform transform;
  std::unique_ptr<cache::BlockCache> block_cache;

  DecodeState(const CompressedArray& array, index_t capacity_blocks)
      : grid(array.block_grid()),
        transform(array.transform, array.block_shape) {
    if (capacity_blocks > 0)
      block_cache = std::make_unique<cache::BlockCache>(
          capacity_blocks, array.block_shape.volume());
  }
};

}  // namespace detail

namespace {

/// Decode block @p kb with a local cursor/scratch workspace.  The cache fill
/// path uses this: fills run outside the shard locks, possibly from several
/// threads at once, so the workspace cannot be shared.
void decode_block_standalone(const CompressedArray& array,
                             const detail::DecodeState& state, index_t kb,
                             double* out) {
  blockio::BlockCursor cursor(array.shape, array.block_shape, state.grid);
  std::vector<double> scratch(
      static_cast<std::size_t>(array.block_shape.volume()));
  blockio::decode_block(array, state.transform, cursor, kb, out,
                        scratch.data());
}

/// Flat block index and row-major in-block offset of an element.
void locate(const CompressedArray& array, const Shape& grid,
            const std::vector<index_t>& indices, index_t* kb,
            index_t* offset_in_block) {
  const int d = array.shape.ndim();
  if (static_cast<int>(indices.size()) != d)
    throw std::out_of_range("CompressedArray: index dimensionality " +
                            std::to_string(indices.size()) +
                            " does not match shape " + array.shape.to_string());
  index_t block = 0, offset = 0;
  for (int axis = 0; axis < d; ++axis) {
    const index_t idx = indices[static_cast<std::size_t>(axis)];
    if (idx < 0 || idx >= array.shape[axis])
      throw std::out_of_range("CompressedArray: index " + std::to_string(idx) +
                              " out of range for axis " + std::to_string(axis) +
                              " of shape " + array.shape.to_string());
    block = block * grid[axis] + idx / array.block_shape[axis];
    offset = offset * array.block_shape[axis] + idx % array.block_shape[axis];
  }
  *kb = block;
  *offset_in_block = offset;
}

}  // namespace

CompressedArray::CompressedArray() = default;
CompressedArray::~CompressedArray() = default;

CompressedArray::CompressedArray(const CompressedArray& other)
    : shape(other.shape),
      block_shape(other.block_shape),
      float_type(other.float_type),
      index_type(other.index_type),
      transform(other.transform),
      mask(other.mask),
      biggest(other.biggest),
      indices(other.indices) {
  other.require_flushed("CompressedArray copy");
}

CompressedArray& CompressedArray::operator=(const CompressedArray& other) {
  if (this == &other) return *this;
  other.require_flushed("CompressedArray copy-assignment");
  shape = other.shape;
  block_shape = other.block_shape;
  float_type = other.float_type;
  index_type = other.index_type;
  transform = other.transform;
  mask = other.mask;
  biggest = other.biggest;
  indices = other.indices;
  decode_state_.store(nullptr, std::memory_order_release);
  return *this;
}

CompressedArray::CompressedArray(CompressedArray&& other) noexcept
    : shape(std::move(other.shape)),
      block_shape(std::move(other.block_shape)),
      float_type(other.float_type),
      index_type(other.index_type),
      transform(other.transform),
      mask(std::move(other.mask)),
      biggest(std::move(other.biggest)),
      indices(std::move(other.indices)) {
  decode_state_.store(other.decode_state_.exchange(nullptr),
                      std::memory_order_release);
}

CompressedArray& CompressedArray::operator=(CompressedArray&& other) noexcept {
  if (this == &other) return *this;
  shape = std::move(other.shape);
  block_shape = std::move(other.block_shape);
  float_type = other.float_type;
  index_type = other.index_type;
  transform = other.transform;
  mask = std::move(other.mask);
  biggest = std::move(other.biggest);
  indices = std::move(other.indices);
  decode_state_.store(other.decode_state_.exchange(nullptr),
                      std::memory_order_release);
  return *this;
}

index_t CompressedArray::dc_slot() const {
  const auto& offsets = mask.kept_offsets();
  if (!offsets.empty() && offsets[0] == 0) return 0;
  return -1;
}

bool CompressedArray::layout_matches(const CompressedArray& other) const {
  return shape == other.shape && block_shape == other.block_shape &&
         float_type == other.float_type && index_type == other.index_type &&
         transform == other.transform && mask == other.mask;
}

void CompressedArray::require_layout_match(const CompressedArray& other) const {
  if (!layout_matches(other))
    throw std::invalid_argument(
        "compressed-space binary operation requires operands compressed with "
        "identical settings and shapes");
}

std::shared_ptr<detail::DecodeState> CompressedArray::decode_state() const {
  auto state = decode_state_.load(std::memory_order_acquire);
  if (!state) {
    auto fresh = std::make_shared<detail::DecodeState>(
        *this, cache::default_capacity_blocks());
    std::shared_ptr<detail::DecodeState> expected;
    if (decode_state_.compare_exchange_strong(expected, fresh,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
      state = std::move(fresh);
    } else {
      // Another thread won the race; both built identical state.
      state = std::move(expected);
    }
  }
  return state;
}

double CompressedArray::get(const std::vector<index_t>& indices_in) const {
  auto state = decode_state();
  index_t kb = 0, offset = 0;
  locate(*this, state->grid, indices_in, &kb, &offset);
  if (state->block_cache) {
    auto ref = state->block_cache->fetch(kb, [&](double* buffer) {
      decode_block_standalone(*this, *state, kb, buffer);
    });
    return ref[offset];
  }
  std::vector<double> block(static_cast<std::size_t>(block_shape.volume()));
  decode_block_standalone(*this, *state, kb, block.data());
  return block[static_cast<std::size_t>(offset)];
}

NDArray<double> CompressedArray::decompress_roi(
    const std::vector<index_t>& lo, const std::vector<index_t>& hi) const {
  const int d = shape.ndim();
  if (static_cast<int>(lo.size()) != d || static_cast<int>(hi.size()) != d)
    throw std::invalid_argument(
        "decompress_roi: lo/hi dimensionality does not match shape " +
        shape.to_string());
  for (int axis = 0; axis < d; ++axis) {
    const index_t l = lo[static_cast<std::size_t>(axis)];
    const index_t h = hi[static_cast<std::size_t>(axis)];
    if (l < 0 || l >= h || h > shape[axis])
      throw std::invalid_argument(
          "decompress_roi: region [" + std::to_string(l) + ", " +
          std::to_string(h) + ") is invalid for axis " + std::to_string(axis) +
          " of shape " + shape.to_string());
  }

  static telemetry::Counter& calls = telemetry::counter("codec.roi.calls");
  static telemetry::Counter& blocks_touched =
      telemetry::counter("codec.roi.blocks_touched");
  calls.increment();
  telemetry::TraceSpan span("codec.decompress_roi");

  auto state = decode_state();

  // The touched sub-grid of blocks.
  std::vector<index_t> bk_lo(static_cast<std::size_t>(d));
  std::vector<index_t> bk_n(static_cast<std::size_t>(d));
  std::vector<index_t> out_dims(static_cast<std::size_t>(d));
  for (int axis = 0; axis < d; ++axis) {
    const std::size_t a = static_cast<std::size_t>(axis);
    bk_lo[a] = lo[a] / block_shape[axis];
    bk_n[a] = (hi[a] - 1) / block_shape[axis] + 1 - bk_lo[a];
    out_dims[a] = hi[a] - lo[a];
  }
  const Shape touched_grid(bk_n);
  const index_t touched = touched_grid.volume();
  blocks_touched.add(static_cast<std::uint64_t>(touched));

  Shape out_shape(out_dims);
  NDArray<double> out(std::move(out_shape));
  const std::vector<index_t> out_strides = out.shape().strides();
  const index_t block_volume = block_shape.volume();

  // Blocks write disjoint regions of the output, and the chunking is a pure
  // function of (touched, grain), so results are bit-identical at any thread
  // or shard count.
  parallel::parallel_for(
      0, touched, parallel::default_grain(touched),
      [&](index_t begin, index_t end) {
        blockio::BlockCursor cursor(shape, block_shape, state->grid);
        std::vector<double> block(static_cast<std::size_t>(block_volume));
        std::vector<double> scratch(static_cast<std::size_t>(block_volume));
        std::vector<index_t> tb(static_cast<std::size_t>(d));
        for (index_t t = begin; t < end; ++t) {
          blockio::decompose(touched_grid, t, tb.data());
          index_t kb = 0;
          for (int axis = 0; axis < d; ++axis)
            kb = kb * state->grid[axis] +
                 bk_lo[static_cast<std::size_t>(axis)] +
                 tb[static_cast<std::size_t>(axis)];
          if (state->block_cache) {
            auto ref = state->block_cache->fetch(kb, [&](double* buffer) {
              decode_block_standalone(*this, *state, kb, buffer);
            });
            cursor.copy_to_roi(ref.data(), kb, lo.data(), hi.data(),
                               out.data(), out_strides);
          } else {
            blockio::decode_block(*this, state->transform, cursor, kb,
                                  block.data(), scratch.data());
            cursor.copy_to_roi(block.data(), kb, lo.data(), hi.data(),
                               out.data(), out_strides);
          }
        }
      });
  return out;
}

void CompressedArray::set(const std::vector<index_t>& indices_in,
                          double value) {
  auto state = decode_state();
  index_t kb = 0, offset = 0;
  locate(*this, state->grid, indices_in, &kb, &offset);
  // The write lands in the storage float domain, exactly as a compress of
  // modified decoded data would round it.
  const double rounded = quantize(value, float_type);
  if (state->block_cache) {
    state->block_cache->write(
        kb,
        [&](double* buffer) {
          decode_block_standalone(*this, *state, kb, buffer);
        },
        [&](double* buffer) {
          buffer[static_cast<std::size_t>(offset)] = rounded;
        });
    return;
  }
  // No cache: decode -> modify -> re-encode the one block immediately.  This
  // is the same sequence a cache write followed by flush_cache() performs,
  // so single-write-per-block workloads are bit-identical either way.
  const index_t block_volume = block_shape.volume();
  blockio::BlockCursor cursor(shape, block_shape, state->grid);
  std::vector<double> block(static_cast<std::size_t>(block_volume));
  std::vector<double> coeffs(static_cast<std::size_t>(block_volume));
  std::vector<double> scratch(static_cast<std::size_t>(block_volume));
  blockio::decode_block(*this, state->transform, cursor, kb, block.data(),
                        scratch.data());
  block[static_cast<std::size_t>(offset)] = rounded;
  blockio::encode_block(*this, state->transform, kb, block.data(),
                        coeffs.data(), scratch.data());
}

index_t CompressedArray::flush_cache() {
  auto state = decode_state_.load(std::memory_order_acquire);
  if (!state || !state->block_cache) return 0;
  const index_t block_volume = block_shape.volume();
  std::vector<double> coeffs(static_cast<std::size_t>(block_volume));
  std::vector<double> scratch(static_cast<std::size_t>(block_volume));
  return state->block_cache->flush([&](index_t kb, const double* block) {
    blockio::encode_block(*this, state->transform, kb, block, coeffs.data(),
                          scratch.data());
  });
}

void CompressedArray::invalidate_cache() const {
  decode_state_.store(nullptr, std::memory_order_release);
}

index_t CompressedArray::cached_blocks() const {
  auto state = decode_state_.load(std::memory_order_acquire);
  return state && state->block_cache ? state->block_cache->resident_blocks()
                                     : 0;
}

index_t CompressedArray::dirty_cached_blocks() const {
  auto state = decode_state_.load(std::memory_order_acquire);
  return state && state->block_cache ? state->block_cache->dirty_blocks() : 0;
}

void CompressedArray::require_flushed(const char* op) const {
  if (dirty_cached_blocks() > 0)
    throw std::logic_error(std::string(op) +
                           ": compressed array has unflushed dirty cached "
                           "blocks; call flush_cache() first");
}

cache::BlockCache* CompressedArray::block_cache() const {
  auto state = decode_state_.load(std::memory_order_acquire);
  return state ? state->block_cache.get() : nullptr;
}

}  // namespace pyblaz
