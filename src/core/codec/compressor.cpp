#include "core/codec/compressor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/codec/block_access.hpp"
#include "core/kernels/backend.hpp"
#include "core/kernels/rebin.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/telemetry/telemetry.hpp"
#include "core/telemetry/trace.hpp"

namespace pyblaz {

namespace {

/// Blocks per parallel chunk for the fused block pipelines.  Small enough to
/// load-balance ragged grids, large enough to amortize the per-chunk
/// workspace (one BlockCursor + two block buffers).  A fixed constant so the
/// chunking — and with it every result — is independent of the thread count.
constexpr index_t kCodecGrain = 4;

/// Compressed payload bytes of an array with @p num_blocks blocks: the N row
/// plus the kept bin indices (the quantity serialization stores per chunk).
std::uint64_t payload_bytes(const CompressedArray& array) {
  const std::uint64_t payload_bits =
      static_cast<std::uint64_t>(array.num_blocks()) *
      (static_cast<std::uint64_t>(bits(array.float_type)) +
       static_cast<std::uint64_t>(bits(array.index_type)) *
           static_cast<std::uint64_t>(array.kept_per_block()));
  return (payload_bits + 7) / 8;
}

}  // namespace

Compressor::Compressor(CompressorSettings settings)
    : settings_(std::move(settings)) {
  settings_.validate();
  mask_ = settings_.effective_mask();
  transform_ = std::make_shared<BlockTransform>(
      settings_.transform, settings_.block_shape, settings_.transform_impl);
}

CompressedArray Compressor::compress(const NDArray<double>& array,
                                     CompressionDiagnostics* diagnostics) const {
  if (array.shape().ndim() != settings_.block_shape.ndim())
    throw std::invalid_argument(
        "Compressor: array dimensionality " +
        std::to_string(array.shape().ndim()) + " does not match block shape " +
        settings_.block_shape.to_string());

  // Telemetry observes only: counters/histogram/spans never influence
  // chunking or arithmetic, so compressed bytes are unchanged by them.
  static telemetry::Counter& calls = telemetry::counter("codec.compress.calls");
  static telemetry::Counter& input_bytes =
      telemetry::counter("codec.compress.input_bytes");
  static telemetry::Counter& output_bytes =
      telemetry::counter("codec.compress.output_bytes");
  static telemetry::Histogram& wall =
      telemetry::histogram("codec.compress.wall_ns");
  calls.increment();
  input_bytes.add(static_cast<std::uint64_t>(array.shape().volume()) *
                  sizeof(double));
  telemetry::ScopedLatency latency(wall);
  telemetry::TraceSpan span("codec.compress");

  const Shape grid = Shape::ceil_div(array.shape(), settings_.block_shape);
  const index_t num_blocks = grid.volume();
  const index_t block_volume = settings_.block_shape.volume();
  const index_t kept = mask_.kept_count();
  const auto& kept_offsets = mask_.kept_offsets();
  const double r = static_cast<double>(arithmetic_radius(settings_.index_type));
  const FloatType ftype = settings_.float_type;

  CompressedArray out;
  out.shape = array.shape();
  out.block_shape = settings_.block_shape;
  out.float_type = ftype;
  out.index_type = settings_.index_type;
  out.transform = settings_.transform;
  out.mask = mask_;
  out.biggest.resize(static_cast<std::size_t>(num_blocks));
  out.indices = BinIndices(settings_.index_type,
                           static_cast<std::size_t>(num_blocks * kept));

  if (diagnostics) {
    diagnostics->binning_l2.assign(static_cast<std::size_t>(num_blocks), 0.0);
    diagnostics->pruning_l2.assign(static_cast<std::size_t>(num_blocks), 0.0);
    diagnostics->pruning_linf.assign(static_cast<std::size_t>(num_blocks), 0.0);
    diagnostics->pruning_l1.assign(static_cast<std::size_t>(num_blocks), 0.0);
  }

  // Backend dispatch resolved once per compress call; chunks then call
  // through plain function pointers (gather/scatter stay scalar — they are
  // memcpy + rounding, not worth a per-ISA kernel).
  const kernels::KernelTable& table = kernels::active();

  out.indices.visit_mutable([&](auto* bins_data) {
    parallel::parallel_for(0, num_blocks, kCodecGrain, [&](index_t chunk_begin,
                                                           index_t chunk_end) {
      blockio::BlockCursor cursor(array.shape(), settings_.block_shape, grid);
      std::vector<double> coeffs(static_cast<std::size_t>(block_volume));
      std::vector<double> scratch(static_cast<std::size_t>(block_volume));
      for (index_t kb = chunk_begin; kb < chunk_end; ++kb) {
        // Steps 1+2 (§III-A a, b): gather the block, rounding values through
        // the storage float type in the same pass (elementwise, so
        // quantize-then-block and block-then-quantize agree).
        {
          telemetry::TraceSpan stage("codec.stage.gather_quantize");
          cursor.gather(array.data(), kb, coeffs.data(), ftype);
        }

        // Steps 3-5 (§III-A c-e): orthonormal transform, then binning +
        // pruning, through the per-block path shared with the decoded-block
        // cache and random-access API (core/codec/block_access.hpp).
        auto* bins = bins_data + kb * kept;
        using BinT = std::remove_reference_t<decltype(bins[0])>;
        const double biggest = blockio::encode_transform_rebin<BinT>(
            table, *transform_, coeffs.data(), scratch.data(), block_volume,
            kept, kept_offsets.data(), r, ftype, bins);
        out.biggest[static_cast<std::size_t>(kb)] = biggest;

        if (diagnostics) {
          double binning_sq = 0.0, pruning_sq = 0.0, pruning_linf = 0.0,
                 pruning_l1 = 0.0;
          index_t slot = 0;
          for (index_t j = 0; j < block_volume; ++j) {
            const double c = coeffs[static_cast<std::size_t>(j)];
            if (slot < kept && kept_offsets[static_cast<std::size_t>(slot)] == j) {
              const double decoded =
                  biggest == 0.0
                      ? 0.0
                      : biggest * static_cast<double>(bins[slot]) / r;
              const double err = c - decoded;
              binning_sq += err * err;
              ++slot;
            } else {
              pruning_sq += c * c;
              pruning_linf = std::max(pruning_linf, std::fabs(c));
              pruning_l1 += std::fabs(c);
            }
          }
          diagnostics->binning_l2[static_cast<std::size_t>(kb)] = std::sqrt(binning_sq);
          diagnostics->pruning_l2[static_cast<std::size_t>(kb)] = std::sqrt(pruning_sq);
          diagnostics->pruning_linf[static_cast<std::size_t>(kb)] = pruning_linf;
          diagnostics->pruning_l1[static_cast<std::size_t>(kb)] = pruning_l1;
        }
      }
    });
  });
  output_bytes.add(payload_bytes(out));
  return out;
}

NDArray<double> Compressor::decompress(const CompressedArray& array) const {
  if (array.block_shape != settings_.block_shape ||
      array.transform != settings_.transform)
    throw std::invalid_argument(
        "Compressor::decompress: array was compressed with different settings");
  array.require_flushed("Compressor::decompress");

  static telemetry::Counter& calls =
      telemetry::counter("codec.decompress.calls");
  static telemetry::Counter& input_bytes =
      telemetry::counter("codec.decompress.input_bytes");
  static telemetry::Counter& output_bytes =
      telemetry::counter("codec.decompress.output_bytes");
  static telemetry::Histogram& wall =
      telemetry::histogram("codec.decompress.wall_ns");
  calls.increment();
  input_bytes.add(payload_bytes(array));
  output_bytes.add(static_cast<std::uint64_t>(array.shape.volume()) *
                   sizeof(double));
  telemetry::ScopedLatency latency(wall);
  telemetry::TraceSpan span("codec.decompress");

  const Shape grid = array.block_grid();
  const index_t num_blocks = grid.volume();
  const index_t block_volume = array.block_shape.volume();
  const index_t kept = array.kept_per_block();
  const auto& kept_offsets = array.mask.kept_offsets();
  const double r = static_cast<double>(array.radius());
  const FloatType ftype = settings_.float_type;

  NDArray<double> out(array.shape);

  const kernels::KernelTable& table = kernels::active();

  array.indices.visit([&](const auto* bins_data) {
    parallel::parallel_for(0, num_blocks, kCodecGrain, [&](index_t chunk_begin,
                                                           index_t chunk_end) {
      blockio::BlockCursor cursor(array.shape, array.block_shape, grid);
      std::vector<double> coeffs(static_cast<std::size_t>(block_volume));
      std::vector<double> scratch(static_cast<std::size_t>(block_volume));
      for (index_t kb = chunk_begin; kb < chunk_end; ++kb) {
        // Unflatten F with zeros in the pruned slots (§III-B), scaling back
        // to specified coefficients (Algorithm 3), then inverse-transform —
        // the per-block path shared with the decoded-block cache.
        const double scale = array.biggest[static_cast<std::size_t>(kb)] / r;
        const auto* bins = bins_data + kb * kept;
        using BinT = std::remove_cvref_t<decltype(bins[0])>;
        blockio::decode_unbin_itransform<BinT>(
            table, *transform_, bins, block_volume, kept, kept_offsets.data(),
            scale, coeffs.data(), scratch.data());
        // The reconstruction lives in the storage float type; the rounding is
        // fused into the scatter so cropped padding is never converted.
        telemetry::TraceSpan stage("codec.stage.scatter");
        cursor.scatter(out.data(), kb, coeffs.data(), ftype);
      }
    });
  });
  return out;
}

}  // namespace pyblaz
