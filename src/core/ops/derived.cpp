#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/codec/workspace.hpp"
#include "core/kernels/rebin.hpp"
#include "core/ops/ops.hpp"
#include "core/ops/ops_internal.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/transform/block_transform.hpp"

namespace pyblaz::ops {

double mean_squared_error(const CompressedArray& a, const CompressedArray& b) {
  a.require_layout_match(b);
  // ‖A - B‖² = <A,A> - 2<A,B> + <B,B>, evaluated from the inner products
  // directly so identical operands cancel exactly.
  const double squared = dot(a, a) - 2.0 * dot(a, b) + dot(b, b);
  // Guard tiny negative residue from floating-point cancellation.
  return std::max(squared, 0.0) / static_cast<double>(a.shape.volume());
}

double psnr(const CompressedArray& a, const CompressedArray& b, double peak) {
  const double mse = mean_squared_error(a, b);
  if (mse == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(peak * peak / mse);
}

double pearson_correlation(const CompressedArray& a, const CompressedArray& b) {
  const double cov = covariance_unpadded(a, b);
  const double sigma = std::sqrt(variance_unpadded(a) * variance_unpadded(b));
  return cov / sigma;
}

NDArray<double> blockwise_l2_norm(const CompressedArray& a) {
  a.require_flushed("blockwise_l2_norm");
  const index_t num_blocks = a.num_blocks();
  const index_t kept = a.kept_per_block();
  const double r = static_cast<double>(a.radius());
  NDArray<double> out(a.block_grid());
  a.indices.visit([&](const auto* fdata) {
    parallel::parallel_for(
        0, num_blocks, parallel::default_grain(num_blocks),
        [&](index_t begin, index_t end) {
          for (index_t kb = begin; kb < end; ++kb) {
            const double scale = a.biggest[static_cast<std::size_t>(kb)] / r;
            const auto* f = fdata + kb * kept;
            double squares = 0.0;
            for (index_t slot = 0; slot < kept; ++slot) {
              const double c = scale * static_cast<double>(f[slot]);
              squares += c * c;
            }
            out[kb] = std::sqrt(squares);
          }
        });
  });
  return out;
}

double dot(const CompressedArray& a, const NDArray<double>& y,
           TransformImpl impl) {
  if (y.shape() != a.shape)
    throw std::invalid_argument("mixed-domain dot: shape mismatch");
  a.require_flushed("mixed-domain dot");

  // Transform y's blocks on the fly and contract with A's specified
  // coefficients: <A, y> = <Ĉ_A, Ĉ_y> by orthonormality.  Reuses the
  // compressor's gather path via block_array for clarity; the per-block cost
  // matches one forward transform of y.
  BlockTransform transform(a.transform, a.block_shape, impl);
  const index_t num_blocks = a.num_blocks();
  const index_t kept = a.kept_per_block();
  const index_t block_volume = a.block_shape.volume();
  const auto& kept_offsets = a.mask.kept_offsets();
  const double r = static_cast<double>(a.radius());
  const Shape grid = a.block_grid();
  const std::vector<index_t> strides = y.shape().strides();
  const int d = y.shape().ndim();

  // Per-block work is a full forward transform, so chunks are small; the
  // ordered reduce keeps the sum bit-identical at any thread count.
  double total = 0.0;
  a.indices.visit([&](const auto* fdata) {
    total = parallel::parallel_reduce(
        index_t{0}, num_blocks, index_t{4}, 0.0,
        [&](index_t chunk_begin, index_t chunk_end, double acc) {
      // Gather and transform scratch from the per-thread workspace (two live
      // rows, hence two lanes; holding them across transform.forward is fine
      // — the transform layer is workspace-free by contract) instead of a
      // fresh allocation per chunk.
      double* block = pyblaz::internal::coefficient_workspace(
          static_cast<std::size_t>(block_volume), 0);
      double* scratch = pyblaz::internal::coefficient_workspace(
          static_cast<std::size_t>(block_volume), 1);
      index_t coords_stack[16];
      std::vector<index_t> coords_heap;
      index_t* block_coords = coords_stack;
      if (d > 16) {
        coords_heap.resize(static_cast<std::size_t>(d));
        block_coords = coords_heap.data();
      }
      for (index_t kb = chunk_begin; kb < chunk_end; ++kb) {
        // Gather block kb of y with zero padding.
        {
          index_t rem = kb;
          for (int axis = d - 1; axis >= 0; --axis) {
            block_coords[static_cast<std::size_t>(axis)] = rem % grid[axis];
            rem /= grid[axis];
          }
        }
        for (index_t j = 0; j < block_volume; ++j) {
          index_t rem = j;
          index_t src = 0;
          bool inside = true;
          for (int axis = d - 1; axis >= 0; --axis) {
            const index_t c = rem % a.block_shape[axis];
            rem /= a.block_shape[axis];
            const index_t coord =
                block_coords[static_cast<std::size_t>(axis)] * a.block_shape[axis] + c;
            if (coord >= y.shape()[axis]) {
              inside = false;
              break;
            }
            src += coord * strides[static_cast<std::size_t>(axis)];
          }
          block[static_cast<std::size_t>(j)] = inside ? y[src] : 0.0;
        }

        transform.forward(block, scratch);

        const double scale = a.biggest[static_cast<std::size_t>(kb)] / r;
        const auto* f = fdata + kb * kept;
        double partial = 0.0;
        for (index_t slot = 0; slot < kept; ++slot) {
          partial += scale * static_cast<double>(f[slot]) *
                     block[static_cast<std::size_t>(
                         kept_offsets[static_cast<std::size_t>(slot)])];
        }
        acc += partial;
      }
          return acc;
        },
        [](double u, double v) { return u + v; });
  });
  return total;
}

}  // namespace pyblaz::ops
