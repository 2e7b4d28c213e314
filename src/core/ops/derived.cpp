#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/codec/block_access.hpp"
#include "core/codec/workspace.hpp"
#include "core/ops/ops.hpp"
#include "core/ops/ops_internal.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/transform/block_transform.hpp"

namespace pyblaz::ops {

double mean_squared_error(const CompressedArray& a, const CompressedArray& b) {
  // ‖A - B‖² = <A,A> - 2<A,B> + <B,B>, evaluated from the inner products
  // directly so identical operands cancel exactly.
  const internal::Moments m = internal::moments(
      a, b, internal::Products::kAll, /*center_dc=*/false,
      "mean_squared_error");
  const double squared = m.aa - 2.0 * m.ab + m.bb;
  // Guard tiny negative residue from floating-point cancellation.
  return std::max(squared, 0.0) / static_cast<double>(a.shape.volume());
}

double psnr(const CompressedArray& a, const CompressedArray& b, double peak) {
  const double mse = mean_squared_error(a, b);
  if (mse == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(peak * peak / mse);
}

double pearson_correlation(const CompressedArray& a, const CompressedArray& b) {
  internal::require_dc(a, "pearson_correlation");
  // covariance_unpadded(a, b) / sqrt(variance_unpadded(a) *
  // variance_unpadded(b)), with the three dot products from one pass.
  const internal::Moments m = internal::moments(
      a, b, internal::Products::kAll, /*center_dc=*/false,
      "pearson_correlation");
  const double n = static_cast<double>(a.shape.volume());
  const double mu_a = mean_unpadded(a);
  const double mu_b = mean_unpadded(b);
  const double cov = m.ab / n - mu_a * mu_b;
  const double sigma =
      std::sqrt((m.aa / n - mu_a * mu_a) * (m.bb / n - mu_b * mu_b));
  return cov / sigma;
}

NDArray<double> blockwise_l2_norm(const CompressedArray& a) {
  a.require_flushed("blockwise_l2_norm");
  const index_t kept = a.kept_per_block();
  const double r = static_cast<double>(a.radius());
  NDArray<double> out(a.block_grid());
  internal::for_each_block(a, [&](index_t kb, const auto* f) {
    const double scale = a.biggest[static_cast<std::size_t>(kb)] / r;
    double squares = 0.0;
    for (index_t slot = 0; slot < kept; ++slot) {
      const double c = scale * static_cast<double>(f[slot]);
      squares += c * c;
    }
    out[kb] = std::sqrt(squares);
  });
  return out;
}

double dot(const CompressedArray& a, const NDArray<double>& y,
           TransformImpl impl) {
  if (y.shape() != a.shape)
    throw std::invalid_argument("mixed-domain dot: shape mismatch");
  a.require_flushed("mixed-domain dot");

  // Transform y's blocks on the fly and contract with A's specified
  // coefficients: <A, y> = <Ĉ_A, Ĉ_y> by orthonormality.  Blocks are gathered
  // through the compressor's BlockCursor (float64: an exact, zero-padded
  // copy); the per-block cost matches one forward transform of y.
  BlockTransform transform(a.transform, a.block_shape, impl);
  const index_t num_blocks = a.num_blocks();
  const index_t kept = a.kept_per_block();
  const index_t block_volume = a.block_shape.volume();
  const auto& kept_offsets = a.mask.kept_offsets();
  const double r = static_cast<double>(a.radius());
  const Shape grid = a.block_grid();

  // Per-block work is a full forward transform, so chunks are small; the
  // ordered reduce keeps the sum bit-identical at any thread count.
  double total = 0.0;
  a.indices.visit([&](const auto* fdata) {
    total = parallel::parallel_reduce(
        index_t{0}, num_blocks, index_t{4}, 0.0,
        [&](index_t chunk_begin, index_t chunk_end, double acc) {
          // Gather and transform scratch from the per-thread workspace (two
          // live rows, hence two lanes; holding them across
          // transform.forward is fine — the transform layer is
          // workspace-free by contract).
          double* block = pyblaz::internal::coefficient_workspace(
              static_cast<std::size_t>(block_volume), 0);
          double* scratch = pyblaz::internal::coefficient_workspace(
              static_cast<std::size_t>(block_volume), 1);
          blockio::BlockCursor cursor(y.shape(), a.block_shape, grid);
          for (index_t kb = chunk_begin; kb < chunk_end; ++kb) {
            cursor.gather(y.data(), kb, block, FloatType::kFloat64);
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
