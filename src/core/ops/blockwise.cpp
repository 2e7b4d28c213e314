#include <cmath>

#include "core/ops/ops.hpp"
#include "core/ops/ops_internal.hpp"
#include "core/parallel/thread_pool.hpp"

namespace pyblaz::ops {

NDArray<double> blockwise_mean(const CompressedArray& a) {
  std::vector<double> means = internal::blockwise_mean_vector(a);
  return NDArray<double>(a.block_grid(), std::move(means));
}

NDArray<double> blockwise_covariance(const CompressedArray& a,
                                     const CompressedArray& b) {
  a.require_layout_match(b);
  internal::require_dc(a, "blockwise covariance");
  a.require_flushed("blockwise covariance");
  b.require_flushed("blockwise covariance");
  const index_t num_blocks = a.num_blocks();
  const index_t kept = a.kept_per_block();
  const double r = static_cast<double>(a.radius());
  const double block_volume = static_cast<double>(a.block_shape.volume());

  NDArray<double> out(a.block_grid());
  // Centering one block's data subtracts that block's own mean, which zeroes
  // its DC coefficient, so the blockwise covariance is the mean product of
  // the non-DC coefficients (§IV-A 7).
  a.indices.visit([&](const auto* f1_data) {
    b.indices.visit([&](const auto* f2_data) {
      parallel::parallel_for(
          0, num_blocks, parallel::default_grain(num_blocks),
          [&](index_t begin, index_t end) {
            for (index_t kb = begin; kb < end; ++kb) {
              const double s1 = a.biggest[static_cast<std::size_t>(kb)] / r;
              const double s2 = b.biggest[static_cast<std::size_t>(kb)] / r;
              const auto* f1 = f1_data + kb * kept;
              const auto* f2 = f2_data + kb * kept;
              double total = 0.0;
              for (index_t slot = 1; slot < kept; ++slot) {
                total += s1 * static_cast<double>(f1[slot]) * s2 *
                         static_cast<double>(f2[slot]);
              }
              out[kb] = total / block_volume;
            }
          });
    });
  });
  return out;
}

NDArray<double> blockwise_variance(const CompressedArray& a) {
  return blockwise_covariance(a, a);
}

NDArray<double> blockwise_standard_deviation(const CompressedArray& a) {
  NDArray<double> out = blockwise_variance(a);
  out.map_inplace([](double v) { return std::sqrt(v); });
  return out;
}

}  // namespace pyblaz::ops
