#include <algorithm>
#include <cmath>

#include "core/ops/ops.hpp"
#include "core/ops/ops_internal.hpp"
#include "core/parallel/thread_pool.hpp"

namespace pyblaz::ops {

double structural_similarity(const CompressedArray& a, const CompressedArray& b,
                             const SsimParams& params) {
  a.require_layout_match(b);
  internal::require_dc(a, "SSIM");

  const double mu_a = mean(a);
  const double mu_b = mean(b);
  const double var_a = variance(a);
  const double var_b = variance(b);
  const double sigma_a = std::sqrt(var_a);
  const double sigma_b = std::sqrt(var_b);
  const double sigma_ab = covariance(a, b);

  const double sl = params.luminance_stabilizer;
  const double sc = params.contrast_stabilizer;

  const double luminance =
      (2.0 * mu_a * mu_b + sl) / (mu_a * mu_a + mu_b * mu_b + sl);
  const double contrast =
      (2.0 * sigma_a * sigma_b + sc) / (var_a + var_b + sc);
  const double structure =
      (sigma_ab + sc / 2.0) / (sigma_a * sigma_b + sc / 2.0);

  return std::pow(luminance, params.luminance_weight) *
         std::pow(contrast, params.contrast_weight) *
         std::pow(structure, params.structure_weight);
}

NDArray<double> structural_similarity_map(const CompressedArray& a,
                                          const CompressedArray& b,
                                          const SsimParams& params) {
  a.require_layout_match(b);
  internal::require_dc(a, "SSIM map");
  a.require_flushed("SSIM map");
  b.require_flushed("SSIM map");

  const index_t num_blocks = a.num_blocks();
  const index_t kept = a.kept_per_block();
  const double r = static_cast<double>(a.radius());
  const double c = internal::dc_scale(a.block_shape);
  const double block_volume = static_cast<double>(a.block_shape.volume());
  const double sl = params.luminance_stabilizer;
  const double sc = params.contrast_stabilizer;

  // One fused parallel pass per block: means from the DC slot, the three
  // second moments in a single loop over the AC slots, and the SSIM combine
  // — no block-grid temporaries.  Each accumulator replicates the exact
  // expression and association order of blockwise_mean_vector /
  // blockwise_covariance, so the map is bit-identical to combining those
  // (the pre-fusion implementation, pinned by tests/test_block_cache.cpp).
  NDArray<double> out(a.block_grid());
  a.indices.visit([&](const auto* fa_data) {
    b.indices.visit([&](const auto* fb_data) {
      parallel::parallel_for(
          0, num_blocks, parallel::default_grain(num_blocks),
          [&](index_t begin, index_t end) {
            for (index_t kb = begin; kb < end; ++kb) {
              const std::size_t k = static_cast<std::size_t>(kb);
              const double s1 = a.biggest[k] / r;
              const double s2 = b.biggest[k] / r;
              const auto* fa = fa_data + kb * kept;
              const auto* fb = fb_data + kb * kept;
              const double dc_a =
                  a.biggest[k] * static_cast<double>(fa[0]) / r;
              const double dc_b =
                  b.biggest[k] * static_cast<double>(fb[0]) / r;
              const double ma = dc_a / c;
              const double mb = dc_b / c;
              double va = 0.0, vb = 0.0, cov = 0.0;
              for (index_t slot = 1; slot < kept; ++slot) {
                const double av = static_cast<double>(fa[slot]);
                const double bv = static_cast<double>(fb[slot]);
                va += s1 * av * s1 * av;
                vb += s2 * bv * s2 * bv;
                cov += s1 * av * s2 * bv;
              }
              va = std::max(va / block_volume, 0.0);
              vb = std::max(vb / block_volume, 0.0);
              cov /= block_volume;
              const double sa = std::sqrt(va);
              const double sb = std::sqrt(vb);
              const double luminance =
                  (2.0 * ma * mb + sl) / (ma * ma + mb * mb + sl);
              const double contrast = (2.0 * sa * sb + sc) / (va + vb + sc);
              const double structure =
                  (cov + sc / 2.0) / (sa * sb + sc / 2.0);
              out[kb] = std::pow(luminance, params.luminance_weight) *
                        std::pow(contrast, params.contrast_weight) *
                        std::pow(structure, params.structure_weight);
            }
          });
    });
  });
  return out;
}

}  // namespace pyblaz::ops
