#include <algorithm>
#include <cmath>

#include "core/ops/ops.hpp"
#include "core/ops/ops_internal.hpp"

namespace pyblaz::ops {

namespace {

/// Algorithm 12's combine: l^wl * c^wc * s^ws from the two means, the two
/// variances and the covariance.
double ssim_score(double mu_a, double mu_b, double var_a, double var_b,
                  double cov, const SsimParams& params) {
  const double sl = params.luminance_stabilizer;
  const double sc = params.contrast_stabilizer;
  const double sigma_a = std::sqrt(var_a);
  const double sigma_b = std::sqrt(var_b);
  const double luminance =
      (2.0 * mu_a * mu_b + sl) / (mu_a * mu_a + mu_b * mu_b + sl);
  const double contrast =
      (2.0 * sigma_a * sigma_b + sc) / (var_a + var_b + sc);
  const double structure = (cov + sc / 2.0) / (sigma_a * sigma_b + sc / 2.0);
  return std::pow(luminance, params.luminance_weight) *
         std::pow(contrast, params.contrast_weight) *
         std::pow(structure, params.structure_weight);
}

}  // namespace

double structural_similarity(const CompressedArray& a, const CompressedArray& b,
                             const SsimParams& params) {
  // One centered pass gives the means (as mean() computes them), both
  // variances and the covariance (as variance() and covariance() do).
  const internal::Moments m = internal::moments(
      a, b, internal::Products::kAll, /*center_dc=*/true, "SSIM");
  const double num_blocks = static_cast<double>(a.num_blocks());
  const double c = internal::dc_scale(a.block_shape);
  const double volume = internal::padded_volume(a);
  return ssim_score(m.dc_a / num_blocks / c, m.dc_b / num_blocks / c,
                    m.aa / volume, m.bb / volume, m.ab / volume, params);
}

NDArray<double> structural_similarity_map(const CompressedArray& a,
                                          const CompressedArray& b,
                                          const SsimParams& params) {
  a.require_layout_match(b);
  internal::require_dc(a, "SSIM map");
  a.require_flushed("SSIM map");
  b.require_flushed("SSIM map");

  const index_t kept = a.kept_per_block();
  const double r = static_cast<double>(a.radius());
  const double c = internal::dc_scale(a.block_shape);
  const double block_volume = static_cast<double>(a.block_shape.volume());

  // One fused parallel pass per block: means from the DC slot, the three
  // second moments in a single loop over the AC slots, and the SSIM combine
  // — no block-grid temporaries.  Each accumulator replicates the exact
  // expression and association order of blockwise_mean_vector /
  // blockwise_covariance, so the map is bit-identical to combining those
  // (the pre-fusion implementation, pinned by tests/test_block_cache.cpp).
  NDArray<double> out(a.block_grid());
  internal::for_each_block(a, b, [&](index_t kb, const auto* fa,
                                     const auto* fb) {
    const std::size_t k = static_cast<std::size_t>(kb);
    const double s1 = a.biggest[k] / r;
    const double s2 = b.biggest[k] / r;
    const double ma = a.biggest[k] * static_cast<double>(fa[0]) / r / c;
    const double mb = b.biggest[k] * static_cast<double>(fb[0]) / r / c;
    double va = 0.0, vb = 0.0, cov = 0.0;
    for (index_t slot = 1; slot < kept; ++slot) {
      const double av = static_cast<double>(fa[slot]);
      const double bv = static_cast<double>(fb[slot]);
      va += s1 * av * s1 * av;
      vb += s2 * bv * s2 * bv;
      cov += s1 * av * s2 * bv;
    }
    out[kb] = ssim_score(ma, mb, std::max(va / block_volume, 0.0),
                         std::max(vb / block_volume, 0.0), cov / block_volume,
                         params);
  });
  return out;
}

}  // namespace pyblaz::ops
