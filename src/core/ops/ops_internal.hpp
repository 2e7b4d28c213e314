#pragma once

#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/codec/compressed_array.hpp"
#include "core/ops/ops.hpp"

namespace pyblaz::ops::internal {

/// Throws unless the DC (first) coefficient survives pruning; operations on
/// block means cannot work without it.
inline void require_dc(const CompressedArray& a, const char* operation) {
  if (a.dc_slot() != 0)
    throw std::invalid_argument(std::string(operation) +
                                " requires the first (DC) coefficient to be "
                                "kept by the pruning mask");
}

/// sqrt(prod(i)): the factor c relating a block's mean to its DC coefficient.
inline double dc_scale(const Shape& block_shape) {
  return std::sqrt(static_cast<double>(block_shape.volume()));
}

/// The blockwise means A' of Algorithm 13: DC coefficients / sqrt(prod(i)).
std::vector<double> blockwise_mean_vector(const CompressedArray& a);

/// Validated, deduplicated view of a set of lincomb requests: the distinct
/// operand set plus every request's term list flattened into (row index,
/// weight) arrays with prefix offsets — the layout
/// kernels::decode_lincomb_multi consumes.  distinct[0] is the first
/// request's first operand, whose layout every operand matches.
struct LincombPlan {
  std::vector<const CompressedArray*> distinct;
  std::vector<index_t> term_rows;    ///< distinct[] index per term.
  std::vector<double> term_weights;  ///< weight per term.
  std::vector<index_t> offsets;      ///< requests.size() + 1 prefix offsets.
  std::vector<double> bias_shifts;   ///< DC shift per request.
};

/// Validate @p requests (non-empty, at least one operand each, matching
/// layouts, flushed operands, DC kept for a nonzero bias) and plan them.
/// Error messages start with @p op.
LincombPlan plan_lincombs(std::span<const LincombRequest> requests,
                          const char* op);

/// The one blocked lincomb pass behind ops::lincomb and ops::lincomb_batch:
/// results[k] is request k, each finished by its own terminal rebin.
std::vector<CompressedArray> evaluate_lincombs(const LincombPlan& plan);

}  // namespace pyblaz::ops::internal
