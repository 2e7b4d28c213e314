#pragma once

#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/codec/compressed_array.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"

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

/// prod(ceil(s ⊘ i)) * prod(i): the element count of the padded array, the
/// denominator of the paper's covariance (Algorithm 8).
inline double padded_volume(const CompressedArray& a) {
  return static_cast<double>(a.num_blocks() * a.block_shape.volume());
}

/// Calls body(kb, fa) for every block kb in parallel, with fa pointing at
/// the typed bins of block kb of @p a.
template <typename Body>
void for_each_block(const CompressedArray& a, Body&& body) {
  const index_t num_blocks = a.num_blocks();
  const index_t kept = a.kept_per_block();
  a.indices.visit([&](const auto* fa) {
    parallel::parallel_for(0, num_blocks, parallel::default_grain(num_blocks),
                           [&](index_t begin, index_t end) {
                             for (index_t kb = begin; kb < end; ++kb)
                               body(kb, fa + kb * kept);
                           });
  });
}

/// The same over two operands of one layout: body(kb, fa, fb).
template <typename Body>
void for_each_block(const CompressedArray& a, const CompressedArray& b,
                    Body&& body) {
  const index_t kept = a.kept_per_block();
  b.indices.visit([&](const auto* fb) {
    for_each_block(a, [&](index_t kb, const auto* fa) {
      body(kb, fa, fb + kb * kept);
    });
  });
}

/// The products a moments pass accumulates: Σ Ĉa⊙Ĉb, Σ Ĉa⊙Ĉa, or all three
/// of Σ Ĉa⊙Ĉb, Σ Ĉa⊙Ĉa and Σ Ĉb⊙Ĉb.  kAA reads only the first operand.
enum class Products { kAB, kAA, kAll };

/// What moments() returns: the products it was asked for (others stay 0)
/// and, from a centered pass, the DC totals Σ N_k F_k[0] / r.
struct Moments {
  double ab = 0.0, aa = 0.0, bb = 0.0;
  double dc_a = 0.0, dc_b = 0.0;
  /// Adds the products only: a pass sets the DC totals once, after summing.
  Moments& operator+=(const Moments& o) {
    ab += o.ab;
    aa += o.aa;
    bb += o.bb;
    return *this;
  }
};

/// The one pass behind every scalar reduction: the @p wanted products of the
/// specified coefficients over the kept slots of every block.  With
/// @p center_dc (which requires the DC coefficient) each block's DC
/// coefficient is first shifted by its operand's mean DC, from one DC pass
/// per distinct operand.  Each product keeps its own per-block partial and
/// an ordered per-chunk combine, so every value is bit-identical at any
/// thread count and to a pass computing it alone.  Checks layouts, the DC
/// coefficient and flushed operands before any pass; errors start with @p op.
Moments moments(const CompressedArray& a, const CompressedArray& b,
                Products wanted, bool center_dc, const char* op);

/// The blockwise means A' of Algorithm 13: DC coefficients / sqrt(prod(i)).
std::vector<double> blockwise_mean_vector(const CompressedArray& a);

/// Validated, deduplicated view of a set of lincomb requests: the distinct
/// operand set plus every request's term list flattened into (row index,
/// weight) arrays with prefix offsets — the layout
/// kernels::decode_lincomb_multi consumes.  Operands that feed more than one
/// term come first, distinct[0, num_staged): the kernel stages exactly those
/// rows.  Every operand has the same layout.
struct LincombPlan {
  std::vector<const CompressedArray*> distinct;
  index_t num_staged = 0;            ///< Leading distinct[] fed >1 term.
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
