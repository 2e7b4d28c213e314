/// Every ops:: entry point against an operand whose decoded-block cache holds
/// an unflushed set().  The ops read the raw archive fields (biggest /
/// indices), which only reflect a cached write after flush_cache(), so each
/// call must either return exactly the bits of the cache-off run (where set()
/// re-encodes immediately) or throw std::logic_error — never silently compute
/// on the pre-write archive.  Checked with the dirty operand in every
/// position, at cache capacity 0 and 64, and again after flush_cache().

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cache/block_cache.hpp"
#include "core/codec/compressor.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/ops.hpp"
#include "core/util/rng.hpp"

namespace pyblaz {
namespace {

/// A result flattened to bit patterns, so comparison is bit identity.
using Bits = std::vector<std::uint64_t>;

void append(Bits& out, double value) {
  out.push_back(std::bit_cast<std::uint64_t>(value));
}
void append(Bits& out, const std::vector<double>& values) {
  for (double v : values) append(out, v);
}
void append(Bits& out, const NDArray<double>& array) {
  for (index_t k = 0; k < array.size(); ++k) append(out, array[k]);
}
void append(Bits& out, const CompressedArray& array) {
  append(out, array.biggest);
  for (std::size_t k = 0; k < array.indices.size(); ++k)
    out.push_back(static_cast<std::uint64_t>(array.indices.get(k)));
}
template <typename T>
Bits bits(const T& value) {
  Bits out;
  append(out, value);
  return out;
}

using Op = std::function<Bits(const CompressedArray& x, const CompressedArray& y)>;

struct OpCase {
  std::string name;
  Op run;  ///< Unary ops read only x.
};

std::vector<OpCase> all_ops(const NDArray<double>& raw) {
  return {
      {"specified_coefficients",
       [](auto& x, auto&) { return bits(ops::specified_coefficients(x)); }},
      {"specified_coefficients_into",
       [](auto& x, auto&) {
         std::vector<double> out(
             static_cast<std::size_t>(x.num_blocks() * x.kept_per_block()));
         ops::specified_coefficients_into(x, out);
         return bits(out);
       }},
      {"negate", [](auto& x, auto&) { return bits(ops::negate(x)); }},
      {"add", [](auto& x, auto& y) { return bits(ops::add(x, y)); }},
      {"subtract", [](auto& x, auto& y) { return bits(ops::subtract(x, y)); }},
      {"add_scalar",
       [](auto& x, auto&) { return bits(ops::add_scalar(x, 0.5)); }},
      {"multiply_scalar",
       [](auto& x, auto&) { return bits(ops::multiply_scalar(x, -1.5)); }},
      {"dot", [](auto& x, auto& y) { return bits(ops::dot(x, y)); }},
      {"mean", [](auto& x, auto&) { return bits(ops::mean(x)); }},
      {"covariance",
       [](auto& x, auto& y) { return bits(ops::covariance(x, y)); }},
      {"variance", [](auto& x, auto&) { return bits(ops::variance(x)); }},
      {"standard_deviation",
       [](auto& x, auto&) { return bits(ops::standard_deviation(x)); }},
      {"l2_norm", [](auto& x, auto&) { return bits(ops::l2_norm(x)); }},
      {"cosine_similarity",
       [](auto& x, auto& y) { return bits(ops::cosine_similarity(x, y)); }},
      {"structural_similarity",
       [](auto& x, auto& y) { return bits(ops::structural_similarity(x, y)); }},
      {"structural_similarity_map",
       [](auto& x, auto& y) {
         return bits(ops::structural_similarity_map(x, y));
       }},
      {"wasserstein_distance",
       [](auto& x, auto& y) {
         return bits(ops::wasserstein_distance(x, y, 2.0));
       }},
      {"blockwise_mean",
       [](auto& x, auto&) { return bits(ops::blockwise_mean(x)); }},
      {"blockwise_variance",
       [](auto& x, auto&) { return bits(ops::blockwise_variance(x)); }},
      {"blockwise_standard_deviation",
       [](auto& x, auto&) {
         return bits(ops::blockwise_standard_deviation(x));
       }},
      {"blockwise_covariance",
       [](auto& x, auto& y) { return bits(ops::blockwise_covariance(x, y)); }},
      {"sum", [](auto& x, auto&) { return bits(ops::sum(x)); }},
      {"mean_unpadded",
       [](auto& x, auto&) { return bits(ops::mean_unpadded(x)); }},
      {"covariance_unpadded",
       [](auto& x, auto& y) { return bits(ops::covariance_unpadded(x, y)); }},
      {"variance_unpadded",
       [](auto& x, auto&) { return bits(ops::variance_unpadded(x)); }},
      {"lincomb",
       [](auto& x, auto& y) {
         const std::vector<const CompressedArray*> operands = {&x, &y};
         const std::vector<double> weights = {0.75, -1.25};
         return bits(ops::lincomb(operands, weights, 0.125));
       }},
      {"lincomb_terms",
       [](auto& x, auto& y) {
         return bits(ops::lincomb({{2.0, &x}, {1.0, &y}, {-0.5, &x}}));
       }},
      {"lincomb_batch",
       [](auto& x, auto& y) {
         const std::vector<const CompressedArray*> both = {&x, &y};
         const std::vector<const CompressedArray*> second = {&y};
         const std::vector<double> w2 = {1.0, 0.5};
         const std::vector<double> w1 = {3.0};
         const std::vector<ops::LincombRequest> requests = {
             {both, w2, 0.0}, {second, w1, 0.0}};
         Bits out;
         for (const CompressedArray& result : ops::lincomb_batch(requests))
           append(out, result);
         return out;
       }},
      {"linear_combination",
       [](auto& x, auto& y) {
         return bits(ops::linear_combination(0.5, x, 2.0, y));
       }},
      {"mean_squared_error",
       [](auto& x, auto& y) { return bits(ops::mean_squared_error(x, y)); }},
      {"psnr", [](auto& x, auto& y) { return bits(ops::psnr(x, y)); }},
      {"pearson_correlation",
       [](auto& x, auto& y) { return bits(ops::pearson_correlation(x, y)); }},
      {"blockwise_l2_norm",
       [](auto& x, auto&) { return bits(ops::blockwise_l2_norm(x)); }},
      {"mixed_domain_dot",
       [&raw](auto& x, auto&) { return bits(ops::dot(x, raw)); }},
  };
}

/// Restores the process-wide default capacity (the cache env leg sets one).
struct CapacityGuard {
  index_t saved = cache::default_capacity_blocks();
  ~CapacityGuard() { cache::set_default_capacity(saved); }
};

TEST(OpsDirtyOperand, EveryOpSeesTheWriteOrThrowsLogicError) {
  CapacityGuard guard;
  const Shape shape{24, 16};
  Compressor compressor({.block_shape = Shape{8, 8}});
  Rng rng(71);
  const NDArray<double> raw = random_smooth(shape, rng);
  const CompressedArray pristine = compressor.compress(random_smooth(shape, rng));
  const CompressedArray other = compressor.compress(random_smooth(shape, rng));
  const std::vector<index_t> where = {3, 3};
  const double value = 100.0;
  const std::vector<OpCase> cases = all_ops(raw);

  // The cache-off reference: set() re-encodes the block immediately.
  cache::set_default_capacity(0);
  CompressedArray written = pristine;
  written.set(where, value);

  for (index_t capacity : {index_t{0}, index_t{64}}) {
    cache::set_default_capacity(capacity);
    CompressedArray dirty = pristine;
    dirty.set(where, value);
    if (capacity > 0) ASSERT_GT(dirty.dirty_cached_blocks(), 0);

    for (const OpCase& op : cases) {
      for (bool dirty_first : {true, false}) {
        const std::string label = op.name + " capacity " +
                                  std::to_string(capacity) +
                                  (dirty_first ? " dirty first" : " dirty second");
        const Bits want = dirty_first ? op.run(written, other)
                                      : op.run(other, written);
        try {
          const Bits got =
              dirty_first ? op.run(dirty, other) : op.run(other, dirty);
          EXPECT_EQ(got, want) << label << ": result differs from cache-off";
        } catch (const std::logic_error&) {
          // Only an unflushed write may be refused; at capacity 0 there is
          // none, so the op must compute.
          EXPECT_GT(capacity, 0) << label << ": threw without dirty blocks";
        }
      }
    }

    // Once flushed, the archive fields carry the write: every op computes
    // the cache-off bits.
    dirty.flush_cache();
    for (const OpCase& op : cases) {
      EXPECT_EQ(op.run(dirty, other), op.run(written, other))
          << op.name << " capacity " << capacity << " after flush";
      EXPECT_EQ(op.run(other, dirty), op.run(other, written))
          << op.name << " capacity " << capacity << " after flush";
    }
  }
}

}  // namespace
}  // namespace pyblaz
