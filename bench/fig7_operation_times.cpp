/// Fig. 7 reproduction: PyBlaz operation time for cubic 3-D arrays with
/// block size 4, across float types {bfloat16, float16, float32, float64}
/// and index types {int8, int16, int32}.
///
/// Operations timed: compress, decompress, negate, add, multiply (scalar),
/// dot, L2 norm, cosine similarity, mean, variance, SSIM.  Expected shape
/// (paper appendix VI-B): compress/decompress scale with array volume;
/// negate/multiply are trivially cheap; the scalar reductions scale with the
/// compressed size, far below (de)compression cost.
///
/// Args: [max_size] [--fused] (default 128).  One table per (ftype, itype)
/// setting.  --fused appends two columns timing the 3-operand expression
/// a + 0.5 b - 0.25 c both ways: `expr3` (the natural expression-template
/// syntax, which compiles to one fused lincomb — one pass, one terminal
/// rebin) and `chain3` (the chained add/multiply_scalar sequence), so the
/// figure can report both compressed-arithmetic paths.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "core/codec/compressor.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/expr.hpp"
#include "core/ops/ops.hpp"
#include "core/util/rng.hpp"
#include "core/util/table.hpp"

using namespace pyblaz;  // NOLINT
using bench::best_of;

int main(int argc, char** argv) {
  bool fused = false;
  index_t max_size = 128;
  for (int k = 1; k < argc; ++k) {
    if (std::string_view(argv[k]) == "--fused") {
      fused = true;
    } else {
      max_size = std::atoll(argv[k]);
    }
  }

  std::printf("Fig. 7: PyBlaz operation times (seconds), cubic 3-D arrays,\n");
  std::printf("block 4x4x4, OpenMP CPU execution%s\n\n",
              fused ? " (+ fused lincomb columns)" : "");

  std::vector<std::string> columns = {"size", "compress", "decompress", "negate",
                                      "add", "multiply", "dot", "l2", "cosine",
                                      "mean", "variance", "ssim"};
  if (fused) {
    columns.push_back("expr3");
    columns.push_back("chain3");
  }
  std::vector<std::string> csv_columns = columns;
  csv_columns.insert(csv_columns.begin(), {"ftype", "itype"});
  Table csv(csv_columns);

  for (FloatType ftype : kAllFloatTypes) {
    for (IndexType itype : {IndexType::kInt8, IndexType::kInt16, IndexType::kInt32}) {
      Compressor compressor({.block_shape = Shape{4, 4, 4},
                             .float_type = ftype,
                             .index_type = itype});
      Table table(columns);

      for (index_t size = 8; size <= max_size; size *= 2) {
        Rng rng(17);
        NDArray<double> x = random_smooth(Shape{size, size, size}, rng, 4);
        NDArray<double> y = random_smooth(Shape{size, size, size}, rng, 4);
        CompressedArray a = compressor.compress(x);
        CompressedArray b = compressor.compress(y);

        const double t_comp = best_of(3, [&] { (void)compressor.compress(x); });
        const double t_dec = best_of(3, [&] { (void)compressor.decompress(a); });
        const double t_neg = best_of(3, [&] { (void)ops::negate(a); });
        const double t_add = best_of(3, [&] { (void)ops::add(a, b); });
        const double t_mul = best_of(3, [&] { (void)ops::multiply_scalar(a, 2.0); });
        const double t_dot = best_of(3, [&] { (void)ops::dot(a, b); });
        const double t_l2 = best_of(3, [&] { (void)ops::l2_norm(a); });
        const double t_cos = best_of(3, [&] { (void)ops::cosine_similarity(a, b); });
        const double t_mean = best_of(3, [&] { (void)ops::mean(a); });
        const double t_var = best_of(3, [&] { (void)ops::variance(a); });
        const double t_ssim =
            best_of(3, [&] { (void)ops::structural_similarity(a, b); });

        std::vector<std::string> row = {std::to_string(size), Table::sci(t_comp, 2),
                                        Table::sci(t_dec, 2), Table::sci(t_neg, 2),
                                        Table::sci(t_add, 2), Table::sci(t_mul, 2),
                                        Table::sci(t_dot, 2), Table::sci(t_l2, 2),
                                        Table::sci(t_cos, 2), Table::sci(t_mean, 2),
                                        Table::sci(t_var, 2), Table::sci(t_ssim, 2)};
        if (fused) {
          // The same 3-operand expression both ways: the natural syntax
          // (one fused pass with a single terminal rebin) vs the chained
          // per-op sequence.
          CompressedArray c = ops::negate(a);
          const double t_fused = best_of(3, [&] {
            (void)CompressedArray(a + 0.5 * b - 0.25 * c);
          });
          const double t_chain = best_of(3, [&] {
            (void)ops::add(ops::add(a, ops::multiply_scalar(b, 0.5)),
                           ops::multiply_scalar(c, -0.25));
          });
          row.push_back(Table::sci(t_fused, 2));
          row.push_back(Table::sci(t_chain, 2));
        }
        table.add_row(row);
        std::vector<std::string> csv_row = row;
        csv_row.insert(csv_row.begin(), {name(ftype), name(itype)});
        csv.add_row(csv_row);
      }
      std::printf("---- %s, %s ----\n%s\n", name(ftype).c_str(),
                  name(itype).c_str(), table.to_text().c_str());
    }
  }
  csv.write_csv("bench_out_fig7.csv");
  std::printf("CSV written to bench_out_fig7.csv\n");
  return 0;
}
