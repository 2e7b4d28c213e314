/// Fig. 2 reproduction: PyBlaz vs Blaz operation time.
///
/// Settings match the paper: 2-dimensional square arrays, float64 storage,
/// int8 bin indices, 8x8 blocks; operations are compress, decompress, add,
/// and multiply (by a scalar).  The paper's PyBlaz runs on a GPU — ours runs
/// OpenMP block-parallel on the CPU — so the absolute numbers differ, but the
/// expected *shape* holds: PyBlaz's parallel time stays nearly flat until the
/// threads saturate and then grows polynomially, while the single-threaded
/// Blaz grows polynomially from the start; PyBlaz wins by a growing factor at
/// large sizes, and the compressed-space operations (add, multiply) are far
/// cheaper than (de)compression for both.
///
/// Args: [max_size] (default 2048).

#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "blaz/blaz.hpp"
#include "core/codec/compressor.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/ops.hpp"
#include "core/util/rng.hpp"
#include "core/util/table.hpp"

using namespace pyblaz;  // NOLINT
using bench::best_of;

int main(int argc, char** argv) {
  const index_t max_size = argc > 1 ? std::atoll(argv[1]) : 2048;

  Compressor compressor({.block_shape = Shape{8, 8},
                         .float_type = FloatType::kFloat64,
                         .index_type = IndexType::kInt8});

  Table table({"size", "pyblaz comp", "pyblaz decomp", "pyblaz add",
               "pyblaz mult", "blaz comp", "blaz decomp", "blaz add",
               "blaz mult"});

  std::printf("Fig. 2: PyBlaz (OpenMP) vs Blaz (single thread) operation time, seconds\n");
  std::printf("2-D square arrays, float64, int8, 8x8 blocks\n\n");

  for (index_t size = 8; size <= max_size; size *= 2) {
    Rng rng(13);
    NDArray<double> x = random_smooth(Shape{size, size}, rng, 6);
    NDArray<double> y = random_smooth(Shape{size, size}, rng, 6);

    // PyBlaz.
    CompressedArray cx = compressor.compress(x);
    CompressedArray cy = compressor.compress(y);
    const double p_comp = best_of(3, [&] { (void)compressor.compress(x); });
    const double p_decomp = best_of(3, [&] { (void)compressor.decompress(cx); });
    const double p_add = best_of(3, [&] { (void)ops::add(cx, cy); });
    const double p_mult =
        best_of(3, [&] { (void)ops::multiply_scalar(cx, 1.5); });

    // Blaz.
    blaz::CompressedMatrix bx = blaz::compress(x);
    blaz::CompressedMatrix by = blaz::compress(y);
    const double b_comp = best_of(3, [&] { (void)blaz::compress(x); });
    const double b_decomp = best_of(3, [&] { (void)blaz::decompress(bx); });
    const double b_add = best_of(3, [&] { (void)blaz::add(bx, by); });
    const double b_mult =
        best_of(3, [&] { (void)blaz::multiply_scalar(bx, 1.5); });

    table.add_row({std::to_string(size), Table::sci(p_comp), Table::sci(p_decomp),
                   Table::sci(p_add), Table::sci(p_mult), Table::sci(b_comp),
                   Table::sci(b_decomp), Table::sci(b_add), Table::sci(b_mult)});
  }

  std::printf("%s\n", table.to_text().c_str());
  table.write_csv("bench_out_fig2.csv");
  std::printf("CSV written to bench_out_fig2.csv\n");
  return 0;
}
