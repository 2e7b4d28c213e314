/// Fig. 3 reproduction: PyBlaz vs a ZFP-style fixed-rate codec, compression
/// and decompression times for 2-D and 3-D arrays.
///
/// Workload matches §IV-E: hypercubic arrays with elements 0..1 in a constant
/// gradient from the lowest to the highest indices.  zfpx rates 8/16/32 bits
/// per scalar give ratios ~8/4/2 against FP64; PyBlaz ratios ~8/4 come from
/// int8/int16 bin indices with FP32 block maxima (2-D blocks 8x8, 3-D blocks
/// 4x4x4).  Both codecs here are OpenMP block-parallel on the CPU (the paper
/// compared CUDA implementations), so compare shapes and ratios, not absolute
/// seconds.
///
/// Args: [max_size] (default 512).

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "core/codec/compressor.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/util/table.hpp"
#include "zfpx/zfpx.hpp"

using namespace pyblaz;  // NOLINT
using bench::best_of;

namespace {

void run_dimension(int dims, index_t max_size) {
  std::printf("---- %d-dimensional arrays ----\n", dims);
  Table table({"size", "zfp r8 comp", "zfp r4 comp", "zfp r2 comp",
               "pyblaz r8 comp", "pyblaz r4 comp", "zfp r8 dec", "zfp r4 dec",
               "zfp r2 dec", "pyblaz r8 dec", "pyblaz r4 dec"});

  const Shape block = dims == 2 ? Shape{8, 8} : Shape{4, 4, 4};
  Compressor pyblaz8({.block_shape = block,
                      .float_type = FloatType::kFloat32,
                      .index_type = IndexType::kInt8});
  Compressor pyblaz4({.block_shape = block,
                      .float_type = FloatType::kFloat32,
                      .index_type = IndexType::kInt16});
  zfpx::Codec zfp8(dims, 8.0), zfp4(dims, 16.0), zfp2(dims, 32.0);

  for (index_t size = 8; size <= max_size; size *= 2) {
    // 3-D arrays above 256^3 are large; cap per dimensionality.
    if (dims == 3 && size > std::min<index_t>(max_size, 256)) break;
    const Shape shape = dims == 2 ? Shape{size, size} : Shape{size, size, size};
    NDArray<double> array = gradient_array(shape);

    const auto z8 = zfp8.compress(array);
    const auto z4 = zfp4.compress(array);
    const auto z2 = zfp2.compress(array);
    CompressedArray p8 = pyblaz8.compress(array);
    CompressedArray p4 = pyblaz4.compress(array);

    table.add_row(
        {std::to_string(size),
         Table::sci(best_of(3, [&] { (void)zfp8.compress(array); })),
         Table::sci(best_of(3, [&] { (void)zfp4.compress(array); })),
         Table::sci(best_of(3, [&] { (void)zfp2.compress(array); })),
         Table::sci(best_of(3, [&] { (void)pyblaz8.compress(array); })),
         Table::sci(best_of(3, [&] { (void)pyblaz4.compress(array); })),
         Table::sci(best_of(3, [&] { (void)zfp8.decompress(z8, shape); })),
         Table::sci(best_of(3, [&] { (void)zfp4.decompress(z4, shape); })),
         Table::sci(best_of(3, [&] { (void)zfp2.decompress(z2, shape); })),
         Table::sci(best_of(3, [&] { (void)pyblaz8.decompress(p8); })),
         Table::sci(best_of(3, [&] { (void)pyblaz4.decompress(p4); }))});
  }
  std::printf("%s\n", table.to_text().c_str());
  table.write_csv(dims == 2 ? "bench_out_fig3_2d.csv" : "bench_out_fig3_3d.csv");
}

}  // namespace

int main(int argc, char** argv) {
  const index_t max_size = argc > 1 ? std::atoll(argv[1]) : 512;
  std::printf("Fig. 3: compression/decompression time vs a ZFP-style fixed-rate codec\n");
  std::printf("gradient arrays (0..1), seconds; both codecs OpenMP block-parallel\n\n");
  run_dimension(2, max_size);
  run_dimension(3, max_size);
  return 0;
}
