/// JSON-emitting micro-benchmark harness for the codec kernel layer: times
/// the block transform (factorized fast path vs dense matrix oracle), the
/// shared rebin/unbin kernels, end-to-end compress/decompress,
/// compressed-space add, the fused n-ary lincomb vs the chained per-op
/// sequence it replaces, and the expression-template front end vs the
/// handwritten lincomb call it compiles to (expected ~zero overhead), per
/// block shape, plus every compiled-in SIMD backend against the scalar
/// kernels (the backends[] JSON series).
///
/// Usage: bench_micro_kernels [OUTPUT.json]
///
/// Writes BENCH_kernels.local.json (gitignored; pass a path to write
/// elsewhere, e.g. when refreshing the committed BENCH_kernels.json
/// baseline) and prints one line per entry plus every ratio the entries
/// imply (fast over dense, fused over chained, expr over fused, scalar over
/// SIMD, v3 over v2, thread scaling) and the checksum pass's own rate,
/// warning on stderr when a claimed ratio or rate falls outside its bound.
/// Compare two runs with tools/bench_compare.py; docs/PERF.md explains the
/// schema.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "blaz/blaz.hpp"
#include "core/codec/compressor.hpp"
#include "core/codec/serialization.hpp"
#include "core/kernels/backend.hpp"
#include "core/kernels/fast_transform.hpp"
#include "core/kernels/rebin.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/expr.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/transform/block_transform.hpp"
#include "core/util/rng.hpp"
#include "zfpx/zfpx.hpp"

namespace {

using namespace pyblaz;  // NOLINT

using bench::Report;

/// Times `op` into the results[] series, the one the regression gate reads.
void run(Report& report, const std::string& name, const std::string& kind,
         const std::string& impl, const Shape& shape, index_t elements,
         const std::function<void()>& op) {
  report.time("results",
              {{"name", name},
               {"kind", kind},
               {"impl", impl},
               {"shape", bench::shape_string(shape)},
               {"elements_per_call", elements}},
              op);
}

void bench_transforms(Report& report) {
  const Shape kShapes[] = {Shape{4, 4},    Shape{8, 8},    Shape{16, 16},
                           Shape{32, 32},  Shape{4, 4, 4}, Shape{8, 8, 8},
                           Shape{16, 16, 16}};
  const TransformKind kKinds[] = {TransformKind::kDCT, TransformKind::kHaar};
  for (TransformKind kind : kKinds) {
    for (const Shape& shape : kShapes) {
      // Shapes where kAuto dispatches every axis to the dense path anyway
      // (short Haar axes) would time dense against itself and record a
      // vacuous ~1.0x "speedup" — skip the kAuto run there.
      bool any_fast_axis = false;
      for (int axis = 0; axis < shape.ndim(); ++axis)
        any_fast_axis |= shape[axis] > 1 &&
                         kernels::fast_axis_preferred(kind, shape[axis]);
      for (TransformImpl impl : {TransformImpl::kAuto, TransformImpl::kDense}) {
        if (impl == TransformImpl::kAuto && !any_fast_axis) continue;
        BlockTransform transform(kind, shape, impl);
        Rng rng(1);
        NDArray<double> block = random_normal(shape, rng);
        std::vector<double> data = block.vector();
        std::vector<double> scratch(static_cast<std::size_t>(block.size()));
        const char* impl_name = impl == TransformImpl::kAuto ? "fast" : "dense";
        const index_t volume = shape.volume();
        // Orthonormal transforms preserve norms, so repeatedly transforming
        // in place neither overflows nor decays: no per-call reset needed.
        run(report, "transform_forward", name(kind), impl_name, shape, volume,
                    [&] { transform.forward(data.data(), scratch.data()); });
        run(report, "transform_inverse", name(kind), impl_name, shape, volume,
                    [&] { transform.inverse(data.data(), scratch.data()); });
      }
    }
  }
}

void bench_rebin(Report& report) {
  const index_t kept = 512;
  const index_t num_blocks = 1024;
  Rng rng(2);
  NDArray<double> noise =
      random_normal(Shape{num_blocks * kept}, rng, 0.0, 2.0);
  const std::vector<double>& coeffs = noise.vector();
  std::vector<std::int8_t> bins(static_cast<std::size_t>(num_blocks * kept));
  std::vector<double> biggest(static_cast<std::size_t>(num_blocks));
  std::vector<double> decoded(static_cast<std::size_t>(num_blocks * kept));
  const double r = 127.0;
  const Shape row_shape{num_blocks, kept};

  run(report, "rebin_block", "", "", row_shape, num_blocks * kept, [&] {
    for (index_t kb = 0; kb < num_blocks; ++kb)
      biggest[static_cast<std::size_t>(kb)] = kernels::rebin_block(
          coeffs.data() + kb * kept, kept, r, FloatType::kFloat32,
          bins.data() + kb * kept);
  });
  run(report, "unbin_block", "", "", row_shape, num_blocks * kept, [&] {
    for (index_t kb = 0; kb < num_blocks; ++kb)
      kernels::unbin_block(bins.data() + kb * kept, kept,
                           biggest[static_cast<std::size_t>(kb)] / r,
                           decoded.data() + kb * kept);
  });
}

CompressorSettings codec_settings(const Shape& block, TransformImpl impl) {
  CompressorSettings settings;
  settings.block_shape = block;
  settings.float_type = FloatType::kFloat32;
  settings.index_type = IndexType::kInt8;
  settings.transform = TransformKind::kDCT;
  settings.transform_impl = impl;
  return settings;
}

void bench_codec(Report& report) {
  struct CodecCase {
    Shape array_shape;
    Shape block_shape;
  };
  const CodecCase kCases[] = {
      {Shape{256, 256}, Shape{8, 8}},
      {Shape{64, 64, 64}, Shape{8, 8, 8}},
  };
  for (const auto& c : kCases) {
    Rng rng(3);
    NDArray<double> array = random_smooth(c.array_shape, rng, 6);
    const index_t volume = c.array_shape.volume();
    for (TransformImpl impl : {TransformImpl::kAuto, TransformImpl::kDense}) {
      Compressor compressor(codec_settings(c.block_shape, impl));
      const char* impl_name = impl == TransformImpl::kAuto ? "fast" : "dense";
      CompressedArray compressed = compressor.compress(array);
      run(report, "compress", "dct", impl_name, c.array_shape, volume,
                  [&] { compressed = compressor.compress(array); });
      NDArray<double> decompressed = compressor.decompress(compressed);
      run(report, "decompress", "dct", impl_name, c.array_shape, volume,
                  [&] { decompressed = compressor.decompress(compressed); });
    }
  }
}

void bench_compressed_ops(Report& report) {
  const Shape array_shape{256, 256};
  Rng rng(4);
  Compressor compressor(codec_settings(Shape{8, 8}, TransformImpl::kAuto));
  const CompressedArray a =
      compressor.compress(random_smooth(array_shape, rng, 6));
  const CompressedArray b =
      compressor.compress(random_smooth(array_shape, rng, 6));
  const index_t volume = array_shape.volume();

  CompressedArray sum = ops::add(a, b);
  run(report, "compressed_add", "", "", array_shape, volume,
              [&] { sum = ops::add(a, b); });
  run(report, "compressed_add_scalar", "", "", array_shape, volume,
              [&] { sum = ops::add_scalar(a, 0.5); });
  double dot = 0.0;
  run(report, "compressed_dot", "", "", array_shape, volume,
              [&] { dot += ops::dot(a, b); });
}

/// The fused-pipeline comparison: fused n-ary lincomb (one pass over all
/// operands, one terminal rebin, workspace-backed coefficient row) against
/// the chained add/multiply_scalar sequence it replaces (one rebin and one
/// intermediate CompressedArray per binary op), plus the expression-template
/// front end writing the same combination naturally (which must compile to
/// the identical lincomb call — the "expr" series exists to keep that
/// zero-overhead claim measured).  The 3-operand case is the shape of a
/// simulation height update (eta' = eta - dt fx - dt fy); the 5-operand case
/// is an RK-style combine.
void bench_fused_lincomb(Report& report) {
  const Shape array_shape{256, 256};
  Rng rng(7);
  Compressor compressor(codec_settings(Shape{8, 8}, TransformImpl::kAuto));
  const CompressedArray a =
      compressor.compress(random_smooth(array_shape, rng, 6));
  const CompressedArray b =
      compressor.compress(random_smooth(array_shape, rng, 6));
  const CompressedArray c =
      compressor.compress(random_smooth(array_shape, rng, 6));
  const CompressedArray d =
      compressor.compress(random_smooth(array_shape, rng, 6));
  const CompressedArray e =
      compressor.compress(random_smooth(array_shape, rng, 6));
  const index_t volume = array_shape.volume();

  CompressedArray out = ops::lincomb({{1.0, &a}, {-0.5, &b}, {0.25, &c}});
  run(report, "compressed_lincomb3", "", "fused", array_shape, volume, [&] {
    out = ops::lincomb({{1.0, &a}, {-0.5, &b}, {0.25, &c}});
  });
  run(report, "compressed_lincomb3", "", "expr", array_shape, volume, [&] {
    out = a - 0.5 * b + 0.25 * c;
  });
  run(report, "compressed_lincomb3", "", "chained", array_shape, volume, [&] {
    out = ops::add(ops::add(a, ops::multiply_scalar(b, -0.5)),
                   ops::multiply_scalar(c, 0.25));
  });

  run(report, "compressed_lincomb5", "", "fused", array_shape, volume, [&] {
    out = ops::lincomb(
        {{1.0, &a}, {0.5, &b}, {0.25, &c}, {0.125, &d}, {-0.75, &e}});
  });
  run(report, "compressed_lincomb5", "", "expr", array_shape, volume, [&] {
    out = a + 0.5 * b + 0.25 * c + 0.125 * d - 0.75 * e;
  });
  run(report, "compressed_lincomb5", "", "chained", array_shape, volume, [&] {
    out = ops::add(
        ops::add(ops::add(ops::add(a, ops::multiply_scalar(b, 0.5)),
                          ops::multiply_scalar(c, 0.25)),
                 ops::multiply_scalar(d, 0.125)),
        ops::multiply_scalar(e, -0.75));
  });
}

/// Thread-scaling sweep over the parallel block-execution runtime: the
/// end-to-end codec plus the chunked serializer on the 64^3 workload at 1,
/// 2, and 4 threads (impl records the thread count, e.g. "t4").  The
/// determinism contract means every timed run produces identical bytes; the
/// thread count is purely a throughput knob.  On a single-core host the tN
/// entries land within noise of t1 — scaling numbers are only meaningful
/// where the hardware has cores to scale onto.
void bench_threaded_codec(Report& report) {
  const Shape array_shape{64, 64, 64};
  const Shape block_shape{8, 8, 8};
  Rng rng(6);
  NDArray<double> array = random_smooth(array_shape, rng, 6);
  const index_t volume = array_shape.volume();
  Compressor compressor(codec_settings(block_shape, TransformImpl::kAuto));
  CompressedArray compressed = compressor.compress(array);
  std::vector<std::uint8_t> stream = serialize(compressed);
  NDArray<double> decompressed = compressor.decompress(compressed);

  for (int threads : {1, 2, 4}) {
    parallel::set_num_threads(threads);
    const std::string impl = "t" + std::to_string(threads);
    run(report, "compress_threads", "dct", impl, array_shape, volume,
                [&] { compressed = compressor.compress(array); });
    run(report, "decompress_threads", "dct", impl, array_shape, volume,
                [&] { decompressed = compressor.decompress(compressed); });
    run(report, "serialize_threads", "", impl, array_shape, volume,
                [&] { stream = serialize(compressed); });
    run(report, "deserialize_threads", "", impl, array_shape, volume,
                [&] { compressed = deserialize(stream); });
  }
  parallel::set_num_threads(0);  // Restore the CC_THREADS / hardware default.
}

/// Per-backend kernel series: the tentpole kernels (the lincomb kernel,
/// rebin/unbin, the factorized Lee DCT) timed through each compiled-in
/// backend's dispatch table.  Bit identity is enforced by the test suite;
/// this series exists to keep the *speed* claim measured — main() prints the
/// scalar-over-SIMD ratios and warns when a SIMD backend is slower.  Kept
/// out of results[] so baseline diffs of the main series never depend on
/// which ISAs the recording host happened to have.
void bench_backends(Report& report) {
  const kernels::Backend saved = kernels::active_backend();
  const index_t kept = 512;
  const index_t num_blocks = 1024;
  Rng rng(8);
  NDArray<double> noise =
      random_normal(Shape{num_blocks * kept}, rng, 0.0, 2.0);
  const std::vector<double>& coeffs = noise.vector();
  const double r = 127.0;
  const Shape row_shape{num_blocks, kept};
  const index_t row_elements = num_blocks * kept;
  const auto run_backend = [&](const std::string& name,
                               const std::string& impl, const Shape& shape,
                               index_t elements,
                               const std::function<void()>& op) {
    report.time("backends",
                {{"name", name},
                 {"impl", impl},
                 {"shape", bench::shape_string(shape)},
                 {"elements_per_call", elements}},
                op);
  };

  // Four operand rows of int8 bins plus weights: the decode_lincomb shape of
  // a fused compressed-space combine.
  std::vector<std::int8_t> bins(static_cast<std::size_t>(num_blocks * kept));
  std::vector<double> biggest(static_cast<std::size_t>(num_blocks));
  for (index_t kb = 0; kb < num_blocks; ++kb)
    biggest[static_cast<std::size_t>(kb)] =
        kernels::rebin_block(coeffs.data() + kb * kept, kept, r,
                             FloatType::kFloat32, bins.data() + kb * kept);
  const std::int8_t* rows[4] = {bins.data(), bins.data() + kept,
                                bins.data() + 2 * kept, bins.data() + 3 * kept};
  const double weights[4] = {1.0, -0.5, 0.25, 0.125};
  const index_t term_rows[4] = {0, 1, 2, 3};
  const index_t term_offsets[2] = {0, 4};
  std::vector<double> decoded(static_cast<std::size_t>(num_blocks * kept));

  // One 32-point DCT axis over a 16x32x32 volume — the leading-axis shape of
  // a 32x32 block sweep, and a shape inside the AVX2 table's intrinsic gate
  // (inner >= 4, n >= 32; smaller shapes route to the scalar recursion).
  const index_t dct_n = 32, dct_outer = 16, dct_inner = 32;
  const index_t dct_volume = dct_outer * dct_n * dct_inner;
  NDArray<double> dct_noise = random_normal(Shape{dct_volume}, rng);
  std::vector<double> dct_data = dct_noise.vector();
  std::vector<double> dct_tmp(static_cast<std::size_t>(dct_volume));

  for (kernels::Backend backend :
       {kernels::Backend::kScalar, kernels::Backend::kAvx2}) {
    if (!kernels::backend_available(backend)) continue;
    kernels::set_backend(backend);
    const kernels::KernelTable& table = kernels::active();
    const std::string impl = kernels::backend_name(backend);

    // The lincomb kernel as one 4-operand lincomb runs it: one output,
    // nothing staged.
    run_backend("decode_lincomb4", impl, row_shape, row_elements, [&] {
      for (index_t kb = 0; kb < num_blocks; ++kb) {
        double* out = decoded.data() + kb * kept;
        kernels::bins<std::int8_t>(table).decode_lincomb_multi(
            rows, /*num_staged=*/0, weights, term_rows, term_offsets,
            /*num_outputs=*/1, kept, /*decoded=*/nullptr, &out);
      }
    });
    run_backend("rebin_block", impl, row_shape, row_elements, [&] {
      for (index_t kb = 0; kb < num_blocks; ++kb)
        biggest[static_cast<std::size_t>(kb)] = kernels::rebin_block(
            table, coeffs.data() + kb * kept, kept, r, FloatType::kFloat32,
            bins.data() + kb * kept);
    });
    run_backend("unbin_block", impl, row_shape, row_elements, [&] {
      for (index_t kb = 0; kb < num_blocks; ++kb)
        kernels::bins<std::int8_t>(table).unbin_block(
            bins.data() + kb * kept,
            kept, biggest[static_cast<std::size_t>(kb)] / r,
            decoded.data() + kb * kept);
    });
    run_backend("dct_axis32", impl, Shape{dct_outer, dct_n, dct_inner},
                dct_volume, [&] {
                  table.dct_axis(dct_data.data(), dct_tmp.data(), dct_n,
                                 dct_outer, dct_inner, /*forward=*/true);
                });
  }
  kernels::set_backend(saved);
}

/// Integrity-layer cost: serialize/deserialize through the unchecksummed v2
/// container and the checksummed v3 default, on a 2-D and a 3-D workload.
/// v3's extra work is one table-driven CRC-32 pass over the chunk payloads
/// inside the already-parallel chunk loops, and 4 B + 4 B per ~64 KiB chunk.
/// The payload itself is plain little-endian word stores, so that pass is
/// most of v3's time: main() prints the v3-over-v2 ratios, and
/// print_checksum_rates() warns when the pass alone runs below its floor.
/// Each entry records its stream size so the byte overhead stays measured
/// too.
void bench_checksums(Report& report) {
  struct ChecksumCase {
    Shape array_shape;
    Shape block_shape;
  };
  const ChecksumCase kCases[] = {
      {Shape{256, 256}, Shape{8, 8}},
      {Shape{64, 64, 64}, Shape{8, 8, 8}},
  };
  for (const auto& c : kCases) {
    Rng rng(9);
    NDArray<double> array = random_smooth(c.array_shape, rng, 6);
    const index_t volume = c.array_shape.volume();
    Compressor compressor(codec_settings(c.block_shape, TransformImpl::kAuto));
    const CompressedArray compressed = compressor.compress(array);

    std::vector<std::uint8_t> v2 = serialize_v2(compressed);
    std::vector<std::uint8_t> v3 = serialize(compressed);
    const auto run_checksum = [&](const std::string& name,
                                  const std::string& impl,
                                  std::size_t stream_bytes,
                                  const std::function<void()>& op) {
      report.time("checksums",
                  {{"name", name},
                   {"impl", impl},
                   {"shape", bench::shape_string(c.array_shape)},
                   {"elements_per_call", volume},
                   {"stream_bytes", stream_bytes}},
                  op);
    };
    run_checksum("serialize_container", "v2", v2.size(),
                 [&] { v2 = serialize_v2(compressed); });
    run_checksum("serialize_container", "v3", v3.size(),
                 [&] { v3 = serialize(compressed); });
    CompressedArray decoded = deserialize(v2);
    run_checksum("deserialize_container", "v2", v2.size(),
                 [&] { decoded = deserialize(v2); });
    run_checksum("deserialize_container", "v3", v3.size(),
                 [&] { decoded = deserialize(v3); });
  }
}

/// The checksum pass on its own: v3 does v2's work plus one CRC-32 over its
/// stream, so v3's stream bytes over (v3 - v2) time is the rate of that
/// pass.  A table-driven CRC-32 runs at GB/s per core; a rate under
/// kFloorMBps means the checksum, not the container copy, has become slow.
void print_checksum_rates(const Report& report) {
  constexpr double kFloorMBps = 700.0;
  std::printf("\nchecksum pass rate (v3 bytes over v3 - v2 time):\n");
  bool slow = false;
  for (const bench::Entry& v2 : report.entries("checksums")) {
    const bench::Field* impl = bench::field_of(v2, "impl");
    if (!impl || bench::describe(*impl) != "v2") continue;
    const bench::Field& name = *bench::field_of(v2, "name");
    const bench::Field& shape = *bench::field_of(v2, "shape");
    const bench::Entry* v3 =
        report.find("checksums", {{"impl", "v3"}, name, shape});
    if (!v3) continue;
    const double extra = *bench::number(*v3, "seconds_per_call") -
                         *bench::number(v2, "seconds_per_call");
    // A pass too fast to separate from v2's timing noise reads as unbounded.
    const double mbps =
        extra > 0.0 ? *bench::number(*v3, "stream_bytes") / extra / 1e6
                    : std::numeric_limits<double>::infinity();
    std::printf("  %-40s %9.0f MB/s\n",
                (bench::describe(name) + " " + bench::describe(shape)).c_str(),
                mbps);
    slow |= mbps < kFloorMBps;
  }
  if (slow)
    std::fprintf(stderr, "warning: the v3 checksum pass measured under %.0f "
                 "MB/s — rerun on a quiet machine before trusting this\n",
                 kFloorMBps);
}

/// The paper's comparison-baseline codecs, kept in the harness so their
/// block pipelines stay under the same regression tracking as pyblaz's.
void bench_baseline_codecs(Report& report) {
  const Shape array_shape{256, 256};
  Rng rng(5);
  NDArray<double> array = random_smooth(array_shape, rng, 6);
  const index_t volume = array_shape.volume();

  auto blaz_compressed = blaz::compress(array);
  run(report, "blaz_compress", "", "", array_shape, volume,
              [&] { blaz_compressed = blaz::compress(array); });
  NDArray<double> blaz_rt = blaz::decompress(blaz_compressed);
  run(report, "blaz_decompress", "", "", array_shape, volume,
              [&] { blaz_rt = blaz::decompress(blaz_compressed); });

  zfpx::Codec codec(2, 16.0);
  auto zfpx_stream = codec.compress(array);
  run(report, "zfpx_compress", "", "", array_shape, volume,
              [&] { zfpx_stream = codec.compress(array); });
  NDArray<double> zfpx_rt = codec.decompress(zfpx_stream, array.shape());
  run(report, "zfpx_decompress", "", "", array_shape, volume,
              [&] { zfpx_rt = codec.decompress(zfpx_stream, array.shape()); });
}

}  // namespace

int main(int argc, char** argv) {
  // The default is a gitignored name so running the harness from the repo
  // root never clobbers the committed BENCH_kernels.json baseline; pass the
  // path explicitly when refreshing the baseline itself.
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.local.json";

  Report report;
  bench_transforms(report);
  bench_rebin(report);
  bench_codec(report);
  bench_compressed_ops(report);
  bench_fused_lincomb(report);
  bench_threaded_codec(report);
  bench_backends(report);
  bench_checksums(report);
  bench_baseline_codecs(report);

  // Every ratio the JSON's raw rows imply, with the warn-only thresholds
  // for the claims this binary measures: the expression front end is free
  // and SIMD beats scalar.  The CRC pass gets its own rate floor below.
  bench::print_ratios(
      report,
      {{.title = "fast-over-dense speedups",
        .section = "results", .key = "impl", .num = "dense", .den = "fast"},
       {.title = "fused-over-chained lincomb speedups",
        .section = "results", .key = "impl", .num = "chained", .den = "fused"},
       {.title = "expression-front-end cost over handwritten lincomb "
                 "(~1.00x expected)",
        .section = "results", .key = "impl", .num = "expr", .den = "fused",
        .hi = 1.10,
        .warning = "expression front end measured >10% over the handwritten "
                   "lincomb call; expected ~zero overhead"},
       {.title = "SIMD backend speedups over scalar",
        .section = "backends", .key = "impl", .num = "scalar", .den = "avx2",
        .lo = 1.0,
        .warning = "a SIMD backend measured slower than the scalar kernels"},
       {.title = "checksummed container time (v3 over v2)",
        .section = "checksums", .key = "impl", .num = "v3", .den = "v2"},
       {.title = "checksummed container bytes (v3 over v2)",
        .section = "checksums", .key = "impl", .num = "v3", .den = "v2",
        .field = "stream_bytes"},
       {.title = "thread scaling (t1 over t2)",
        .section = "results", .key = "impl", .num = "t1", .den = "t2"},
       {.title = "thread scaling (t1 over t4)",
        .section = "results", .key = "impl", .num = "t1", .den = "t4"}});

  print_checksum_rates(report);

  if (!report.write_json(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
