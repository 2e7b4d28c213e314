// archive_query: two closed-loop clients query a store of compressed 64^3
// fields (block 4^3, float32/int16 — the Fig. 7 setting).  One request
// deserializes the client's newest archive, evaluates one BatchEval of four
// arity-4 expressions sharing three operands, reduces every output six
// ways, reads one 16^3 ROI of the fresh array, and decompresses one output
// and serializes another.  The container and ops do most of the work; the
// decoded-block cache is off, so the ROI read takes the direct-decode path;
// two clients put the scheduler's queue on the blocking path.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <thread>

#include "core/codec/compressor.hpp"
#include "core/codec/serialization.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/expr.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/reference/reference.hpp"
#include "core/util/rng.hpp"
#include "harness.hpp"

namespace e2e {
namespace {

using pyblaz::BatchEval;
using pyblaz::CompressedArray;
using pyblaz::Compressor;
using pyblaz::CompressorSettings;
using pyblaz::index_t;
using pyblaz::NDArray;
using pyblaz::Shape;
namespace ops = pyblaz::ops;
namespace ref = pyblaz::reference;

constexpr index_t kEdge = 64;
constexpr index_t kRoiEdge = 16;
constexpr int kFields = 8;
constexpr int kResident = 6;
constexpr int kClients = 2;
constexpr int kOutputs = 4;       // K expressions per batch.
constexpr int kArity = 4;         // Terms per expression; 3 shared.
constexpr int kReductions = 6;    // Per output.
constexpr int kShapesPerClient = 16;

/// One request's parameters: the batch weights, the ROI corner, and which
/// outputs are decompressed and serialized.
struct QueryShape {
  std::array<std::array<double, kArity>, kOutputs> weights{};
  std::vector<index_t> roi_lo;
  int decompress_k = 0;
  int serialize_k = 0;
};

/// What a request returns.
struct Outcome {
  std::array<double, kOutputs * kReductions> reductions{};
  NDArray<double> decompressed;
  NDArray<double> roi;
  std::vector<std::uint8_t> serialized;
};

/// The bit patterns a request must reproduce, from a single-thread
/// sequential evaluation, plus that evaluation's error against the
/// uncompressed reference.
struct Expected {
  std::array<std::uint64_t, kOutputs * kReductions> reductions{};
  std::uint64_t decompressed = 0;
  std::uint64_t roi = 0;
  std::uint64_t serialized = 0;
  double rel_error = 0.0;
};

std::uint64_t hash_array(const NDArray<double>& a) {
  return hash_bytes(a.data(), static_cast<std::size_t>(a.size()) * sizeof(double));
}

class ArchiveQuery final : public Workload {
 public:
  explicit ArchiveQuery(const Options& options)
      : compressor_(settings()), shape_({kEdge, kEdge, kEdge}) {
    pyblaz::Rng rng(options.seed);
    for (int f = 0; f < kFields; ++f) {
      NDArray<double> field = pyblaz::random_smooth(shape_, rng, 6);
      field.map_inplace([](double v) { return v + 3.0; });
      raw_.push_back(std::move(field));
    }
    for (auto& shapes : shapes_) {
      for (int q = 0; q < kShapesPerClient; ++q) {
        QueryShape s;
        for (auto& row : s.weights)
          for (double& w : row) w = rng.uniform(0.25, 1.0);
        for (int axis = 0; axis < 3; ++axis)
          s.roi_lo.push_back(rng.integer(0, kEdge - kRoiEdge));
        s.decompress_k = q % kOutputs;
        s.serialize_k = (q + 1) % kOutputs;
        shapes.push_back(std::move(s));
      }
    }
  }

  int clients() const override { return kClients; }
  // Two client threads plus one scheduler worker.
  int scheduler_threads() const override { return 2; }
  long cache_capacity() const override { return 0; }

  double setup() override {
    resident_.clear();
    archives_.clear();
    const auto t0 = Clock::now();
    for (int f = 0; f < kFields; ++f) {
      CompressedArray a;
      {
        trace::Scope span("codec.compress");
        a = compressor_.compress(raw_[static_cast<std::size_t>(f)]);
      }
      {
        trace::Scope span("container.serialize");
        archives_.push_back(pyblaz::serialize(a));
      }
      if (f < kResident) resident_.push_back(std::move(a));
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (trace::enabled())
      compress_bytes_ += static_cast<std::uint64_t>(kFields) *
                         static_cast<std::uint64_t>(shape_.volume()) * 8;
    return seconds;
  }

  void precompute() override {
    // The reference is a single-thread, expression-at-a-time evaluation;
    // the measured runs must reproduce its bits with the batch engine at the
    // pinned thread count.
    const int threads = pyblaz::parallel::num_threads();
    pyblaz::parallel::set_num_threads(1);
    for (int c = 0; c < kClients; ++c) {
      for (const QueryShape& q : shapes_[c]) {
        const Outcome out = execute(c, q, /*sequential=*/true);
        Expected e = expect(out);
        e.rel_error = reference_error(c, q, out);
        expected_[c].push_back(e);
      }
    }
    pyblaz::parallel::set_num_threads(threads);
    precompute_roundtrip();
  }

  Phase run(double seconds, bool /*trace_run*/,
            std::int64_t min_requests) override {
    std::array<Phase, kClients> per_client;
    std::atomic<std::int64_t> completed{0};
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Phase& phase = per_client[static_cast<std::size_t>(c)];
        for (std::int64_t r = 0;; ++r) {
          const std::size_t qi = static_cast<std::size_t>(r % kShapesPerClient);
          const QueryShape& q = shapes_[c][qi];
          const auto t0 = Clock::now();
          Outcome out;
          {
            trace::RequestScope request(r * kClients + c);
            out = execute(c, q, /*sequential=*/false);
          }
          const double latency =
              std::chrono::duration<double>(Clock::now() - t0).count();
          phase.latencies_s.push_back(latency);
          ++phase.attempted;
          check(out, q, expected_[c][qi], c, r, phase);
          const std::int64_t done = ++completed;
          if (Clock::now() >= deadline && done >= min_requests) break;
        }
        phase.req_per_s = closed_loop_rate(phase.latencies_s);
      });
    }
    for (std::thread& t : threads) t.join();
    Phase total;
    for (const Phase& p : per_client) {
      total.merge(p);
      total.req_per_s += p.req_per_s;
    }
    total.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return total;
  }

  double bytes_per_value() const override {
    // The store's final archive: the last field serialized at set-up.
    return static_cast<double>(archives_.back().size()) /
           static_cast<double>(shape_.volume());
  }

  void layer_metrics(const LayerView& view, Metrics& out) const override {
    const double container_s = view.in_request_self_s("container.deserialize") +
                               view.in_request_self_s("container.serialize");
    if (container_s > 0.0)
      out["container.MBps_computed"].value =
          static_cast<double>(container_bytes_.load()) / container_s / 1e6;
    const double compress_s = view.total_self_s("codec.compress");
    if (compress_s > 0.0)
      out["codec.compress_MBps"].value =
          static_cast<double>(compress_bytes_.load()) / compress_s / 1e6;
    const double batch_s = view.in_request_self_s("ops.lincomb_batch");
    if (batch_s > 0.0)
      out["ops.bin_GBps_computed"].value =
          static_cast<double>(bin_bytes_.load()) / batch_s / 1e9;
  }

  void context(Metrics& out) override {
    out["reference.roundtrip_ms"] = Metric{roundtrip_ms_, "ms"};
    out["reference.compressed_path_ms"] = Metric{compressed_ms_, "ms"};
  }

 private:
  static CompressorSettings settings() {
    CompressorSettings s;
    s.block_shape = Shape({4, 4, 4});
    s.float_type = pyblaz::FloatType::kFloat32;
    s.index_type = pyblaz::IndexType::kInt16;
    return s;
  }

  /// Operand j of expression k: three shared resident fields, then a
  /// resident field per expression, and the fresh archive for the last.
  const CompressedArray& operand(int k, int j,
                                 const CompressedArray& fresh) const {
    if (j < kArity - 1) return resident_[static_cast<std::size_t>(j)];
    if (k < kOutputs - 1)
      return resident_[static_cast<std::size_t>(kArity - 1 + k)];
    return fresh;
  }

  int raw_operand(int client, int k, int j) const {
    if (j < kArity - 1) return j;
    if (k < kOutputs - 1) return kArity - 1 + k;
    return kResident + client;
  }

  /// One request.  @p sequential evaluates the expressions one lincomb at a
  /// time instead of as one batch (the reference path).
  Outcome execute(int client, const QueryShape& q, bool sequential) {
    const bool traced = trace::enabled();
    const std::vector<std::uint8_t>& archive =
        archives_[static_cast<std::size_t>(kResident + client)];
    CompressedArray fresh;
    {
      trace::Scope span("container.deserialize");
      fresh = pyblaz::deserialize(archive);
    }
    std::vector<pyblaz::LinExpr<kArity>> exprs;
    for (int k = 0; k < kOutputs; ++k) {
      const auto& w = q.weights[static_cast<std::size_t>(k)];
      exprs.push_back(w[0] * operand(k, 0, fresh) + w[1] * operand(k, 1, fresh) +
                      w[2] * operand(k, 2, fresh) + w[3] * operand(k, 3, fresh));
    }
    std::vector<CompressedArray> outs;
    if (sequential) {
      for (const auto& e : exprs) outs.push_back(e.eval());
    } else {
      BatchEval batch;
      for (const auto& e : exprs) batch.add(e);
      trace::Scope span("ops.lincomb_batch");
      outs = batch.eval();
    }
    Outcome out;
    {
      // Binary reductions pair each output with the next one: the outputs
      // share three operands, so every similarity is well away from 0 and
      // its relative error is well conditioned.
      trace::Scope span("ops.reduce");
      std::size_t i = 0;
      for (std::size_t k = 0; k < outs.size(); ++k) {
        const CompressedArray& o = outs[k];
        const CompressedArray& next = outs[(k + 1) % outs.size()];
        out.reductions[i++] = ops::dot(o, next);
        out.reductions[i++] = ops::l2_norm(o);
        out.reductions[i++] = ops::cosine_similarity(o, next);
        out.reductions[i++] = ops::structural_similarity(o, next);
        out.reductions[i++] = ops::mean(o);
        out.reductions[i++] = ops::variance(o);
      }
    }
    std::vector<index_t> hi = q.roi_lo;
    for (index_t& h : hi) h += kRoiEdge;
    {
      trace::Scope span("cache.roi");
      out.roi = fresh.decompress_roi(q.roi_lo, hi);
    }
    {
      trace::Scope span("codec.decompress");
      out.decompressed =
          compressor_.decompress(outs[static_cast<std::size_t>(q.decompress_k)]);
    }
    {
      trace::Scope span("container.serialize");
      out.serialized =
          pyblaz::serialize(outs[static_cast<std::size_t>(q.serialize_k)]);
    }
    if (traced) {
      container_bytes_ += archive.size() + out.serialized.size();
      // The batch reads each distinct operand's bin rows once.
      bin_bytes_ += static_cast<std::uint64_t>(kResident + 1) *
                    fresh.indices.byte_size();
    }
    return out;
  }

  static Expected expect(const Outcome& out) {
    Expected e;
    for (std::size_t i = 0; i < out.reductions.size(); ++i)
      e.reductions[i] = bits_of(out.reductions[i]);
    e.decompressed = hash_array(out.decompressed);
    e.roi = hash_array(out.roi);
    e.serialized = hash_bytes(out.serialized.data(), out.serialized.size());
    return e;
  }

  /// A request that differs from the reference evaluation fails, and its
  /// own error against the raw fields still counts.
  void check(const Outcome& out, const QueryShape& q, const Expected& want,
             int client, std::int64_t r, Phase& phase) const {
    const Expected got = expect(out);
    const char* what = nullptr;
    if (got.reductions != want.reductions) what = "reduction bits";
    else if (got.decompressed != want.decompressed) what = "decompressed output";
    else if (got.roi != want.roi) what = "ROI read";
    else if (got.serialized != want.serialized) what = "serialized bytes";
    if (what == nullptr) {
      // Bit-identical to the reference evaluation, so it carries its error.
      phase.max_rel_error = std::max(phase.max_rel_error, want.rel_error);
      return;
    }
    phase.fail("archive_query client " + std::to_string(client) +
               " request " + std::to_string(r) + ": " + what +
               " differ from the single-thread sequential evaluation");
    phase.max_rel_error =
        std::max(phase.max_rel_error, reference_error(client, q, out));
  }

  /// Error of one request's results against the uncompressed reference
  /// (src/core/reference) on the raw fields.
  double reference_error(int client, const QueryShape& q,
                         const Outcome& out) const {
    std::vector<NDArray<double>> expected;
    for (int k = 0; k < kOutputs; ++k) {
      NDArray<double> e(shape_, 0.0);
      for (int j = 0; j < kArity; ++j) {
        const NDArray<double>& src =
            raw_[static_cast<std::size_t>(raw_operand(client, k, j))];
        const double w = q.weights[static_cast<std::size_t>(k)]
                                  [static_cast<std::size_t>(j)];
        for (index_t x = 0; x < e.size(); ++x) e[x] += w * src[x];
      }
      expected.push_back(std::move(e));
    }
    double worst = 0.0;
    std::size_t i = 0;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      const NDArray<double>& o = expected[k];
      const NDArray<double>& next = expected[(k + 1) % expected.size()];
      const double scalars[kReductions] = {
          ref::dot(o, next),          ref::l2_norm(o),
          ref::cosine_similarity(o, next),
          ref::structural_similarity(o, next),
          ref::mean(o),               ref::variance(o)};
      for (double s : scalars)
        worst = std::max(worst, scalar_rel_error(out.reductions[i++], s));
    }
    // The two field results: the decompressed output, and the serialized
    // output as a reader of the archive would decode it.
    const NDArray<double> reread =
        compressor_.decompress(pyblaz::deserialize(out.serialized));
    const std::pair<const NDArray<double>*, int> fields[] = {
        {&out.decompressed, q.decompress_k}, {&reread, q.serialize_k}};
    for (const auto& [field, k] : fields) {
      const NDArray<double>& want = expected[static_cast<std::size_t>(k)];
      worst = std::max(worst, field_rel_error(field->data(), want.data(),
                                              static_cast<std::size_t>(want.size())));
    }
    const NDArray<double>& fresh_raw =
        raw_[static_cast<std::size_t>(kResident + client)];
    NDArray<double> roi_ref(out.roi.shape());
    index_t o = 0;
    for (index_t x = 0; x < kRoiEdge; ++x)
      for (index_t y = 0; y < kRoiEdge; ++y)
        for (index_t z = 0; z < kRoiEdge; ++z)
          roi_ref[o++] = fresh_raw.at({q.roi_lo[0] + x, q.roi_lo[1] + y,
                                       q.roi_lo[2] + z});
    // The ROI is normalised by the whole field's range, as a reader of the
    // field would see it.
    double lo = fresh_raw[0], hi = fresh_raw[0], roi_worst = 0.0;
    for (index_t e = 0; e < fresh_raw.size(); ++e) {
      lo = std::min(lo, fresh_raw[e]);
      hi = std::max(hi, fresh_raw[e]);
    }
    for (index_t e = 0; e < roi_ref.size(); ++e)
      roi_worst = std::max(roi_worst, std::fabs(out.roi[e] - roi_ref[e]));
    return std::max(worst, roi_worst / (hi - lo));
  }

  /// The Fig. 7 comparison, reported as context: the same request done by
  /// decompressing every operand, operating with src/core/reference on raw
  /// arrays, and compressing the outputs again — against the compressed
  /// path, both single-client.
  void precompute_roundtrip() {
    constexpr int kRepeats = 8;
    std::vector<double> roundtrip, compressed;
    for (int r = 0; r < kRepeats; ++r) {
      const QueryShape& q = shapes_[0][static_cast<std::size_t>(r)];
      auto t0 = Clock::now();
      roundtrip_request(q);
      roundtrip.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count() * 1e3);
      t0 = Clock::now();
      execute(0, q, /*sequential=*/false);
      compressed.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count() * 1e3);
    }
    roundtrip_ms_ = median(roundtrip);
    compressed_ms_ = median(compressed);
  }

  void roundtrip_request(const QueryShape& q) const {
    const CompressedArray fresh =
        pyblaz::deserialize(archives_[static_cast<std::size_t>(kResident)]);
    std::vector<NDArray<double>> decoded;
    for (const CompressedArray& a : resident_)
      decoded.push_back(compressor_.decompress(a));
    decoded.push_back(compressor_.decompress(fresh));
    std::vector<NDArray<double>> raw_outs;
    for (int k = 0; k < kOutputs; ++k) {
      NDArray<double> o(shape_, 0.0);
      for (int j = 0; j < kArity; ++j) {
        const int idx = raw_operand(0, k, j);
        const NDArray<double>& src =
            decoded[static_cast<std::size_t>(std::min(idx, kResident))];
        const double w = q.weights[static_cast<std::size_t>(k)]
                                  [static_cast<std::size_t>(j)];
        for (index_t e = 0; e < o.size(); ++e) o[e] += w * src[e];
      }
      raw_outs.push_back(std::move(o));
    }
    volatile double sink = 0.0;
    std::vector<CompressedArray> outs;
    for (std::size_t k = 0; k < raw_outs.size(); ++k) {
      const NDArray<double>& o = raw_outs[k];
      const NDArray<double>& next = raw_outs[(k + 1) % raw_outs.size()];
      sink = sink + ref::dot(o, next) + ref::l2_norm(o) +
             ref::cosine_similarity(o, next) +
             ref::structural_similarity(o, next) + ref::mean(o) +
             ref::variance(o);
      outs.push_back(compressor_.compress(o));
    }
    // The ROI is a plain copy out of the decoded fresh array.
    NDArray<double> roi(Shape({kRoiEdge, kRoiEdge, kRoiEdge}));
    index_t r = 0;
    for (index_t x = 0; x < kRoiEdge; ++x)
      for (index_t y = 0; y < kRoiEdge; ++y)
        for (index_t z = 0; z < kRoiEdge; ++z)
          roi[r++] = decoded.back().at(
              {q.roi_lo[0] + x, q.roi_lo[1] + y, q.roi_lo[2] + z});
    sink = sink + roi[0];
    const auto bytes =
        pyblaz::serialize(outs[static_cast<std::size_t>(q.serialize_k)]);
    sink = sink + static_cast<double>(bytes.size());
    (void)sink;
  }

  Compressor compressor_;
  Shape shape_;
  std::vector<NDArray<double>> raw_;
  std::array<std::vector<QueryShape>, kClients> shapes_;
  std::array<std::vector<Expected>, kClients> expected_;
  std::vector<CompressedArray> resident_;
  std::vector<std::vector<std::uint8_t>> archives_;
  std::atomic<std::uint64_t> compress_bytes_{0};
  std::atomic<std::uint64_t> container_bytes_{0};
  std::atomic<std::uint64_t> bin_bytes_{0};
  double roundtrip_ms_ = 0.0;
  double compressed_ms_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_archive_query(const Options& options) {
  return std::make_unique<ArchiveQuery>(options);
}

}  // namespace e2e
