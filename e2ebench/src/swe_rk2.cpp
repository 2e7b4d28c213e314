// swe_rk2: one closed-loop client steps the compressed shallow-water model
// (CompressedShallowWaterStepper, RK2 Heun, fused lincombs) on a 256x512
// grid with 16x16 blocks at float32/int8 — the §V-A setting.  One request
// is one step: the raw model's two stages, eight fresh tendency fields
// compressed, and three fused 5- or 3-operand lincombs.  No container or
// cache work, so a codec or lincomb gain shows against a real application's
// share of the step.
//
// A --trace 0 run calls CompressedShallowWaterStepper::step().  Both halves
// of a --trace 1 run drive the same step through its public parts —
// ShallowWaterModel::step_rk2(&tendencies), Compressor::compress on each
// tendency field, then the three lincombs — so sim, codec and ops split from
// outside; its tracks must equal the stepper's in every bit.

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/codec/compressor.hpp"
#include "core/codec/serialization.hpp"
#include "core/ops/expr.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/reference/reference.hpp"
#include "harness.hpp"
#include "sim/compressed_stepper.hpp"
#include "sim/shallow_water/swe.hpp"

namespace e2e {
namespace {

using pyblaz::CompressedArray;
using pyblaz::Compressor;
using pyblaz::CompressorSettings;
using pyblaz::index_t;
using pyblaz::NDArray;
using pyblaz::Shape;

/// Steps per epoch, and the seeded initial states epochs cycle through.
/// Every epoch restarts from one of them, so each step has a precomputed
/// reference and per-epoch counts repeat.
constexpr int kEpochSteps = 16;
constexpr int kTrajectories = 16;

/// The three compressed tracks after one step.
std::uint64_t hash_tracks(const CompressedArray& h, const CompressedArray& u,
                          const CompressedArray& v) {
  return hash_archive(h) ^ (hash_archive(u) * 3) ^ (hash_archive(v) * 7);
}

/// max over tracks of |decompressed - model field| / range(model field).
double track_error(const Compressor& c, const CompressedArray& h,
                   const CompressedArray& u, const CompressedArray& v,
                   const sim::ShallowWaterModel& model) {
  double worst = 0.0;
  const std::pair<const CompressedArray*, const NDArray<double>*> tracks[] = {
      {&h, &model.surface_height()},
      {&u, &model.velocity_u()},
      {&v, &model.velocity_v()}};
  for (const auto& [track, field] : tracks) {
    const NDArray<double> decoded = c.decompress(*track);
    const double diff = pyblaz::reference::linf_distance(decoded, *field);
    const auto [lo, hi] =
        std::minmax_element(field->vector().begin(), field->vector().end());
    worst = std::max(worst, *hi > *lo ? diff / (*hi - *lo) : diff);
  }
  return worst;
}

class SweRk2 final : public Workload {
 public:
  explicit SweRk2(const Options& options) : compressor_(settings()) {
    for (int t = 0; t < kTrajectories; ++t) {
      sim::SweConfig config;
      config.nx = 256;
      config.ny = 512;
      // Keep the default 10 km spacing (and so the CFL margin) at this size.
      config.lx = 1.0e4 * static_cast<double>(config.nx);
      config.ly = 1.0e4 * static_cast<double>(config.ny);
      config.seed = options.seed * kTrajectories + static_cast<std::uint64_t>(t);
      configs_.push_back(config);
    }
  }

  int clients() const override { return 1; }
  int scheduler_threads() const override { return 2; }
  long cache_capacity() const override { return 0; }

  double setup() override {
    const auto t0 = Clock::now();
    stepper_ = make_stepper(configs_[0]);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  void precompute() override {
    // Reference tracks from the stepper at one thread: the measured runs
    // must match them bit for bit at the pinned thread count.
    const int threads = pyblaz::parallel::num_threads();
    pyblaz::parallel::set_num_threads(1);
    std::unique_ptr<sim::CompressedShallowWaterStepper> stepper;
    for (const sim::SweConfig& config : configs_) {
      stepper = make_stepper(config);
      std::vector<std::uint64_t> hashes;
      const long passes0 = pyblaz::ops::lincomb_rebin_passes();
      for (int s = 0; s < kEpochSteps; ++s) {
        stepper->step();
        hashes.push_back(hash_tracks(stepper->compressed_height(),
                                     stepper->compressed_u(),
                                     stepper->compressed_v()));
      }
      epoch_rebin_passes_ = pyblaz::ops::lincomb_rebin_passes() - passes0;
      expected_.push_back(std::move(hashes));
    }
    pyblaz::parallel::set_num_threads(threads);
    std::size_t bytes = 0;
    index_t elements = 0;
    for (const CompressedArray* t :
         {&stepper->compressed_height(), &stepper->compressed_u(),
          &stepper->compressed_v()}) {
      bytes += pyblaz::serialize(*t).size();
      elements += t->shape.volume();
    }
    bytes_per_value_ =
        static_cast<double>(bytes) / static_cast<double>(elements);
  }

  Phase run(double seconds, bool trace_run,
            std::int64_t min_requests) override {
    Phase phase;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::int64_t request = 0;
    // Per trajectory, the largest error of its tracks (-1 until an epoch of
    // it has run).
    std::vector<double> errors(configs_.size(), -1.0);
    for (std::size_t epoch = 0;; ++epoch) {
      const std::size_t t = epoch % configs_.size();
      const long passes0 = pyblaz::ops::lincomb_rebin_passes();
      const double error =
          trace_run ? epoch_from_parts(t, phase, request)
                    : epoch_with_stepper(t, phase, request);
      const long passes = pyblaz::ops::lincomb_rebin_passes() - passes0;
      if (passes != epoch_rebin_passes_)
        phase.fail("swe_rk2: an epoch took " + std::to_string(passes) +
                   " rebin passes, the reference took " +
                   std::to_string(epoch_rebin_passes_));
      errors[t] = std::max(errors[t], error);
      // A measured phase runs whole cycles over the trajectories, so its
      // error covers all of them; a warm-up (min_requests 0) need not.
      const bool cycle_done = t + 1 == configs_.size() || min_requests == 0;
      if (cycle_done && Clock::now() >= deadline &&
          static_cast<std::int64_t>(phase.latencies_s.size()) >= min_requests)
        break;
    }
    // The median over trajectories of each one's largest error: the largest
    // error of a single trajectory swings by a quarter between seeds, the
    // median of sixteen by under a tenth.
    std::vector<double> ran;
    for (double e : errors)
      if (e >= 0.0) ran.push_back(e);
    phase.max_rel_error = median(ran);
    phase.req_per_s = closed_loop_rate(phase.latencies_s);
    phase.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return phase;
  }

  double bytes_per_value() const override { return bytes_per_value_; }

  void layer_metrics(const LayerView& view, Metrics& out) const override {
    const double compress_s = view.in_request_self_s("codec.compress");
    if (compress_s > 0.0)
      out["codec.compress_MBps"].value =
          static_cast<double>(compress_bytes_.load()) / compress_s / 1e6;
    const double lincomb_s = view.in_request_self_s("ops.lincomb");
    if (lincomb_s > 0.0)
      out["ops.bin_GBps_computed"].value =
          static_cast<double>(bin_bytes_.load()) / lincomb_s / 1e9;
  }

 private:
  static CompressorSettings settings() {
    CompressorSettings s;
    s.block_shape = Shape({16, 16});
    s.float_type = pyblaz::FloatType::kFloat32;
    s.index_type = pyblaz::IndexType::kInt8;
    return s;
  }

  static std::unique_ptr<sim::CompressedShallowWaterStepper> make_stepper(
      const sim::SweConfig& config) {
    return std::make_unique<sim::CompressedShallowWaterStepper>(
        config, settings(), sim::LincombPath::kFused, sim::SweScheme::kRk2);
  }

  /// Check step @p s of trajectory @p t.
  void check_step(std::size_t t, int s, std::uint64_t got, Phase& phase) const {
    if (got == expected_[t][static_cast<std::size_t>(s)]) return;
    phase.fail("swe_rk2: trajectory " + std::to_string(t) +
               " tracks after step " + std::to_string(s + 1) +
               " differ from the single-thread stepper's");
  }

  /// One epoch through the stepper; returns the largest track error at its
  /// end, whether or not its steps passed their checks.
  double epoch_with_stepper(std::size_t t, Phase& phase,
                            std::int64_t& request) {
    auto stepper = make_stepper(configs_[t]);
    for (int s = 0; s < kEpochSteps; ++s, ++request) {
      const auto t0 = Clock::now();
      stepper->step();
      const double latency =
          std::chrono::duration<double>(Clock::now() - t0).count();
      phase.latencies_s.push_back(latency);
      ++phase.attempted;
      check_step(t, s, hash_tracks(stepper->compressed_height(),
                                   stepper->compressed_u(),
                                   stepper->compressed_v()),
                 phase);
    }
    return track_error(compressor_, stepper->compressed_height(),
                       stepper->compressed_u(), stepper->compressed_v(),
                       stepper->model());
  }

  CompressedArray compress(const NDArray<double>& field) {
    if (trace::enabled())
      compress_bytes_ += static_cast<std::uint64_t>(field.size()) * 8;
    trace::Scope span("codec.compress");
    return compressor_.compress(field);
  }

  /// One epoch through the stepper's public parts, with spans around each
  /// part while tracing is on; returns like epoch_with_stepper().
  double epoch_from_parts(std::size_t t, Phase& phase, std::int64_t& request) {
    sim::ShallowWaterModel model(configs_[t]);
    CompressedArray h = compressor_.compress(model.surface_height());
    CompressedArray u = compressor_.compress(model.velocity_u());
    CompressedArray v = compressor_.compress(model.velocity_v());
    const double half_dt = 0.5 * configs_[t].dt;
    for (int s = 0; s < kEpochSteps; ++s, ++request) {
      const auto t0 = Clock::now();
      {
        trace::RequestScope scope(request);
        sim::SweRk2Tendencies st;
        {
          trace::Scope span("sim.model_step");
          model.step_rk2(&st);
        }
        const CompressedArray fx1 = compress(st.stage1.flux_x);
        const CompressedArray fy1 = compress(st.stage1.flux_y);
        const CompressedArray fx2 = compress(st.stage2.flux_x);
        const CompressedArray fy2 = compress(st.stage2.flux_y);
        const CompressedArray du1 = compress(st.stage1.du);
        const CompressedArray du2 = compress(st.stage2.du);
        const CompressedArray dv1 = compress(st.stage1.dv);
        const CompressedArray dv2 = compress(st.stage2.dv);
        trace::Scope span("ops.lincomb");
        // The stepper's own expressions, so the fused lincombs see the same
        // (operand, weight) lists.
        h = (h - half_dt * fx1 - half_dt * fy1 - half_dt * fx2 -
             half_dt * fy2).eval();
        u = (u + half_dt * du1 + half_dt * du2).eval();
        v = (v + half_dt * dv1 + half_dt * dv2).eval();
        if (trace::enabled())
          bin_bytes_ += 5 * h.indices.byte_size() +
                        3 * u.indices.byte_size() + 3 * v.indices.byte_size();
      }
      const double latency =
          std::chrono::duration<double>(Clock::now() - t0).count();
      phase.latencies_s.push_back(latency);
      ++phase.attempted;
      check_step(t, s, hash_tracks(h, u, v), phase);
    }
    return track_error(compressor_, h, u, v, model);
  }

  std::vector<sim::SweConfig> configs_;
  Compressor compressor_;
  std::unique_ptr<sim::CompressedShallowWaterStepper> stepper_;
  std::vector<std::vector<std::uint64_t>> expected_;  // Per trajectory, step.
  long epoch_rebin_passes_ = 0;
  double bytes_per_value_ = 0.0;
  std::atomic<std::uint64_t> compress_bytes_{0};
  std::atomic<std::uint64_t> bin_bytes_{0};
};

}  // namespace

std::unique_ptr<Workload> make_swe_rk2(const Options& options) {
  return std::make_unique<SweRk2>(options);
}

}  // namespace e2e
