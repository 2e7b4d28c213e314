#include "core/kernels/backend.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/fault/fault.hpp"
#include "core/kernels/backend_tables.hpp"
#include "core/kernels/fast_transform.hpp"
#include "core/kernels/rebin.hpp"
#include "core/telemetry/telemetry.hpp"

namespace pyblaz::kernels {

namespace {

template <typename BinT>
constexpr BinKernels<BinT> scalar_bin_kernels() {
  return {&quantize_bins<BinT>, &unbin_block<BinT>,
          &decode_lincomb_multi<BinT>};
}

bool cpu_supports(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(_M_X64)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

const KernelTable* table_for(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return &internal::scalar_table();
    case Backend::kAvx2:
      return internal::avx2_table();
  }
  return nullptr;
}

Backend best_available() {
  return backend_available(Backend::kAvx2) ? Backend::kAvx2 : Backend::kScalar;
}

/// Resolved once, before any codec work: CC_KERNEL_BACKEND wins when it
/// names an available backend, otherwise (with a warning) scalar; with no
/// override the best backend the CPU supports.
struct DispatchState {
  std::atomic<const KernelTable*> table{nullptr};
  std::atomic<Backend> backend{Backend::kScalar};
  Backend startup = Backend::kScalar;

  DispatchState() {
    Backend chosen;
    if (const char* env = std::getenv("CC_KERNEL_BACKEND")) {
      bool bad = false;
      const Backend requested = parse_backend_name(env, &bad);
      if (bad) {
        std::fprintf(stderr,
                     "pyblaz: CC_KERNEL_BACKEND=\"%s\" is not a known backend "
                     "(scalar|avx2); using scalar kernels\n",
                     env);
        chosen = Backend::kScalar;
      } else if (!backend_available(requested)) {
        std::fprintf(stderr,
                     "pyblaz: kernel backend \"%s\" is not available on this "
                     "host/build; using scalar kernels\n",
                     env);
        chosen = Backend::kScalar;
      } else {
        chosen = requested;
      }
    } else {
      chosen = best_available();
    }
    startup = chosen;
    backend.store(chosen, std::memory_order_relaxed);
    table.store(table_for(chosen), std::memory_order_relaxed);
  }
};

DispatchState& state() {
  static DispatchState s;
  return s;
}

/// Graceful degradation: a fault at the "backend.dispatch" site (standing in
/// for a broken ISA path discovered at dispatch time) permanently demotes
/// the process to the scalar oracle — results stay correct and bit-identical
/// by the backend bit-identity contract — with one warning line and a
/// counted `backend.dispatch_fallback` event, instead of crashing the
/// request.  Only evaluated while faults are armed, so the production
/// dispatch path stays a single relaxed load.
void maybe_degrade_dispatch() {
  try {
    fault::point("backend.dispatch");
  } catch (...) {
    static telemetry::Counter& fallbacks =
        telemetry::counter("backend.dispatch_fallback");
    fallbacks.increment();
    DispatchState& s = state();
    const Backend current = s.backend.load(std::memory_order_relaxed);
    if (current != Backend::kScalar) {
      std::fprintf(stderr,
                   "pyblaz: kernel backend \"%s\" faulted at dispatch; "
                   "falling back to the scalar oracle\n",
                   backend_name(current));
      s.backend.store(Backend::kScalar, std::memory_order_relaxed);
      s.table.store(table_for(Backend::kScalar), std::memory_order_relaxed);
    }
  }
}

}  // namespace

namespace internal {

const KernelTable& scalar_table() {
  static const KernelTable table = {
      "scalar",
      &max_abs,
      scalar_bin_kernels<std::int8_t>(),
      scalar_bin_kernels<std::int16_t>(),
      scalar_bin_kernels<std::int32_t>(),
      scalar_bin_kernels<std::int64_t>(),
      &dense_transform_axis,
      &dct_fast_axis,
  };
  return table;
}

}  // namespace internal

const KernelTable& active() {
  if (fault::armed()) [[unlikely]]
    maybe_degrade_dispatch();
  return *state().table.load(std::memory_order_relaxed);
}

Backend active_backend() {
  return state().backend.load(std::memory_order_relaxed);
}

Backend startup_backend() { return state().startup; }

bool backend_available(Backend backend) {
  return table_for(backend) != nullptr && cpu_supports(backend);
}

bool set_backend(Backend backend) {
  if (!backend_available(backend)) return false;
  DispatchState& s = state();
  s.backend.store(backend, std::memory_order_relaxed);
  s.table.store(table_for(backend), std::memory_order_relaxed);
  return true;
}

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Backend parse_backend_name(const char* value, bool* bad) {
  if (bad) *bad = false;
  if (value != nullptr) {
    if (std::strcmp(value, "scalar") == 0) return Backend::kScalar;
    if (std::strcmp(value, "avx2") == 0) return Backend::kAvx2;
  }
  if (bad) *bad = true;
  return Backend::kScalar;
}

}  // namespace pyblaz::kernels
