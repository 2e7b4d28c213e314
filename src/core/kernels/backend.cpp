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

/// Address-taking wrappers over the inline scalar templates in rebin.hpp.
template <typename BinT>
void quantize_bins_entry(const double* c, BinT* bins, index_t count,
                         double inv, double r) {
  quantize_bins<BinT>(c, bins, count, inv, r);
}

template <typename BinT>
void unbin_block_entry(const BinT* f, index_t count, double scale, double* c) {
  unbin_block<BinT>(f, count, scale, c);
}

template <typename BinT>
void decode_lincomb_entry(const BinT* const* f, const double* s,
                          index_t num_operands, index_t count, double* c) {
  decode_lincomb<BinT>(f, s, num_operands, count, c);
}

template <typename BinT>
void decode_lincomb_multi_entry(const BinT* const* rows, index_t num_rows,
                                const double* scales, const index_t* term_rows,
                                const index_t* offsets, index_t num_outputs,
                                index_t count, double* decoded,
                                double* const* out) {
  decode_lincomb_multi<BinT>(rows, num_rows, scales, term_rows, offsets,
                             num_outputs, count, decoded, out);
}

template <typename BinT>
constexpr BinKernels<BinT> scalar_bin_kernels() {
  return {&quantize_bins_entry<BinT>, &unbin_block_entry<BinT>,
          &decode_lincomb_entry<BinT>, &decode_lincomb_multi_entry<BinT>};
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
      &huffman_decode_run_generic,
  };
  return table;
}

index_t huffman_decode_run_generic(const HuffmanLut2Entry* lut,
                                   BitReader& reader, std::int32_t* out,
                                   index_t count, std::int32_t stop_symbol) {
  index_t decoded = 0;
  while (decoded < count) {
    const std::size_t start = reader.position();
    const auto window =
        static_cast<std::size_t>(reader.get_bits(kHuffmanLutBits));
    const HuffmanLut2Entry& entry = lut[window];
    if (entry.nsyms == 0) {
      // First code longer than the LUT window: rewind so the caller can run
      // the bit-serial decoder for exactly one symbol and resume.
      reader.seek(start);
      break;
    }
    out[decoded++] = entry.sym0;
    if (entry.sym0 == stop_symbol) {
      reader.seek(start + entry.len0);
      break;
    }
    if (entry.nsyms == 2 && decoded < count && entry.sym1 != stop_symbol) {
      out[decoded++] = entry.sym1;
      reader.seek(start + entry.total_bits);
    } else {
      // A stop symbol in the second slot is left in the stream so the next
      // probe emits it as sym0 and the stop bookkeeping stays in one place.
      reader.seek(start + entry.len0);
    }
  }
  return decoded;
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
