#pragma once

#include "core/kernels/backend.hpp"

/// Internal seam between the dispatcher (backend.cpp) and the per-ISA
/// translation units.  Each ISA TU always compiles (it is globbed into the
/// core library on every platform) but returns nullptr from its table_
/// function when the target ISA is not part of the build, so the dispatcher
/// needs no per-platform #ifdefs of its own.

namespace pyblaz::kernels::internal {

const KernelTable& scalar_table();

/// nullptr when the binary was not built with AVX2 support for this TU.
const KernelTable* avx2_table();

}  // namespace pyblaz::kernels::internal
