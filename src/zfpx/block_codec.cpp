#include "zfpx/block_codec.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace zfpx {

namespace {

using pyblaz::BitReader;
using pyblaz::BitWriter;

constexpr std::uint64_t kNegabinaryMask = 0xaaaaaaaaaaaaaaaaULL;
constexpr int kIntPrecision = 64;

/// ZFP's forward lifting transform on one 4-element line (stride s):
/// a near-orthogonal integer transform with bit shifts controlling growth.
void fwd_lift(std::int64_t* p, int s) {
  std::int64_t x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  x += w; x >>= 1; w -= x;
  z += y; z >>= 1; y -= z;
  x += z; x >>= 1; z -= x;
  w += y; w >>= 1; y -= w;
  w += y >> 1; y -= w >> 1;
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

/// Exact inverse of fwd_lift.  A corrupt payload can decode to values whose
/// sums overflow, so the lifting wraps in unsigned arithmetic instead of
/// hitting signed-overflow UB; values that fit come out the same.
void inv_lift(std::int64_t* p, int s) {
  using U = std::uint64_t;
  const auto half = [](U v) {
    return static_cast<U>(static_cast<std::int64_t>(v) >> 1);
  };
  U x = static_cast<U>(p[0 * s]), y = static_cast<U>(p[1 * s]),
    z = static_cast<U>(p[2 * s]), w = static_cast<U>(p[3 * s]);
  y += half(w); w -= half(y);
  y += w; w <<= 1; w -= y;
  z += x; x <<= 1; x -= z;
  y += z; z <<= 1; z -= y;
  w += x; x <<= 1; x -= w;
  p[0 * s] = static_cast<std::int64_t>(x);
  p[1 * s] = static_cast<std::int64_t>(y);
  p[2 * s] = static_cast<std::int64_t>(z);
  p[3 * s] = static_cast<std::int64_t>(w);
}

/// Apply fwd_lift along every axis (axis 0 has the largest stride in our
/// row-major layout).
void fwd_transform(std::int64_t* block, int dims) {
  const int n = block_values(dims);
  // Strides per axis: row-major, last axis contiguous.
  for (int axis = dims - 1; axis >= 0; --axis) {
    int stride = 1;
    for (int a = dims - 1; a > axis; --a) stride *= kBlockSide;
    // Lines along `axis`: iterate all positions with that axis fixed at 0.
    for (int base = 0; base < n; ++base) {
      const int coord = (base / stride) % kBlockSide;
      if (coord != 0) continue;
      fwd_lift(block + base, stride);
    }
  }
}

/// Apply inv_lift along every axis in the reverse order of fwd_transform.
void inv_transform(std::int64_t* block, int dims) {
  const int n = block_values(dims);
  for (int axis = 0; axis < dims; ++axis) {
    int stride = 1;
    for (int a = dims - 1; a > axis; --a) stride *= kBlockSide;
    for (int base = 0; base < n; ++base) {
      const int coord = (base / stride) % kBlockSide;
      if (coord != 0) continue;
      inv_lift(block + base, stride);
    }
  }
}

/// Two's complement -> negabinary.
std::uint64_t to_negabinary(std::int64_t x) {
  return (static_cast<std::uint64_t>(x) + kNegabinaryMask) ^ kNegabinaryMask;
}

/// Negabinary -> two's complement.
std::int64_t from_negabinary(std::uint64_t x) {
  return static_cast<std::int64_t>((x ^ kNegabinaryMask) - kNegabinaryMask);
}

/// ZFP's embedded bit-plane encoder with group testing: bit planes are
/// emitted from most to least significant.  Within each plane, bits of the
/// n values already known significant go verbatim; the rest are coded as a
/// group-test bit ("is any remaining value significant in this plane?")
/// followed by a unary run of zeros up to the next 1 (the 1 at the last
/// position is implied).  n persists across planes.  Stops when the bit
/// budget runs out.
void encode_ints(BitWriter& writer, int budget, const std::uint64_t* data,
                 int size) {
  int bits = budget;
  int n = 0;
  for (int k = kIntPrecision; bits && k-- > 0;) {
    // Extract bit plane k: bit i of x is bit k of value i.
    std::uint64_t x = 0;
    for (int i = 0; i < size; ++i)
      x += static_cast<std::uint64_t>((data[i] >> k) & 1u) << i;
    // First n bits verbatim.
    const int m = std::min(n, bits);
    bits -= m;
    writer.put_bits(x, m);
    x = m < 64 ? x >> m : 0;  // All 64 values significant: nothing left.
    // Group-tested remainder.
    while (n < size && bits) {
      --bits;
      const bool any = x != 0;
      writer.put_bit(any ? 1 : 0);
      if (!any) break;
      // Zeros up to the next 1; the 1 at position size-1 is implied.
      bool wrote_one = false;
      while (n < size - 1 && bits) {
        --bits;
        const int bit = static_cast<int>(x & 1u);
        writer.put_bit(bit);
        if (bit) {
          wrote_one = true;
          break;  // Advance past this value below.
        }
        x >>= 1;
        ++n;
      }
      // Skip the significant value (explicit 1, implied at the last
      // position, or assumed when the budget ran out — matching the
      // decoder's symmetric assumption).
      (void)wrote_one;
      x >>= 1;
      ++n;
    }
  }
}

/// Decoder mirroring encode_ints bit for bit.
void decode_ints(BitReader& reader, int budget, std::uint64_t* data, int size) {
  std::fill(data, data + size, std::uint64_t{0});
  int bits = budget;
  int n = 0;
  for (int k = kIntPrecision; bits && k-- > 0;) {
    const int m = std::min(n, bits);
    bits -= m;
    std::uint64_t x = reader.get_bits(m);
    while (n < size && bits) {
      --bits;
      if (!reader.get_bit()) break;  // Group test: no more 1s this plane.
      while (n < size - 1 && bits) {
        --bits;
        if (reader.get_bit()) break;  // Found the explicit 1.
        ++n;
      }
      x += std::uint64_t{1} << n;
      ++n;
    }
    // Deposit plane k.
    for (int i = 0; x; ++i, x >>= 1) data[i] += (x & 1u) << k;
  }
}

}  // namespace

const std::vector<int>& sequency_permutation(int dims) {
  static const std::vector<int> perms[3] = {
      [] {
        std::vector<int> p(static_cast<std::size_t>(block_values(1)));
        std::iota(p.begin(), p.end(), 0);
        return p;
      }(),
      [] {
        const int n = block_values(2);
        std::vector<int> p(static_cast<std::size_t>(n));
        std::iota(p.begin(), p.end(), 0);
        std::stable_sort(p.begin(), p.end(), [](int a, int b) {
          return (a / 4 + a % 4) < (b / 4 + b % 4);
        });
        return p;
      }(),
      [] {
        const int n = block_values(3);
        std::vector<int> p(static_cast<std::size_t>(n));
        std::iota(p.begin(), p.end(), 0);
        std::stable_sort(p.begin(), p.end(), [](int a, int b) {
          const int sa = a / 16 + (a / 4) % 4 + a % 4;
          const int sb = b / 16 + (b / 4) % 4 + b % 4;
          return sa < sb;
        });
        return p;
      }(),
  };
  assert(dims >= 1 && dims <= 3);
  return perms[dims - 1];
}

void encode_block(BitWriter& writer, const double* values, int dims,
                  int budget_bits) {
  const int n = block_values(dims);
  const std::size_t start = writer.size_bits();

  // Common exponent of the block (block floating point).
  double biggest = 0.0;
  for (int i = 0; i < n; ++i) biggest = std::max(biggest, std::fabs(values[i]));

  if (biggest == 0.0 || !std::isfinite(biggest)) {
    writer.put_bit(0);  // All-zero (or unencodable) block.
    writer.pad_to(start + static_cast<std::size_t>(budget_bits));
    return;
  }

  int emax;
  std::frexp(biggest, &emax);  // biggest = m * 2^emax with 0.5 <= m < 1.
  writer.put_bit(1);
  writer.put_bits(static_cast<std::uint64_t>(emax + kExponentBias), kExponentBits);

  // Fixed point q1.62: |values| < 2^emax maps to |q| < 2^62.
  std::int64_t iblock[64];
  for (int i = 0; i < n; ++i)
    iblock[i] = static_cast<std::int64_t>(
        std::ldexp(values[i], kIntPrecision - 2 - emax));

  fwd_transform(iblock, dims);

  // Sequency reorder + negabinary.
  const std::vector<int>& perm = sequency_permutation(dims);
  std::uint64_t ublock[64];
  for (int i = 0; i < n; ++i)
    ublock[i] = to_negabinary(iblock[perm[static_cast<std::size_t>(i)]]);

  const int header = 1 + kExponentBits;
  encode_ints(writer, budget_bits - header, ublock, n);
  writer.pad_to(start + static_cast<std::size_t>(budget_bits));
}

void decode_block(BitReader& reader, double* values, int dims, int budget_bits) {
  const int n = block_values(dims);
  const std::size_t start = reader.position();

  if (!reader.get_bit()) {
    std::fill(values, values + n, 0.0);
    reader.seek(start + static_cast<std::size_t>(budget_bits));
    return;
  }
  const int emax =
      static_cast<int>(reader.get_bits(kExponentBits)) - kExponentBias;

  const int header = 1 + kExponentBits;
  std::uint64_t ublock[64];
  decode_ints(reader, budget_bits - header, ublock, n);

  const std::vector<int>& perm = sequency_permutation(dims);
  std::int64_t iblock[64];
  for (int i = 0; i < n; ++i)
    iblock[perm[static_cast<std::size_t>(i)]] = from_negabinary(ublock[i]);

  inv_transform(iblock, dims);

  for (int i = 0; i < n; ++i)
    values[i] = std::ldexp(static_cast<double>(iblock[i]),
                           emax - (kIntPrecision - 2));
  reader.seek(start + static_cast<std::size_t>(budget_bits));
}

}  // namespace zfpx
