#include "core/dtypes/index_type.hpp"

#include <limits>

namespace pyblaz {

int bits(IndexType type) {
  switch (type) {
    case IndexType::kInt8:
      return 8;
    case IndexType::kInt16:
      return 16;
    case IndexType::kInt32:
      return 32;
    case IndexType::kInt64:
      return 64;
  }
  return 8;
}

std::int64_t radius(IndexType type) {
  // 2^(b-1) - 1, written so that b = 64 does not overflow.
  return std::numeric_limits<std::int64_t>::max() >> (64 - bits(type));
}

std::int64_t arithmetic_radius(IndexType type) {
  const std::int64_t cap = std::int64_t{1} << 53;
  const std::int64_t r = radius(type);
  return r < cap ? r : cap;
}

std::string name(IndexType type) {
  switch (type) {
    case IndexType::kInt8:
      return "int8";
    case IndexType::kInt16:
      return "int16";
    case IndexType::kInt32:
      return "int32";
    case IndexType::kInt64:
      return "int64";
  }
  return "int8";
}

}  // namespace pyblaz
