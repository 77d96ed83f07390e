// Raw byte copies for wire and serialization buffers.
#pragma once

#include <cstddef>
#include <cstring>

namespace appfl::util {

/// memcpy(dst, src, n), skipped when n == 0. An empty std::vector's data()
/// may be null, and memcpy with a null pointer is undefined behavior even
/// for a zero length.
inline void copy_bytes(void* dst, const void* src, std::size_t n) {
  if (n != 0) std::memcpy(dst, src, n);
}

}  // namespace appfl::util
