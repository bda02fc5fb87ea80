#pragma once

#include <cstddef>
#include <vector>

namespace dtr {

/// Heap bytes a vector holds: its capacity, not its size.
template <typename T>
std::size_t heap_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// Nested vectors: the outer buffer plus every inner one.
template <typename T>
std::size_t heap_bytes(const std::vector<std::vector<T>>& v) {
  std::size_t bytes = v.capacity() * sizeof(std::vector<T>);
  for (const std::vector<T>& inner : v) bytes += heap_bytes(inner);
  return bytes;
}

}  // namespace dtr
