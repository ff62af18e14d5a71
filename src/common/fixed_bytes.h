// Fixed-width byte-string keys and values for the two kv shapes of the paper
// (§4.1): 4 B keys / 4 B values (Figure 6/9/10, the shape KiWi supports) and
// 16 B keys / 100 B values (Figure 5/7/8). Comparison is lexicographic on the
// raw bytes, so encoding integers big-endian preserves numeric order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace jiffy {

template <std::size_t N>
struct FixedBytes {
  std::array<unsigned char, N> data{};

  static constexpr std::size_t size() { return N; }

  // Big-endian encode of the low min(N,8) bytes of `v`; upper bytes zero.
  static FixedBytes from_u64(std::uint64_t v) {
    FixedBytes b;
    constexpr std::size_t w = N < 8 ? N : 8;
    for (std::size_t i = 0; i < w; ++i)
      b.data[N - 1 - i] = static_cast<unsigned char>(v >> (8 * i));
    return b;
  }

  std::uint64_t to_u64() const {
    constexpr std::size_t w = N < 8 ? N : 8;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < w; ++i)
      v |= static_cast<std::uint64_t>(data[N - 1 - i]) << (8 * i);
    return v;
  }

  friend bool operator<(const FixedBytes& a, const FixedBytes& b) {
    return std::memcmp(a.data.data(), b.data.data(), N) < 0;
  }
  friend bool operator==(const FixedBytes& a, const FixedBytes& b) {
    return std::memcmp(a.data.data(), b.data.data(), N) == 0;
  }
  friend bool operator!=(const FixedBytes& a, const FixedBytes& b) {
    return !(a == b);
  }
};

using Key16 = FixedBytes<16>;
using Value100 = FixedBytes<100>;

}  // namespace jiffy
