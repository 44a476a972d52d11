// Order-preserving integer keys for doubles, shared by the quantile
// selection in common/stats.cpp and the event queue's (time, seq) keys in
// sim/event.h.
#pragma once

#include <bit>
#include <cstdint>

namespace l3 {

/// Maps a double's IEEE-754 bits to an unsigned key whose order matches
/// operator< on the doubles (NaNs excluded): negatives get all bits
/// flipped, non-negatives just the sign bit. The map is a bijection, so
/// key_to_double() recovers every value exactly. The one place the key
/// order is finer than operator< is the signed zero: -0.0 keys strictly
/// below +0.0.
constexpr std::uint64_t order_key(double d) noexcept {
  const auto b = std::bit_cast<std::uint64_t>(d);
  const std::uint64_t mask =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(b) >> 63) |
      0x8000000000000000ull;
  return b ^ mask;
}

/// Inverse of order_key().
constexpr double key_to_double(std::uint64_t k) noexcept {
  const std::uint64_t b = (k & 0x8000000000000000ull) != 0
                              ? k ^ 0x8000000000000000ull
                              : ~k;
  return std::bit_cast<double>(b);
}

}  // namespace l3
