// Cumulative-weight search for the weighted picker: the index of the FIRST
// entry of a non-decreasing cumulative-weight table that exceeds `r` (an
// upper_bound). One branchless binary search serves every table size the
// 64-bit availability mask admits; DESIGN.md §13 "Pick search" has the
// measurements behind using one search for all of them.
#pragma once

#include <cstddef>
#include <cstdint>

namespace l3::mesh::pick {

/// First i with cum[i] > r. Requires n >= 1 and r < cum[n-1], which the
/// caller guarantees by clamping r below the total. Every halving step
/// advances by a conditional move, never a taken/not-taken branch, so it
/// does not pollute the branch predictor with data-dependent history.
inline std::size_t search(const std::uint64_t* cum, std::size_t n,
                          std::uint64_t r) {
  std::size_t pos = 0;
  std::size_t len = n;
  while (len > 1) {
    const std::size_t half = len / 2;
    pos += (cum[pos + half - 1] <= r) ? half : 0;
    len -= half;
  }
  return pos;
}

}  // namespace l3::mesh::pick
