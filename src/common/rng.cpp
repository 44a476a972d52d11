#include "l3/common/rng.h"

namespace l3 {
namespace {

constexpr std::size_t kN = Mt64::kStateWords;
constexpr std::size_t kM = 156;
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

/// One twist step: the upper bit of `a` joined with the lower 31 bits of
/// `b`, shifted and conditionally xored with the twist matrix. The
/// `(0 - (y & 1)) & A` mask replaces the reference code's `(y & 1) ? A : 0`
/// so both refill loops vectorize.
inline std::uint64_t twist(std::uint64_t a, std::uint64_t b, std::uint64_t far) {
  const std::uint64_t y = (a & kUpperMask) | (b & kLowerMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

}  // namespace

void Mt64::refill() {
  std::uint64_t* x = state_;
  for (std::size_t k = 0; k < kN - kM; ++k) x[k] = twist(x[k], x[k + 1], x[k + kM]);
  for (std::size_t k = kN - kM; k < kN - 1; ++k) {
    x[k] = twist(x[k], x[k + 1], x[k + kM - kN]);
  }
  x[kN - 1] = twist(x[kN - 1], x[0], x[kM - 1]);
  pos_ = 0;
}

}  // namespace l3
