// Deterministic, splittable random number generation. Every stochastic
// component of the simulation owns its own SplitRng stream derived from the
// experiment seed, so that adding a component or reordering draws in one
// component never perturbs another — a requirement for reproducible
// experiments and for the seed-sweep property tests.
//
// The engine and every sampler are implemented here rather than taken from
// <random>, whose distribution algorithms are implementation-defined. Each
// one reproduces, bit for bit, what GCC 12's libstdc++ computes, so streams
// are the same on any standard library; the only remaining platform input is
// libm's `log`/`exp` (`sqrt` is correctly rounded by IEEE 754). Sources:
//   - Mt64: MT19937-64, Nishimura & Matsumoto, "Tables of 64-bit Mersenne
//     Twisters", ACM TOMACS 10(4), 2000; seeding, twist and tempering as
//     `std::mersenne_twister_engine` ([rand.eng.mers], [rand.predef]).
//   - uniform(): `std::generate_canonical<double, 53>` over one 64-bit word
//     (libstdc++ bits/random.tcc), including its nextafter(1, 0) clamp.
//   - exponential(): inverse CDF, -log(1 - u) / rate
//     (libstdc++ `exponential_distribution`).
//   - normal(): Marsaglia & Bray's polar method, "A convenient method for
//     generating normal variables", SIAM Review 6(3), 1964, as in libstdc++
//     `normal_distribution` (which returns y·mult and caches x·mult).
//   - lognormal(): exp(sigma·N(0, 1) + mu) (libstdc++
//     `lognormal_distribution`).
//   - uniform_int(): Lemire, "Fast Random Integer Generation in an
//     Interval", ACM TOMACS 29(1), 2019, in libstdc++'s 128-bit form
//     (`uniform_int_distribution::_S_nd`, bits/uniform_int_dist.h).
#pragma once

#include "l3/common/assert.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace l3 {

/// MT19937-64: the same seeding, twist and tempering as std::mt19937_64, so
/// `Mt64(s)` and `std::mt19937_64(s)` emit the same word sequence. The state
/// refill is branch-free so it vectorizes; tempering happens per draw.
class Mt64 {
 public:
  static constexpr std::size_t kStateWords = 312;

  explicit Mt64(std::uint64_t seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateWords; ++i) {
      const std::uint64_t prev = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
  }

  std::uint64_t operator()() {
    if (pos_ >= kStateWords) refill();
    std::uint64_t z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  /// Twists all 312 state words at once (out of line: runs every 312 draws).
  void refill();

  std::uint64_t state_[kStateWords];
  std::size_t pos_ = kStateWords;
};

/// The double uniform() returns for the raw engine word `x`: x·2⁻⁶⁴ rounded
/// to nearest, or the largest double below 1 when that rounds up to 1
/// (x ≥ 2⁶⁴ − 1024). Equal to `std::generate_canonical<double, 53>` over a
/// 64-bit engine. The two 32-bit halves convert exactly, so the add is the
/// only rounding and no branch on the top bit is needed.
inline double uniform_from_bits(std::uint64_t x) {
  const double hi = static_cast<double>(static_cast<std::uint32_t>(x >> 32));
  const double lo = static_cast<double>(static_cast<std::uint32_t>(x));
  const double u = (hi * 0x1p32 + lo) * 0x1p-64;
  return std::min(u, 0x1.fffffffffffffp-1);
}

/// A deterministic random stream with the distribution helpers the library
/// needs. Streams are cheap to copy; `split(name)` derives an independent
/// child stream from a string tag.
class SplitRng {
 public:
  /// Creates a stream from a 64-bit seed.
  explicit SplitRng(std::uint64_t seed) : engine_(engine_seed(seed)), seed_(seed) {}

  /// Derives an independent child stream keyed by `tag`. The child depends
  /// only on this stream's seed and the tag, not on how many numbers have
  /// been drawn from the parent.
  SplitRng split(std::string_view tag) const {
    std::uint64_t h = seed_ ^ 0xcbf29ce484222325ULL;  // FNV offset basis
    for (char c : tag) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 0x100000001b3ULL;  // FNV-1a prime
    }
    return SplitRng(h);
  }

  /// Derives an independent child stream keyed by an index.
  SplitRng split(std::uint64_t index) const {
    return SplitRng(seed_ ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  }

  /// Uniform double in the half-open interval [0, 1): 0.0 is a possible
  /// return value, 1.0 is not (see uniform_from_bits). Callers mapping onto
  /// an index range of size n via `uniform() * n` must still clamp the
  /// result to n-1: the multiplication can round up to n when n is not a
  /// power of two.
  double uniform() { return uniform_from_bits(engine_()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive. Always consumes at least one
  /// draw, even when lo == hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    L3_EXPECTS(lo <= hi);
    const std::uint64_t range =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    const std::uint64_t offset =
        range == ~std::uint64_t{0} ? engine_() : bounded(range + 1);
    return static_cast<std::int64_t>(offset + static_cast<std::uint64_t>(lo));
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Exponential with the given rate (events per second).
  double exponential(double rate) {
    L3_EXPECTS(rate > 0.0);
    return -std::log(1.0 - uniform()) / rate;
  }

  /// Normal with the given mean and standard deviation. The polar method
  /// yields two normals per accepted pair; only one is returned, as a
  /// freshly constructed std::normal_distribution would.
  double normal(double mean, double stddev) {
    L3_EXPECTS(stddev > 0.0);
    double x, y, r2;
    do {
      x = 2.0 * uniform() - 1.0;
      y = 2.0 * uniform() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    return y * mult * stddev + mean;
  }

  /// Log-normal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma) {
    L3_EXPECTS(sigma > 0.0);
    return std::exp(sigma * normal(0.0, 1.0) + mu);
  }

  /// Raw 64-bit draw.
  std::uint64_t next_u64() { return engine_(); }

  /// The (unmixed) seed this stream was created from.
  std::uint64_t seed() const { return seed_; }

  /// The Mt64 seed behind the stream seed `x`: the splitmix64 finalizer,
  /// which decorrelates sequential/related seeds.
  static std::uint64_t engine_seed(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

 private:
  /// Uniform in [0, n) for n ≥ 1 without modulo bias: the high word of
  /// draw·n, rejecting draws whose low word falls below 2⁶⁴ mod n.
  std::uint64_t bounded(std::uint64_t n) {
    __extension__ typedef unsigned __int128 U128;
    U128 product = U128{engine_()} * n;
    auto low = static_cast<std::uint64_t>(product);
    if (low < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (low < threshold) {
        product = U128{engine_()} * n;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::uint64_t>(product >> 64);
  }

  Mt64 engine_;
  std::uint64_t seed_ = 0;
};

}  // namespace l3
