// Tests for the cumulative-weight search behind the weighted picker: exact
// agreement with std::upper_bound (the reference semantics the scalar
// picker always had) at every table size the 64-bit availability mask
// admits, and chi-square distribution checks both directly against the
// search and end-to-end through a proxy.
#include "l3/mesh/pick_kernels.h"

#include "l3/common/rng.h"
#include "l3/mesh/mesh.h"
#include "l3/sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

namespace l3::mesh::pick {
namespace {

/// Reference implementation: first index whose cumulative weight exceeds r.
std::size_t reference_search(const std::vector<std::uint64_t>& cum,
                             std::uint64_t r) {
  return static_cast<std::size_t>(
      std::upper_bound(cum.begin(), cum.end(), r) - cum.begin());
}

/// A non-decreasing cumulative table with occasional plateaus (zero-weight
/// entries), the shape the picker builds when some backends carry weight 0.
std::vector<std::uint64_t> make_table(std::size_t n, SplitRng& rng) {
  std::vector<std::uint64_t> cum(n);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // ~1 in 4 entries weightless; upper_bound semantics must skip them.
    const bool zero = rng.bernoulli(0.25) && i + 1 < n;
    total += zero ? 0 : 1 + static_cast<std::uint64_t>(rng.uniform() * 997.0);
    cum[i] = total;
  }
  if (cum.back() == 0) cum.back() = 1;  // keep at least one pickable entry
  return cum;
}

TEST(PickKernels, AllKernelsAgreeWithUpperBound) {
  SplitRng rng(101);
  for (std::size_t n = 1; n <= 64; ++n) {
    const auto cum = make_table(n, rng);
    const std::uint64_t total = cum.back();
    std::vector<std::uint64_t> draws;
    // Edges: 0, each boundary and its predecessor, plus random draws.
    draws.push_back(0);
    for (std::size_t i = 0; i < n; ++i) {
      if (cum[i] > 0) draws.push_back(cum[i] - 1);
      if (cum[i] < total) draws.push_back(cum[i]);
    }
    for (int k = 0; k < 200; ++k) {
      draws.push_back(
          static_cast<std::uint64_t>(rng.uniform() * static_cast<double>(total)));
    }
    for (std::uint64_t r : draws) {
      if (r >= total) r = total - 1;
      EXPECT_EQ(search(cum.data(), n, r), reference_search(cum, r))
          << "n=" << n << " r=" << r;
    }
  }
}

/// Chi-square statistic of observed counts against expected proportions.
double chi_square(const std::vector<std::uint64_t>& observed,
                  const std::vector<double>& expected_share,
                  std::uint64_t total) {
  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double expected = expected_share[i] * static_cast<double>(total);
    if (expected <= 0.0) {
      EXPECT_EQ(observed[i], 0u) << "weightless bin " << i << " got picks";
      continue;
    }
    const double d = static_cast<double>(observed[i]) - expected;
    stat += d * d / expected;
  }
  return stat;
}

TEST(PickKernels, ChiSquareDirectDrawsMatchWeightsPerKernel) {
  // 16-entry table with a skewed weight vector including a zero. df = 14 pickable - 1 = 13; the 99.9th
  // percentile of chi2(13) is 34.5 — use 40 for slack. The draw mapping is
  // deterministic, so this never flakes; the margin is pure chi-square.
  constexpr std::size_t kN = 16;
  std::vector<std::uint64_t> weights(kN);
  for (std::size_t i = 0; i < kN; ++i) weights[i] = 10 + 25 * (i % 5);
  weights[5] = 0;
  std::vector<std::uint64_t> cum(kN);
  std::uint64_t total_weight = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    total_weight += weights[i];
    cum[i] = total_weight;
  }
  std::vector<double> share(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    share[i] = static_cast<double>(weights[i]) /
               static_cast<double>(total_weight);
  }
  constexpr std::uint64_t kDraws = 200000;
  SplitRng rng(303);
  std::vector<std::uint64_t> counts(kN, 0);
  for (std::uint64_t d = 0; d < kDraws; ++d) {
    auto r = static_cast<std::uint64_t>(
        rng.uniform() * static_cast<double>(total_weight));
    if (r >= total_weight) r = total_weight - 1;
    counts[search(cum.data(), kN, r)]++;
  }
  EXPECT_LT(chi_square(counts, share, kDraws), 40.0);
}

/// End-to-end: a proxy with a 6/3/1 weight split must reproduce those
/// shares through Proxy::pick_backend.
class ProxyKernelChiSquareTest : public ::testing::Test {
 protected:
  ProxyKernelChiSquareTest() : rng(17), mesh(sim, rng, make_config()) {
    c1 = mesh.add_cluster("c1");
    c2 = mesh.add_cluster("c2");
    c3 = mesh.add_cluster("c3");
    for (ClusterId c : {c1, c2, c3}) {
      mesh.deploy("svc", c, {},
                  std::make_unique<FixedLatencyBehavior>(0.010, 0.030));
    }
    mesh.proxy(c1, "svc");
    mesh.find_split(c1, "svc")->set_weights(
        std::vector<std::uint64_t>{6000, 3000, 1000});
  }

  static MeshConfig make_config() {
    MeshConfig config;
    config.local_delay = 0.0;
    config.local_jitter_frac = 0.0;
    config.health_probe_interval = 0.0;
    return config;
  }

  sim::Simulator sim;
  SplitRng rng;
  Mesh mesh;
  ClusterId c1 = 0, c2 = 0, c3 = 0;
};

TEST_F(ProxyKernelChiSquareTest, ScalarPickMatchesWeightsPerKernel) {
  const std::vector<double> share{0.6, 0.3, 0.1};
  constexpr int kPicks = 60000;
  // df = 2; chi2(2) 99.9th percentile is 13.8 — use 20 for slack.
  Proxy& proxy = mesh.proxy(c1, "svc");
  std::vector<std::uint64_t> counts(3, 0);
  for (int i = 0; i < kPicks; ++i) counts[proxy.pick_backend()]++;
  EXPECT_LT(chi_square(counts, share, kPicks), 20.0);
}

}  // namespace
}  // namespace l3::mesh::pick
