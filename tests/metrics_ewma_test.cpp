// Tests for Eq. 1 (EWMA) and Eq. 2 (PeakEWMA), including exact decay values
// and the §4 defaults / converge-to-default behaviour.
#include "l3/metrics/ewma.h"

#include <gtest/gtest.h>

#include <cmath>

namespace l3::metrics {
namespace {

TEST(Ewma, ReportsDefaultBeforeSamples) {
  Ewma e(5.0, 5.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);  // §4: latency default 5 s
  EXPECT_FALSE(e.has_samples());
}

TEST(Ewma, ExactBlendAfterOneHalfLife) {
  // After exactly one half-life, the decay factor e^(−Δt/β) with
  // β = h/ln2 equals 1/2 — the defining property.
  Ewma e(1.0, 5.0, /*start_time=*/0.0);
  e.observe(3.0, 5.0);
  EXPECT_NEAR(e.value(), 3.0 * 0.5 + 1.0 * 0.5, 1e-12);
  EXPECT_TRUE(e.has_samples());
}

TEST(Ewma, ExactBlendArbitraryDt) {
  const double half_life = 5.0;
  const double beta = beta_from_half_life(half_life);
  Ewma e(2.0, half_life, 0.0);
  e.observe(10.0, 3.0);
  const double decay = std::exp(-3.0 / beta);
  EXPECT_NEAR(e.value(), 10.0 * (1.0 - decay) + 2.0 * decay, 1e-12);
}

TEST(Ewma, ZeroDtLeavesValueUnchanged) {
  Ewma e(1.0, 5.0, 0.0);
  e.observe(4.0, 5.0);
  const double before = e.value();
  e.observe(100.0, 5.0);  // Δt = 0 → decay = 1 → no effect
  EXPECT_DOUBLE_EQ(e.value(), before);
}

TEST(Ewma, ConvergesToConstantInput) {
  Ewma e(5.0, 5.0, 0.0);
  for (int i = 1; i <= 40; ++i) e.observe(0.1, static_cast<double>(i) * 5.0);
  EXPECT_NEAR(e.value(), 0.1, 1e-3);
}

TEST(Ewma, BoundedBySampleRange) {
  Ewma e(0.5, 5.0, 0.0);
  for (int i = 1; i <= 100; ++i) {
    e.observe((i % 2 == 0) ? 0.2 : 0.8, static_cast<double>(i));
    EXPECT_GE(e.value(), 0.2 - 1e-12);
    EXPECT_LE(e.value(), 0.8 + 1e-12);
  }
}

TEST(Ewma, ConvergeToDefaultMovesBack) {
  Ewma e(5.0, 5.0, 0.0);
  e.observe(0.1, 5.0);
  const double after_sample = e.value();
  e.converge_to_default(10.0);
  EXPECT_GT(e.value(), after_sample);  // heading back toward 5.0
  for (int i = 3; i < 30; ++i) e.converge_to_default(static_cast<double>(i) * 5.0);
  EXPECT_NEAR(e.value(), 5.0, 0.01);  // §4: reaches the initial state
}

TEST(Ewma, ConvergeToDefaultDoesNotMarkSamples) {
  // Regression: converge_to_default used to route through observe(), which
  // set has_samples_ — so a backend that had NEVER reported data looked
  // like one with fresh samples after its first staleness tick, and the
  // controller's have-data bookkeeping lied upstream.
  Ewma e(5.0, 5.0, 0.0);
  e.converge_to_default(10.0);
  EXPECT_FALSE(e.has_samples());
  // The numeric trajectory is the same blend observe(default) produced.
  EXPECT_DOUBLE_EQ(e.value(), 5.0);

  // And converging after real samples keeps the flag set.
  e.observe(0.1, 15.0);
  e.converge_to_default(20.0);
  EXPECT_TRUE(e.has_samples());
}

TEST(PeakEwma, ConvergeToDefaultDoesNotMarkSamples) {
  Ewma p(0.1, 5.0, 0.0, FilterKind::kPeakEwma);
  p.converge_to_default(10.0);
  EXPECT_FALSE(p.has_samples());
  p.observe(3.0, 15.0);
  EXPECT_TRUE(p.has_samples());
  p.converge_to_default(20.0);
  EXPECT_TRUE(p.has_samples());
}

TEST(PeakEwma, ConvergeToDefaultRejectsTimeTravel) {
  Ewma p(0.1, 5.0, 10.0, FilterKind::kPeakEwma);
  EXPECT_THROW(p.converge_to_default(5.0), ContractViolation);
}

TEST(Ewma, ResetRestoresDefault) {
  Ewma e(5.0, 5.0, 0.0);
  e.observe(0.1, 5.0);
  e.reset(6.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
  EXPECT_FALSE(e.has_samples());
}

TEST(Ewma, RejectsTimeTravel) {
  Ewma e(1.0, 5.0, 10.0);
  EXPECT_THROW(e.observe(1.0, 5.0), ContractViolation);
}

TEST(PeakEwma, JumpsToPeakInstantly) {
  // Eq. 2 middle case: a sample above the current value replaces it.
  Ewma p(0.1, 5.0, 0.0, FilterKind::kPeakEwma);
  p.observe(2.0, 1.0);
  EXPECT_DOUBLE_EQ(p.value(), 2.0);
}

TEST(PeakEwma, DecaysCautiouslyBelowPeak) {
  Ewma p(0.1, 5.0, 0.0, FilterKind::kPeakEwma);
  p.observe(2.0, 1.0);
  p.observe(0.1, 6.0);  // one half-life later
  EXPECT_NEAR(p.value(), 0.1 * 0.5 + 2.0 * 0.5, 1e-12);
  EXPECT_GT(p.value(), 0.1);  // still remembers the peak
}

TEST(PeakEwma, MatchesEwmaOnMonotoneDecreasingInput) {
  // When samples never exceed the current value, PeakEWMA == EWMA.
  Ewma e(5.0, 5.0, 0.0);
  Ewma p(5.0, 5.0, 0.0, FilterKind::kPeakEwma);
  double v = 4.0;
  for (int i = 1; i < 20; ++i) {
    e.observe(v, static_cast<double>(i));
    p.observe(v, static_cast<double>(i));
    v *= 0.8;
  }
  EXPECT_NEAR(e.value(), p.value(), 1e-12);
}

TEST(PeakEwma, ReactsFasterThanEwmaToSpikes) {
  Ewma e(0.1, 5.0, 0.0);
  Ewma p(0.1, 5.0, 0.0, FilterKind::kPeakEwma);
  e.observe(3.0, 1.0);
  p.observe(3.0, 1.0);
  EXPECT_GT(p.value(), e.value());  // the defining behavioural difference
}

TEST(PeakEwma, ConvergeToDefaultDecaysPeak) {
  Ewma p(0.1, 5.0, 0.0, FilterKind::kPeakEwma);
  p.observe(3.0, 1.0);
  for (int i = 2; i < 20; ++i) p.converge_to_default(static_cast<double>(i) * 5.0);
  EXPECT_NEAR(p.value(), 0.1, 0.01);
}

TEST(BetaFromHalfLife, Definition) {
  // β = h / ln2 ⇒ e^(−h/β) = 1/2.
  const double beta = beta_from_half_life(10.0);
  EXPECT_NEAR(std::exp(-10.0 / beta), 0.5, 1e-12);
}

/// Property sweep over half-lives: after n half-lives the initial value's
/// weight is 2^−n.
class HalfLifeSweep : public ::testing::TestWithParam<double> {};

TEST_P(HalfLifeSweep, GeometricDecay) {
  const double h = GetParam();
  Ewma e(1.0, h, 0.0);
  // Observe zero at each half-life boundary; value should halve each time.
  double expected = 1.0;
  for (int n = 1; n <= 6; ++n) {
    e.observe(0.0, static_cast<double>(n) * h);
    expected *= 0.5;
    EXPECT_NEAR(e.value(), expected, 1e-9) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(HalfLives, HalfLifeSweep,
                         ::testing::Values(0.5, 1.0, 5.0, 10.0, 60.0));

}  // namespace
}  // namespace l3::metrics
