#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "apps/gateway.h"
#include "apps/holding_policy.h"
#include "apps/red.h"
#include "decay/exponential.h"
#include "decay/polynomial.h"
#include "decay/sliding_window.h"

namespace tds {
namespace {

TEST(RedEstimatorTest, ValidatesThresholds) {
  auto decay = ExponentialDecay::Create(0.1).value();
  RedEstimator::Options options;
  options.min_threshold = 10.0;
  options.max_threshold = 5.0;
  EXPECT_FALSE(RedEstimator::Create(decay, options).ok());
  options.max_threshold = 20.0;
  options.max_probability = 0.0;
  EXPECT_FALSE(RedEstimator::Create(decay, options).ok());
}

TEST(RedEstimatorTest, DropProbabilityRamps) {
  auto decay = ExponentialDecay::Create(0.1).value();
  RedEstimator::Options options;
  options.min_threshold = 5.0;
  options.max_threshold = 15.0;
  options.max_probability = 0.1;
  auto red = RedEstimator::Create(decay, options);
  ASSERT_TRUE(red.ok());
  EXPECT_DOUBLE_EQ(red->DropProbability(3.0), 0.0);
  EXPECT_DOUBLE_EQ(red->DropProbability(10.0), 0.05);
  EXPECT_DOUBLE_EQ(red->DropProbability(20.0), 1.0);
}

TEST(RedEstimatorTest, AverageTracksCongestion) {
  auto decay = ExponentialDecay::Create(0.05).value();
  auto red = RedEstimator::Create(decay, RedEstimator::Options{});
  ASSERT_TRUE(red.ok());
  // Idle queue: no drops.
  Tick t = 1;
  for (; t <= 200; ++t) EXPECT_EQ(red->OnQueueSample(t, 1), 0.0);
  // Sustained congestion: average climbs above min_threshold -> drops.
  double drop = 0.0;
  for (; t <= 400; ++t) drop = red->OnQueueSample(t, 30);
  EXPECT_GT(drop, 0.0);
  EXPECT_GT(red->AverageQueue(400), 5.0);
  // Congestion clears: average decays back down.
  for (; t <= 1000; ++t) red->OnQueueSample(t, 0);
  EXPECT_LT(red->AverageQueue(1000), 5.0);
}

TEST(CircuitHoldingPolicyTest, RanksIdleCircuitsForClosure) {
  auto decay = ExponentialDecay::Create(0.01).value();
  auto policy = CircuitHoldingPolicy::Create(decay, {});
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(policy->AddCircuit("chatty").ok());
  ASSERT_TRUE(policy->AddCircuit("quiet").ok());
  // "chatty" bursts every 5 ticks; "quiet" every 100.
  for (Tick t = 5; t <= 1000; t += 5) ASSERT_TRUE(policy->OnBurst("chatty", t).ok());
  for (Tick t = 100; t <= 1000; t += 100) {
    ASSERT_TRUE(policy->OnBurst("quiet", t).ok());
  }
  const auto ordering = policy->CloseOrdering(1000);
  ASSERT_EQ(ordering.size(), 2u);
  EXPECT_EQ(ordering.front().first, "quiet");  // close the idle one first
  auto chatty = policy->AnticipatedIdle("chatty", 1000);
  auto quiet = policy->AnticipatedIdle("quiet", 1000);
  ASSERT_TRUE(chatty.ok());
  ASSERT_TRUE(quiet.ok());
  EXPECT_LT(*chatty, *quiet);
}

TEST(CircuitHoldingPolicyTest, UnknownCircuitRejected) {
  auto decay = ExponentialDecay::Create(0.01).value();
  auto policy = CircuitHoldingPolicy::Create(decay, {});
  ASSERT_TRUE(policy.ok());
  EXPECT_FALSE(policy->OnBurst("ghost", 5).ok());
  EXPECT_FALSE(policy->AnticipatedIdle("ghost", 5).ok());
}

// The Figure 1 scenario: L1 suffers a large failure; 24h later L2 suffers a
// small one. Right after L2's failure, recency makes L2 look worse under
// POLYD; as the age difference becomes negligible relative to elapsed time
// the weights converge and severity takes over, so L2 (30 min) must emerge
// as more reliable than L1 (300 min). Under EXPD the relative weights are
// frozen, so whichever path is preferred just after the failures stays
// preferred forever — the paper's critique.
TEST(GatewaySelectorTest, PolynomialDecayCrossesOverExponentialDoesNot) {
  const Tick l1_failure = 1000;
  const Tick l2_failure = l1_failure + 1440;  // 24h later (minutes)
  const uint64_t l1_severity = 300;           // 5h outage
  const uint64_t l2_severity = 30;            // 30min outage
  const Tick horizon = l2_failure + 40000;

  auto run = [&](DecayPtr decay) {
    auto selector = GatewaySelector::Create(decay, {});
    EXPECT_TRUE(selector.ok());
    const int l1 = selector->AddPath("L1").value();
    const int l2 = selector->AddPath("L2").value();
    EXPECT_TRUE(selector->ReportBadness(l1, l1_failure, l1_severity).ok());
    EXPECT_TRUE(selector->ReportBadness(l2, l2_failure, l2_severity).ok());
    std::vector<int> winners;
    for (Tick t = l2_failure + 1; t <= horizon; t += 500) {
      winners.push_back(selector->BestPath(t).value());
    }
    return winners;
  };

  // EXPD with moderate decay: right after L2's failure, L1's big failure is
  // a day old; whichever path EXPD prefers then, it prefers forever.
  {
    auto winners = run(ExponentialDecay::Create(0.001).value());
    for (size_t i = 1; i < winners.size(); ++i) {
      EXPECT_EQ(winners[i], winners[0]) << "EXPD ranking must never flip";
    }
  }
  // POLYD: initially L2 (fresh failure, decayed badness high) rates worse
  // than L1; as ages converge the severity difference dominates and L2
  // emerges as the more reliable path.
  {
    auto winners = run(PolynomialDecay::Create(2.0).value());
    EXPECT_EQ(winners.front(), 0) << "right after L2's failure, L1 wins";
    EXPECT_EQ(winners.back(), 1) << "eventually L2 must win (severity)";
  }
}

TEST(GatewaySelectorTest, PathManagement) {
  auto decay = PolynomialDecay::Create(1.0).value();
  auto selector = GatewaySelector::Create(decay, {});
  ASSERT_TRUE(selector.ok());
  EXPECT_FALSE(selector->BestPath(1).ok());
  EXPECT_FALSE(selector->ReportBadness(0, 1, 1).ok());
  const int a = selector->AddPath("A").value();
  EXPECT_EQ(a, 0);
  EXPECT_TRUE(selector->ReportBadness(a, 5, 10).ok());
  EXPECT_GT(selector->Rating(a, 10).value(), 0.0);
  EXPECT_FALSE(selector->Rating(7, 10).ok());
}

TEST(RedEstimatorTest, PolynomialDecayStaysCautiousLonger) {
  // After a congestion burst ends, the POLYD average must sit above the
  // EXPD average for a sustained period (the router_red example's claim).
  RedEstimator::Options options;
  auto ewma =
      RedEstimator::Create(ExponentialDecay::Create(0.05).value(), options);
  auto polyd =
      RedEstimator::Create(PolynomialDecay::Create(1.2).value(), options);
  ASSERT_TRUE(ewma.ok());
  ASSERT_TRUE(polyd.ok());
  Tick t = 1;
  for (; t <= 300; ++t) {
    ewma->OnQueueSample(t, 30);
    polyd->OnQueueSample(t, 30);
  }
  int polyd_higher = 0;
  for (; t <= 800; ++t) {
    ewma->OnQueueSample(t, 0);
    polyd->OnQueueSample(t, 0);
    if (t > 350 && polyd->AverageQueue(t) > ewma->AverageQueue(t)) {
      ++polyd_higher;
    }
  }
  EXPECT_GT(polyd_higher, 400);
}

}  // namespace
}  // namespace tds
