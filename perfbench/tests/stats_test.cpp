// Tests of the benchmark's own statistics (perfbench/src/stats.hpp):
// the tail percentile with its sample count, the rate-ladder rule, the
// RSS slope and the span self-time arithmetic.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "stats.hpp"

namespace utilrisk::perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(TailPercentile, ReportsP99WhenTenSamplesLieBeyondIt) {
  const Tail tail = tail_percentile(one_to(1000));
  EXPECT_DOUBLE_EQ(tail.quantile, 0.99);
  EXPECT_DOUBLE_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.samples, 1000u);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(TailPercentile, FallsBackSoTenSamplesStayBeyond) {
  // 610 samples: p99 would leave only 6 beyond; the highest percentile
  // with 10 beyond is rank 600.
  const Tail tail = tail_percentile(one_to(610));
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_DOUBLE_EQ(tail.value, 600.0);
  EXPECT_NEAR(tail.quantile, 600.0 / 610.0, 1e-12);
  EXPECT_EQ(tail.samples, 610u);
}

TEST(TailPercentile, NeverBelowTheMedian) {
  const Tail tail = tail_percentile(one_to(12));
  EXPECT_DOUBLE_EQ(tail.value, 6.0);  // nearest-rank median of 1..12
  EXPECT_EQ(tail.beyond, 6u);
  EXPECT_EQ(tail_percentile({}).samples, 0u);
}

TEST(Ladder, StepRuleCountsMissesAgainstSent) {
  LadderStep step{30000, 10000, 9900, 1.0, 10, false};
  EXPECT_TRUE(step_passes(step));
  step.on_time = 9899;  // 98.99 % on time
  EXPECT_FALSE(step_passes(step));
  step.on_time = 10000;
  step.lag_p99_ms = 11.0;  // the generator fell behind
  EXPECT_FALSE(step_passes(step));
  step.lag_p99_ms = 1.0;
  step.max_in_flight = kInFlightLimit;  // the sender had to hold back
  EXPECT_FALSE(step_passes(step));
  step.max_in_flight = kInFlightLimit - 1;
  EXPECT_TRUE(step_passes(step));
  step.max_in_flight = 10;
  step.aborted = true;
  EXPECT_FALSE(step_passes(step));
  EXPECT_FALSE(step_passes(LadderStep{}));
}

TEST(Ladder, MaxRateStopsAtTheFirstFailingRate) {
  const LadderStep pass5{5000, 100, 100, 0.1, 1, false};
  const LadderStep pass10{10000, 100, 100, 0.1, 1, false};
  const LadderStep fail15{15000, 100, 50, 0.1, 1, false};
  const LadderStep pass20{20000, 100, 100, 0.1, 1, false};
  EXPECT_DOUBLE_EQ(max_sustained_rate({pass20, pass5, fail15, pass10}),
                   10000.0);
  EXPECT_DOUBLE_EQ(max_sustained_rate({pass5, pass10}),
                   10000.0);
  EXPECT_DOUBLE_EQ(max_sustained_rate({fail15, pass20}), 0.0);
}

TEST(Ladder, ARateHoldsWhenMostOfItsTrialsPass) {
  const LadderStep pass5{5000, 100, 100, 0.1, 1, false};
  const LadderStep pass30{30000, 100, 100, 0.1, 1, false};
  const LadderStep fail30{30000, 100, 10, 0.1, 1, false};
  // 2 of 3 trials passed: the rate holds despite one stall.
  EXPECT_DOUBLE_EQ(max_sustained_rate({pass5, pass30, fail30, pass30}),
                   30000.0);
  // 1 of 2 is not a majority.
  EXPECT_DOUBLE_EQ(max_sustained_rate({pass5, pass30, fail30}),
                   5000.0);
}

TEST(Slope, RecoversALinearRssGrowth) {
  std::vector<std::pair<double, double>> points;
  for (int i = 1; i <= 10; ++i) {
    points.emplace_back(i * 10000.0, 15e6 + 200.0 * i * 10000.0);
  }
  EXPECT_NEAR(slope(points), 200.0, 1e-9);
  EXPECT_DOUBLE_EQ(slope({{1.0, 5.0}}), 0.0);
  EXPECT_DOUBLE_EQ(slope({{1.0, 5.0}, {1.0, 7.0}}), 0.0);
}

TEST(SelfTime, ParentMinusTheUnionOfItsChildren) {
  // parent [0,100): children [10,30) and [20,50) overlap -> union 40;
  // a grandchild [12,18) inside the first child.
  const std::vector<Span> spans = {
      {"exp.cell", -1, 1, 0, 100},
      {"workload.build", 0, 1, 10, 30},
      {"service.run", 0, 1, 20, 50},
      {"sim.queue", 1, 1, 12, 18},
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 14);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 6);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  // A completion that ends after its request span (another thread).
  const std::vector<Span> spans = {
      {"client.request", -1, 7, 0, 10},
      {"engine.submit", 0, 7, 5, 25},
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 5);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(layer_of(spans[1].name), "engine");
}

}  // namespace
}  // namespace utilrisk::perfbench
