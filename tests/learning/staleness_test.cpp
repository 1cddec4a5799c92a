#include "fleet/learning/staleness.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "fleet/stats/rng.hpp"

namespace fleet::learning {
namespace {

TEST(StalenessTrackerTest, FloorBeforeObservations) {
  StalenessTracker tracker;
  EXPECT_DOUBLE_EQ(tracker.tau_thres(), 2.0);
  EXPECT_FALSE(tracker.bootstrapped());
}

TEST(StalenessTrackerTest, BootstrapsAfterEnoughObservations) {
  StalenessTracker tracker(99.7, /*bootstrap_count=*/10);
  for (int i = 0; i < 9; ++i) tracker.observe(5.0);
  EXPECT_FALSE(tracker.bootstrapped());
  tracker.observe(5.0);
  EXPECT_TRUE(tracker.bootstrapped());
}

TEST(StalenessTrackerTest, TauThresIsPercentileOfObservations) {
  // s = 99.7% with staleness ~ N(mu, sigma) gives tau_thres close to
  // mu + 3 sigma — exactly how §3.2 configures D1/D2.
  StalenessTracker tracker(99.7);
  stats::Rng rng(1);
  for (int i = 0; i < 4000; ++i) {
    tracker.observe(std::max(0.0, rng.gaussian(12.0, 4.0)));
  }
  EXPECT_NEAR(tracker.tau_thres(), 12.0 + 3.0 * 4.0, 2.5);
}

TEST(StalenessTrackerTest, LowerPercentileGivesSmallerThreshold) {
  StalenessTracker p90(90.0), p99(99.0);
  stats::Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const double tau = std::max(0.0, rng.gaussian(10.0, 3.0));
    p90.observe(tau);
    p99.observe(tau);
  }
  EXPECT_LT(p90.tau_thres(), p99.tau_thres());
}

TEST(StalenessTrackerTest, RejectsBadInput) {
  EXPECT_THROW(StalenessTracker(0.0), std::invalid_argument);
  EXPECT_THROW(StalenessTracker(101.0), std::invalid_argument);
  StalenessTracker ok;
  EXPECT_THROW(ok.observe(-1.0), std::invalid_argument);
  EXPECT_THROW(ok.observe(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(ok.count(), 0u);
}

TEST(StalenessTrackerTest, ThresholdNeverBelowFloor) {
  StalenessTracker tracker;
  for (int i = 0; i < 100; ++i) tracker.observe(0.0);
  EXPECT_DOUBLE_EQ(tracker.tau_thres(), 2.0);
}

}  // namespace
}  // namespace fleet::learning
