#include "fleet/stats/quantile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "fleet/stats/histogram.hpp"
#include "fleet/stats/rng.hpp"

namespace fleet::stats {
namespace {

TEST(RunningQuantileTest, FallbackBeforeAnyValue) {
  RunningQuantile q;
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.percentile(50.0, 7.0), 7.0);
}

TEST(RunningQuantileTest, ExactOnSmallSets) {
  RunningQuantile q;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) q.add(v);
  EXPECT_DOUBLE_EQ(q.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.percentile(50.0), 3.0);
  EXPECT_DOUBLE_EQ(q.percentile(100.0), 5.0);
}

TEST(RunningQuantileTest, WindowEvictsOldest) {
  RunningQuantile q(4);
  for (double v : {100.0, 100.0, 100.0, 100.0}) q.add(v);
  // Push 4 small values; all the 100s must be gone.
  for (double v : {1.0, 2.0, 3.0, 4.0}) q.add(v);
  EXPECT_DOUBLE_EQ(q.percentile(100.0), 4.0);
}

TEST(RunningQuantileTest, PercentileOfGaussianStream) {
  RunningQuantile q(4096);
  Rng rng(5);
  for (int i = 0; i < 4096; ++i) q.add(rng.gaussian(12.0, 4.0));
  // 99.7th percentile of N(12,4) is approximately mu + 2.75 sigma = 23.
  EXPECT_NEAR(q.percentile(99.7), 23.0, 1.8);
}

TEST(RunningQuantileTest, RejectsBadInputs) {
  EXPECT_THROW(RunningQuantile(0), std::invalid_argument);
  RunningQuantile q;
  q.add(1.0);
  EXPECT_THROW(q.percentile(-1.0), std::invalid_argument);
  EXPECT_THROW(q.percentile(101.0), std::invalid_argument);
}

TEST(RunningQuantileTest, RejectsNaNAndKeepsItsWindow) {
  RunningQuantile q(4);
  for (double v : {1.0, 2.0, 3.0}) q.add(v);
  EXPECT_THROW(q.add(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(q.count(), 3u);
  EXPECT_DOUBLE_EQ(q.percentile(100.0), 3.0);
  q.add(4.0);
  EXPECT_DOUBLE_EQ(q.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.percentile(100.0), 4.0);
}

TEST(RunningQuantileTest, CountSaturatesAtWindow) {
  RunningQuantile q(8);
  for (int i = 0; i < 20; ++i) q.add(i);
  EXPECT_EQ(q.count(), 8u);
}

TEST(InterpolateSortedTest, EmpiricalCdfSharesTheFormula) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0, 8.0};
  const EmpiricalCdf cdf(xs);
  RunningQuantile q;
  for (double v : xs) q.add(v);
  for (double p : {0.0, 12.5, 30.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(cdf.quantile(p / 100.0), q.percentile(p)) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(interpolate_sorted(cdf.sorted(), 0.375), 2.5);
}

// Differential check against sort-on-query: copy the window, sort it,
// interpolate. The reference uses a stable sort of the window in arrival
// order, which is the one
// order among equal values (+0.0 and -0.0 compare equal) that the
// incremental structure promises, so every result must match bit for bit.
class SortOnQuery {
 public:
  explicit SortOnQuery(std::size_t window) : window_(window) {}

  void add(double v) {
    values_.push_back(v);
    if (values_.size() > window_) values_.pop_front();
  }

  double percentile(double p) const {
    std::vector<double> sorted(values_.begin(), values_.end());
    std::stable_sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1) return sorted.front();
    const double pos = (p / 100.0) * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }

 private:
  std::size_t window_;
  std::deque<double> values_;
};

enum class Stream { kIntegerStaleness, kSignedZeros, kContinuous };

double draw(Stream kind, Rng& rng) {
  switch (kind) {
    case Stream::kIntegerStaleness:  // heavy duplicates
      return static_cast<double>(rng.uniform_int(0, 12));
    case Stream::kSignedZeros: {  // +0.0 / -0.0 among a few small values
      const auto k = rng.uniform_int(0, 5);
      if (k == 0) return 0.0;
      if (k == 1) return -0.0;
      return static_cast<double>(k - 3);
    }
    case Stream::kContinuous:
      break;
  }
  return rng.gaussian(12.0, 4.0);
}

TEST(RunningQuantileTest, MatchesSortOnQueryBitwise) {
  const double ps[] = {0.0, 0.3, 50.0, 99.7, 100.0};
  for (std::size_t window : {std::size_t{1}, std::size_t{4},
                             std::size_t{4096}}) {
    for (Stream kind : {Stream::kIntegerStaleness, Stream::kSignedZeros,
                        Stream::kContinuous}) {
      Rng rng(1000 + window + static_cast<std::size_t>(kind));
      RunningQuantile fast(window);
      SortOnQuery ref(window);
      // 3W + 7 values: the ring wraps around more than twice, mid-slot.
      const std::size_t n = 3 * window + 7;
      // Query every step on small windows; on the large one, through the
      // fill, at every wrap and on a stride (each reference query sorts).
      const std::size_t stride = window < 64 ? 1 : 97;
      for (std::size_t i = 0; i < n; ++i) {
        const double v = draw(kind, rng);
        fast.add(v);
        ref.add(v);
        ASSERT_EQ(fast.count(), std::min(i + 1, window));
        if (i % stride != 0 && (i + 1) % window != 0 && i + 1 != n) continue;
        for (double p : ps) {
          const double got = fast.percentile(p);
          const double want = ref.percentile(p);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                    std::bit_cast<std::uint64_t>(want))
              << "window=" << window << " stream=" << static_cast<int>(kind)
              << " step=" << i << " p=" << p << " got=" << got
              << " want=" << want;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fleet::stats
