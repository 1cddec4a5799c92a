#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace fleet::stats {

/// Linear interpolation between the order statistics of an ascending
/// `sorted` sample: the value at position q * (n - 1), q in [0, 1].
/// `sorted` must be non-empty. The one formula behind both
/// RunningQuantile::percentile and EmpiricalCdf::quantile.
double interpolate_sorted(std::span<const double> sorted, double q);

/// Running quantile tracker over a (bounded) window of observations.
///
/// AdaSGD estimates tau_thres as the s-th percentile of past staleness
/// values (§2.3), and the controller thresholds requests on percentiles of
/// past mini-batch bounds and similarities (§2.4). The stream is
/// unbounded, so we keep a sliding window (default 4096 observations) and
/// answer percentile queries over it, exactly within the window.
///
/// Cost model: the window is held twice — a ring buffer that records
/// eviction order and an ascending copy — so O(window) memory (64 KB at
/// the default). add() finds the evicted value by binary search and moves
/// the entries between its slot and the new value's slot by one: O(log W)
/// compares plus one memmove of at most W doubles. percentile() is an O(1)
/// read of two neighbouring order statistics. Equal values sit in the
/// ascending copy in arrival order, so a query returns, bit for bit, what
/// a stable sort of the window would give.
class RunningQuantile {
 public:
  explicit RunningQuantile(std::size_t window = 4096);

  /// Records `value`, evicting the oldest once the window is full.
  /// Throws std::invalid_argument on NaN, which has no place in an order.
  void add(double value);

  /// Percentile in [0, 100]. Returns `fallback` until any value was added.
  double percentile(double p, double fallback = 0.0) const;

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

 private:
  std::size_t window_;
  std::size_t next_ = 0;        // ring-buffer write position once full
  std::vector<double> values_;  // the window in arrival (eviction) order
  std::vector<double> sorted_;  // the same values, ascending
};

}  // namespace fleet::stats
