#include "fleet/stats/quantile.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace fleet::stats {

double interpolate_sorted(std::span<const double> sorted, double q) {
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

RunningQuantile::RunningQuantile(std::size_t window) : window_(window) {
  if (window == 0) throw std::invalid_argument("RunningQuantile: window=0");
  values_.reserve(window);
  sorted_.reserve(window);
}

void RunningQuantile::add(double value) {
  if (std::isnan(value)) throw std::invalid_argument("RunningQuantile: NaN");
  const auto in = std::upper_bound(sorted_.begin(), sorted_.end(), value);
  if (values_.size() < window_) {
    values_.push_back(value);
    sorted_.insert(in, value);
    return;
  }
  const double evicted = std::exchange(values_[next_], value);
  next_ = (next_ + 1) % window_;
  // Equal values sit in arrival order and the evicted one is the oldest in
  // the window, so it heads its equal range; matching the bit pattern keeps
  // +0.0 and -0.0 (which compare equal) from trading places.
  const auto bits = std::bit_cast<std::uint64_t>(evicted);
  const auto out = std::find_if(
      std::lower_bound(sorted_.begin(), sorted_.end(), evicted), sorted_.end(),
      [bits](double v) { return std::bit_cast<std::uint64_t>(v) == bits; });
  // One shift of the entries between the evicted slot and the new one.
  if (in > out) {
    std::move(out + 1, in, out);
    *(in - 1) = value;
  } else {
    std::move_backward(in, out, out + 1);
    *in = value;
  }
}

double RunningQuantile::percentile(double p, double fallback) const {
  if (p < 0.0 || p > 100.0) {
    throw std::invalid_argument("percentile: p not in [0,100]");
  }
  if (sorted_.empty()) return fallback;
  return interpolate_sorted(sorted_, p / 100.0);
}

}  // namespace fleet::stats
