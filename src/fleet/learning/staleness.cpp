#include "fleet/learning/staleness.hpp"

#include <algorithm>
#include <stdexcept>

namespace fleet::learning {

StalenessTracker::StalenessTracker(double s_percent,
                                   std::size_t bootstrap_count,
                                   std::size_t window)
    : s_percent_(s_percent), bootstrap_count_(bootstrap_count),
      quantile_(window) {
  if (s_percent <= 0.0 || s_percent > 100.0) {
    throw std::invalid_argument("StalenessTracker: s_percent outside (0,100]");
  }
}

void StalenessTracker::observe(double staleness) {
  if (!(staleness >= 0.0)) {
    throw std::invalid_argument("StalenessTracker: negative or NaN staleness");
  }
  quantile_.add(staleness);
}

double StalenessTracker::tau_thres() const {
  return std::max(2.0, quantile_.percentile(s_percent_, 2.0));
}

}  // namespace fleet::learning
