#include "fleet/stats/histogram.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "fleet/stats/quantile.hpp"

namespace fleet::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  if (hi <= lo) throw std::invalid_argument("Histogram: hi <= lo");
  if (bins == 0) throw std::invalid_argument("Histogram: zero bins");
}

void Histogram::add(double value) {
  ++total_;
  if (value < lo_) {
    ++underflow_;
    return;
  }
  if (value >= hi_) {
    ++overflow_;
    return;
  }
  auto bin = static_cast<std::size_t>((value - lo_) / width_);
  bin = std::min(bin, counts_.size() - 1);
  ++counts_[bin];
}

void Histogram::add_all(const std::vector<double>& values) {
  for (double v : values) add(v);
}

double Histogram::bin_lo(std::size_t bin) const {
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const {
  return bin_lo(bin) + width_;
}

double Histogram::bin_center(std::size_t bin) const {
  return bin_lo(bin) + width_ / 2.0;
}

double Histogram::probability(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_.at(bin)) / static_cast<double>(total_);
}

std::string Histogram::to_rows() const {
  std::ostringstream os;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    os << bin_center(b) << " " << probability(b) << "\n";
  }
  return os.str();
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> values)
    : sorted_(std::move(values)) {
  if (sorted_.empty()) throw std::invalid_argument("EmpiricalCdf: empty");
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::quantile(double q) const {
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q not in [0,1]");
  return interpolate_sorted(sorted_, q);
}

double EmpiricalCdf::fraction_below(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

}  // namespace fleet::stats
