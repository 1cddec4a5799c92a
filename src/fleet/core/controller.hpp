#pragma once

#include <string>

#include "fleet/core/config.hpp"
#include "fleet/stats/quantile.hpp"

namespace fleet::core {

/// The FLeet controller (Fig 2): prevents learning tasks with low or no
/// utility from being computed at all — *before* any battery is spent —
/// by thresholding the mini-batch bound and the similarity value.
class Controller {
 public:
  explicit Controller(const ControllerConfig& config);

  struct Decision {
    bool admitted = true;
    std::string reason;  // set when rejected
  };

  /// Decide and record this request.
  Decision admit(std::size_t mini_batch, double similarity);

  std::size_t admitted_count() const { return admitted_; }
  std::size_t rejected_count() const { return rejected_; }

  /// Current effective thresholds (for inspection/benches); 0 and 1 while
  /// the check is not live (too little history, or disabled by config).
  double size_threshold() const;
  double similarity_threshold() const;

 private:
  bool size_check_on() const;
  bool similarity_check_on() const;

  ControllerConfig config_;
  stats::RunningQuantile sizes_;
  stats::RunningQuantile similarities_;
  std::size_t admitted_ = 0;
  std::size_t rejected_ = 0;
};

}  // namespace fleet::core
