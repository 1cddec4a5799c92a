#include "fleet/core/controller.hpp"

namespace fleet::core {

Controller::Controller(const ControllerConfig& config) : config_(config) {}

// A check is live once it has min_history values to judge against and
// its percentile is not the disabling one: at 0 (size) or 100 (similarity)
// the threshold would be the window's extreme, so every request that sets
// a new lowest bound or a new highest similarity would still be pruned.
bool Controller::size_check_on() const {
  return config_.size_percentile > 0.0 && sizes_.count() >= config_.min_history;
}

bool Controller::similarity_check_on() const {
  return config_.similarity_percentile < 100.0 &&
         similarities_.count() >= config_.min_history;
}

double Controller::size_threshold() const {
  if (!size_check_on()) return 0.0;
  return sizes_.percentile(config_.size_percentile, 0.0);
}

double Controller::similarity_threshold() const {
  if (!similarity_check_on()) return 1.0;
  return similarities_.percentile(config_.similarity_percentile, 1.0);
}

Controller::Decision Controller::admit(std::size_t mini_batch,
                                       double similarity) {
  Decision decision;
  if (mini_batch < config_.absolute_min_batch) {
    decision.admitted = false;
    decision.reason = "mini-batch below absolute floor";
  } else if (size_check_on() &&
             static_cast<double>(mini_batch) < size_threshold()) {
    decision.admitted = false;
    decision.reason = "mini-batch below size percentile threshold";
  } else if (similarity_check_on() &&
             similarity > similarity_threshold()) {
    decision.admitted = false;
    decision.reason = "similarity above percentile threshold";
  }
  // Record after deciding so a request is not judged against itself.
  sizes_.add(static_cast<double>(mini_batch));
  similarities_.add(similarity);
  if (decision.admitted) {
    ++admitted_;
  } else {
    ++rejected_;
  }
  return decision;
}

}  // namespace fleet::core
