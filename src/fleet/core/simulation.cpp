#include "fleet/core/simulation.hpp"

#include <stdexcept>

namespace fleet::core {

FleetSimulation::FleetSimulation(FleetServer& server,
                                 std::vector<FleetWorker>& workers,
                                 const Config& config)
    : server_(server),
      workers_(workers),
      config_(config),
      network_(config.network),
      rng_(config.seed) {
  if (workers_.empty()) {
    throw std::invalid_argument("FleetSimulation: no workers");
  }
  if (config.duration_s <= 0.0) {
    throw std::invalid_argument("FleetSimulation: non-positive duration");
  }
  if (config.dropout_prob < 0.0 || config.dropout_prob > 1.0) {
    throw std::invalid_argument("FleetSimulation: dropout_prob outside [0,1]");
  }
}

FleetSimulation::Stats FleetSimulation::run() {
  Stats stats;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;

  // Stagger initial requests so the fleet does not arrive in lockstep.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    Event e;
    e.time_s = rng_.uniform(0.0, config_.think_time_mean_s);
    e.worker = w;
    e.kind = Event::Kind::kRequest;
    queue.push(e);
  }

  while (!queue.empty() && queue.top().time_s < config_.duration_s) {
    const Event event = queue.top();
    queue.pop();
    FleetWorker& worker = workers_[event.worker];

    switch (event.kind) {
      case Event::Kind::kRequest: {
        ++stats.requests;
        // One half of the network exchange: model download.
        const double download_s = 0.5 * network_.sample_transfer_s(rng_);
        const TaskAssignment assignment = server_.handle_request(
            worker.device_info(), worker.device().model_name(),
            worker.label_info());
        if (!assignment.accepted) {
          ++stats.rejected;
          Event next;
          next.time_s =
              event.time_s + rng_.exponential(config_.think_time_mean_s);
          next.worker = event.worker;
          next.kind = Event::Kind::kRequest;
          queue.push(next);
          break;
        }
        auto result = std::make_shared<FleetWorker::ExecutionResult>(
            worker.execute(assignment));
        const double upload_s = 0.5 * network_.sample_transfer_s(rng_);
        const double round_trip =
            download_s + result->execution.time_s + upload_s;
        stats.round_trip_s.push_back(round_trip);
        stats.task_times_s.push_back(result->execution.time_s);
        stats.task_energies_pct.push_back(result->execution.energy_pct);

        // Churn: the computed gradient may never arrive (Config::
        // dropout_prob). The device cost above was already charged; only
        // the upload is lost, so the worker goes back to thinking. Guarded
        // so dropout-free configs draw nothing and replay the exact event
        // sequences of older runs.
        if (config_.dropout_prob > 0.0 &&
            rng_.bernoulli(config_.dropout_prob)) {
          ++stats.dropped;
          Event next;
          next.time_s =
              event.time_s + round_trip +
              rng_.exponential(config_.think_time_mean_s);
          next.worker = event.worker;
          next.kind = Event::Kind::kRequest;
          queue.push(next);
          break;
        }

        Event arrival;
        arrival.time_s = event.time_s + round_trip;
        arrival.worker = event.worker;
        arrival.kind = Event::Kind::kGradientArrival;
        arrival.task_version = assignment.model_version;
        arrival.result = std::move(result);
        arrival.snapshot = assignment.snapshot;  // pinned for the flight
        queue.push(arrival);
        break;
      }
      case Event::Kind::kGradientArrival: {
        ++stats.gradients;
        const GradientReceipt receipt = server_.handle_gradient(
            event.task_version, event.result->gradient,
            event.result->minibatch_labels, event.result->mini_batch,
            event.result->observation);
        stats.staleness_values.push_back(receipt.staleness);
        if (receipt.model_updated) ++stats.model_updates;

        Event next;
        next.time_s =
            event.time_s + rng_.exponential(config_.think_time_mean_s);
        next.worker = event.worker;
        next.kind = Event::Kind::kRequest;
        queue.push(next);
        break;
      }
    }
  }
  for (; !queue.empty(); queue.pop()) {
    if (queue.top().kind == Event::Kind::kGradientArrival) ++stats.in_flight;
  }
  return stats;
}

}  // namespace fleet::core
