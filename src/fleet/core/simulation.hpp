#pragma once

#include <queue>
#include <vector>

#include "fleet/core/server.hpp"
#include "fleet/core/worker.hpp"
#include "fleet/net/network_model.hpp"

namespace fleet::core {

/// Discrete-event simulation of a FLeet deployment (substitution #6 in
/// DESIGN.md §3): workers request tasks, compute gradients on their
/// simulated devices and return them over the network model; the server
/// clock advances with model updates, so staleness emerges endogenously
/// from compute + network latency overlap.
class FleetSimulation {
 public:
  struct Config {
    double duration_s = 3600.0;
    /// Mean idle time between a worker's gradient upload and its next
    /// request (exponential).
    double think_time_mean_s = 30.0;
    /// Probability that a computed gradient never arrives at the server
    /// (device churn: the app is killed, the uplink drops, the user walks
    /// out of coverage). The battery was still spent, but the server never
    /// hears back — while surviving uploads pin their model snapshot for
    /// the whole simulated flight (the arrival event holds the handle), a
    /// dropped one releases it at the loss. 0 disables (and draws nothing
    /// from the RNG, preserving the event sequences of dropout-free runs).
    double dropout_prob = 0.0;
    net::NetworkModel::Config network;
    std::uint64_t seed = 1;
  };

  struct Stats {
    std::size_t requests = 0;
    std::size_t rejected = 0;
    std::size_t gradients = 0;
    /// Gradients computed but lost to dropout before reaching the server.
    std::size_t dropped = 0;
    /// Gradients computed but still uploading when the run ended. Every
    /// computed gradient is in exactly one of gradients, dropped, in_flight.
    std::size_t in_flight = 0;
    std::size_t model_updates = 0;
    std::vector<double> staleness_values;
    std::vector<double> task_times_s;
    std::vector<double> task_energies_pct;
    std::vector<double> round_trip_s;
  };

  FleetSimulation(FleetServer& server, std::vector<FleetWorker>& workers,
                  const Config& config);

  /// Run until the virtual clock passes the configured duration.
  Stats run();

 private:
  struct Event {
    double time_s = 0.0;
    std::size_t worker = 0;
    enum class Kind { kRequest, kGradientArrival } kind = Kind::kRequest;
    // Payload for gradient arrivals. The snapshot handle rides along so an
    // in-flight task pins theta^(t_i) for its whole simulated round trip —
    // ring eviction during a straggler's flight must not free the buffer.
    std::size_t task_version = 0;
    std::shared_ptr<FleetWorker::ExecutionResult> result;
    ModelStore::Snapshot snapshot;

    bool operator>(const Event& other) const { return time_s > other.time_s; }
  };

  FleetServer& server_;
  std::vector<FleetWorker>& workers_;
  Config config_;
  net::NetworkModel network_;
  stats::Rng rng_;
};

}  // namespace fleet::core
