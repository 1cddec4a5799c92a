#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "fleet/core/controller.hpp"
#include "fleet/core/model_store.hpp"
#include "fleet/nn/model.hpp"
#include "fleet/profiler/features.hpp"

namespace fleet::core {

/// Identifies one learning task (model + profiler + controller + AdaSGD
/// state) on a multi-tenant server. The single-model serial `FleetServer`
/// always serves `kDefaultModelId`; `runtime::ConcurrentFleetServer` hosts
/// many ids side by side (DESIGN.md §7) and every assignment, gradient and
/// receipt carries the id it belongs to.
using ModelId = std::size_t;
inline constexpr ModelId kDefaultModelId = 0;

/// What the server hands a worker for one learning task (Fig 2, steps 2-4).
/// The model snapshot theta^(t_i) is a shared handle into the server's
/// ModelStore: every worker assigned at the same logical clock value holds
/// the *same* immutable buffer, so the request path copies nothing.
struct TaskAssignment {
  bool accepted = false;
  std::string reject_reason;
  ModelId model_id = kDefaultModelId;  // learning task this assignment is for
  std::size_t model_version = 0;   // logical clock t_i the task starts from
  std::size_t mini_batch = 0;      // I-Prof's workload bound
  ModelStore::Snapshot snapshot;   // shared model snapshot theta^(t_i)

  /// Flat view of the snapshot (empty when rejected).
  std::span<const float> parameters() const {
    return snapshot ? std::span<const float>(*snapshot)
                    : std::span<const float>();
  }
};

/// Server's acknowledgment of a received gradient (step 5).
struct GradientReceipt {
  /// False when the server refused to take the gradient at all — in the
  /// concurrent runtime, a full ingest queue rejects at admission
  /// (backpressure, DESIGN.md §6) and the gradient never touches the model.
  bool accepted = true;
  std::string reject_reason;
  ModelId model_id = kDefaultModelId;  // learning task the gradient targeted
  /// Meaningful only when !accepted: true for transient conditions (queue
  /// backpressure) where resubmitting the same job can succeed, false for
  /// permanent ones (validation failure, server shut down) where retrying
  /// is futile.
  bool retryable = false;
  /// True when !accepted because an overload shed policy judged this
  /// gradient the least valuable in its shard (runtime OverloadPolicy,
  /// DESIGN.md §14). Non-retryable by design — immediately resubmitting
  /// the same job under the same pressure would be refused again — and
  /// counted separately from ordinary rejects so ingest front ends can
  /// keep their accounting identity exact (IngestStats::shed_drops).
  bool shed = false;
  bool model_updated = false;
  double weight = 0.0;       // min(1, Lambda(tau)/sim) actually applied
  double staleness = 0.0;    // tau_i in model updates
  double similarity = 0.0;   // sim(x_i)
  std::size_t version = 0;   // server clock after handling this gradient
};

/// The FLeet server (§2.1): profiler + controller + AdaSGD aggregation
/// around a global model. Single-threaded by design — the discrete-event
/// simulation serializes handler calls, like the HTTP server serializes
/// stream handling in the original implementation. For real hardware
/// parallelism, `runtime::ConcurrentFleetServer` wraps the same components
/// behind a thread-safe facade (DESIGN.md §6). It always plans each
/// gradient centrally and folds the plan span by span on its fold pool
/// (`aggregation_shards` spans, `max_drain_batch` jobs per drain), so
/// this class is the one sequential implementation of AdaSGD and its
/// semantic reference: every configuration of the concurrent server is
/// bitwise equivalent to replaying each session's admitted sequence
/// through handle_gradient().
class FleetServer {
 public:
  FleetServer(nn::TrainableModel& model,
              std::unique_ptr<profiler::Profiler> profiler,
              const ServerConfig& config);

  /// Steps 1-4 of the protocol: device info + label info in, size bound and
  /// a shared model-snapshot handle out (or a rejection). The snapshot for
  /// the current version is materialized at most once; concurrent requests
  /// at the same version share one buffer.
  TaskAssignment handle_request(const profiler::DeviceFeatures& features,
                                const std::string& device_model,
                                const stats::LabelDistribution& label_info);

  /// Step 5: gradient in (a view into caller-owned storage — nothing is
  /// copied); dampen, maybe update the model. `feedback` carries the
  /// measured task cost back into the profiler.
  GradientReceipt handle_gradient(
      std::size_t task_version, std::span<const float> gradient,
      const stats::LabelDistribution& label_info, std::size_t mini_batch,
      const std::optional<profiler::Observation>& feedback = std::nullopt);

  /// Re-publish the current version's snapshot from the live model. The
  /// server caches one snapshot per logical-clock value, so after mutating
  /// the model's parameters externally (e.g. warm-starting from a
  /// checkpoint via nn::load_model) call this — otherwise requests at the
  /// current version keep receiving the pre-mutation snapshot. Assignments
  /// already handed out keep their original buffer.
  void refresh_snapshot();

  /// Logical clock t: number of model updates so far.
  std::size_t version() const { return version_; }

  const Controller& controller() const { return controller_; }
  const learning::AsyncAggregator& aggregator() const { return aggregator_; }
  const ModelStore& store() const { return store_; }
  profiler::Profiler& profiler() { return *profiler_; }
  /// The global model. If you overwrite its parameters out-of-band, call
  /// refresh_snapshot() so the store serves the new state.
  nn::TrainableModel& model() { return model_; }

 private:
  /// Snapshot for the current version, publishing it on first use.
  ModelStore::Snapshot current_snapshot();

  nn::TrainableModel& model_;
  std::unique_ptr<profiler::Profiler> profiler_;
  ServerConfig config_;
  Controller controller_;
  learning::AsyncAggregator aggregator_;
  ModelStore store_;
  std::size_t version_ = 0;
};

}  // namespace fleet::core
