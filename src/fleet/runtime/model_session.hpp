#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "fleet/core/atomic_shared.hpp"
#include "fleet/core/server.hpp"
#include "fleet/runtime/gradient_queue.hpp"
#include "fleet/runtime/sharded_aggregator.hpp"

namespace fleet::runtime {

/// Counters, histograms and traces for one learning task. The aggregation
/// side updates the processing counters, the per-gradient histograms and
/// the raw traces under one (short) trace mutex, and stats() reads them
/// under the same mutex — a snapshot is one consistent cut: `processed`
/// always equals the histograms' counts plus nothing in flight, never one
/// ahead of its trace. (`submitted` is the exception by design: it is
/// producer-side and lock-free, so it may legitimately run ahead of
/// `processed` while jobs sit in the queue.)
///
/// Reporting lives in the bounded histograms; the raw staleness/weight
/// vectors are kept for exact-sequence tests and debugging but stop
/// recording at the trace capacity (`traces_truncated`) — the histograms
/// and counters stay exact past the cap.
struct RuntimeStats {
  std::size_t submitted = 0;    ///< jobs accepted into the queue
  std::size_t processed = 0;    ///< jobs folded into the aggregator
  std::size_t model_updates = 0;
  std::size_t backpressure_rejects = 0;  ///< host-wide: submits refused, queue full
  std::size_t invalid_jobs = 0;  ///< task_version from the future (dropped)
  std::size_t retired_drops = 0;  ///< host-wide: queued jobs whose model was retired
  /// Host-wide: malformed wire frames refused at decode (DESIGN.md §12).
  /// Counted before admission — a rejected frame never takes a ticket,
  /// never reaches a session and never folds.
  std::size_t wire_rejects = 0;
  /// Host-wide ingest-queue occupancy gauges at snapshot time (the queue
  /// is shared by every session on the host; see GradientQueue::depth()).
  std::size_t queue_depth = 0;
  /// Host-wide high-water mark of the ingest queue (monotone; see
  /// GradientQueue::max_depth_seen()).
  std::size_t queue_max_depth_seen = 0;
  std::vector<std::size_t> queue_shard_depths;
  /// Host-wide fold-scheduler occupancy: span tasks run and the peak in
  /// flight at once (see ShardedAggregator::pool_stats()). Every folded
  /// plan counts, whatever the shard count.
  std::size_t fold_tasks_executed = 0;
  std::size_t fold_peak_pending = 0;
  /// Host-wide count of aggregation-hot-path buffer growths (a demux slot
  /// or fold-plan buffer had to allocate during a drain batch). A
  /// steady-state server stops growing after warm-up — the regression
  /// gauge for "no per-batch heap allocation on the hot path".
  std::size_t fold_buffer_growths = 0;
  /// Host-wide (process-wide) high-water mark of live kernel-scratch bytes
  /// across all threads' arenas (tensor/kernels/scratch.hpp). Monotone;
  /// with the slab arenas warmed up it stops moving — the companion gauge
  /// to fold_buffer_growths for "no per-call heap allocation in the
  /// arithmetic hot loops".
  std::size_t scratch_bytes_peak = 0;
  /// Staleness (tau) per processed gradient, bucketed — exact for every
  /// gradient ever processed, unlike the capped raw vector below.
  telemetry::HistogramSnapshot staleness_hist;
  /// Applied dampening weight per processed gradient, bucketed.
  telemetry::HistogramSnapshot weight_hist;
  /// Host-wide queue wait (enqueue -> drain, ns) when the host runs with
  /// telemetry enabled; empty otherwise. Filled by
  /// ConcurrentFleetServer::stats(), zero-count here.
  telemetry::HistogramSnapshot queue_wait;
  std::vector<double> staleness_values;  ///< tau per processed gradient
  std::vector<double> weights;           ///< applied dampening weights
  /// True once the raw trace vectors above hit the trace capacity and
  /// stopped recording (counters and histograms are still exact).
  bool traces_truncated = false;
  /// Host-wide control plane (DESIGN.md §13): how many planner threads
  /// drive this host (sessions shard across them by id).
  std::size_t planner_threads = 1;
  /// Whether the control-plane pinning requested via
  /// RuntimeConfig::pin_fold_workers fully applied. False when pinning was
  /// never requested, the platform doesn't support affinity, or any
  /// individual pin was refused (the host then logged one warning and
  /// bumped the "server.pinning_fallback" counter).
  bool pinning_applied = false;
  /// Host-wide: gradients lost to the overload shed policy (DESIGN.md
  /// §14) — refused incoming jobs plus queued victims evicted in their
  /// favor. Zero under the default kRejectNewest policy. Part of the
  /// extended ingest accounting identity: frames_sent == frames_submitted
  /// + wire_rejects + server_rejects + shed_drops.
  std::size_t shed_drops = 0;
  /// Host-wide: fold span tasks that finished by throwing (injected fault
  /// or real defect) and were quarantined instead of terminating the
  /// process. Each one marked its session degraded.
  std::size_t fold_quarantines = 0;
  /// This session had at least one fold task quarantined: its arena may
  /// hold a partially-applied fold, so its results are no longer bitwise
  /// reproducible (availability is preserved — it keeps serving). Sticky
  /// for the session's lifetime.
  bool degraded = false;
  /// Host-wide: how many registered sessions are currently degraded.
  std::size_t degraded_sessions = 0;
  /// Host-wide liveness ticks, one entry per planner: drain batches that
  /// planner completed. A stalled planner's tick stops advancing while the
  /// others keep counting (HealthSnapshot mirrors this).
  std::vector<std::size_t> planner_progress;
};

/// Everything one learning task owns on a multi-tenant serving host
/// (DESIGN.md §7): the model reference, its profiler, controller, AdaSGD
/// aggregator, snapshot store, the atomically-published (version, snapshot)
/// record, the per-task logical clock and the per-task stats traces. A
/// `ConcurrentFleetServer` hosts many sessions behind one ingest queue and
/// its planner threads; each session's learning semantics are exactly a
/// solo single-model server's (`core::FleetServer`), because every
/// order-sensitive mutation is keyed to this session's own state and its
/// jobs keep their relative admission order through the shared queue.
///
/// Threading model, mirroring the solo server's split:
///  - Request path (any thread): handle_request(), current(), version(),
///    validate(), stats(). Profiler and controller sit behind fine-grained
///    locks; the snapshot is one atomic record copy; similarity reads go
///    through the aggregator's internal lock.
///  - Aggregation path (exactly one thread: the session's one planner):
///    plan_process(), publish_if_dirty(), fold_context(). The host routes
///    every job of a session to the same planner, which is what preserves
///    AdaSGD's sequential update semantics per session.
///
/// Lifetime: the session references, but does not own, the model — the
/// registrant must keep the model alive until the session is retired AND
/// the host has drained (or stopped); the session itself may outlive
/// retirement in request threads holding a shared_ptr, which only ever
/// touch owned state after that point.
class ModelSession {
 public:
  /// `fold_shards` is the host's fold-pool shard count: the session caches
  /// its arena's span partition once, here, instead of re-deriving it for
  /// every drain batch (DESIGN.md §9). 1 caches the single full-arena
  /// span. `telemetry` (optional, caller-owned, outliving the session)
  /// mirrors the session's staleness/weight histograms into the host
  /// registry as "session.<id>.staleness" / "session.<id>.weight" so the
  /// exporters see them; the RuntimeStats histograms are maintained
  /// either way.
  ModelSession(core::ModelId id, nn::TrainableModel& model,
               std::unique_ptr<profiler::Profiler> profiler,
               const core::ServerConfig& config, std::size_t trace_capacity,
               std::size_t fold_shards = 1,
               telemetry::Telemetry* telemetry = nullptr);

  ModelSession(const ModelSession&) = delete;
  ModelSession& operator=(const ModelSession&) = delete;

  core::ModelId id() const { return id_; }

  /// The current (version, snapshot) pair as one consistent record.
  struct VersionedSnapshot {
    std::size_t version = 0;
    core::ModelStore::Snapshot snapshot;
  };
  VersionedSnapshot current() const;

  /// Steps 1-4 of the protocol for this task, callable from any thread.
  core::TaskAssignment handle_request(
      const profiler::DeviceFeatures& features,
      const std::string& device_model,
      const stats::LabelDistribution& label_info);

  /// Admission-side screen: nullptr when `job` is well-formed for this
  /// session, else a static reject reason. Everything the aggregation-side
  /// components would throw on must be caught here, where the rejection
  /// can surface to the caller instead of killing the process.
  const char* validate(const GradientJob& job) const;

  /// Logical clock t of this task: number of model updates so far.
  std::size_t version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Count a job accepted into the shared queue for this session.
  void note_submitted() {
    submitted_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Admission-time estimate of how much signal the host would lose by
  /// shedding `job` under `policy` (higher = more valuable = keep;
  /// GradientJob::shed_cost). kShedStalest scores by negated staleness
  /// against this session's clock *now* — staleness in rounds is the one
  /// unit commensurate across tenants, and AdaSGD's dampening
  /// Lambda(tau) makes the stalest job the one the fold would down-weight
  /// hardest anyway. kShedLowestWeight asks the session's own aggregator
  /// for the exact dampened weight it would apply at current staleness
  /// (label-similarity boost included). Both are estimates: the job's
  /// true staleness is fixed only when a planner reaches it. Never called
  /// under kRejectNewest. Request-path safe (reads the clock and the
  /// aggregator's internal lock; never the gradient payload).
  double shed_cost(const GradientJob& job, OverloadPolicy policy) const;

  /// Record a quarantined fold task against this session (DESIGN.md §14):
  /// sticky — the session keeps serving, but its arena may hold a
  /// partially-applied fold, so stats().degraded reads true from now on.
  /// Returns true the first time (so the host can count distinct degraded
  /// sessions without walking the registry).
  bool mark_degraded() {
    return !degraded_.exchange(true, std::memory_order_acq_rel);
  }
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

  // --- aggregation-thread side (single caller: the session's planner) ---

  /// Plan one job: screen it, compute its staleness and dampened weight,
  /// advance the clock at a flush point, feed the profiler and record the
  /// stats — everything order-sensitive — and append the numeric fold to
  /// `plan` for the shared fold scheduler (ShardedAggregator::submit)
  /// against fold_context(). Snapshot publication is deferred to
  /// publish_if_dirty() so the host can batch it per drain. Returns false
  /// when the job was dropped as invalid (nothing entered the plan, so the
  /// host's per-gradient fold trace events cover exactly the processed
  /// gradients).
  bool plan_process(GradientJob& job, std::vector<FoldOp>& plan);

  /// The context the shared fold scheduler executes this session's plans
  /// against: its aggregator, its model's mutable arena, and the cached
  /// span partition (computed once at construction — the partition depends
  /// only on (parameter count, fold shards), both fixed for the session's
  /// lifetime, so deriving it per batch was pure hot-path waste).
  FoldContext fold_context();

  /// Materialize and publish a snapshot if the clock advanced since the
  /// last publication (one O(|theta|) copy per dirty batch, not per
  /// update). The constructor publishes version 0, so requests never see
  /// an empty store. Returns true when a snapshot was actually published
  /// (so the host can scope its publish-latency span to real work).
  bool publish_if_dirty();

  /// Session-local stats view. The host-wide fields (backpressure, queue
  /// gauges, retired drops) are zero here; ConcurrentFleetServer::stats()
  /// fills them in.
  RuntimeStats stats() const;

  const core::ModelStore& store() const { return store_; }
  const learning::AsyncAggregator& aggregator() const { return aggregator_; }
  const core::Controller& controller() const { return controller_; }
  /// The session's model. Owned by its planner thread while the host
  /// runs — only touch it after drain() with producers quiesced, or after
  /// stop()/retirement.
  nn::TrainableModel& model() { return model_; }

 private:
  /// Profiler feedback and the per-job stats/trace bookkeeping.
  void record_processed(const GradientJob& job, double staleness,
                        double weight, bool updated);
  void publish_version(std::size_t version);

  const core::ModelId id_;
  nn::TrainableModel& model_;
  std::unique_ptr<profiler::Profiler> profiler_;
  core::ServerConfig config_;
  std::size_t trace_capacity_;
  /// Cached fold-span partition of the model's arena for the host's pool
  /// shard count; referenced by every fold_context() (DESIGN.md §9).
  std::vector<FoldSpan> fold_spans_;
  core::Controller controller_;
  learning::AsyncAggregator aggregator_;
  core::ModelStore store_;

  std::atomic<std::size_t> version_{0};
  /// Sticky fold-quarantine flag (see mark_degraded()).
  std::atomic<bool> degraded_{false};
  core::AtomicSharedPtr<const VersionedSnapshot> current_;
  /// Planner thread only: the version publish_if_dirty() last wrote.
  std::size_t published_version_ = 0;

  // Fine-grained locks for the order-insensitive-but-racy components.
  std::mutex profiler_mu_;
  std::mutex controller_mu_;

  // The submit counter is producer-side and lock-free. Everything the
  // aggregation side reports — processing counters, per-gradient
  // histograms, raw traces — lives under one short mutex, taken once per
  // gradient, so a stats() snapshot is a single consistent cut and a
  // monitoring poll copying long traces stalls the fold path for at most
  // one bookkeeping block (DESIGN.md §7, §11).
  std::atomic<std::size_t> submitted_{0};
  mutable std::mutex trace_mu_;
  std::size_t processed_ = 0;
  std::size_t model_updates_ = 0;
  std::size_t invalid_jobs_ = 0;
  bool traces_truncated_ = false;
  telemetry::LocalHistogram staleness_hist_;
  telemetry::LocalHistogram weight_hist_;
  std::vector<double> staleness_trace_;
  std::vector<double> weight_trace_;
  /// Registry mirrors of the two histograms above (nullptr when the host
  /// runs without telemetry).
  telemetry::Histogram* staleness_metric_ = nullptr;
  telemetry::Histogram* weight_metric_ = nullptr;
};

}  // namespace fleet::runtime
