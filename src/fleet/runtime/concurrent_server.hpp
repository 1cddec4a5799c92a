#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fleet/core/server.hpp"
#include "fleet/net/wire.hpp"
#include "fleet/runtime/fault.hpp"
#include "fleet/runtime/gradient_queue.hpp"
#include "fleet/runtime/model_registry.hpp"
#include "fleet/runtime/model_session.hpp"
#include "fleet/runtime/sharded_aggregator.hpp"
#include "fleet/tensor/kernels/kernels.hpp"

namespace fleet::runtime {

/// Knobs for the concurrent serving runtime. All of these are host-wide:
/// the ingest queue, its capacity, the fold pool and the drain cadence are
/// shared by every registered model, while each ModelSession brings its
/// own `core::ServerConfig`.
struct RuntimeConfig {
  /// Global bound on queued-but-unprocessed gradients, across all models.
  /// Once full, submits are rejected (backpressure) instead of growing an
  /// unbounded backlog.
  std::size_t queue_capacity = 4096;
  /// Independently locked ingest shards (see GradientQueue). Raised to
  /// `planner_threads` when smaller so every planner group owns at least
  /// one shard.
  std::size_t queue_shards = 8;
  /// Planner threads (DESIGN.md §13): sessions are sharded across this
  /// many planners by `id % planner_threads`, each draining its own
  /// ticket-ordered queue group and running the plan/fold/publish cycle
  /// for its disjoint session set. Admission tickets stay host-global, so
  /// every session still observes the exact admission-order prefix of its
  /// own jobs — any planner count yields bitwise identical per-session
  /// results (the determinism matrix asserts {1,2,4}).
  std::size_t planner_threads = 1;
  /// Explicit control-plane CPU placement, overriding sysfs topology
  /// discovery when `pin_fold_workers` is set: entry i is the CPU for
  /// planner i, followed by one entry per fold worker; -1 (or a missing
  /// entry) leaves that thread unpinned. For tests (deterministic
  /// unsupported-CPU fallback) and operators that know better than sysfs.
  std::vector<int> placement_override;
  /// Cap on the per-gradient trace vectors in each session's RuntimeStats
  /// (staleness, weights) — a long-lived server must not grow memory per
  /// gradient forever. Counters keep counting past the cap;
  /// RuntimeStats::traces_truncated records that the traces stopped.
  std::size_t trace_capacity = 1u << 16;
  /// Start with the planner threads parked (resume() arms them). Lets
  /// tests and benches stage a backlog deterministically.
  bool start_paused = false;
  /// Fold lanes for the sharded hierarchical aggregation (DESIGN.md
  /// §6/§9): each session's parameter arena is split into this many
  /// contiguous spans and a drain batch's weighted folds fan out across
  /// the shared fold scheduler — different sessions' spans concurrently,
  /// one latch per session. The pool runs `aggregation_shards - 1` worker
  /// threads; at 1 it has none and each planner folds its own plans on
  /// its own thread, through the same plan/fold/publish path. Any value
  /// yields a bitwise identical model per session — weights are computed
  /// centrally and every parameter index sees the same operation
  /// sequence.
  std::size_t aggregation_shards = 1;
  /// Best-effort pin the control plane — planner threads AND fold
  /// workers — per the NUMA placement plan (topology.hpp: sysfs
  /// discovery, single-node fallback, co-placement of planners, fold
  /// lanes and their arena spans; override with `placement_override`).
  /// Linux only. Whether every requested pin actually applied is
  /// surfaced as RuntimeStats::pinning_applied; a refused or unsupported
  /// pin logs one warning and bumps the "server.pinning_fallback"
  /// telemetry counter. No effect on results, only on locality.
  bool pin_fold_workers = false;
  /// Cap on how many jobs one queue drain hands a planner (0 = take
  /// everything). Batches are exact admission-order prefixes
  /// (ticket-ordered) per planner group, so batching changes snapshot-
  /// publication cadence and fold fan-out granularity, never any session's
  /// fold sequence or staleness.
  std::size_t max_drain_batch = 0;
  /// Arithmetic kernel backend for the process (tensor/kernels/,
  /// DESIGN.md §10). kAuto keeps the startup selection (FLEET_KERNEL env
  /// var, else the best the CPU supports); pinning a specific backend at
  /// server construction makes the run's floating-point summation order —
  /// and therefore its results — bitwise reproducible per kernel choice.
  /// Note this is process-wide state, not per-host: the last constructed
  /// server wins, so co-hosted servers should agree on it.
  tensor::kernels::Backend kernel_backend = tensor::kernels::Backend::kAuto;
  /// Decode guards for the wire ingest path (net/wire.hpp, DESIGN.md §12):
  /// ceilings a frame's claimed value/class counts must stay under before
  /// the decoder sizes any buffer. Frames past them are counted wire
  /// rejects, never allocations.
  net::WireLimits wire_limits;
  /// Observability (DESIGN.md §11). Off by default: the host then runs
  /// with no clock reads, no trace rings and no histogram updates — only
  /// the pre-existing relaxed counters. When enabled, the host owns one
  /// telemetry::Telemetry (metrics registry + trace collector), every
  /// layer records into it, and stats()/the exporters surface it. Timing
  /// is observed, never consulted: on or off, every session's model is
  /// bitwise identical (the determinism matrix asserts it).
  telemetry::TelemetryConfig telemetry;
  /// What the host does when the ingest queue crosses `shed_watermark`
  /// (DESIGN.md §14). The default kRejectNewest keeps the pre-policy
  /// behavior bitwise: incoming jobs bounce at capacity, queued jobs are
  /// never touched. The shed policies instead weigh the incoming job
  /// against the cheapest queued job in its target shard — by staleness
  /// (kShedStalest: AdaSGD's dampening would down-weight the stalest job
  /// hardest anyway) or by the exact dampened weight the session's
  /// aggregator would apply (kShedLowestWeight) — and drop the loser,
  /// counted as RuntimeStats::shed_drops and traced as kShedDrop, never
  /// silently.
  OverloadPolicy overload_policy = OverloadPolicy::kRejectNewest;
  /// Queue depth above which a shed policy starts weighing jobs (0 = only
  /// at capacity). Ignored under kRejectNewest; clamped to queue_capacity.
  std::size_t shed_watermark = 0;
  /// Deterministic fault injector (fault.hpp, DESIGN.md §14), optional and
  /// caller-owned (must outlive the host). Sites consulted on this host:
  /// kQueueFull (try_submit reports transient backpressure without
  /// touching the queue), kFoldTask (a fold span task throws and is
  /// quarantined — its session is marked degraded) and kPlannerStall (a
  /// planner spins `payload` yields before processing a batch). Null — or
  /// an injector with no armed site — leaves every path bitwise identical
  /// to a host built without one.
  FaultInjector* fault_injector = nullptr;
};

/// Point-in-time liveness/degradation view of one host (DESIGN.md §14):
/// what a supervisor needs to tell "slow" from "stuck" and "exact" from
/// "degraded" without parsing full RuntimeStats.
struct HealthSnapshot {
  /// Drain batches completed per planner, in planner order. Monotone; a
  /// stalled planner's entry stops advancing while the others keep
  /// counting.
  std::vector<std::size_t> planner_progress;
  /// Ids of registered sessions with at least one quarantined fold task
  /// (sticky; ascending id order).
  std::vector<core::ModelId> degraded_sessions;
  /// Gradients lost to the overload shed policy so far.
  std::size_t shed_drops = 0;
  /// Fold span tasks that threw and were quarantined instead of
  /// terminating the process.
  std::size_t fold_quarantines = 0;
};

/// Multi-tenant serving host (DESIGN.md §7): many learning tasks — each a
/// `ModelSession` owning its model, profiler, controller, AdaSGD state,
/// snapshot cell and logical clock — served behind ONE bounded ingest
/// queue (partitioned into planner groups), N planner threads and ONE
/// shared sharded fold pool. Sessions are registered and retired by
/// `core::ModelId`; the id→session lookup on the request path is a
/// lock-free copy-on-write directory (ModelRegistry).
///
/// Threading model:
///  - `handle_request(id, ...)` may be called from any number of request
///    threads: one registry lookup, then the session's own fine-grained
///    locks (profiler/controller) and its atomic snapshot record.
///  - `try_submit` is the multi-producer side: the job is validated
///    against its session and moved into the shared GradientQueue under a
///    global admission ticket, or rejected with backpressure when the
///    queue is full. Tickets are global across models, so each planner
///    group's drain batch is an exact admission-order prefix of
///    everything submitted to that group.
///  - `planner_threads` planner threads (DESIGN.md §13) each own the
///    disjoint session set `id % planner_threads == p` and drain that
///    group of the queue, demultiplexing each batch by ModelId in global
///    ticket order: each job's order-sensitive bookkeeping (staleness
///    against its session's clock, dampening, K-boundary, profiler
///    feedback) runs against its own session — which exactly one planner
///    ever touches. Then every session's fold plan is submitted to the
///    shared fold scheduler at once — different sessions' spans execute
///    concurrently on the pool (their arenas are disjoint), across
///    planners too — each planner waits for its own latches, and each
///    dirty session publishes one snapshot only after its own latch
///    resolved (DESIGN.md §9). A session's jobs keep their relative
///    admission order, its clock only moves with its own updates, and its
///    weights/fold order/staleness are therefore bitwise identical to a
///    solo single-model server fed the same sequence — for any planner
///    count, shard count, drain-batch size and tenant mix. Jobs whose
///    session was retired while they sat in the queue are dropped and
///    counted (RuntimeStats::retired_drops), never folded.
///
/// The single-model API of PR 2/3 (construct with a model, call
/// handle_request/try_submit/stats() without an id) is preserved as a thin
/// shim over a one-session registry under `core::kDefaultModelId`.
class ConcurrentFleetServer {
 public:
  /// Multi-tenant host: starts with no sessions; register_model() adds
  /// them (the planner threads idle until jobs arrive).
  explicit ConcurrentFleetServer(const RuntimeConfig& runtime = {});

  /// Single-model shim: a host with `model` registered as
  /// core::kDefaultModelId, serving the PR-2/3 API unchanged.
  ConcurrentFleetServer(nn::TrainableModel& model,
                        std::unique_ptr<profiler::Profiler> profiler,
                        const core::ServerConfig& config,
                        const RuntimeConfig& runtime = {});
  ~ConcurrentFleetServer();

  ConcurrentFleetServer(const ConcurrentFleetServer&) = delete;
  ConcurrentFleetServer& operator=(const ConcurrentFleetServer&) = delete;

  /// Register a learning task; returns its id (consecutive from
  /// core::kDefaultModelId). Callable while serving. The caller keeps
  /// `model` alive until the session is retired and the host drained, or
  /// until stop().
  core::ModelId register_model(nn::TrainableModel& model,
                               std::unique_ptr<profiler::Profiler> profiler,
                               const core::ServerConfig& config);

  /// Retire a task: subsequent requests and submits for the id are
  /// rejected (non-retryable), and queued gradients whose id no longer
  /// resolves when the aggregation loop reaches them are dropped and
  /// counted (RuntimeStats::retired_drops), never folded. The cut is
  /// batch-granular: the loop resolves each id once per drain batch, so
  /// jobs of a batch already being processed when retire() lands may
  /// still fold. For a clean cut, retire while the host is paused (or
  /// producers are quiesced past a drain()) — and as with model(), do not
  /// touch the retired model's parameters until a subsequent drain() or
  /// stop(). Returns false when the id was never registered (or already
  /// retired). The session object itself stays alive while any request
  /// thread still holds its shared_ptr.
  bool retire_model(core::ModelId id);

  /// The session registered under `id`, or nullptr. Sessions expose the
  /// per-task accessors (store/aggregator/controller/model/stats).
  std::shared_ptr<ModelSession> session(core::ModelId id) const {
    return registry_.lookup(id);
  }

  /// Currently registered ids, ascending.
  std::vector<core::ModelId> model_ids() const { return registry_.ids(); }

  /// Steps 1-4 of the protocol for one task, callable from any thread.
  /// Unknown/retired ids yield a rejected assignment.
  core::TaskAssignment handle_request(
      core::ModelId id, const profiler::DeviceFeatures& features,
      const std::string& device_model,
      const stats::LabelDistribution& label_info);
  /// Single-model shim: the default session's handle_request.
  core::TaskAssignment handle_request(
      const profiler::DeviceFeatures& features,
      const std::string& device_model,
      const stats::LabelDistribution& label_info);

  using VersionedSnapshot = ModelSession::VersionedSnapshot;
  /// The task's current (version, snapshot) record — the fast path under
  /// the request handler. Throws std::out_of_range for unknown ids.
  VersionedSnapshot current(core::ModelId id) const;
  VersionedSnapshot current() const { return current(core::kDefaultModelId); }

  /// Step 5, asynchronous: route `job` to its session (job.model_id) and
  /// move it into the shared ingest queue. On success `job` is consumed
  /// and the receipt only acknowledges admission (`accepted=true`,
  /// `version` = the session's clock at enqueue); the gradient's actual
  /// weight/staleness land in stats(id) once its planner thread
  /// processes it. On backpressure `job` is left intact (callers may
  /// retry); unknown/retired ids and malformed payloads reject permanently.
  core::GradientReceipt try_submit(GradientJob& job);

  /// Step 5 over the wire (DESIGN.md §12): validate and decode one binary
  /// frame (net/wire.hpp) into `scratch`, then submit it exactly like
  /// try_submit — decode happens strictly before admission, so a wire job
  /// is indistinguishable from an in-process one by the time it takes a
  /// ticket, and the fold path (and the determinism matrix) is untouched.
  /// Malformed frames are counted (RuntimeStats::wire_rejects, telemetry
  /// counter "wire.rejects", kWireReject trace instant with the WireError
  /// in payload b) and rejected non-retryably with reason "wire: ...";
  /// they never reach a session or a fold. `scratch` is the caller's
  /// reusable decode buffer (its gradient vector keeps its capacity across
  /// rejected frames; on success it is consumed like try_submit's job);
  /// `decode_error` (optional) receives the frame's validation result so
  /// front ends can tell malformed frames from server-side rejects.
  core::GradientReceipt try_submit_wire(std::span<const std::uint8_t> frame,
                                        GradientJob& scratch,
                                        net::WireError* decode_error = nullptr);
  /// Convenience overload with a per-call scratch job.
  core::GradientReceipt try_submit_wire(std::span<const std::uint8_t> frame) {
    GradientJob scratch;
    return try_submit_wire(frame, scratch);
  }

  /// Block until every job accepted so far — across all models — has been
  /// processed or dropped. With producers quiesced this is a full barrier:
  /// afterwards stats(), every session's model and version() are stable.
  void drain();

  /// Park / un-park every planner thread (batch-granular, host-wide).
  /// pause() does not block submits, and takes effect before the next
  /// batch is *processed*: a batch a planner had already popped when
  /// pause() landed is held unprocessed until resume(), but its jobs no
  /// longer occupy queue capacity. For deterministic backpressure staging
  /// use RuntimeConfig::start_paused, which parks the planners before
  /// they pop anything.
  void pause();
  void resume();

  /// Close the queue and join the planner threads after they drain what
  /// remains. Further submits are rejected. Idempotent; the destructor
  /// calls it.
  void stop();

  /// Logical clock t of one task. Throws std::out_of_range for unknown ids.
  std::size_t version(core::ModelId id) const;
  std::size_t version() const { return version(core::kDefaultModelId); }

  /// False once stop() closed the ingest queue (submits can only fail).
  bool accepting() const { return !queue_.closed(); }

  /// One task's stats, with the host-wide fields (backpressure rejects,
  /// retired drops, queue occupancy gauges, queue-wait histogram) filled
  /// in. The session's processing counters, histograms and traces are one
  /// consistent cut under a short trace mutex (see RuntimeStats), so a
  /// monitoring poll can never stall the fold for more than one
  /// bookkeeping block (DESIGN.md §7, §11). Throws std::out_of_range for
  /// unknown ids.
  RuntimeStats stats(core::ModelId id) const;
  RuntimeStats stats() const { return stats(core::kDefaultModelId); }

  /// The host-wide fields alone (backpressure rejects, retired drops,
  /// queue occupancy gauges), session counters and traces zero. Always
  /// available — the view to fall back on when no session id resolves
  /// (e.g. everything driven has been retired).
  RuntimeStats host_stats() const;

  /// Liveness/degradation snapshot (DESIGN.md §14): per-planner progress
  /// ticks, degraded session ids, shed and quarantine totals. Callable
  /// from any thread, any time.
  HealthSnapshot health() const;

  /// The host's telemetry substrate, or nullptr when
  /// RuntimeConfig::telemetry.enabled was false. Snapshot its metrics()
  /// and collect its tracer() for the exporters (telemetry/export.hpp);
  /// collect trace events after drain()/stop() for a complete lifecycle
  /// picture (collection is safe anytime, but rings only hold what was
  /// emitted so far).
  telemetry::Telemetry* telemetry() { return telemetry_.get(); }
  const telemetry::Telemetry* telemetry() const { return telemetry_.get(); }

  /// Single-model-shim accessors for the default session. They throw
  /// std::out_of_range when no session is registered under
  /// core::kDefaultModelId (host-mode servers should go through
  /// session(id) instead).
  const core::ModelStore& store() const { return require_default()->store(); }
  const learning::AsyncAggregator& aggregator() const {
    return require_default()->aggregator();
  }
  const core::Controller& controller() const {
    return require_default()->controller();
  }
  /// The default session's model. Owned by its planner thread while
  /// running — only touch it after drain() with producers quiesced, or
  /// after stop().
  nn::TrainableModel& model() { return require_default()->model(); }

 private:
  /// Per-batch demux slot: one per session appearing in the drain batch.
  /// Each planner keeps a persistent pool of these, reused across batches
  /// — the session handle is released at batch end (holding it across the
  /// idle wait would pin a retired session's state) but the fold-plan
  /// buffer keeps its capacity, so a steady-state drain allocates nothing
  /// (RuntimeStats::fold_buffer_growths counts the warm-up growths).
  struct SessionSlot {
    std::shared_ptr<ModelSession> session;
    std::vector<FoldOp> plan;
    FoldLatch latch;           // armed per batch by the fold scheduler
  };

  void planner_loop(std::size_t planner);
  std::shared_ptr<ModelSession> require(core::ModelId id) const;
  std::shared_ptr<ModelSession> require_default() const {
    return require(core::kDefaultModelId);
  }

  std::size_t trace_capacity_;
  std::size_t max_drain_batch_;
  /// Validated planner count (>= 1); also the queue's group count.
  std::size_t planner_count_;
  /// Overload policy the shared queue runs (also consulted on the submit
  /// path: shed policies stamp every admitted job's shed_cost). Declared
  /// before queue_, which is constructed from it.
  OverloadPolicy policy_;
  /// Deterministic fault injector; null for a fault-free host. Caller
  /// owned (RuntimeConfig::fault_injector), shared with the fold pool.
  FaultInjector* fault_ = nullptr;
  /// Stateless wire-frame validator/decoder shared by every request thread
  /// calling try_submit_wire (DESIGN.md §12).
  net::WireDecoder wire_decoder_;
  ModelRegistry registry_;
  std::atomic<core::ModelId> next_model_id_{core::kDefaultModelId};
  /// Host observability substrate; null when disabled. Declared before the
  /// queue and the fold pool: both hold raw pointers into it, so it must
  /// outlive them (members destroy in reverse declaration order).
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  /// Registry handles for the aggregation loop (null when disabled).
  telemetry::Counter* wire_rejects_ctr_ = nullptr;  ///< "wire.rejects"
  telemetry::Counter* pinning_fallback_ctr_ = nullptr;  ///< "server.pinning_fallback"
  telemetry::Histogram* drain_batch_ = nullptr;    ///< "server.drain_batch"
  telemetry::Histogram* session_fold_ns_ = nullptr;  ///< "server.session_fold_ns"
  telemetry::Histogram* publish_ns_ = nullptr;     ///< "server.publish_ns"
  telemetry::Gauge* queue_depth_gauge_ = nullptr;  ///< "queue.depth"
  telemetry::Counter* shed_ctr_ = nullptr;         ///< "queue.shed"
  telemetry::Counter* quarantine_ctr_ = nullptr;   ///< "server.fold_quarantines"
  GradientQueue queue_;
  /// The shared fold scheduler: all sessions' plans of a drain batch run
  /// on it concurrently, across planners too (submit/wait are
  /// multi-coordinator safe). With aggregation_shards = 1 it has no
  /// workers and runs each plan on the submitting planner.
  std::unique_ptr<ShardedAggregator> sharded_;
  /// Hot-path allocation events (slot-pool or plan-buffer growth); see
  /// RuntimeStats::fold_buffer_growths.
  std::atomic<std::size_t> fold_buffer_growths_{0};
  /// Whether the requested control-plane pinning fully applied (see
  /// RuntimeConfig::pin_fold_workers). Set once in the constructor.
  std::atomic<bool> pinning_applied_{false};

  /// Queued jobs dropped because their session was retired before the
  /// aggregation loop reached them.
  std::atomic<std::size_t> retired_drops_{0};
  /// Malformed wire frames refused at decode (never admitted, never
  /// folded); see try_submit_wire and RuntimeStats::wire_rejects.
  std::atomic<std::size_t> wire_rejects_{0};
  /// Gradients lost to the overload shed policy: refused incoming jobs
  /// plus queued victims evicted in their favor (DESIGN.md §14).
  std::atomic<std::size_t> shed_drops_{0};
  /// Fold span tasks that threw and were quarantined (their sessions are
  /// marked degraded instead of the process terminating).
  std::atomic<std::size_t> fold_quarantines_{0};
  /// Per-planner drain-batch completion ticks (HealthSnapshot). Deque:
  /// atomics must not move; sized in the constructor before the planner
  /// threads spawn.
  std::deque<std::atomic<std::size_t>> planner_progress_;

  // Drain accounting: accepted_ is bumped by producers, processed_ by the
  // aggregation thread; drain() waits until they meet.
  std::atomic<std::size_t> accepted_{0};
  std::atomic<std::size_t> processed_or_dropped_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  std::atomic<bool> paused_{false};
  std::mutex pause_mu_;
  std::condition_variable pause_cv_;

  std::atomic<bool> stopped_{false};
  std::vector<std::thread> planner_threads_;
};

}  // namespace fleet::runtime
