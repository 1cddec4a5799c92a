#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "fleet/core/server.hpp"
#include "fleet/profiler/features.hpp"
#include "fleet/stats/label_distribution.hpp"
#include "fleet/telemetry/telemetry.hpp"

namespace fleet::runtime {

/// What the host does with gradients above the ingest queue's shed
/// watermark (DESIGN.md §14). The baseline refuses the *incoming* job —
/// the freshest work, which is exactly what AdaSGD's staleness dampening
/// values most. The shed policies instead compare the incoming job against
/// the queued jobs of its target shard and drop whichever the dampening
/// function would down-weight most, so overload sheds the gradients
/// carrying the least learning signal.
enum class OverloadPolicy {
  /// Today's behavior: a full queue rejects the incoming submit with
  /// retryable backpressure. The default; bitwise identical to pre-policy
  /// builds.
  kRejectNewest,
  /// Evict the stalest queued gradient (largest submit-time staleness)
  /// when the incoming one is fresher; Lambda(tau) = exp(-beta tau) makes
  /// the stalest gradient the cheapest possible loss.
  kShedStalest,
  /// Evict the queued gradient with the smallest expected dampened weight
  /// (staleness AND similarity boost folded in) — strictly the least
  /// signal by the aggregator's own metric, at the cost of a weight query
  /// per submit.
  kShedLowestWeight,
};

const char* overload_policy_name(OverloadPolicy policy);

/// One gradient in flight from a worker to a planner thread (Fig 2,
/// step 5, decoupled in time). Unlike the serial path's span-based
/// `learning::WorkerUpdate`, the job *owns* its gradient buffer: the
/// producer hands the vector it already computed into (zero extra copies)
/// and the planner folds it into the accumulator later, after
/// the producer has moved on. Staleness is deliberately NOT a field — it
/// is computed by the planner against the logical clock at
/// *processing* time, which is what keeps tau exact under queueing
/// (DESIGN.md §6).
struct GradientJob {
  /// Learning task this gradient belongs to: the ingest queue is shared by
  /// every registered model and the planner loop demultiplexes each
  /// drain batch by this id (DESIGN.md §7). It also selects the planner
  /// group the job is routed to (DESIGN.md §13).
  core::ModelId model_id = core::kDefaultModelId;
  std::size_t task_version = 0;            // t_i the gradient was computed at
  std::vector<float> gradient;             // owned; moved, never copied
  stats::LabelDistribution label_dist{1};  // LD of the mini-batch
  std::size_t mini_batch = 0;
  std::optional<profiler::Observation> feedback;  // profiler payload
  /// Global admission ticket, stamped by the queue when the push lands —
  /// the key every lifecycle trace event for this gradient carries. 0
  /// before admission. Not an input: whatever the producer sets is
  /// overwritten.
  std::uint64_t ticket = 0;
  /// Telemetry-only enqueue timestamp (ns on the host telemetry clock),
  /// stamped at admission when tracing is on; the drain side turns it into
  /// the queue-wait observation. 0 when telemetry is off. Never consulted
  /// by any scheduling or learning decision.
  std::uint64_t enqueue_ns = 0;
  /// Admission-time estimate of the learning signal this job carries,
  /// stamped by the server when an overload shed policy is active (never
  /// consulted under kRejectNewest). Higher = keep. kShedStalest: minus
  /// the staleness at submit; kShedLowestWeight: the dampened weight the
  /// aggregator would apply if the job were processed now. An estimate —
  /// staleness keeps growing while the job queues — but the *ordering*
  /// between queued jobs is all the shed comparison consumes, and queueing
  /// delay only makes an already-stale job staler (DESIGN.md §14).
  double shed_cost = 0.0;
};

/// Bounded, sharded multi-producer queue feeding the planner threads
/// (DESIGN.md §6, §13).
///
/// Producers spread across `shards` independently locked rings, so under
/// N-thread ingest they contend pairwise instead of on one global lock.
/// The shards are partitioned into `groups` contiguous *planner groups*;
/// a job routes to group `model_id % groups` (and to a shard within the
/// group by producer thread hash, overridable with a hint). Each group
/// has exactly one consumer — its planner thread — so the single-consumer
/// drain contract of the original design holds per group, while different
/// groups drain fully in parallel.
///
/// Every push takes a host-global admission ticket; a group drain returns
/// jobs in ticket order and removes an exact admission-order prefix of
/// the group's contents, so each session (pinned to one group by its id)
/// still observes the exact host-global admission order of its own jobs —
/// the invariant the determinism matrix checks bitwise (DESIGN.md §13).
///
/// The bound is global: when `size() == capacity`, try_push refuses and the
/// caller surfaces backpressure (the runtime turns this into a rejected
/// `GradientReceipt` instead of letting an overloaded server grow an
/// unbounded backlog).
class GradientQueue {
 public:
  /// `capacity`: global bound on queued jobs (>= 1).
  /// `shards`: independently locked sub-queues (>= 1; raised to `groups`
  /// when smaller so every group owns at least one shard).
  /// `telemetry`: optional observability sink (owned by the caller,
  /// outliving the queue). When set, the queue records admission latency
  /// ("queue.admit_ns") and per-gradient queue wait ("queue.wait_ns")
  /// histograms and emits submit/reject/dequeue lifecycle trace events.
  /// `groups`: planner groups (>= 1), one consumer thread per group.
  /// `policy` + `shed_watermark` (DESIGN.md §14): with a shed policy, a
  /// push that would raise the depth past min(shed_watermark, capacity)
  /// (watermark 0 = capacity, i.e. shed only when full) compares the
  /// incoming job's shed_cost against its target shard's queued jobs and
  /// drops whichever carries the least signal. kRejectNewest (the default)
  /// never evicts and is bitwise identical to the pre-policy queue.
  GradientQueue(std::size_t capacity, std::size_t shards = 8,
                telemetry::Telemetry* telemetry = nullptr,
                std::size_t groups = 1,
                OverloadPolicy policy = OverloadPolicy::kRejectNewest,
                std::size_t shed_watermark = 0);

  /// Enqueue, sharded by producer thread hash within the job's planner
  /// group. Consumes `job` (moves from it) only on success; on a full or
  /// closed queue returns false and leaves `job` intact so the caller can
  /// retry or drop it. Under a shed policy, shed outcomes also read false
  /// here — callers that must distinguish (and receive eviction victims)
  /// go through push().
  bool try_push(GradientJob& job);

  /// Enqueue into shard `shard_hint % <group shard count>` of the job's
  /// group — for producers that want a stable shard (e.g. one shard per
  /// driver thread).
  bool try_push(GradientJob& job, std::size_t shard_hint);

  /// Full-fidelity push outcome for the shed-aware runtime (DESIGN.md §14).
  enum class PushOutcome {
    kAccepted,        ///< admitted; `job` consumed
    kAcceptedEvicted, ///< admitted; a lower-cost queued job was evicted
                      ///< into *evicted (its ticket retires with it — the
                      ///< caller must account the eviction, see
                      ///< ConcurrentFleetServer::try_submit)
    kShedIncoming,    ///< refused by the shed policy: the incoming job was
                      ///< the least valuable. `job` intact, no ticket drawn
    kRejectedFull,    ///< capacity backpressure (kRejectNewest only)
    kRejectedClosed,  ///< queue closed
  };

  /// try_push with shed-policy fidelity: above the watermark under a shed
  /// policy the incoming job is weighed against its target shard and either
  /// admitted (possibly evicting the shard's lowest-shed_cost job into
  /// *evicted, when non-null) or refused as kShedIncoming. With
  /// kRejectNewest this is exactly try_push.
  PushOutcome push(GradientJob& job, GradientJob* evicted);

  /// Consumer side: append `group`'s queued jobs to `out` in
  /// admission-ticket order and return how many were taken. At most one
  /// thread may drain a given group (the group's planner); different
  /// groups drain concurrently. `max_batch` bounds one drain (0 = take
  /// everything): a bounded drain removes exactly the `max_batch`
  /// globally smallest tickets of the group, so successive bounded drains
  /// still consume the group in exact admission order — what keeps
  /// staleness and the fold sequence deterministic under batched
  /// aggregation. Blocks while the group is empty and the queue open;
  /// returns 0 only once the queue is closed *and* the group drained.
  std::size_t wait_drain(std::vector<GradientJob>& out,
                         std::size_t max_batch = 0, std::size_t group = 0);

  /// Non-blocking drain (same ordering and `max_batch` contract); returns
  /// the number taken.
  std::size_t drain(std::vector<GradientJob>& out, std::size_t max_batch = 0,
                    std::size_t group = 0);

  /// Close the queue: further pushes fail, wait_drain() returns what's left
  /// and then 0. Idempotent.
  void close();

  bool closed() const { return closed_.load(std::memory_order_acquire); }
  std::size_t size() const { return size_.load(std::memory_order_acquire); }
  std::size_t capacity() const { return capacity_; }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t group_count() const { return groups_.size(); }

  /// The planner group a model's jobs route to. Sessions map to groups by
  /// id, so a session's entire stream is consumed by exactly one planner.
  std::size_t group_of(core::ModelId model_id) const {
    return static_cast<std::size_t>(model_id) % groups_.size();
  }

  /// Occupancy gauge: queued-but-undrained jobs right now. Same value as
  /// size() (which exists for the capacity check); named for monitoring
  /// surfaces — ConcurrentFleetServer::stats() exports it.
  std::size_t depth() const { return size(); }

  /// One group's occupancy (reservation-counted, like depth()).
  std::size_t group_depth(std::size_t group) const {
    return groups_[group]->size.load(std::memory_order_acquire);
  }

  /// High-water-mark gauge: the deepest the queue has ever been (depth
  /// observed right after a successful push). Monotone; never reset by
  /// drains, so a monitoring poll after the burst still sees how close the
  /// backlog came to `capacity()`. At most `capacity()`.
  std::size_t max_depth_seen() const {
    return max_depth_.load(std::memory_order_acquire);
  }

  /// Per-shard occupancy, one entry per ingest shard. Each shard is read
  /// under its own lock, shard by shard — a monitoring poll never holds
  /// more than one producer lock at a time — so the entries are each exact
  /// but the vector is not one atomic cut: under concurrent pushes/drains
  /// the sum may transiently disagree with depth().
  std::vector<std::size_t> shard_depths() const;

  /// Total jobs ever refused for lack of space (backpressure events).
  std::size_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

  /// The live queue-wait histogram (enqueue -> drain, ns), or nullptr when
  /// the queue runs without telemetry. ConcurrentFleetServer surfaces its
  /// snapshot as RuntimeStats::queue_wait.
  const telemetry::Histogram* wait_histogram() const { return wait_ns_; }

 private:
  struct Item {
    std::uint64_t ticket = 0;
    GradientJob job;
  };
  /// Cache-line separated so producers on different shards never false-share.
  struct alignas(64) Shard {
    std::mutex mu;
    std::deque<Item> items;
  };
  /// One planner group: a contiguous shard range plus its consumer wakeup
  /// channel and occupancy counters. Cache-line separated like shards.
  struct alignas(64) GroupState {
    std::size_t shard_begin = 0;
    std::size_t shard_end = 0;  // exclusive
    std::atomic<std::size_t> size{0};
    // Consumer wakeup. Producers tap the mutex (empty critical section)
    // before notifying so a sleeping consumer can't miss the signal.
    std::mutex wake_mu;
    std::condition_variable wake_cv;
    /// Consumer-owned staging runs for the snapshot-then-merge bounded
    /// drain (one per shard of the group, capacity reused across drains).
    std::vector<std::vector<Item>> staged;
  };

  PushOutcome push_to_shard(GradientJob& job, std::size_t group,
                            std::size_t group_offset, GradientJob* evicted);
  /// Telemetry tail of a drain: queue-wait observations + dequeue events
  /// for out[from..), stamped against one clock read.
  void note_drained(const std::vector<GradientJob>& out, std::size_t from);

  std::size_t capacity_;
  OverloadPolicy policy_ = OverloadPolicy::kRejectNewest;
  /// Depth past which a shed policy starts weighing jobs:
  /// min(shed_watermark ? shed_watermark : capacity, capacity). Equal to
  /// capacity_ under kRejectNewest.
  std::size_t shed_trigger_;
  telemetry::Telemetry* telemetry_ = nullptr;  // optional, caller-owned
  telemetry::Histogram* admit_ns_ = nullptr;
  telemetry::Histogram* wait_ns_ = nullptr;
  telemetry::Counter* admitted_ctr_ = nullptr;
  telemetry::Counter* rejected_ctr_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<GroupState>> groups_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> max_depth_{0};
  std::atomic<std::uint64_t> next_ticket_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace fleet::runtime
