#pragma once

#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "fleet/learning/dampening.hpp"
#include "fleet/learning/similarity.hpp"
#include "fleet/learning/staleness.hpp"
#include "fleet/stats/label_distribution.hpp"

namespace fleet::learning {

/// A gradient as received from a worker, together with the metadata the
/// server needs to weight it (Fig 2, step 5). The gradient is a view into
/// caller-owned storage — the aggregator folds it into its accumulator
/// in-place and never takes a copy (DESIGN.md §4), so the storage only has
/// to stay alive for the duration of the submit() call.
struct WorkerUpdate {
  std::span<const float> gradient;
  double staleness = 0.0;                   // tau_i = t - t_i
  stats::LabelDistribution label_dist{1};   // LD(x_i) of the local data
  std::size_t mini_batch = 0;
};

/// What one submit() yields: the dampening weight that was applied (the
/// bookkeeping and the accumulation share one computation), and — when this
/// submission completed an aggregation round — a view of the summed
/// weighted update, valid until the next submit()/flush().
struct SubmitResult {
  double weight = 0.0;
  std::optional<std::span<const float>> aggregate;
};

/// What plan_submit() yields: the weight the deferred fold must apply and
/// whether this submission completes an aggregation round (the fold plan
/// inserts a flush/apply step there). See the sharded-fold contract on
/// plan_submit().
struct PlannedSubmit {
  double weight = 0.0;
  bool flush = false;
};

/// Server-side gradient aggregation implementing Eq. 3:
///
///   theta_{t+1} = theta_t - lr * sum_{i<K} min(1, Lambda(tau_i)/sim(x_i))
///                                 * G(theta_{t_i}, xi_i)
///
/// Scheme selects the dampening: AdaSGD (exponential + similarity boost),
/// DynSGD (inverse, no boost), FedAvg (uniform average, staleness-unaware),
/// SSGD (weight 1 each; callers guarantee zero staleness). The aggregator
/// buffers weighted gradients until K have arrived, then hands back the
/// summed update for the caller to apply with its learning rate.
///
/// Thread safety: submit(), flush(), weight_for(), similarity_of(),
/// tau_thres(), dampening_factor() and pending() are serialized by an
/// internal mutex, so one aggregation thread can submit while request
/// threads query similarity concurrently (DESIGN.md §6). The *sequence* of
/// model updates is still defined by submission order — the runtime keeps
/// AdaSGD sequential by funneling all submits through a single aggregation
/// thread. The reference accessors (weight_log(), staleness(),
/// similarity()) hand out views of internal state and are for serial
/// harnesses and post-run inspection only.
class AsyncAggregator {
 public:
  struct Config {
    Scheme scheme = Scheme::kAdaSgd;
    std::size_t aggregation_k = 1;  // K in §2.3
    double s_percent = 99.7;        // expected % of non-stragglers
    bool similarity_boost = true;   // AdaSGD's boosting term
    std::size_t staleness_window = 4096;
    /// Pin tau_thres to a fixed value instead of estimating it from the
    /// observed staleness percentile (> 0 enables). The paper does this in
    /// controlled experiments, e.g. "D1, thus tau_thres is 12" in §3.2 —
    /// with injected stragglers the online percentile would absorb them.
    double fixed_tau_thres = 0.0;
    /// Cap on weight_log(): a long-lived server must not grow memory per
    /// gradient forever. Far above any experiment harness's submission
    /// count; once reached, weights stop being logged (dampening itself is
    /// unaffected).
    std::size_t weight_log_capacity = 1u << 20;
  };

  AsyncAggregator(std::size_t parameter_count, std::size_t n_classes,
                  const Config& config);

  /// Weight this update would receive right now (pure query; submit() does
  /// the bookkeeping and reports the weight it actually applied, so callers
  /// never need both).
  double weight_for(const WorkerUpdate& update) const;

  /// Submit a gradient: one fused weighted-axpy folds it into the
  /// accumulator. The result carries the applied weight and, when the K-th
  /// gradient arrives, a view of the summed weighted update.
  SubmitResult submit(const WorkerUpdate& update);

  /// The bookkeeping half of submit(), with the numeric fold deferred:
  /// computes and records the weight exactly as submit() would (weight
  /// log, LD_global, staleness observation, round counter) and reports
  /// whether this submission completes an aggregation round. The caller
  /// owns the deferred arithmetic: one fold_into() per planned submission
  /// and, where flush was reported, a flush_span() sweep — in plan order,
  /// span by span (runtime::ShardedAggregator). Because the weight is
  /// fixed here, at planning time, and each parameter index sees the same
  /// operation sequence as submit(), the deferred fold is bitwise
  /// identical to the sequential one for any span partition.
  PlannedSubmit plan_submit(const WorkerUpdate& update);

  /// Span-wise fold: accumulator[begin,end) += weight * gradient[begin,end),
  /// the same fused axpy (and the same double->float weight cast) submit()
  /// performs over the full arena. Deliberately NOT internally locked:
  /// callers run one writer per disjoint span (the sharded fold) strictly
  /// between plan_submit() calls, so the accumulator is never touched by
  /// submit()/flush() concurrently. `gradient` is the full-length vector;
  /// the span selects the slice.
  void fold_into(std::size_t begin, std::size_t end, double weight,
                 std::span<const float> gradient);

  /// Span-wise flush: copy accumulator[begin,end) into the flushed buffer
  /// and zero it, returning a view of the flushed slice (valid until the
  /// next fold/flush of that span). Bitwise identical to the swap-based
  /// flush() — a copy preserves every bit — but leaves other spans alone.
  /// A span covering the whole arena swaps the buffers like flush().
  /// Round bookkeeping (pending reset) already happened in plan_submit();
  /// same locking contract as fold_into().
  std::span<const float> flush_span(std::size_t begin, std::size_t end);

  /// Flush whatever is buffered regardless of K (std::nullopt when empty).
  /// §2.3: "the aggregation parameter K can be either fixed or based on a
  /// time window (e.g., update the model every 1 hour)" — a time-window
  /// deployment calls flush() on its timer. The returned view stays valid
  /// until the next submit()/flush().
  std::optional<std::span<const float>> flush();

  /// sim(x) of a label distribution against the current LD_global, under
  /// the aggregator lock — the thread-safe form of
  /// `similarity().similarity(ld)` for concurrent request paths.
  double similarity_of(const stats::LabelDistribution& label_dist) const;

  /// Gradients currently buffered toward the next update.
  std::size_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_;
  }

  /// Dampening weights applied so far (Fig 9b plots their CDF), capped at
  /// Config::weight_log_capacity entries.
  const std::vector<double>& weight_log() const { return weight_log_; }

  /// Weights that were applied but NOT logged because weight_log() hit
  /// Config::weight_log_capacity. Dampening itself is unaffected. Unlike
  /// weight_log() — a reference accessor, post-run/quiescent only — this
  /// counter is internally locked and safe to poll live: a running
  /// deployment checks it to learn the Fig-9b trace went incomplete, and
  /// reads the log itself only after quiescing.
  std::size_t weights_dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return weights_dropped_;
  }

  std::size_t parameter_count() const { return parameter_count_; }

  const StalenessTracker& staleness() const { return staleness_; }
  const SimilarityTracker& similarity() const { return similarity_; }
  const Config& config() const { return config_; }

  /// Current tau_thres-derived dampening curve value (for inspection).
  double dampening_factor(double staleness) const;

  /// Effective tau_thres: the fixed override when configured, otherwise
  /// the s-th percentile of observed staleness.
  double tau_thres() const;

 private:
  double weight_for_unlocked(const WorkerUpdate& update) const;
  double dampening_factor_unlocked(double staleness) const;
  double tau_thres_unlocked() const;
  std::optional<std::span<const float>> flush_unlocked();
  /// Shared bookkeeping of submit()/plan_submit(): weight computation and
  /// log, LD_global update, staleness observation. Returns the weight.
  double record_submit_unlocked(const WorkerUpdate& update);

  mutable std::mutex mu_;
  Config config_;
  std::size_t parameter_count_;
  StalenessTracker staleness_;
  SimilarityTracker similarity_;
  // Double buffer: submit() accumulates into accumulator_; flush() swaps the
  // buffers and returns a view of the flushed one, so the hot path never
  // allocates after construction.
  std::vector<float> accumulator_;
  std::vector<float> flushed_;
  std::size_t pending_ = 0;
  std::vector<double> weight_log_;
  std::size_t weights_dropped_ = 0;
};

}  // namespace fleet::learning
