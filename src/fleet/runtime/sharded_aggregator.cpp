#include "fleet/runtime/sharded_aggregator.hpp"

#include <algorithm>
#include <stdexcept>

#include "fleet/runtime/topology.hpp"
#include "fleet/tensor/ops.hpp"

namespace fleet::runtime {

ShardedAggregator::ShardedAggregator(std::size_t shards,
                                     std::vector<int> worker_cpus,
                                     telemetry::Telemetry* telemetry,
                                     FaultInjector* fault)
    : shards_(shards), telemetry_(telemetry), fault_(fault) {
  if (shards == 0) {
    throw std::invalid_argument("ShardedAggregator: shards must be >= 1");
  }
  if (telemetry_ != nullptr) {
    task_ns_ = telemetry_->metrics().histogram("pool.task_ns",
                                               telemetry::latency_bounds_ns());
    pending_ = telemetry_->metrics().gauge("pool.pending");
  }
  // Workers for spans 1..S-1; the coordinator is the pool's S-th lane
  // while it waits (shards == 1 spawns no threads at all). Worker w is
  // lane w + 1 for span affinity. Pinning is best-effort per the
  // placement plan; a refused pin (unsupported platform, CPU outside the
  // cpuset) leaves the worker where the scheduler puts it.
  workers_.reserve(shards - 1);
  for (std::size_t s = 1; s < shards; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
    const std::size_t w = s - 1;
    if (w < worker_cpus.size() && worker_cpus[w] >= 0 &&
        pin_thread_to_cpu(workers_.back().native_handle(), worker_cpus[w])) {
      ++pinned_workers_;
    }
  }
}

ShardedAggregator::~ShardedAggregator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::pair<std::size_t, std::size_t> ShardedAggregator::span_of(
    std::size_t param_count, std::size_t shards, std::size_t s) {
  const std::size_t chunk = (param_count + shards - 1) / shards;
  const std::size_t begin = std::min(s * chunk, param_count);
  return {begin, std::min(begin + chunk, param_count)};
}

std::vector<FoldSpan> ShardedAggregator::partition(std::size_t param_count,
                                                   std::size_t shards) {
  std::vector<FoldSpan> spans;
  spans.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const auto [begin, end] = span_of(param_count, shards, s);
    if (begin < end) spans.push_back(FoldSpan{begin, end});
  }
  return spans;
}

void ShardedAggregator::run_task(const FoldTask& task) {
  const auto [begin, end] = task.span;
  for (const FoldOp& op : task.plan) {
    if (op.kind == FoldOp::Kind::kFold) {
      task.ctx.aggregator->fold_into(begin, end, op.weight, op.gradient);
    } else {
      const auto flushed = task.ctx.aggregator->flush_span(begin, end);
      tensor::axpy(-op.learning_rate, flushed,
                   task.ctx.parameters.subspan(begin, end - begin));
    }
  }
}

bool ShardedAggregator::run_one(std::size_t lane) {
  FoldTask task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tasks_.empty()) return false;
    std::size_t pick = 0;
    if (lane != kAnyLane) {
      // Span affinity: prefer a task whose span index maps to this lane,
      // so each arena slice keeps returning to the same worker (and its
      // cache / NUMA node under placement pinning). The scan is bounded —
      // affinity is a hint, not a guarantee — and a lane with no affine
      // task falls back to the front, which keeps the pool
      // work-conserving: no task waits for "its" lane while others idle.
      const std::size_t scan = std::min<std::size_t>(tasks_.size(), 32);
      for (std::size_t i = 0; i < scan; ++i) {
        if (tasks_[i].span_index % shards_ == lane) {
          pick = i;
          break;
        }
      }
    }
    task = tasks_[pick];
    tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(pick));
    ++active_;
  }
  finish(task);
  return true;
}

void ShardedAggregator::finish(const FoldTask& task) {
  // A task that throws — an armed kFoldTask injection or a real defect in
  // the fold arithmetic — must never escape onto a pool lane: on a worker
  // thread it would std::terminate the process, and an unresolved latch
  // would deadlock the coordinator. Catch it, count it on the latch
  // (FoldLatch::take_failures) and resolve normally; the coordinator
  // quarantines the owning session (DESIGN.md §14).
  bool failed = false;
  const auto guarded_run = [&] {
    try {
      if (fault_ != nullptr && fault_->should_fire(FaultSite::kFoldTask)) {
        throw FaultInjector::InjectedFault("injected fold-task failure");
      }
      run_task(task);
    } catch (...) {
      failed = true;
    }
  };
  if (telemetry_ != nullptr) {
    const std::uint64_t t0 = telemetry_->now_ns();
    guarded_run();
    const std::uint64_t dur = telemetry_->now_ns() - t0;
    task_ns_->record(static_cast<double>(dur));
    telemetry::TraceEvent ev;
    ev.ts_ns = t0;
    ev.a = dur;
    ev.b = task.span.begin;
    ev.model = task.ctx.model;
    ev.phase = telemetry::TracePhase::kFoldTask;
    telemetry_->tracer().emit(ev);
  } else {
    guarded_run();
  }
  if (failed) {
    task.latch->failed_.fetch_add(1, std::memory_order_acq_rel);
  }
  bool resolved = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    ++tasks_executed_;
    // The latch counts down under mu_: a waiter checks the latch under the
    // same mutex before sleeping on done_cv_, so the final decrement's
    // notification can never slip between its check and its wait.
    resolved =
        task.latch->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }
  if (resolved) done_cv_.notify_all();
}

void ShardedAggregator::note_in_flight() {
  peak_pending_ = std::max(peak_pending_, tasks_.size() + active_);
  // Occupancy gauge tracks the high-water mark: a point-in-time value
  // would almost always read 0 by the time anyone snapshots.
  if (pending_ != nullptr) {
    pending_->record_max(static_cast<double>(tasks_.size() + active_));
  }
}

void ShardedAggregator::worker_loop(std::size_t lane) {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_) return;
    }
    // The lock was dropped between the wake-up and the pop — run_one()
    // re-checks and simply finds the queue empty when another lane won.
    run_one(lane);
  }
}

void ShardedAggregator::submit(const FoldContext& ctx,
                               std::span<const FoldOp> plan,
                               FoldLatch& latch) {
  if (ctx.aggregator == nullptr ||
      ctx.parameters.size() != ctx.aggregator->parameter_count()) {
    throw std::invalid_argument(
        "ShardedAggregator: fold context arena does not match its aggregator");
  }
  if (!ctx.spans.empty()) {
    // The spans must tile the arena exactly — a gap would silently skip
    // parameters, an overlap double-fold them. The vector is tenant-count
    // sized tiny, so the walk is free next to the fold itself.
    std::size_t cursor = 0;
    for (const FoldSpan& span : ctx.spans) {
      if (span.begin != cursor || span.end <= span.begin) {
        throw std::invalid_argument(
            "ShardedAggregator: cached span partition does not tile the "
            "arena");
      }
      cursor = span.end;
    }
    if (cursor != ctx.parameters.size()) {
      throw std::invalid_argument(
          "ShardedAggregator: cached span partition does not cover the arena");
    }
  }
  if (!latch.done()) {
    throw std::invalid_argument(
        "ShardedAggregator: latch already tracks an in-flight plan");
  }
  if (plan.empty()) return;

  // One task per non-empty span: the context's cached partition when it
  // carries one, else the (arena size, shard count) split.
  const std::size_t n_spans = ctx.spans.empty() ? shards_ : ctx.spans.size();
  const auto task_at = [&](std::size_t i) {
    FoldSpan span;
    if (ctx.spans.empty()) {
      const auto [begin, end] = span_of(ctx.parameters.size(), shards_, i);
      span = FoldSpan{begin, end};
    } else {
      span = ctx.spans[i];
    }
    return FoldTask{ctx, plan, span, i, &latch};
  };
  if (workers_.empty()) {
    // No worker lanes: the submitting thread is the pool's only lane, so
    // it runs the plan right here and the latch is resolved on return.
    // Planners sharing a workerless pool therefore never meet on its task
    // queue, and never fold each other's sessions.
    for (std::size_t i = 0; i < n_spans; ++i) {
      const FoldTask task = task_at(i);
      if (task.span.begin >= task.span.end) continue;
      {
        std::lock_guard<std::mutex> lock(mu_);
        latch.pending_.fetch_add(1, std::memory_order_acq_rel);
        ++active_;
        note_in_flight();
      }
      finish(task);
    }
    return;
  }

  std::size_t armed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < n_spans; ++i) {
      const FoldTask task = task_at(i);
      if (task.span.begin >= task.span.end) continue;
      tasks_.push_back(task);
      ++armed;
    }
    // Armed under mu_, before any lane can pop a task: a task finishing
    // can therefore never observe a latch it would drive below zero.
    latch.pending_.fetch_add(armed, std::memory_order_acq_rel);
    note_in_flight();
  }
  if (armed > 1) {
    work_cv_.notify_all();
  } else {
    work_cv_.notify_one();
  }
  // A thread already helping inside wait() sleeps on done_cv_ when the
  // queue momentarily ran dry — hand it the new work too.
  done_cv_.notify_all();
}

void ShardedAggregator::wait(FoldLatch& latch) {
  // Work-conserving wait: drain queued tasks (any plan's — executing
  // another session's span can only help resolve the pool sooner) and only
  // sleep once the queue is empty and our latch is still pending.
  while (!latch.done()) {
    if (run_one(kAnyLane)) continue;
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return latch.done() || !tasks_.empty(); });
  }
}

void ShardedAggregator::execute(const FoldContext& ctx,
                                std::span<const FoldOp> plan) {
  FoldLatch latch;
  submit(ctx, plan, latch);
  wait(latch);
}

ShardedAggregator::PoolStats ShardedAggregator::pool_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PoolStats stats;
  stats.tasks_executed = tasks_executed_;
  stats.peak_pending = peak_pending_;
  return stats;
}

}  // namespace fleet::runtime
