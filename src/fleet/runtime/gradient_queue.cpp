#include "fleet/runtime/gradient_queue.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <thread>

namespace fleet::runtime {

const char* overload_policy_name(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kRejectNewest:
      return "reject_newest";
    case OverloadPolicy::kShedStalest:
      return "shed_stalest";
    case OverloadPolicy::kShedLowestWeight:
      return "shed_lowest_weight";
  }
  return "unknown";
}

GradientQueue::GradientQueue(std::size_t capacity, std::size_t shards,
                             telemetry::Telemetry* telemetry,
                             std::size_t groups, OverloadPolicy policy,
                             std::size_t shed_watermark)
    : capacity_(capacity),
      policy_(policy),
      shed_trigger_(policy == OverloadPolicy::kRejectNewest
                        ? capacity
                        : std::min(shed_watermark == 0 ? capacity
                                                       : shed_watermark,
                                   capacity)),
      telemetry_(telemetry) {
  if (capacity == 0) {
    throw std::invalid_argument("GradientQueue: capacity must be >= 1");
  }
  if (shards == 0) {
    throw std::invalid_argument("GradientQueue: shards must be >= 1");
  }
  if (groups == 0) {
    throw std::invalid_argument("GradientQueue: groups must be >= 1");
  }
  // Every group needs at least one shard of its own.
  shards = std::max(shards, groups);
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Contiguous shard ranges per group; the first `shards % groups` groups
  // absorb the remainder.
  const std::size_t base = shards / groups;
  const std::size_t rem = shards % groups;
  std::size_t begin = 0;
  groups_.reserve(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    auto group = std::make_unique<GroupState>();
    group->shard_begin = begin;
    group->shard_end = begin + base + (g < rem ? 1 : 0);
    group->staged.resize(group->shard_end - group->shard_begin);
    begin = group->shard_end;
    groups_.push_back(std::move(group));
  }
  if (telemetry_ != nullptr) {
    admit_ns_ = telemetry_->metrics().histogram(
        "queue.admit_ns", telemetry::latency_bounds_ns());
    wait_ns_ = telemetry_->metrics().histogram(
        "queue.wait_ns", telemetry::latency_bounds_ns());
    admitted_ctr_ = telemetry_->metrics().counter("queue.admitted");
    rejected_ctr_ = telemetry_->metrics().counter("queue.rejected");
  }
}

bool GradientQueue::try_push(GradientJob& job) {
  const std::size_t offset =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const PushOutcome outcome =
      push_to_shard(job, group_of(job.model_id), offset, nullptr);
  return outcome == PushOutcome::kAccepted ||
         outcome == PushOutcome::kAcceptedEvicted;
}

bool GradientQueue::try_push(GradientJob& job, std::size_t shard_hint) {
  const PushOutcome outcome =
      push_to_shard(job, group_of(job.model_id), shard_hint, nullptr);
  return outcome == PushOutcome::kAccepted ||
         outcome == PushOutcome::kAcceptedEvicted;
}

GradientQueue::PushOutcome GradientQueue::push(GradientJob& job,
                                               GradientJob* evicted) {
  const std::size_t offset =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return push_to_shard(job, group_of(job.model_id), offset, evicted);
}

GradientQueue::PushOutcome GradientQueue::push_to_shard(
    GradientJob& job, std::size_t group, std::size_t group_offset,
    GradientJob* evicted) {
  // Observation only: the timestamps stamp the job and feed histograms;
  // nothing downstream ever branches on them.
  const std::uint64_t t0 = telemetry_ != nullptr ? telemetry_->now_ns() : 0;
  const core::ModelId model = job.model_id;
  if (closed_.load(std::memory_order_acquire)) {
    return PushOutcome::kRejectedClosed;
  }
  // Reserve a slot against the global bound first; undo on failure. The
  // reservation also keeps a consumer from concluding "closed and empty"
  // while this push is mid-flight (wait_drain exits only at group depth 0,
  // so the group counter is reserved pre-land as well).
  const std::size_t depth = size_.fetch_add(1, std::memory_order_acq_rel) + 1;
  // Shed path (DESIGN.md §14): above the trigger depth a shed policy weighs
  // the incoming job against its target shard instead of refusing it
  // outright. Under kRejectNewest the trigger equals capacity and `shed`
  // stays false — the path below is exactly the pre-policy queue.
  const bool shed =
      policy_ != OverloadPolicy::kRejectNewest && depth > shed_trigger_;
  if (depth > capacity_ && !shed) {
    size_.fetch_sub(1, std::memory_order_acq_rel);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    if (telemetry_ != nullptr) {
      rejected_ctr_->add(1);
      telemetry::TraceEvent ev;
      ev.ts_ns = t0;
      ev.model = model;
      ev.phase = telemetry::TracePhase::kReject;
      telemetry_->tracer().emit(ev);
    }
    return PushOutcome::kRejectedFull;
  }
  GroupState& gs = *groups_[group];
  // In the shed-swap case the group's net size is unchanged (the victim
  // and the incoming job live in the same shard, hence the same group), so
  // the group counter is only reserved on the plain-insert path.
  if (!shed) gs.size.fetch_add(1, std::memory_order_acq_rel);
  const std::size_t group_shards = gs.shard_end - gs.shard_begin;
  Shard& shard = *shards_[gs.shard_begin + group_offset % group_shards];
  std::uint64_t ticket = 0;
  bool swapped = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Re-check under the shard lock: close() fences every shard after
    // setting the flag, so a push that sees closed==false here is
    // guaranteed to land before the consumer's final post-close sweep —
    // no job can be accepted into a queue nobody will ever drain.
    if (closed_.load(std::memory_order_acquire)) {
      size_.fetch_sub(1, std::memory_order_acq_rel);
      if (!shed) gs.size.fetch_sub(1, std::memory_order_acq_rel);
      return PushOutcome::kRejectedClosed;
    }
    if (shed) {
      // Weigh the incoming job against the shard's cheapest queued job.
      // The scan is shard-local by design: one lock, bounded work, and the
      // thread-hash sharding spreads comparable jobs across the group —
      // DESIGN.md §14 documents the approximation.
      auto victim = shard.items.end();
      for (auto it = shard.items.begin(); it != shard.items.end(); ++it) {
        if (victim == shard.items.end() ||
            it->job.shed_cost < victim->job.shed_cost) {
          victim = it;
        }
      }
      if (victim == shard.items.end() ||
          victim->job.shed_cost >= job.shed_cost) {
        // Nothing cheaper queued here (or nothing at all): the incoming
        // job is the least valuable. Refuse it — no ticket is drawn, so
        // admission-order prefixes are untouched.
        size_.fetch_sub(1, std::memory_order_acq_rel);
        return PushOutcome::kShedIncoming;
      }
      // Evict the victim under the same critical section that admits the
      // incoming job: no consumer can observe the intermediate state, the
      // deque stays ticket-sorted (a middle erase removes, never reorders)
      // and the victim's ticket retires with it — it will simply never be
      // drained, which is why the caller must account the eviction.
      if (evicted != nullptr) *evicted = std::move(victim->job);
      shard.items.erase(victim);
      size_.fetch_sub(1, std::memory_order_acq_rel);
      swapped = true;
    }
    Item item;
    // Ticket drawn under the shard lock: jobs pushed sequentially by one
    // producer always carry increasing tickets, so a quiesced drain
    // reproduces push order exactly — and each shard's deque stays
    // ticket-sorted, which the bounded drain's snapshot relies on.
    ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
    job.ticket = ticket;
    job.enqueue_ns = t0;
    item.ticket = ticket;
    item.job = std::move(job);
    shard.items.push_back(std::move(item));
  }
  // High-water mark from the reservation depth, recorded only once the
  // push actually landed (a closed-race undo never raises the gauge). The
  // depth may be a transient over-count when a concurrent reserver is
  // about to bounce off the bound, but it never exceeds capacity and a
  // real burst reaches the same mark anyway. A shed swap leaves the net
  // depth unchanged, so it never raises the mark.
  if (!shed) {
    std::size_t seen = max_depth_.load(std::memory_order_relaxed);
    while (depth > seen &&
           !max_depth_.compare_exchange_weak(seen, depth,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
    }
  }
  if (telemetry_ != nullptr) {
    admitted_ctr_->add(1);
    admit_ns_->record(static_cast<double>(telemetry_->now_ns() - t0));
    telemetry::TraceEvent ev;
    ev.ts_ns = t0;
    ev.ticket = ticket;
    ev.model = model;
    ev.phase = telemetry::TracePhase::kSubmit;
    telemetry_->tracer().emit(ev);
  }
  // Tap the wake mutex so a consumer that just evaluated "empty" and is
  // about to sleep observes either the new group size or the notification.
  { std::lock_guard<std::mutex> lock(gs.wake_mu); }
  gs.wake_cv.notify_one();
  return swapped ? PushOutcome::kAcceptedEvicted : PushOutcome::kAccepted;
}

void GradientQueue::note_drained(const std::vector<GradientJob>& out,
                                 std::size_t from) {
  if (telemetry_ == nullptr || from >= out.size()) return;
  // One clock read for the whole batch: the per-job wait skew within a
  // single drain is far below bucket resolution, and the shared timestamp
  // keeps a drain batch's dequeue events aligned in the trace.
  const std::uint64_t now = telemetry_->now_ns();
  for (std::size_t i = from; i < out.size(); ++i) {
    const GradientJob& job = out[i];
    const std::uint64_t wait =
        now > job.enqueue_ns ? now - job.enqueue_ns : 0;
    wait_ns_->record(static_cast<double>(wait));
    telemetry::TraceEvent ev;
    ev.ts_ns = now;
    ev.ticket = job.ticket;
    ev.model = job.model_id;
    ev.b = wait;
    ev.phase = telemetry::TracePhase::kDequeue;
    telemetry_->tracer().emit(ev);
  }
}

std::size_t GradientQueue::drain(std::vector<GradientJob>& out,
                                 std::size_t max_batch, std::size_t group) {
  GroupState& gs = *groups_[group];
  const std::size_t out_start = out.size();
  // Ticket fence, read before any shard is sampled: only tickets < fence
  // are eligible for this drain. A ticket is drawn inside its shard's
  // critical section, so any draw this load observes belongs to a push
  // whose critical section completes before we acquire that shard's lock
  // below (coherence on next_ticket_ plus mutual exclusion) — the item is
  // guaranteed visible. Conversely every draw after this load returns a
  // ticket >= fence. Restricting the drain to tickets < fence therefore
  // yields an exact admission-order prefix of the group while holding
  // only ONE shard lock at a time — planners in other groups, and
  // producers on other shards, never wait on this drain (DESIGN.md §13;
  // the original bounded drain held every shard lock for the full merge).
  const std::uint64_t fence = next_ticket_.load(std::memory_order_acquire);
  if (max_batch > 0) {
    // Phase 1 — snapshot: pop up to max_batch fenced items from each of
    // the group's shards into consumer-owned staging runs. Deques are
    // ticket-sorted, so fenced items are a front run.
    const std::size_t group_shards = gs.shard_end - gs.shard_begin;
    for (std::size_t i = 0; i < group_shards; ++i) {
      std::vector<Item>& run = gs.staged[i];
      run.clear();
      Shard& shard = *shards_[gs.shard_begin + i];
      std::lock_guard<std::mutex> lock(shard.mu);
      while (run.size() < max_batch && !shard.items.empty() &&
             shard.items.front().ticket < fence) {
        run.push_back(std::move(shard.items.front()));
        shard.items.pop_front();
      }
    }
    // Phase 2 — merge outside every lock: take the max_batch globally
    // smallest tickets across the staged runs.
    std::vector<std::size_t> cursor(group_shards, 0);
    std::size_t taken = 0;
    out.reserve(out.size() + max_batch);
    while (taken < max_batch) {
      std::size_t best = group_shards;
      for (std::size_t i = 0; i < group_shards; ++i) {
        if (cursor[i] < gs.staged[i].size() &&
            (best == group_shards ||
             gs.staged[i][cursor[i]].ticket <
                 gs.staged[best][cursor[best]].ticket)) {
          best = i;
        }
      }
      if (best == group_shards) break;
      out.push_back(std::move(gs.staged[best][cursor[best]].job));
      ++cursor[best];
      ++taken;
    }
    // Release capacity for what was actually taken. Staged leftovers are
    // still queued (returned below), so they keep their reservations.
    if (taken > 0) {
      size_.fetch_sub(taken, std::memory_order_acq_rel);
      gs.size.fetch_sub(taken, std::memory_order_acq_rel);
    }
    // Phase 3 — return leftovers to their shard fronts, in reverse so each
    // deque stays ticket-sorted. Safe against concurrent pushes: every
    // leftover ticket is < fence, and anything appended since phase 1
    // carries a ticket >= fence.
    for (std::size_t i = 0; i < group_shards; ++i) {
      std::vector<Item>& run = gs.staged[i];
      if (cursor[i] >= run.size()) {
        run.clear();
        continue;
      }
      Shard& shard = *shards_[gs.shard_begin + i];
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        for (std::size_t j = run.size(); j-- > cursor[i];) {
          shard.items.push_front(std::move(run[j]));
        }
      }
      run.clear();
    }
    note_drained(out, out_start);
    return taken;
  }
  // Unbounded sweep: take every fenced item, shard by shard, then restore
  // global ticket order with one sort. The fence keeps this an exact
  // admission-order prefix too; anything pushed mid-sweep (ticket >=
  // fence) is left for the next drain, which wait_drain's loop picks up.
  std::vector<Item> taken;
  std::size_t group_taken = 0;
  for (std::size_t s = gs.shard_begin; s < gs.shard_end; ++s) {
    Shard& shard = *shards_[s];
    std::size_t from_shard = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      while (!shard.items.empty() && shard.items.front().ticket < fence) {
        taken.push_back(std::move(shard.items.front()));
        shard.items.pop_front();
        ++from_shard;
      }
    }
    // Release capacity shard-by-shard, not after the full sweep — a
    // producer probing the bound should see space as soon as it exists.
    if (from_shard > 0) {
      size_.fetch_sub(from_shard, std::memory_order_acq_rel);
      group_taken += from_shard;
    }
  }
  if (taken.empty()) return 0;
  gs.size.fetch_sub(group_taken, std::memory_order_acq_rel);
  std::sort(taken.begin(), taken.end(),
            [](const Item& a, const Item& b) { return a.ticket < b.ticket; });
  out.reserve(out.size() + taken.size());
  for (Item& item : taken) {
    out.push_back(std::move(item.job));
  }
  note_drained(out, out_start);
  return taken.size();
}

std::size_t GradientQueue::wait_drain(std::vector<GradientJob>& out,
                                      std::size_t max_batch,
                                      std::size_t group) {
  GroupState& gs = *groups_[group];
  while (true) {
    const std::size_t taken = drain(out, max_batch, group);
    if (taken > 0) return taken;
    std::unique_lock<std::mutex> lock(gs.wake_mu);
    gs.wake_cv.wait(lock, [this, &gs] {
      return gs.size.load(std::memory_order_acquire) > 0 ||
             closed_.load(std::memory_order_acquire);
    });
    if (closed_.load(std::memory_order_acquire) &&
        gs.size.load(std::memory_order_acquire) == 0) {
      // Closed and nothing left in this group: one final sweep in case a
      // producer won the race between our drain and close().
      return drain(out, max_batch, group);
    }
  }
}

std::vector<std::size_t> GradientQueue::shard_depths() const {
  std::vector<std::size_t> depths;
  depths.reserve(shards_.size());
  for (const auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->mu);
    depths.push_back(shard_ptr->items.size());
  }
  return depths;
}

void GradientQueue::close() {
  closed_.store(true, std::memory_order_release);
  // Fence every shard: producers re-check the flag under the shard lock,
  // so once these acquire/release pairs complete, any in-flight push has
  // either landed (and is covered by its size_ reservation) or will see
  // closed and refuse.
  for (auto& shard_ptr : shards_) {
    std::lock_guard<std::mutex> lock(shard_ptr->mu);
  }
  for (auto& group_ptr : groups_) {
    { std::lock_guard<std::mutex> lock(group_ptr->wake_mu); }
    group_ptr->wake_cv.notify_all();
  }
}

}  // namespace fleet::runtime
