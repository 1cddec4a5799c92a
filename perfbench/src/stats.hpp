// The benchmark's own statistics: the percentile rule, due-time latency
// with failures as misses, self time of a span under overlapping children,
// and the version at which an admitted gradient first becomes visible.
// Header-only and free of library dependencies so tests/stats_test.cpp can
// check every rule in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

namespace perfbench {

/// Latency of an operation that failed, was refused, or never completed:
/// it misses every limit, so it ranks above every completed sample.
inline constexpr double kMiss = std::numeric_limits<double>::infinity();

/// Samples a percentile needs strictly above it before it is reported.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank position (1-based) of percentile `p` in `n` samples.
inline std::size_t percentile_rank(std::size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  // Tolerate representation error so that p=99, n=1000 gives 990, not 991.
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Whether `n` samples support reporting percentile `p`: at least
/// kMinBeyond samples must lie beyond its rank.
inline bool percentile_supported(std::size_t n, double p,
                                 std::size_t min_beyond = kMinBeyond) {
  return n > 0 && n - percentile_rank(n, p) >= min_beyond;
}

/// Nearest-rank percentile. Misses (kMiss) rank last, so a percentile that
/// lands on one is itself a miss. Empty when the sample count does not
/// support the percentile (see percentile_supported).
inline std::optional<double> percentile(std::vector<double> samples, double p,
                                        std::size_t min_beyond = kMinBeyond) {
  if (!percentile_supported(samples.size(), p, min_beyond)) return {};
  const std::size_t idx = percentile_rank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

/// One operation of an open loop: when it was due, and when (if ever) it
/// completed successfully.
struct Outcome {
  std::uint64_t due_ns = 0;
  std::optional<std::uint64_t> done_ns;  ///< empty: failed or never done
};

/// Latency measured from the due time, so a stall that delays later
/// operations counts against them; failures are misses. `unit_ns` scales
/// the result (1e3 for microseconds, 1e6 for milliseconds).
inline double due_latency(const Outcome& op, double unit_ns) {
  if (!op.done_ns) return kMiss;
  const std::uint64_t done = std::max(*op.done_ns, op.due_ns);
  return static_cast<double>(done - op.due_ns) / unit_ns;
}

/// Chunks a run's latencies are split into for chunked_percentile.
inline constexpr std::size_t kChunks = 5;

/// Percentile `p` of the due-time latencies of `ops`, taken in each of
/// `chunks` equal-count consecutive chunks (in due-time order) and reported
/// as the median across chunks, so one burst of outside noise moves one
/// chunk, not the result. Every chunk must support `p` by the percentile
/// rule; otherwise the result is empty. Misses rank last within a chunk.
inline std::optional<double> chunked_percentile(std::vector<Outcome> ops,
                                                double unit_ns, double p,
                                                std::size_t chunks = kChunks) {
  if (chunks == 0 || ops.size() < chunks) return {};
  std::stable_sort(ops.begin(), ops.end(), [](const Outcome& a, const Outcome& b) {
    return a.due_ns < b.due_ns;
  });
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = ops.size() * c / chunks;
    const std::size_t end = ops.size() * (c + 1) / chunks;
    std::vector<double> lat;
    for (std::size_t i = begin; i < end; ++i) lat.push_back(due_latency(ops[i], unit_ns));
    const auto value = percentile(std::move(lat), p);
    if (!value) return {};
    per_chunk.push_back(*value);
  }
  std::sort(per_chunk.begin(), per_chunk.end());
  return per_chunk[per_chunk.size() / 2];  // chunks is odd: the middle one
}

struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  ///< exclusive; end <= begin is empty
};

/// Length of the union of `spans` clipped to `window`. Spans may overlap
/// each other; overlapping parts count once.
inline std::uint64_t covered(Interval window, std::vector<Interval> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  std::uint64_t total = 0;
  std::uint64_t cursor = window.begin;
  for (const Interval& s : spans) {
    const std::uint64_t b = std::max(s.begin, cursor);
    const std::uint64_t e = std::min(s.end, window.end);
    if (e > b) {
      total += e - b;
      cursor = e;
    }
  }
  return total;
}

/// Self time of `parent`: its duration minus the part of it that its
/// child spans cover (a child's overlap with another child counts once,
/// and the part of a child outside the parent counts not at all).
inline std::uint64_t self_time(Interval parent,
                               const std::vector<Interval>& children) {
  if (parent.end <= parent.begin) return 0;
  return (parent.end - parent.begin) - covered(parent, children);
}

/// Version of a session that first includes the gradient it admitted as
/// number `admitted_index` (0-based, session admission order), when the
/// session publishes one version per `k` folded gradients.
inline std::size_t inclusion_version(std::size_t admitted_index,
                                     std::size_t k) {
  return admitted_index / k + 1;
}

/// Update latency of a stream of gradients from pulls of the published
/// version: gradient j is visible at the first pull that returns a version
/// at least its inclusion version. Gradients are added in admission order,
/// so a frame lost after its send (which takes no admission index) shifts
/// every later gradient one version late; callers count such losses and
/// report the latencies as upper bounds (Report::set_latencies).
class UpdateTracker {
 public:
  UpdateTracker(std::size_t first_index, std::size_t k)
      : next_index_(first_index), k_(k) {}

  /// A gradient sent at scheduled time `due_ns`; returns its slot in
  /// outcomes().
  std::size_t add(std::uint64_t due_ns) {
    const std::size_t slot = outcomes_.size();
    outcomes_.push_back(Outcome{due_ns, std::nullopt});
    pending_.push_back(Pending{slot, inclusion_version(next_index_++, k_)});
    return slot;
  }

  /// A gradient that was never admitted (it takes no admission index):
  /// its update latency is a miss.
  std::size_t add_failed(std::uint64_t due_ns) {
    outcomes_.push_back(Outcome{due_ns, std::nullopt});
    return outcomes_.size() - 1;
  }

  /// A pull completed at `now_ns` and returned `version`.
  void observe(std::uint64_t now_ns, std::size_t version) {
    while (!pending_.empty() && pending_.front().version <= version) {
      outcomes_[pending_.front().slot].done_ns = now_ns;
      pending_.pop_front();
    }
  }

  std::size_t pending() const { return pending_.size(); }
  const std::vector<Outcome>& outcomes() const { return outcomes_; }

 private:
  struct Pending {
    std::size_t slot;
    std::size_t version;
  };
  std::size_t next_index_;
  std::size_t k_;
  std::vector<Outcome> outcomes_;
  std::deque<Pending> pending_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
