// Tests of the benchmark's statistics (src/stats.hpp). Built by
// perfbench/CMakeLists.txt; run with `ctest` in that build directory or by
// executing perfbench_stats_test. Exits non-zero on the first failure.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK(" #cond ")\n"; \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

using namespace perfbench;

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentile_rule() {
  // Nearest rank: p50 of 1..100 is 50, p99 of 1..1000 is 990.
  CHECK(percentile(iota_samples(100), 50) == 50.0);
  CHECK(percentile(iota_samples(1000), 99) == 990.0);
  // Order of the input does not matter.
  std::vector<double> shuffled = {7, 3, 9, 1, 5, 2, 8, 4, 6, 10,
                                  17, 13, 19, 11, 15, 12, 18, 14, 16, 20};
  CHECK(percentile(shuffled, 50) == 10.0);

  // At least ten samples beyond the percentile: p99 needs 1000 samples.
  CHECK(percentile_supported(1000, 99));
  CHECK(!percentile_supported(999, 99));
  CHECK(!percentile(iota_samples(999), 99).has_value());
  CHECK(percentile(iota_samples(1000), 99).has_value());
  // p50 needs 20 samples (rank 10, ten beyond).
  CHECK(percentile_supported(20, 50));
  CHECK(!percentile_supported(19, 50));
  CHECK(!percentile(std::vector<double>{}, 50).has_value());
  // The minimum is a parameter; the default is ten.
  CHECK(percentile_supported(100, 99, 1));
  CHECK(!percentile_supported(100, 99));
}

void due_time_latency() {
  // Latency runs from the due time, not from when the operation started.
  Outcome late{1000, 4000};
  CHECK(due_latency(late, 1.0) == 3000.0);
  CHECK(due_latency(late, 1e3) == 3.0);
  // A failure or a never-completed operation is a miss.
  Outcome failed{1000, std::nullopt};
  CHECK(std::isinf(due_latency(failed, 1.0)));
  // Misses rank above every completed sample: with 2 misses in 20
  // samples, p90 (rank 18) is still the largest completed value, but
  // p95 (rank 19) lands on a miss.
  std::vector<Outcome> ops;
  for (std::uint64_t i = 0; i < 18; ++i) ops.push_back({0, 100 + i});
  ops.push_back({0, std::nullopt});
  ops.push_back({0, std::nullopt});
  std::vector<double> lat;
  for (const Outcome& op : ops) lat.push_back(due_latency(op, 1.0));
  CHECK(percentile(lat, 90, 1) == 117.0);
  CHECK(std::isinf(*percentile(lat, 95, 1)));
  // A completion stamped before its due time (clock reads on two threads)
  // never yields a negative latency.
  CHECK(due_latency(Outcome{500, 400}, 1.0) == 0.0);
}

void chunked_percentiles() {
  // 5 chunks of 20 samples in due order; chunk c has latencies c*100+1..+20.
  std::vector<Outcome> ops;
  for (std::uint64_t c = 0; c < 5; ++c) {
    for (std::uint64_t i = 1; i <= 20; ++i) ops.push_back({c * 1000 + i, c * 1000 + i + c * 100 + i});
  }
  // Per-chunk p50 is c*100+10; the median across chunks is chunk 2's.
  CHECK(chunked_percentile(ops, 1.0, 50) == 210.0);
  // A burst in one chunk does not move the result.
  std::vector<Outcome> burst = ops;
  for (std::size_t i = 80; i < 100; ++i) *burst[i].done_ns += 1000000;
  CHECK(chunked_percentile(burst, 1.0, 50) == 210.0);
  // Input order does not matter: chunks follow the due time.
  std::vector<Outcome> reversed(ops.rbegin(), ops.rend());
  CHECK(chunked_percentile(reversed, 1.0, 50) == 210.0);
  // Every chunk must support the percentile: 20 per chunk is too few for
  // p99, and 19 per chunk too few for p50.
  CHECK(!chunked_percentile(ops, 1.0, 99).has_value());
  std::vector<Outcome> short_ops(ops.begin(), ops.begin() + 95);
  CHECK(!chunked_percentile(short_ops, 1.0, 50).has_value());
  // p99 with 1000 samples in each of 5 chunks is supported.
  std::vector<Outcome> many;
  for (std::uint64_t i = 0; i < 5000; ++i) many.push_back({i, i + 1 + i % 1000});
  CHECK(chunked_percentile(many, 1.0, 99) == 990.0);
  // Misses in a chunk count there and rank last.
  many[4999].done_ns.reset();
  many[4998].done_ns.reset();
  CHECK(chunked_percentile(many, 1.0, 99) == 990.0);
}

void self_time_subtraction() {
  // No children: the whole span.
  CHECK(self_time({0, 100}, {}) == 100);
  // Disjoint children are subtracted.
  CHECK(self_time({0, 100}, {{10, 20}, {50, 70}}) == 70);
  // Overlapping children count once.
  CHECK(self_time({0, 100}, {{10, 40}, {30, 60}}) == 50);
  // A child nested inside another counts once.
  CHECK(self_time({0, 100}, {{10, 60}, {20, 30}}) == 50);
  // Parts of children outside the parent are ignored.
  CHECK(self_time({100, 200}, {{50, 150}, {180, 250}}) == 30);
  // Unsorted input.
  CHECK(self_time({0, 100}, {{50, 70}, {10, 20}}) == 70);
  // A child covering the parent leaves no self time.
  CHECK(self_time({10, 20}, {{0, 30}}) == 0);
  CHECK(covered({0, 10}, {{20, 30}}) == 0);
}

void update_latency_versions() {
  // K=1: gradient j is included from version j+1.
  CHECK(inclusion_version(0, 1) == 1);
  CHECK(inclusion_version(41, 1) == 42);
  // K=4: versions advance once per four gradients.
  CHECK(inclusion_version(3, 4) == 1);
  CHECK(inclusion_version(4, 4) == 2);

  // The timed window starts after 100 admitted gradients (version 100).
  UpdateTracker tracker(100, 1);
  tracker.add(1000);  // index 100 -> version 101
  tracker.add(2000);  // index 101 -> version 102
  tracker.add(3000);  // index 102 -> version 103
  tracker.observe(1500, 100);  // nothing new yet
  CHECK(tracker.pending() == 3);
  tracker.observe(2500, 102);  // first two visible at once
  CHECK(tracker.pending() == 1);
  tracker.observe(2600, 102);  // repeated pull changes nothing
  const auto& out = tracker.outcomes();
  CHECK(due_latency(out[0], 1.0) == 1500.0);
  CHECK(due_latency(out[1], 1.0) == 500.0);
  CHECK(std::isinf(due_latency(out[2], 1.0)));  // never observed: a miss
  tracker.observe(3400, 103);
  CHECK(due_latency(tracker.outcomes()[2], 1.0) == 400.0);
  // A gradient that was never admitted takes no version: it stays a miss
  // and the next admitted gradient keeps the next version.
  tracker.add_failed(3500);
  tracker.add(3600);  // index 103 -> version 104
  tracker.observe(3900, 104);
  CHECK(std::isinf(due_latency(tracker.outcomes()[3], 1.0)));
  CHECK(due_latency(tracker.outcomes()[4], 1.0) == 300.0);
  CHECK(tracker.pending() == 0);
}

void medians() {
  CHECK(median({3, 1, 2}) == 2.0);
  CHECK(median({4, 1, 3, 2}) == 2.5);
}

}  // namespace

int main() {
  percentile_rule();
  due_time_latency();
  chunked_percentiles();
  self_time_subtraction();
  update_latency_versions();
  medians();
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return EXIT_FAILURE;
  }
  std::cout << "perfbench stats: all checks passed\n";
  return EXIT_SUCCESS;
}
