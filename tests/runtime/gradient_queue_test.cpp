#include "fleet/runtime/gradient_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace fleet::runtime {
namespace {

GradientJob job_with_version(std::size_t version) {
  GradientJob job;
  job.task_version = version;
  job.gradient = {static_cast<float>(version)};
  job.mini_batch = 1;
  return job;
}

TEST(GradientQueueTest, RejectsZeroCapacityOrShards) {
  EXPECT_THROW(GradientQueue(0, 1), std::invalid_argument);
  EXPECT_THROW(GradientQueue(1, 0), std::invalid_argument);
}

TEST(GradientQueueTest, DrainReturnsPushOrderAcrossShards) {
  GradientQueue queue(64, 4);
  for (std::size_t i = 0; i < 16; ++i) {
    GradientJob job = job_with_version(i);
    // Scatter across shards on purpose; tickets must restore push order.
    ASSERT_TRUE(queue.try_push(job, /*shard_hint=*/i));
  }
  std::vector<GradientJob> out;
  EXPECT_EQ(queue.drain(out), 16u);
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(out[i].task_version, i) << "position " << i;
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(GradientQueueTest, BackpressureLeavesJobIntactAndCounts) {
  GradientQueue queue(2, 1);
  GradientJob a = job_with_version(1);
  GradientJob b = job_with_version(2);
  GradientJob c = job_with_version(3);
  EXPECT_TRUE(queue.try_push(a));
  EXPECT_TRUE(queue.try_push(b));
  EXPECT_FALSE(queue.try_push(c));
  // Rejected push must not have consumed the job.
  EXPECT_EQ(c.task_version, 3u);
  ASSERT_EQ(c.gradient.size(), 1u);
  EXPECT_EQ(queue.rejected(), 1u);
  EXPECT_EQ(queue.size(), 2u);

  std::vector<GradientJob> out;
  queue.drain(out);
  EXPECT_TRUE(queue.try_push(c));  // space again after the drain
}

TEST(GradientQueueTest, BoundedDrainTakesAdmissionOrderPrefixes) {
  GradientQueue queue(64, 4);
  for (std::size_t i = 0; i < 10; ++i) {
    GradientJob job = job_with_version(i);
    // Scatter across shards; a bounded drain must still pop the globally
    // smallest tickets, i.e. exact admission-order prefixes.
    ASSERT_TRUE(queue.try_push(job, /*shard_hint=*/i * 3));
  }
  std::vector<GradientJob> out;
  EXPECT_EQ(queue.drain(out, 3), 3u);
  EXPECT_EQ(queue.size(), 7u);
  EXPECT_EQ(queue.drain(out, 5), 5u);
  EXPECT_EQ(queue.drain(out, 100), 2u);  // bound above content: take rest
  EXPECT_EQ(queue.size(), 0u);
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i].task_version, i) << "position " << i;
  }
  EXPECT_EQ(queue.drain(out, 4), 0u);  // empty: nothing to take
}

TEST(GradientQueueTest, BoundedDrainReleasesCapacityForProducers) {
  GradientQueue queue(4, 2);
  for (std::size_t i = 0; i < 4; ++i) {
    GradientJob job = job_with_version(i);
    ASSERT_TRUE(queue.try_push(job));
  }
  GradientJob full = job_with_version(99);
  EXPECT_FALSE(queue.try_push(full));

  std::vector<GradientJob> out;
  EXPECT_EQ(queue.drain(out, 2), 2u);
  EXPECT_TRUE(queue.try_push(full));  // the two popped slots are free again
  GradientJob more = job_with_version(100);
  EXPECT_TRUE(queue.try_push(more));
  GradientJob over = job_with_version(101);
  EXPECT_FALSE(queue.try_push(over));
}

TEST(GradientQueueTest, DepthGaugesTrackOccupancyPerShard) {
  GradientQueue queue(64, 4);
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.shard_depths(), std::vector<std::size_t>({0, 0, 0, 0}));

  // Pin pushes to shards 0, 0, 1, 3 via the hint.
  for (const std::size_t shard : {0u, 0u, 1u, 3u}) {
    GradientJob job = job_with_version(shard);
    ASSERT_TRUE(queue.try_push(job, shard));
  }
  EXPECT_EQ(queue.depth(), 4u);
  EXPECT_EQ(queue.shard_depths(), std::vector<std::size_t>({2, 1, 0, 1}));

  std::vector<GradientJob> out;
  EXPECT_EQ(queue.drain(out, 3), 3u);  // pops the three smallest tickets
  EXPECT_EQ(queue.depth(), 1u);
  EXPECT_EQ(queue.shard_depths(), std::vector<std::size_t>({0, 0, 0, 1}));
  EXPECT_EQ(queue.drain(out), 1u);
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(GradientQueueTest, MaxDepthSeenIsAMonotoneHighWaterMark) {
  GradientQueue queue(8, 2);
  EXPECT_EQ(queue.max_depth_seen(), 0u);

  for (std::size_t i = 0; i < 3; ++i) {
    GradientJob job = job_with_version(i);
    ASSERT_TRUE(queue.try_push(job, i));
  }
  EXPECT_EQ(queue.max_depth_seen(), 3u);

  // Draining lowers depth() but never the high-water mark.
  std::vector<GradientJob> out;
  EXPECT_EQ(queue.drain(out), 3u);
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(queue.max_depth_seen(), 3u);

  // A shallower refill leaves the mark where the deepest burst put it; a
  // deeper one raises it.
  for (std::size_t i = 0; i < 2; ++i) {
    GradientJob job = job_with_version(i);
    ASSERT_TRUE(queue.try_push(job, i));
  }
  EXPECT_EQ(queue.max_depth_seen(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    GradientJob job = job_with_version(i);
    ASSERT_TRUE(queue.try_push(job, i));
  }
  EXPECT_EQ(queue.max_depth_seen(), 5u);
}

TEST(GradientQueueTest, MaxDepthSeenCapsAtCapacityUnderRejection) {
  GradientQueue queue(2, 1);
  GradientJob a = job_with_version(1);
  GradientJob b = job_with_version(2);
  GradientJob c = job_with_version(3);
  EXPECT_TRUE(queue.try_push(a));
  EXPECT_TRUE(queue.try_push(b));
  EXPECT_FALSE(queue.try_push(c));  // bounced off the bound
  EXPECT_EQ(queue.rejected(), 1u);
  // Rejected pushes never raise the gauge past what actually queued.
  EXPECT_EQ(queue.max_depth_seen(), 2u);
}

TEST(GradientQueueTest, WaitDrainHonorsTheBatchBound) {
  GradientQueue queue(16, 2);
  for (std::size_t i = 0; i < 6; ++i) {
    GradientJob job = job_with_version(i);
    ASSERT_TRUE(queue.try_push(job, i));
  }
  std::vector<GradientJob> out;
  EXPECT_EQ(queue.wait_drain(out, 4), 4u);
  EXPECT_EQ(queue.wait_drain(out, 4), 2u);
  ASSERT_EQ(out.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(out[i].task_version, i);
  queue.close();
  EXPECT_EQ(queue.wait_drain(out, 4), 0u);  // closed + empty => 0
}

TEST(GradientQueueTest, CloseStopsPushesAndWakesConsumer) {
  GradientQueue queue(8, 2);
  GradientJob a = job_with_version(7);
  ASSERT_TRUE(queue.try_push(a));
  queue.close();
  GradientJob b = job_with_version(8);
  EXPECT_FALSE(queue.try_push(b));

  std::vector<GradientJob> out;
  EXPECT_EQ(queue.wait_drain(out), 1u);  // leftover drains after close
  EXPECT_EQ(out[0].task_version, 7u);
  EXPECT_EQ(queue.wait_drain(out), 0u);  // closed + empty => 0
}

TEST(GradientQueueTest, ConcurrentProducersLoseNothingAndKeepPerProducerFifo) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 200;
  GradientQueue queue(64, 4);

  std::vector<GradientJob> out;
  std::thread consumer([&] {
    while (queue.wait_drain(out) > 0) {
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        // Encode (producer, sequence) into task_version.
        GradientJob job = job_with_version(p * 1000 + i);
        while (!queue.try_push(job)) {
          std::this_thread::yield();  // bounded queue: spin on backpressure
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.close();
  consumer.join();

  ASSERT_EQ(out.size(), kProducers * kPerProducer);
  // FIFO per producer: each producer's sequence numbers appear in order.
  std::vector<std::size_t> next_seq(kProducers, 0);
  for (const GradientJob& job : out) {
    const std::size_t p = job.task_version / 1000;
    const std::size_t seq = job.task_version % 1000;
    ASSERT_LT(p, kProducers);
    EXPECT_EQ(seq, next_seq[p]);
    ++next_seq[p];
  }
}

GradientJob job_for_model(core::ModelId model_id, std::size_t version) {
  GradientJob job = job_with_version(version);
  job.model_id = model_id;
  return job;
}

TEST(GradientQueueTest, ShardCountIsRaisedToTheGroupCount) {
  GradientQueue queue(64, /*shards=*/1, /*telemetry=*/nullptr, /*groups=*/4);
  EXPECT_EQ(queue.group_count(), 4u);
  // Every group must own at least one shard, so one shard becomes four.
  EXPECT_EQ(queue.shard_count(), 4u);

  GradientQueue roomy(64, /*shards=*/8, nullptr, /*groups=*/3);
  EXPECT_EQ(roomy.shard_count(), 8u);
  EXPECT_EQ(roomy.group_count(), 3u);
}

TEST(GradientQueueTest, RoutesModelsToDisjointGroupsInTicketOrder) {
  GradientQueue queue(64, 4, nullptr, /*groups=*/2);
  // Interleave pushes for four models; models 0/2 belong to group 0 and
  // 1/3 to group 1 (id % groups).
  for (std::size_t i = 0; i < 12; ++i) {
    GradientJob job = job_for_model(static_cast<core::ModelId>(i % 4), i);
    ASSERT_TRUE(queue.try_push(job));
  }
  EXPECT_EQ(queue.group_of(0), 0u);
  EXPECT_EQ(queue.group_of(1), 1u);
  EXPECT_EQ(queue.group_depth(0), 6u);
  EXPECT_EQ(queue.group_depth(1), 6u);

  std::vector<GradientJob> even;
  std::vector<GradientJob> odd;
  EXPECT_EQ(queue.drain(even, 0, /*group=*/0), 6u);
  EXPECT_EQ(queue.drain(odd, 0, /*group=*/1), 6u);
  EXPECT_EQ(queue.size(), 0u);

  // Each group's drain holds exactly its models' jobs, in admission order.
  std::vector<std::size_t> even_versions;
  for (const GradientJob& job : even) {
    EXPECT_EQ(job.model_id % 2, 0u);
    even_versions.push_back(job.task_version);
  }
  EXPECT_EQ(even_versions, (std::vector<std::size_t>{0, 2, 4, 6, 8, 10}));
  std::vector<std::size_t> odd_versions;
  for (const GradientJob& job : odd) {
    EXPECT_EQ(job.model_id % 2, 1u);
    odd_versions.push_back(job.task_version);
  }
  EXPECT_EQ(odd_versions, (std::vector<std::size_t>{1, 3, 5, 7, 9, 11}));
}

TEST(GradientQueueTest, BoundedGroupDrainTakesGroupAdmissionPrefixes) {
  GradientQueue queue(64, 4, nullptr, /*groups=*/2);
  // 10 jobs for group 0, scattered across its shards by hint, with group-1
  // traffic interleaved so the group-0 tickets are not contiguous.
  for (std::size_t i = 0; i < 10; ++i) {
    GradientJob mine = job_for_model(0, i);
    ASSERT_TRUE(queue.try_push(mine, /*shard_hint=*/i * 3));
    GradientJob other = job_for_model(1, 100 + i);
    ASSERT_TRUE(queue.try_push(other, /*shard_hint=*/i));
  }
  std::vector<GradientJob> out;
  EXPECT_EQ(queue.drain(out, 3, /*group=*/0), 3u);
  EXPECT_EQ(queue.group_depth(0), 7u);
  EXPECT_EQ(queue.drain(out, 5, /*group=*/0), 5u);
  EXPECT_EQ(queue.drain(out, 100, /*group=*/0), 2u);
  ASSERT_EQ(out.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i].task_version, i) << "position " << i;
  }
  // Group 1's stream is untouched by group-0 drains.
  EXPECT_EQ(queue.group_depth(1), 10u);
  std::vector<GradientJob> other_out;
  EXPECT_EQ(queue.drain(other_out, 0, /*group=*/1), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(other_out[i].task_version, 100 + i);
  }
}

TEST(GradientQueueTest, CloseWakesEveryGroupConsumer) {
  GradientQueue queue(64, 4, nullptr, /*groups=*/3);
  std::vector<std::thread> consumers;
  std::vector<std::size_t> taken(3, 99);
  for (std::size_t g = 0; g < 3; ++g) {
    consumers.emplace_back([&queue, &taken, g] {
      std::vector<GradientJob> out;
      // Blocks on the empty group until close() broadcasts.
      taken[g] = queue.wait_drain(out, 0, g);
    });
  }
  queue.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(taken, (std::vector<std::size_t>{0, 0, 0}));
}

TEST(GradientQueueTest, ConcurrentGroupConsumersDrainDisjointFifoStreams) {
  constexpr std::size_t kGroups = 2;
  constexpr std::size_t kModels = 4;
  constexpr std::size_t kPerModel = 150;
  GradientQueue queue(64, 4, nullptr, kGroups);

  std::vector<std::vector<GradientJob>> out(kGroups);
  std::vector<std::thread> consumers;
  for (std::size_t g = 0; g < kGroups; ++g) {
    consumers.emplace_back([&queue, &out, g] {
      while (queue.wait_drain(out[g], 16, g) > 0) {
      }
    });
  }

  std::vector<std::thread> producers;
  for (std::size_t m = 0; m < kModels; ++m) {
    producers.emplace_back([&queue, m] {
      for (std::size_t i = 0; i < kPerModel; ++i) {
        GradientJob job =
            job_for_model(static_cast<core::ModelId>(m), m * 1000 + i);
        while (!queue.try_push(job)) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();

  // Nothing lost, nothing cross-delivered, and each model's stream is FIFO
  // within its group's drain sequence.
  std::vector<std::size_t> next_seq(kModels, 0);
  std::size_t total = 0;
  for (std::size_t g = 0; g < kGroups; ++g) {
    for (const GradientJob& job : out[g]) {
      const std::size_t m = job.task_version / 1000;
      ASSERT_LT(m, kModels);
      EXPECT_EQ(queue.group_of(job.model_id), g);
      EXPECT_EQ(job.task_version % 1000, next_seq[m]);
      ++next_seq[m];
      ++total;
    }
  }
  EXPECT_EQ(total, kModels * kPerModel);
}

}  // namespace
}  // namespace fleet::runtime
