#include "fleet/runtime/sharded_aggregator.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "../test_util.hpp"
#include "fleet/stats/rng.hpp"
#include "fleet/tensor/ops.hpp"

namespace fleet::runtime {
namespace {

using test::bitwise_equal;

constexpr std::size_t kParams = 11;  // deliberately not divisible by shards
constexpr std::size_t kClasses = 3;
constexpr float kLr = 0.05f;

learning::AsyncAggregator::Config agg_config(std::size_t k) {
  learning::AsyncAggregator::Config cfg;
  cfg.aggregation_k = k;
  return cfg;
}

/// A reproducible sequence of worker updates with varied gradients,
/// staleness and label mixes. Storage outlives the returned views.
struct UpdateSet {
  std::vector<std::vector<float>> gradients;
  std::vector<learning::WorkerUpdate> updates;
};

UpdateSet make_updates(std::size_t count, std::uint64_t seed) {
  UpdateSet set;
  stats::Rng rng(seed);
  set.gradients.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto& grad = set.gradients.emplace_back(kParams);
    for (float& g : grad) g = static_cast<float>(rng.gaussian(0.0, 1.0));
    learning::WorkerUpdate update;
    update.gradient = grad;
    update.staleness = static_cast<double>(rng.uniform_int(0, 6));
    update.label_dist = stats::LabelDistribution(kClasses);
    update.label_dist.add(static_cast<int>(rng.uniform_int(0, kClasses - 1)),
                          1 + static_cast<std::size_t>(rng.uniform_int(0, 4)));
    update.mini_batch = 8;
    set.updates.push_back(update);
  }
  return set;
}

/// Sequential reference: submit() + full-arena apply, the serial fold.
std::vector<float> sequential_fold(const UpdateSet& set, std::size_t k,
                                   std::vector<double>* weights = nullptr) {
  learning::AsyncAggregator agg(kParams, kClasses, agg_config(k));
  std::vector<float> params(kParams, 0.25f);
  for (const auto& update : set.updates) {
    const auto result = agg.submit(update);
    if (weights != nullptr) weights->push_back(result.weight);
    if (result.aggregate) {
      tensor::axpy(-kLr, *result.aggregate, std::span<float>(params));
    }
  }
  return params;
}

FoldContext context_of(learning::AsyncAggregator& agg,
                       std::vector<float>& params) {
  FoldContext ctx;
  ctx.aggregator = &agg;
  ctx.parameters = std::span<float>(params);
  return ctx;
}

/// Planned + sharded fold of the same updates, split into batches of
/// `batch` submissions per execute() call.
std::vector<float> sharded_fold(const UpdateSet& set, std::size_t k,
                                std::size_t shards, std::size_t batch,
                                std::vector<double>* weights = nullptr) {
  learning::AsyncAggregator agg(kParams, kClasses, agg_config(k));
  std::vector<float> params(kParams, 0.25f);
  ShardedAggregator sharded(shards);
  const FoldContext ctx = context_of(agg, params);
  std::vector<FoldOp> plan;
  std::size_t in_batch = 0;
  for (const auto& update : set.updates) {
    const auto planned = agg.plan_submit(update);
    if (weights != nullptr) weights->push_back(planned.weight);
    FoldOp fold;
    fold.gradient = update.gradient;
    fold.weight = planned.weight;
    plan.push_back(fold);
    if (planned.flush) {
      FoldOp apply;
      apply.kind = FoldOp::Kind::kFlushApply;
      apply.learning_rate = kLr;
      plan.push_back(apply);
    }
    if (++in_batch == batch) {
      sharded.execute(ctx, plan);
      plan.clear();
      in_batch = 0;
    }
  }
  sharded.execute(ctx, plan);  // tail batch (no-op when empty)
  return params;
}

TEST(ShardedAggregatorTest, RejectsBadConstructionAndMismatchedContext) {
  EXPECT_THROW(ShardedAggregator(0), std::invalid_argument);
  // A context whose arena does not match its aggregator is refused at
  // execute() time (the pool itself is model-agnostic).
  learning::AsyncAggregator agg(kParams, kClasses, agg_config(1));
  std::vector<float> wrong(kParams - 1, 0.0f);
  ShardedAggregator sharded(2);
  std::vector<FoldOp> plan(1);
  EXPECT_THROW(sharded.execute(context_of(agg, wrong), plan),
               std::invalid_argument);
}

TEST(ShardedAggregatorTest, SpansPartitionTheArenaContiguously) {
  for (std::size_t shards : {1u, 2u, 3u, 5u, 16u}) {
    std::size_t cursor = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const auto [begin, end] = ShardedAggregator::span_of(kParams, shards, s);
      EXPECT_EQ(begin, cursor);
      EXPECT_LE(begin, end);
      cursor = end;
    }
    EXPECT_EQ(cursor, kParams);  // every index owned exactly once
  }
}

TEST(ShardedAggregatorTest, OnePoolServesManyContexts) {
  // Multi-tenant shape (DESIGN.md §7): one shared worker pool alternating
  // between two independent (aggregator, arena) contexts of different
  // sizes must fold each exactly as a dedicated pool would.
  const UpdateSet set_a = make_updates(12, 7);
  const auto ref_a = sharded_fold(set_a, /*k=*/3, /*shards=*/3, /*batch=*/4);

  constexpr std::size_t kParamsB = 29;
  learning::AsyncAggregator agg_a(kParams, kClasses, agg_config(3));
  learning::AsyncAggregator agg_b(kParamsB, kClasses, agg_config(1));
  std::vector<float> params_a(kParams, 0.25f);
  std::vector<float> params_b(kParamsB, -0.5f);
  std::vector<float> solo_b(kParamsB, -0.5f);

  // Reference for B: sequential submit + apply on a copy.
  std::vector<std::vector<float>> grads_b;
  stats::Rng rng(41);
  for (std::size_t i = 0; i < 10; ++i) {
    auto& grad = grads_b.emplace_back(kParamsB);
    for (float& g : grad) g = static_cast<float>(rng.gaussian(0.0, 1.0));
  }
  {
    learning::AsyncAggregator agg_ref(kParamsB, kClasses, agg_config(1));
    for (const auto& grad : grads_b) {
      learning::WorkerUpdate update;
      update.gradient = grad;
      update.label_dist = stats::LabelDistribution(kClasses);
      update.mini_batch = 8;
      const auto result = agg_ref.submit(update);
      ASSERT_TRUE(result.aggregate.has_value());
      tensor::axpy(-kLr, *result.aggregate, std::span<float>(solo_b));
    }
  }

  ShardedAggregator pool(3);
  const FoldContext ctx_a = context_of(agg_a, params_a);
  const FoldContext ctx_b = context_of(agg_b, params_b);
  std::size_t b_cursor = 0;
  // Plan and execute one B gradient on the shared pool (K = 1: every
  // submission flushes).
  const auto fold_one_b = [&] {
    learning::WorkerUpdate update_b;
    update_b.gradient = grads_b[b_cursor];
    update_b.label_dist = stats::LabelDistribution(kClasses);
    update_b.mini_batch = 8;
    const auto planned_b = agg_b.plan_submit(update_b);
    ASSERT_TRUE(planned_b.flush);
    std::vector<FoldOp> plan_b;
    FoldOp fold_b;
    fold_b.gradient = grads_b[b_cursor];
    fold_b.weight = planned_b.weight;
    plan_b.push_back(fold_b);
    FoldOp apply_b;
    apply_b.kind = FoldOp::Kind::kFlushApply;
    apply_b.learning_rate = kLr;
    plan_b.push_back(apply_b);
    pool.execute(ctx_b, plan_b);
    ++b_cursor;
  };
  std::vector<FoldOp> plan_a;
  std::size_t in_batch = 0;
  for (const auto& update : set_a.updates) {
    const auto planned = agg_a.plan_submit(update);
    FoldOp fold;
    fold.gradient = update.gradient;
    fold.weight = planned.weight;
    plan_a.push_back(fold);
    if (planned.flush) {
      FoldOp apply;
      apply.kind = FoldOp::Kind::kFlushApply;
      apply.learning_rate = kLr;
      plan_a.push_back(apply);
    }
    if (++in_batch == 4) {
      pool.execute(ctx_a, plan_a);
      plan_a.clear();
      in_batch = 0;
      // Interleave a B fold between A batches on the same pool.
      if (b_cursor < grads_b.size()) fold_one_b();
    }
  }
  pool.execute(ctx_a, plan_a);
  while (b_cursor < grads_b.size()) fold_one_b();

  EXPECT_TRUE(bitwise_equal(ref_a, params_a));
  EXPECT_TRUE(bitwise_equal(solo_b, params_b));
}

TEST(ShardedAggregatorTest, BitwiseIdenticalToSequentialForAnyShardCount) {
  const UpdateSet set = make_updates(24, 7);
  std::vector<double> seq_weights;
  const auto reference = sequential_fold(set, /*k=*/3, &seq_weights);
  for (std::size_t shards : {1u, 2u, 3u, 5u, 16u}) {
    std::vector<double> weights;
    const auto folded = sharded_fold(set, 3, shards, /*batch=*/4, &weights);
    EXPECT_TRUE(bitwise_equal(reference, folded)) << "shards=" << shards;
    EXPECT_EQ(weights, seq_weights) << "shards=" << shards;
  }
}

TEST(ShardedAggregatorTest, BitwiseIdenticalForAnyBatchSize) {
  const UpdateSet set = make_updates(25, 13);
  const auto reference = sequential_fold(set, /*k=*/2);
  for (std::size_t batch : {1u, 2u, 7u, 25u, 100u}) {
    const auto folded = sharded_fold(set, 2, /*shards=*/3, batch);
    EXPECT_TRUE(bitwise_equal(reference, folded)) << "batch=" << batch;
  }
}

TEST(ShardedAggregatorTest, WorkerPoolSurvivesManyBarriers) {
  // One execute() per submission: the persistent pool must hand off and
  // barrier correctly hundreds of times in a row.
  const UpdateSet set = make_updates(200, 29);
  const auto reference = sequential_fold(set, /*k=*/1);
  const auto folded = sharded_fold(set, 1, /*shards=*/4, /*batch=*/1);
  EXPECT_TRUE(bitwise_equal(reference, folded));
}

TEST(ShardedAggregatorTest, PartitionMatchesSpanOfAndDropsEmptyTails) {
  for (std::size_t shards : {1u, 2u, 3u, 5u, 16u}) {
    const auto spans = ShardedAggregator::partition(kParams, shards);
    std::size_t cursor = 0;
    for (const FoldSpan& span : spans) {
      EXPECT_EQ(span.begin, cursor);
      EXPECT_LT(span.begin, span.end);  // empty tails are dropped
      cursor = span.end;
    }
    EXPECT_EQ(cursor, kParams);
    EXPECT_LE(spans.size(), shards);
  }
  EXPECT_TRUE(ShardedAggregator::partition(0, 4).empty());
}

TEST(ShardedAggregatorTest, SubmitValidatesContextAndLatch) {
  learning::AsyncAggregator agg(kParams, kClasses, agg_config(1));
  std::vector<float> params(kParams, 0.0f);
  ShardedAggregator pool(2);
  std::vector<FoldOp> plan(1);
  FoldLatch latch;

  // A cached partition that does not tile the arena is refused: short
  // coverage, an interior gap (right edges fine), and an overlap.
  FoldContext bad = context_of(agg, params);
  const std::vector<FoldSpan> short_spans = {FoldSpan{0, kParams - 1}};
  bad.spans = short_spans;
  EXPECT_THROW(pool.submit(bad, plan, latch), std::invalid_argument);
  const std::vector<FoldSpan> gap_spans = {FoldSpan{0, 4},
                                           FoldSpan{5, kParams}};
  bad.spans = gap_spans;
  EXPECT_THROW(pool.submit(bad, plan, latch), std::invalid_argument);
  const std::vector<FoldSpan> overlap_spans = {FoldSpan{0, 5},
                                               FoldSpan{4, kParams}};
  bad.spans = overlap_spans;
  EXPECT_THROW(pool.submit(bad, plan, latch), std::invalid_argument);
  EXPECT_TRUE(latch.done());

  // An empty plan never arms the latch.
  pool.submit(context_of(agg, params), {}, latch);
  EXPECT_TRUE(latch.done());
  pool.wait(latch);  // trivially returns
}

TEST(ShardedAggregatorTest, WorkerlessPoolRunsPlansOnTheSubmitter) {
  // shards = 1 spawns no worker: submit() itself runs every span task (a
  // cached partition may still carry several) and returns with the latch
  // resolved, folding exactly like the serial reference.
  const UpdateSet set = make_updates(12, 5);
  const auto reference = sequential_fold(set, /*k=*/2);

  learning::AsyncAggregator agg(kParams, kClasses, agg_config(2));
  std::vector<float> params(kParams, 0.25f);
  const auto spans = ShardedAggregator::partition(kParams, 3);
  ShardedAggregator pool(1);
  EXPECT_EQ(pool.worker_count(), 0u);
  FoldContext ctx = context_of(agg, params);
  ctx.spans = spans;
  std::vector<FoldOp> plan;
  for (const auto& update : set.updates) {
    const auto planned = agg.plan_submit(update);
    FoldOp fold;
    fold.gradient = update.gradient;
    fold.weight = planned.weight;
    plan.push_back(fold);
    if (planned.flush) {
      FoldOp apply;
      apply.kind = FoldOp::Kind::kFlushApply;
      apply.learning_rate = kLr;
      plan.push_back(apply);
    }
  }
  FoldLatch latch;
  pool.submit(ctx, plan, latch);
  EXPECT_TRUE(latch.done());
  pool.wait(latch);  // trivially returns
  EXPECT_TRUE(bitwise_equal(reference, params));
  const auto stats = pool.pool_stats();
  EXPECT_EQ(stats.tasks_executed, spans.size());
  EXPECT_EQ(stats.peak_pending, 1u);  // one task in flight at a time
}

/// Scheduler core (DESIGN.md §9): many sessions' plans submitted back to
/// back on one pool, one latch each, waited only after all were queued —
/// cross-context concurrency must leave every context bitwise identical
/// to its dedicated-pool fold.
TEST(ShardedAggregatorTest, ConcurrentCrossContextSubmissionsStayBitwise) {
  constexpr std::size_t kContexts = 5;
  constexpr std::size_t kRounds = 40;

  // References: each context folded alone (the solo sequential path).
  std::vector<UpdateSet> sets;
  std::vector<std::vector<float>> references;
  for (std::size_t c = 0; c < kContexts; ++c) {
    sets.push_back(make_updates(kRounds, 100 + c));
    references.push_back(sequential_fold(sets[c], /*k=*/2));
  }

  // One shared pool, all contexts in flight per round: plan one update
  // per context, submit all plans, then wait all latches.
  std::vector<std::unique_ptr<learning::AsyncAggregator>> aggs;
  std::vector<std::vector<float>> params;
  for (std::size_t c = 0; c < kContexts; ++c) {
    aggs.push_back(std::make_unique<learning::AsyncAggregator>(
        kParams, kClasses, agg_config(2)));
    params.emplace_back(kParams, 0.25f);
  }
  ShardedAggregator pool(3);
  std::vector<std::vector<FoldOp>> plans(kContexts);
  std::vector<FoldLatch> latches(kContexts);
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t c = 0; c < kContexts; ++c) {
      plans[c].clear();
      const auto& update = sets[c].updates[round];
      const auto planned = aggs[c]->plan_submit(update);
      FoldOp fold;
      fold.gradient = update.gradient;
      fold.weight = planned.weight;
      plans[c].push_back(fold);
      if (planned.flush) {
        FoldOp apply;
        apply.kind = FoldOp::Kind::kFlushApply;
        apply.learning_rate = kLr;
        plans[c].push_back(apply);
      }
    }
    for (std::size_t c = 0; c < kContexts; ++c) {
      pool.submit(context_of(*aggs[c], params[c]), plans[c], latches[c]);
    }
    for (std::size_t c = 0; c < kContexts; ++c) pool.wait(latches[c]);
  }

  for (std::size_t c = 0; c < kContexts; ++c) {
    EXPECT_TRUE(bitwise_equal(references[c], params[c])) << "context " << c;
  }
  // Occupancy: every (context, span) task ran — 3 spans per plan — and a
  // submit instant always has at least its own plan's tasks in flight.
  const auto stats = pool.pool_stats();
  EXPECT_EQ(stats.tasks_executed, kContexts * kRounds * 3);
  EXPECT_GE(stats.peak_pending, 3u);
}

TEST(ShardedAggregatorTest, CachedSpanPartitionFoldsIdentically) {
  // A context carrying its cached partition folds exactly like one whose
  // partition the scheduler derives per submission.
  const UpdateSet set = make_updates(24, 7);
  const auto reference = sharded_fold(set, /*k=*/3, /*shards=*/3, /*batch=*/4);

  learning::AsyncAggregator agg(kParams, kClasses, agg_config(3));
  std::vector<float> params(kParams, 0.25f);
  const auto spans = ShardedAggregator::partition(kParams, 3);
  ShardedAggregator pool(3);
  FoldContext ctx = context_of(agg, params);
  ctx.spans = spans;
  std::vector<FoldOp> plan;
  std::size_t in_batch = 0;
  for (const auto& update : set.updates) {
    const auto planned = agg.plan_submit(update);
    FoldOp fold;
    fold.gradient = update.gradient;
    fold.weight = planned.weight;
    plan.push_back(fold);
    if (planned.flush) {
      FoldOp apply;
      apply.kind = FoldOp::Kind::kFlushApply;
      apply.learning_rate = kLr;
      plan.push_back(apply);
    }
    if (++in_batch == 4) {
      pool.execute(ctx, plan);
      plan.clear();
      in_batch = 0;
    }
  }
  pool.execute(ctx, plan);
  EXPECT_TRUE(bitwise_equal(reference, params));
}

TEST(ShardedAggregatorTest, PinnedWorkersFoldIdentically) {
  // Pinning is a locality hint only — results must not move by a bit.
  const UpdateSet set = make_updates(24, 31);
  const auto reference = sequential_fold(set, /*k=*/2);
  learning::AsyncAggregator agg(kParams, kClasses, agg_config(2));
  std::vector<float> params(kParams, 0.25f);
  ShardedAggregator pool(4, /*worker_cpus=*/{0, 1, 2});
  const FoldContext ctx = context_of(agg, params);
  std::vector<FoldOp> plan;
  for (const auto& update : set.updates) {
    const auto planned = agg.plan_submit(update);
    FoldOp fold;
    fold.gradient = update.gradient;
    fold.weight = planned.weight;
    plan.push_back(fold);
    if (planned.flush) {
      FoldOp apply;
      apply.kind = FoldOp::Kind::kFlushApply;
      apply.learning_rate = kLr;
      plan.push_back(apply);
    }
  }
  pool.execute(ctx, plan);
  EXPECT_TRUE(bitwise_equal(reference, params));
}

}  // namespace
}  // namespace fleet::runtime
