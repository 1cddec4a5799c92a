// Gradient-ingest throughput of the concurrent serving runtime
// (DESIGN.md §6) vs the serial single-threaded server path, on the same
// 111k-parameter model snapshot_store_bench uses.
//
// Each producer owns a model replica and drives the full learning-task
// inner loop: acquire the current snapshot (one atomic load), bulk-load it
// into the replica, compute a real gradient on a local mini-batch, and
// hand the owned buffer to the server. The serial baseline performs the
// identical work against `core::FleetServer::handle_gradient` on one
// thread; the runtime rows fan the compute across N producer threads
// feeding the bounded MPSC queue and its single aggregation thread.
// Speedup therefore measures what the subsystem promises: the gradient
// *computation* parallelizes across cores while AdaSGD stays sequential
// and exact on the aggregation thread.
//
// A second section isolates the *aggregation* side (DESIGN.md §6 sharded
// hierarchical fold): producers submit pre-computed gradients (one memcpy
// each) at K = 1, so every gradient costs the aggregation path a weighted
// fold plus a full model apply — the fold arithmetic dominates — and the
// shard sweep {1,2,4} measures how the span-partitioned fold scales.
//
// A third section sweeps tenancy (DESIGN.md §7): {1,2,4} models registered
// on one shared host, one producer per model in the same aggregation-bound
// regime — per-model and aggregate gradients/sec as tenants are added.
//
// A fourth section measures the concurrent fold scheduler (DESIGN.md §9):
// {1,2,4} models x {1,4} shards with all sessions' fold plans overlapped
// on the shared pool, reporting per-model/aggregate grads/s and the fold
// occupancy high-water mark.
//
// A fifth section sweeps the planner control plane (DESIGN.md §13):
// 8 tenants on one host with aggregation_shards = 1, so every session's
// fold runs on its own planner thread — the planners are the bottleneck
// by construction — across {1,2,4} planner threads (planner_* metrics).
//
// A sixth section measures the telemetry overhead (DESIGN.md §11): the
// aggregation-bound scenario twice, tracing off and on, best of two runs
// each — the on/off grads/s ratio is the design's <= 5% overhead budget —
// plus the traced run's latency histograms (queue wait, session fold,
// publish) and its trace-event accounting.
//
// Emits BENCH_runtime.json (gradients/sec vs thread count 1/2/4/8, plus
// aggregation throughput vs shard count 1/2/4, plus the multi-tenant
// model sweep 1/2/4, plus the concurrent_models_* scheduler sweep) and
// BENCH_telemetry.json (the tracing-on/off sweep).
#include <chrono>
#include <iostream>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "fleet/core/server.hpp"
#include "fleet/device/catalog.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/profiler/iprof.hpp"
#include "fleet/profiler/training_data.hpp"
#include "fleet/runtime/concurrent_server.hpp"
#include "fleet/stats/rng.hpp"
#include "fleet/telemetry/metrics.hpp"
#include "fleet/telemetry/telemetry.hpp"
#include "fleet/tensor/kernels/kernels.hpp"
#include "fleet/tensor/kernels/scratch.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using fleet::stats::Rng;

constexpr std::size_t kInputDim = 100;
constexpr std::size_t kHidden = 1000;
constexpr std::size_t kClasses = 10;
constexpr std::size_t kBatchSize = 32;
// K = 8 on both paths: the sequential section (apply + snapshot publish)
// amortizes over 8 gradients, as in the paper's K-sweeps.
constexpr std::size_t kAggregationK = 8;

std::unique_ptr<fleet::profiler::Profiler> pretrained_iprof() {
  auto iprof = std::make_unique<fleet::profiler::IProf>(
      fleet::profiler::IProf::Config{});
  iprof->pretrain(fleet::profiler::collect_profile_dataset(
      fleet::device::training_fleet(), fleet::profiler::IProf::Config{}.slo,
      20));
  return iprof;
}

/// A producer's fixed local mini-batch (inputs + labels + LD), seeded per
/// producer stream so every configuration computes on identical data.
struct LocalBatch {
  fleet::nn::Batch batch;
  fleet::stats::LabelDistribution label_dist{kClasses};
};

LocalBatch make_batch(std::uint64_t seed, std::uint64_t producer) {
  Rng rng = Rng::stream(seed, producer);
  std::vector<float> inputs(kBatchSize * kInputDim);
  for (float& x : inputs) x = static_cast<float>(rng.gaussian(0.0, 1.0));
  LocalBatch local;
  local.batch.inputs = fleet::tensor::Tensor(
      {kBatchSize, kInputDim}, std::move(inputs));
  local.batch.labels.resize(kBatchSize);
  for (int& label : local.batch.labels) {
    label = static_cast<int>(rng.uniform_int(0, kClasses - 1));
  }
  local.label_dist = fleet::stats::LabelDistribution::from_labels(
      local.batch.labels, kClasses);
  return local;
}

double grads_per_second(Clock::time_point start, Clock::time_point stop,
                        std::size_t gradients) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start);
  return static_cast<double>(gradients) * 1e9 /
         static_cast<double>(ns.count());
}

/// Serial baseline: the identical per-gradient work through the
/// single-threaded FleetServer ingest path.
double run_serial(std::size_t total_gradients) {
  auto model = fleet::nn::zoo::mlp(kInputDim, kHidden, kClasses);
  model->init(1);
  fleet::core::ServerConfig config;
  config.aggregator.aggregation_k = kAggregationK;
  fleet::core::FleetServer server(*model, pretrained_iprof(), config);
  auto replica = fleet::nn::zoo::mlp(kInputDim, kHidden, kClasses);
  replica->init(2);
  LocalBatch local = make_batch(99, 0);

  std::vector<float> gradient;
  const auto start = Clock::now();
  for (std::size_t g = 0; g < total_gradients; ++g) {
    replica->load_parameters(model->parameters_view());
    replica->gradient(local.batch, gradient);
    server.handle_gradient(server.version(), gradient, local.label_dist,
                           kBatchSize);
  }
  const auto stop = Clock::now();
  return grads_per_second(start, stop, total_gradients);
}

/// Concurrent runtime at `n_threads` producers.
double run_concurrent(std::size_t n_threads, std::size_t total_gradients) {
  auto model = fleet::nn::zoo::mlp(kInputDim, kHidden, kClasses);
  model->init(1);
  fleet::core::ServerConfig config;
  config.aggregator.aggregation_k = kAggregationK;
  fleet::runtime::RuntimeConfig runtime;
  runtime.queue_capacity = 1024;
  runtime.queue_shards = std::max<std::size_t>(n_threads, 1);
  fleet::runtime::ConcurrentFleetServer server(*model, pretrained_iprof(),
                                               config, runtime);

  // Pre-build replicas and batches outside the timed region.
  std::vector<std::unique_ptr<fleet::nn::Sequential>> replicas;
  std::vector<LocalBatch> batches;
  for (std::size_t t = 0; t < n_threads; ++t) {
    replicas.push_back(fleet::nn::zoo::mlp(kInputDim, kHidden, kClasses));
    replicas.back()->init(2 + t);
    batches.push_back(make_batch(99, t));
  }
  const std::size_t per_thread = total_gradients / n_threads;

  const auto start = Clock::now();
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < n_threads; ++t) {
    producers.emplace_back([&, t] {
      fleet::nn::Sequential& replica = *replicas[t];
      const LocalBatch& local = batches[t];
      fleet::runtime::GradientJob job;
      for (std::size_t g = 0; g < per_thread; ++g) {
        const auto record = server.current();
        replica.load_parameters(*record.snapshot);
        replica.gradient(local.batch, job.gradient);
        job.task_version = record.version;
        job.label_dist = local.label_dist;
        job.mini_batch = kBatchSize;
        while (!server.try_submit(job).accepted) {
          // Bounded queue: back off long enough for the aggregation
          // thread to make progress even on an oversubscribed host.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  server.drain();
  const auto stop = Clock::now();

  const std::size_t processed = server.stats().processed;
  server.stop();
  return grads_per_second(start, stop, processed);
}

/// Aggregation-bound scenario for the shard sweep: two producers replay a
/// pre-computed gradient (the submit path moves the owned buffer, so each
/// replay is one memcpy), K = 1 makes every gradient fold + apply +
/// count toward a publication — the aggregation side is the bottleneck by
/// construction, and the shard count is the only variable.
double run_sharded(std::size_t shards, std::size_t total_gradients) {
  constexpr std::size_t kProducers = 2;
  auto model = fleet::nn::zoo::mlp(kInputDim, kHidden, kClasses);
  model->init(1);
  fleet::core::ServerConfig config;
  config.aggregator.aggregation_k = 1;
  fleet::runtime::RuntimeConfig runtime;
  runtime.queue_capacity = 1024;
  runtime.queue_shards = kProducers;
  runtime.aggregation_shards = shards;
  runtime.max_drain_batch = 64;
  fleet::runtime::ConcurrentFleetServer server(*model, pretrained_iprof(),
                                               config, runtime);

  // One real gradient per producer, computed outside the timed region.
  std::vector<std::vector<float>> templates;
  for (std::size_t t = 0; t < kProducers; ++t) {
    auto replica = fleet::nn::zoo::mlp(kInputDim, kHidden, kClasses);
    replica->init(2 + t);
    LocalBatch local = make_batch(99, t);
    auto& gradient = templates.emplace_back();
    replica->load_parameters(model->parameters_view());
    replica->gradient(local.batch, gradient);
  }
  const LocalBatch label_source = make_batch(99, 0);
  const std::size_t per_thread = total_gradients / kProducers;

  const auto start = Clock::now();
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      fleet::runtime::GradientJob job;
      for (std::size_t g = 0; g < per_thread; ++g) {
        job.task_version = server.current().version;
        job.gradient = templates[t];  // one memcpy: the producer's only work
        job.label_dist = label_source.label_dist;
        job.mini_batch = kBatchSize;
        while (!server.try_submit(job).accepted) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  server.drain();
  const auto stop = Clock::now();

  const std::size_t processed = server.stats().processed;
  server.stop();
  return grads_per_second(start, stop, processed);
}

/// Multi-tenant sweep (DESIGN.md §7/§9): N models registered on ONE host,
/// one producer per model replaying a pre-computed gradient into its own
/// session at K = 1 (fold + apply + publish per gradient, the
/// aggregation-bound scenario above) — measures how the shared queue,
/// aggregation thread and fold scheduler carry added tenants.
struct MultitenantResult {
  double aggregate = 0.0;       ///< grads/s across all models
  double per_model_mean = 0.0;  ///< mean per-model grads/s
  /// Fold-scheduler occupancy high-water mark (tasks queued + running at
  /// once; > shards means cross-session overlap happened).
  std::size_t fold_peak_pending = 0;
  std::size_t fold_tasks = 0;
};

MultitenantResult run_multitenant(std::size_t n_models, std::size_t shards,
                                  std::size_t total_gradients) {
  fleet::core::ServerConfig config;
  config.aggregator.aggregation_k = 1;
  fleet::runtime::RuntimeConfig runtime;
  runtime.queue_capacity = 1024;
  runtime.queue_shards = n_models;
  runtime.aggregation_shards = shards;
  runtime.max_drain_batch = 64;
  fleet::runtime::ConcurrentFleetServer host(runtime);

  std::vector<std::unique_ptr<fleet::nn::Sequential>> models;
  std::vector<fleet::core::ModelId> ids;
  std::vector<std::vector<float>> templates;
  for (std::size_t m = 0; m < n_models; ++m) {
    models.push_back(fleet::nn::zoo::mlp(kInputDim, kHidden, kClasses));
    models.back()->init(1 + m);
    ids.push_back(host.register_model(*models.back(), pretrained_iprof(),
                                      config));
    auto replica = fleet::nn::zoo::mlp(kInputDim, kHidden, kClasses);
    replica->init(100 + m);
    LocalBatch local = make_batch(99, m);
    auto& gradient = templates.emplace_back();
    replica->load_parameters(models.back()->parameters_view());
    replica->gradient(local.batch, gradient);
  }
  const LocalBatch label_source = make_batch(99, 0);
  const std::size_t per_model = total_gradients / n_models;

  const auto start = Clock::now();
  std::vector<std::thread> producers;
  for (std::size_t m = 0; m < n_models; ++m) {
    producers.emplace_back([&, m] {
      fleet::runtime::GradientJob job;
      for (std::size_t g = 0; g < per_model; ++g) {
        job.model_id = ids[m];
        job.task_version = host.current(ids[m]).version;
        job.gradient = templates[m];  // one memcpy: the producer's only work
        job.label_dist = label_source.label_dist;
        job.mini_batch = kBatchSize;
        while (!host.try_submit(job).accepted) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  host.drain();
  const auto stop = Clock::now();

  std::size_t processed = 0;
  double per_model_rate_sum = 0.0;
  for (const auto id : ids) {
    const std::size_t p = host.stats(id).processed;
    processed += p;
    per_model_rate_sum += grads_per_second(start, stop, p);
  }
  MultitenantResult result;
  const auto host_view = host.host_stats();
  result.fold_peak_pending = host_view.fold_peak_pending;
  result.fold_tasks = host_view.fold_tasks_executed;
  host.stop();
  result.aggregate = grads_per_second(start, stop, processed);
  result.per_model_mean =
      per_model_rate_sum / static_cast<double>(n_models);
  return result;
}

/// Planner-bound scenario (DESIGN.md §13): 8 tenants on one host with
/// aggregation_shards = 1, so each session's weighted fold and model apply
/// run on its own planner thread (the fold pool has no workers) — the
/// planner control plane is the
/// bottleneck by construction, and the planner count is the variable.
/// 4 producers replay pre-computed gradients (one memcpy each) at K = 1,
/// each producer round-robining over its own tenant subset so every
/// planner group sees steady pressure.
/// Returns grads/s across all tenants.
double run_planner_sweep(std::size_t planners, std::size_t total_gradients) {
  constexpr std::size_t kTenants = 8;
  constexpr std::size_t kProducers = 4;
  fleet::core::ServerConfig config;
  config.aggregator.aggregation_k = 1;
  fleet::runtime::RuntimeConfig runtime;
  runtime.queue_capacity = 1024;
  runtime.queue_shards = kTenants;
  runtime.planner_threads = planners;
  runtime.aggregation_shards = 1;  // folds run on the planners themselves
  runtime.max_drain_batch = 64;
  fleet::runtime::ConcurrentFleetServer host(runtime);

  std::vector<std::unique_ptr<fleet::nn::Sequential>> models;
  std::vector<fleet::core::ModelId> ids;
  std::vector<std::vector<float>> templates;
  for (std::size_t m = 0; m < kTenants; ++m) {
    models.push_back(fleet::nn::zoo::mlp(kInputDim, kHidden, kClasses));
    models.back()->init(1 + m);
    ids.push_back(host.register_model(*models.back(), pretrained_iprof(),
                                      config));
    auto replica = fleet::nn::zoo::mlp(kInputDim, kHidden, kClasses);
    replica->init(100 + m);
    LocalBatch local = make_batch(99, m);
    auto& gradient = templates.emplace_back();
    replica->load_parameters(models.back()->parameters_view());
    replica->gradient(local.batch, gradient);
  }
  const LocalBatch label_source = make_batch(99, 0);
  const std::size_t per_model = total_gradients / kTenants;

  const auto start = Clock::now();
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      fleet::runtime::GradientJob job;
      for (std::size_t g = 0; g < per_model; ++g) {
        for (std::size_t m = t; m < kTenants; m += kProducers) {
          job.model_id = ids[m];
          job.task_version = host.current(ids[m]).version;
          job.gradient = templates[m];  // one memcpy
          job.label_dist = label_source.label_dist;
          job.mini_batch = kBatchSize;
          while (!host.try_submit(job).accepted) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  host.drain();
  const auto stop = Clock::now();

  std::size_t processed = 0;
  for (const auto id : ids) processed += host.stats(id).processed;
  host.stop();
  return grads_per_second(start, stop, processed);
}

/// Telemetry-overhead scenario (DESIGN.md §11): the aggregation-bound
/// regime of run_sharded (2 producers, 2 shards, K = 1, batched drains) —
/// the configuration where per-gradient instrumentation (submit/dequeue/
/// fold events, queue-wait and fold histograms) is the largest fraction of
/// the work, i.e. the worst case for tracing overhead.
struct TelemetryBenchResult {
  double rate = 0.0;
  std::size_t trace_events = 0;
  std::size_t trace_dropped = 0;
  fleet::telemetry::HistogramSnapshot queue_wait;
  fleet::telemetry::HistogramSnapshot session_fold;
  fleet::telemetry::HistogramSnapshot publish;
};

TelemetryBenchResult run_telemetry(bool enabled,
                                   std::size_t total_gradients) {
  constexpr std::size_t kProducers = 2;
  auto model = fleet::nn::zoo::mlp(kInputDim, kHidden, kClasses);
  model->init(1);
  fleet::core::ServerConfig config;
  config.aggregator.aggregation_k = 1;
  fleet::runtime::RuntimeConfig runtime;
  runtime.queue_capacity = 1024;
  runtime.queue_shards = kProducers;
  runtime.aggregation_shards = 2;
  runtime.max_drain_batch = 64;
  runtime.telemetry.enabled = enabled;
  fleet::runtime::ConcurrentFleetServer server(*model, pretrained_iprof(),
                                               config, runtime);

  std::vector<std::vector<float>> templates;
  for (std::size_t t = 0; t < kProducers; ++t) {
    auto replica = fleet::nn::zoo::mlp(kInputDim, kHidden, kClasses);
    replica->init(2 + t);
    LocalBatch local = make_batch(99, t);
    auto& gradient = templates.emplace_back();
    replica->load_parameters(model->parameters_view());
    replica->gradient(local.batch, gradient);
  }
  const LocalBatch label_source = make_batch(99, 0);
  const std::size_t per_thread = total_gradients / kProducers;

  const auto start = Clock::now();
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      fleet::runtime::GradientJob job;
      for (std::size_t g = 0; g < per_thread; ++g) {
        job.task_version = server.current().version;
        job.gradient = templates[t];
        job.label_dist = label_source.label_dist;
        job.mini_batch = kBatchSize;
        while (!server.try_submit(job).accepted) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  server.drain();
  const auto stop = Clock::now();

  TelemetryBenchResult result;
  const std::size_t processed = server.stats().processed;
  result.rate = grads_per_second(start, stop, processed);
  server.stop();
  if (fleet::telemetry::Telemetry* telemetry = server.telemetry()) {
    result.trace_events = telemetry->tracer().collect().size();
    result.trace_dropped = telemetry->tracer().dropped();
    const auto snapshot = telemetry->metrics().snapshot();
    if (const auto* h = snapshot.histogram("queue.wait_ns")) {
      result.queue_wait = *h;
    }
    if (const auto* h = snapshot.histogram("server.session_fold_ns")) {
      result.session_fold = *h;
    }
    if (const auto* h = snapshot.histogram("server.publish_ns")) {
      result.publish = *h;
    }
  }
  return result;
}

}  // namespace

int main() {
  using namespace fleet;

  const std::size_t total = bench::scaled(400, 80);
  const unsigned hw = std::thread::hardware_concurrency();

  bench::header("Concurrent runtime gradient-ingest throughput (" +
                std::to_string(kInputDim * kHidden + kHidden +
                               kHidden * kClasses + kClasses) +
                " parameters, " + std::to_string(total) +
                " gradients/config, " + std::to_string(hw) +
                " hardware threads)");

  bench::JsonReport report("runtime_throughput");
  report.metric("gradients_per_config", total);
  report.metric("mini_batch", kBatchSize);
  report.metric("hardware_concurrency", static_cast<std::size_t>(hw));
  // The arithmetic backend every fold and forward/backward ran on — a
  // throughput number is only comparable across PRs per kernel backend.
  report.metric("kernel_backend",
                std::string(tensor::kernels::name(
                    tensor::kernels::active_backend())));
  report.metric("kernel_selection_source", tensor::kernels::selection_source());

  const double serial = run_serial(total);
  bench::row({"serial FleetServer", bench::fmt(serial, 1) + " grads/s"});
  report.metric("serial_grads_per_s", serial);

  double at4 = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const double rate = run_concurrent(threads, total);
    if (threads == 4) at4 = rate;
    bench::row({"runtime x" + std::to_string(threads),
                bench::fmt(rate, 1) + " grads/s  (" +
                    bench::fmt(rate / serial, 2) + "x serial)"});
    report.metric("threads_" + std::to_string(threads) + "_grads_per_s",
                  rate);
  }
  report.metric("speedup_4t_vs_serial", at4 / serial);

  bench::header("Sharded hierarchical aggregation throughput (K=1, " +
                std::to_string(total) + " gradients/config, 2 producers)");
  double sharded_at1 = 0.0;
  double sharded_at4 = 0.0;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    const double rate = run_sharded(shards, total);
    if (shards == 1) sharded_at1 = rate;
    if (shards == 4) sharded_at4 = rate;
    bench::row({"aggregation shards x" + std::to_string(shards),
                bench::fmt(rate, 1) + " grads/s  (" +
                    bench::fmt(shards == 1 ? 1.0 : rate / sharded_at1, 2) +
                    "x unsharded)"});
    report.metric("shards_" + std::to_string(shards) + "_grads_per_s", rate);
  }
  report.metric("sharded_speedup_4s_vs_1s", sharded_at4 / sharded_at1);

  bench::header("Multi-tenant host throughput (K=1, " + std::to_string(total) +
                " gradients/config, 1 producer/model, shared host)");
  double tenant_at1 = 0.0;
  for (const std::size_t models : {1u, 2u, 4u}) {
    const auto result =
        run_multitenant(models, /*shards=*/2, total);
    if (models == 1) tenant_at1 = result.aggregate;
    bench::row({"models x" + std::to_string(models),
                bench::fmt(result.aggregate, 1) + " grads/s aggregate, " +
                    bench::fmt(result.per_model_mean, 1) + " grads/s/model  (" +
                    bench::fmt(models == 1 ? 1.0
                                           : result.aggregate / tenant_at1,
                               2) +
                    "x single-tenant)"});
    report.metric("models_" + std::to_string(models) + "_grads_per_s",
                  result.aggregate);
    report.metric(
        "models_" + std::to_string(models) + "_per_model_grads_per_s",
        result.per_model_mean);
  }

  // Concurrent fold scheduling sweep (DESIGN.md §9): tenants x shards with
  // the shared scheduler overlapping sessions' folds. Occupancy > shards
  // means cross-session overlap actually happened on this hardware.
  bench::header("Concurrent fold scheduling (K=1, " + std::to_string(total) +
                " gradients/config, {1,2,4} models x {1,4} shards)");
  for (const std::size_t models : {1u, 2u, 4u}) {
    for (const std::size_t shards : {1u, 4u}) {
      const auto result = run_multitenant(models, shards, total);
      const std::string key = "concurrent_models_" + std::to_string(models) +
                              "_shards_" + std::to_string(shards);
      bench::row({"models x" + std::to_string(models) + " shards x" +
                      std::to_string(shards),
                  bench::fmt(result.aggregate, 1) + " grads/s aggregate, " +
                      bench::fmt(result.per_model_mean, 1) +
                      " grads/s/model, fold occupancy peak " +
                      std::to_string(result.fold_peak_pending)});
      report.metric(key + "_grads_per_s", result.aggregate);
      report.metric(key + "_per_model_grads_per_s", result.per_model_mean);
      report.metric(key + "_fold_peak_pending", result.fold_peak_pending);
      report.metric(key + "_fold_tasks", result.fold_tasks);
    }
  }

  // Planner control-plane sweep (DESIGN.md §13): folds on the planners
  // themselves (shards = 1), 8 tenants, 4 producers — planner threads are
  // the bottleneck, so added planners should carry added throughput on
  // multi-core hosts (CI gates planner_scaling_2v1 >= 1.0 when hw >= 2).
  bench::header("Planner scaling (K=1, 8 tenants, folds on planners, " +
                std::to_string(total) + " gradients/config)");
  double planner_at1 = 0.0;
  double planner_at2 = 0.0;
  for (const std::size_t planners : {1u, 2u, 4u}) {
    const double rate = run_planner_sweep(planners, total);
    if (planners == 1) planner_at1 = rate;
    if (planners == 2) planner_at2 = rate;
    bench::row({"planners x" + std::to_string(planners),
                bench::fmt(rate, 1) + " grads/s aggregate  (" +
                    bench::fmt(planners == 1 ? 1.0 : rate / planner_at1, 2) +
                    "x single-planner)"});
    report.metric("planner_" + std::to_string(planners) + "_grads_per_s",
                  rate);
  }
  report.metric("planner_scaling_2v1", planner_at2 / planner_at1);

  // Scratch-arena high-water mark across the whole run: with the slab
  // arenas warmed up this is flat across PRs unless a hot loop started
  // asking for more scratch (companion to fold_buffer_growths).
  report.metric("scratch_bytes_peak",
                tensor::kernels::ScratchAllocator::global_bytes_peak());

  report.write("BENCH_runtime.json");
  std::cout << "\nwrote BENCH_runtime.json\n";

  // --- Telemetry overhead sweep (DESIGN.md §11) -----------------------
  // Aggregation-bound scenario (2 producers, 2 shards, K = 1) with tracing
  // off and on, best of two runs per mode: per-gradient instrumentation is
  // the largest relative cost here, so the on/off ratio bounds the
  // overhead everywhere else. The design budget is <= 5% (ratio >= 0.95);
  // CI gates a looser floor and only on multi-core hosts, where the ratio
  // is a measurement rather than scheduler noise.
  bench::header("Telemetry overhead (tracing off vs on, " +
                std::to_string(total) + " gradients, 2 producers x 2 shards)");
  double off_rate = 0.0;
  TelemetryBenchResult traced;
  for (int rep = 0; rep < 2; ++rep) {
    off_rate = std::max(off_rate, run_telemetry(false, total).rate);
    const TelemetryBenchResult on = run_telemetry(true, total);
    if (on.rate > traced.rate) traced = on;
  }
  const double ratio = off_rate > 0.0 ? traced.rate / off_rate : 0.0;
  bench::row({"tracing off", bench::fmt(off_rate, 1) + " grads/s"});
  bench::row({"tracing on", bench::fmt(traced.rate, 1) + " grads/s  (" +
                                bench::fmt(ratio, 3) + "x off)"});
  bench::row({"trace events",
              std::to_string(traced.trace_events) + " collected, " +
                  std::to_string(traced.trace_dropped) + " dropped"});
  bench::row({"queue wait",
              "p50 " + bench::fmt(traced.queue_wait.quantile(0.5) / 1e3, 1) +
                  " us, p99 " +
                  bench::fmt(traced.queue_wait.quantile(0.99) / 1e3, 1) +
                  " us"});
  bench::row({"session fold",
              "p50 " + bench::fmt(traced.session_fold.quantile(0.5) / 1e3, 1) +
                  " us, p99 " +
                  bench::fmt(traced.session_fold.quantile(0.99) / 1e3, 1) +
                  " us"});

  bench::JsonReport telemetry_report("telemetry_overhead");
  telemetry_report.metric("gradients_per_config", total);
  telemetry_report.metric("hardware_concurrency",
                          static_cast<std::size_t>(hw));
  telemetry_report.metric("kernel_backend",
                          std::string(tensor::kernels::name(
                              tensor::kernels::active_backend())));
  telemetry_report.metric("telemetry_off_grads_per_s", off_rate);
  telemetry_report.metric("telemetry_on_grads_per_s", traced.rate);
  telemetry_report.metric("on_off_ratio", ratio);
  telemetry_report.metric("trace_events_collected", traced.trace_events);
  telemetry_report.metric("trace_events_dropped", traced.trace_dropped);
  telemetry_report.metric("queue_wait_p50_ns", traced.queue_wait.quantile(0.5));
  telemetry_report.metric("queue_wait_p99_ns",
                          traced.queue_wait.quantile(0.99));
  telemetry_report.metric("session_fold_p50_ns",
                          traced.session_fold.quantile(0.5));
  telemetry_report.metric("session_fold_p99_ns",
                          traced.session_fold.quantile(0.99));
  telemetry_report.metric("publish_p50_ns", traced.publish.quantile(0.5));
  telemetry_report.metric("publish_p99_ns", traced.publish.quantile(0.99));
  telemetry_report.write("BENCH_telemetry.json");
  std::cout << "wrote BENCH_telemetry.json\n";
  return 0;
}
