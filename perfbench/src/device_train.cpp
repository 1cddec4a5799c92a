// device-train: online training with real device compute. The
// round-structured ParallelFleet protocol (requests in worker order, then
// gradient computation on two compute threads, then submits in worker
// order and a barrier), driven from here so each call can be timed: real
// FleetWorkers train a small CNN on the repository's synthetic non-IID
// image partition and submit in-process, bypassing the wire.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <thread>

#include "common.hpp"
#include "fleet/core/worker.hpp"
#include "fleet/data/partition.hpp"
#include "fleet/data/synthetic_images.hpp"
#include "fleet/device/catalog.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/stats/rng.hpp"

namespace perfbench {
namespace {

using namespace fleet;

constexpr std::size_t kWorkers = 16;
constexpr std::size_t kComputeThreads = 2;
constexpr std::size_t kWarmGradients = 4096;  // AdaSGD staleness window
constexpr std::size_t kWarmRequests = 4096;   // Controller quantile windows
constexpr std::size_t kCheckRounds = 4;
constexpr float kLearningRate = 0.05f;
constexpr core::ModelId kId = core::kDefaultModelId;
constexpr std::uint64_t kDrainTimeoutNs = 20'000'000'000;

// The dataset, its partition and the initial weights define the workload
// and stay fixed: the kernels skip zero activations, so their cost depends
// on data and weights. The seed drives the devices (their thermal and
// battery state, hence I-Prof's mini-batch bounds) and every draw of the
// run, such as which samples each mini-batch takes.
constexpr std::uint64_t kDataSeed = 42;
constexpr std::uint64_t kInitSeed = 1;
constexpr std::uint64_t kPartitionSeed = 7;

std::unique_ptr<nn::Sequential> make_model() {
  auto model = nn::zoo::small_cnn(1, 14, 14, 10);
  model->init(kInitSeed);
  return model;
}

struct Stack {
  std::optional<data::TrainTestSplit> split;  // no default constructor
  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<runtime::ConcurrentFleetServer> server;
  std::unique_ptr<TraceSink> sink;
  std::vector<core::FleetWorker> workers;
  std::size_t requests = 0;

  ~Stack() {
    if (server) server->stop();
  }
};

/// Fresh model, server and workers for `seed`: the same every time.
std::unique_ptr<Stack> build(std::uint64_t seed, bool traced) {
  auto s = std::make_unique<Stack>();
  data::SyntheticImageConfig data;  // 10 classes, 1x14x14
  data.seed = kDataSeed;
  s->split = data::generate_synthetic_images(data);
  s->model = make_model();
  runtime::RuntimeConfig rc;
  rc.queue_capacity = 4096;  // >= kWorkers: no round ever sees backpressure
  rc.planner_threads = 1;
  rc.aggregation_shards = 1;
  rc.telemetry.enabled = traced;
  rc.telemetry.trace_ring_capacity = 1u << 16;
  s->server = std::make_unique<runtime::ConcurrentFleetServer>(rc);
  core::ServerConfig sc;
  sc.aggregator.aggregation_k = 1;
  sc.learning_rate = kLearningRate;
  s->server->register_model(*s->model, pretrained_iprof(seed), sc);
  if (traced) s->sink = std::make_unique<TraceSink>(*s->server->telemetry());
  stats::Rng rng(kPartitionSeed);
  const auto users = data::partition_noniid_shards(s->split->train.labels(), kWorkers, 2, rng);
  const auto fleet_names = device::lab_fleet();
  s->workers.reserve(kWorkers);
  for (std::size_t u = 0; u < users.size(); ++u) {
    s->workers.emplace_back(static_cast<int>(u), make_model(), s->split->train, users[u],
                            device::spec(fleet_names[u % fleet_names.size()]), seed * 1000 + u);
  }
  return s;
}

/// What a traced or timed stretch of rounds records.
struct Window {
  bool traced = false;
  std::vector<Outcome> requests;
  std::vector<Outcome> updates;
  TracedRun run;  // lag and refusals always; spans only when traced
  struct Round {
    std::uint64_t begin = 0;
    std::uint64_t compute_end = 0;
    std::uint64_t submit_end = 0;
    std::uint64_t observed = 0;
    std::uint64_t request_ns = 0;
    std::uint64_t thread_busy_ns[kComputeThreads] = {};
    std::uint64_t submit_ns = 0;
    std::size_t grads = 0;
  };
  std::vector<Round> rounds;
  std::size_t attempted = 0;
  std::size_t folded = 0;
  std::size_t samples = 0;  // training samples in the computed gradients
};

/// One protocol round; records into `w` when given.
void round(Stack& s, Window* w) {
  const std::size_t n = s.workers.size();
  Window::Round r;
  r.begin = now_ns();
  // Phase A: requests, sequentially in worker order, all due at the start.
  std::vector<std::optional<core::TaskAssignment>> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& worker = s.workers[i];
    const auto features = worker.device_info();
    const auto labels = worker.label_info();
    const std::uint64_t b = now_ns();
    core::TaskAssignment task =
        s.server->handle_request(kId, features, worker.device().model_name(), labels);
    const std::uint64_t e = now_ns();
    ++s.requests;
    r.request_ns += e - b;
    if (w != nullptr) {
      w->requests.push_back({r.begin, e});
      w->run.lag_ms.push_back(static_cast<double>(b - r.begin) / 1e6);
      if (!task.accepted) ++w->run.rejects;
      if (w->traced) {
        w->run.requests.push_back({b, e});
        probe_learning(w->run, *s.server->session(kId), labels);
      }
    }
    if (task.accepted) tasks[i] = std::move(task);
  }
  // Phase B: gradient computation, static partition over compute threads.
  std::vector<std::optional<runtime::GradientJob>> jobs(n);
  std::vector<std::vector<Span>> spans(kComputeThreads);
  std::vector<std::size_t> batch_samples(n, 0);
  std::exception_ptr error;
  std::mutex error_mu;
  const auto compute = [&](std::size_t t) {
    for (std::size_t i = t; i < n; i += kComputeThreads) {
      if (!tasks[i]) continue;
      try {
        const std::uint64_t b = now_ns();
        auto result = s.workers[i].execute(*tasks[i]);
        spans[t].push_back({b, now_ns()});
        runtime::GradientJob job;
        job.model_id = kId;
        job.task_version = tasks[i]->model_version;
        job.gradient = std::move(result.gradient);
        job.label_dist = result.minibatch_labels;
        job.mini_batch = result.mini_batch;
        job.feedback = result.observation;
        jobs[i] = std::move(job);
        batch_samples[i] = result.mini_batch;
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    }
  };
  {
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < kComputeThreads; ++t) pool.emplace_back(compute, t);
    for (auto& th : pool) th.join();
  }
  r.compute_end = now_ns();
  if (error) std::rethrow_exception(error);
  for (std::size_t t = 0; t < kComputeThreads; ++t) {
    for (const Span& sp : spans[t]) r.thread_busy_ns[t] += sp.end - sp.begin;
    if (w != nullptr && w->traced) {
      w->run.gradients.insert(w->run.gradients.end(), spans[t].begin(), spans[t].end());
    }
  }
  // Phase C: submits in worker order, all due when the computation ends.
  UpdateTracker tracker(s.server->version(kId), 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (!jobs[i]) continue;
    const std::uint64_t b = now_ns();
    const core::GradientReceipt receipt = s.server->try_submit(*jobs[i]);
    const std::uint64_t e = now_ns();
    r.submit_ns += e - b;
    if (receipt.accepted) {
      tracker.add(r.compute_end);
    } else {
      tracker.add_failed(r.compute_end);
    }
  }
  r.submit_end = now_ns();
  // Barrier: pull until every gradient of the round is visible.
  const std::uint64_t deadline = now_ns() + kDrainTimeoutNs;
  for (std::size_t pulls = 0; tracker.pending() > 0 && now_ns() < deadline; ++pulls) {
    const std::uint64_t b = now_ns();
    const auto rec = s.server->current(kId);
    const std::uint64_t e = now_ns();
    tracker.observe(e, rec.version);
    if (w != nullptr && w->traced && (pulls & 63) == 0) w->run.pulls.push_back({b, e});
  }
  r.observed = now_ns();
  s.server->drain();
  if (s.sink) s.sink->poll();
  if (w != nullptr) {
    const auto& outs = tracker.outcomes();
    w->updates.insert(w->updates.end(), outs.begin(), outs.end());
    w->attempted += outs.size();
    for (const Outcome& o : outs) r.grads += o.done_ns.has_value();
    w->folded += r.grads;
    for (std::size_t b : batch_samples) w->samples += b;
    w->rounds.push_back(r);
  }
}

/// Steady state: rounds of the same protocol without the computation —
/// each worker requests, then submits a zero gradient with its real
/// metadata (labels, mini-batch, task version) — until the staleness
/// window, the Controller windows and the ModelStore window are full. Zero
/// gradients fill every window without moving the model, so the timed
/// rounds start from the initial parameters.
void warm_up(Stack& s) {
  const std::size_t params = s.model->parameter_count();
  while (s.server->version(kId) < kWarmGradients || s.requests < kWarmRequests) {
    std::vector<runtime::GradientJob> jobs;
    for (auto& worker : s.workers) {
      const auto labels = worker.label_info();
      const core::TaskAssignment task = s.server->handle_request(
          kId, worker.device_info(), worker.device().model_name(), labels);
      ++s.requests;
      if (!task.accepted) continue;
      runtime::GradientJob job;
      job.model_id = kId;
      job.task_version = task.model_version;
      job.gradient.assign(params, 0.0f);
      job.label_dist = labels;
      job.mini_batch = std::min(task.mini_batch, worker.local_size());
      jobs.push_back(std::move(job));
    }
    for (auto& job : jobs) {
      if (!s.server->try_submit(job).accepted) throw std::runtime_error("warm-up submit refused");
    }
    s.server->drain();
    if (s.sink) s.sink->poll();
  }
}

std::unique_ptr<Stack> setup(const Args& args, bool traced) {
  auto s = build(args.seed, traced);
  warm_up(*s);
  return s;
}

void run_window(Stack& s, const Args& args, Window& w, std::uint64_t& begin, std::uint64_t& end) {
  if (s.sink) {
    s.sink->poll();
    s.sink->clear();
  }
  begin = now_ns();
  const std::uint64_t stop = begin + static_cast<std::uint64_t>(args.seconds * 1e9);
  do {
    round(s, &w);
  } while (now_ns() < stop);
  end = now_ns();
}

/// Determinism and learning checks: two fresh runs of kCheckRounds rounds
/// from one seed end on one model hash, and the timed model beats chance
/// on held-out data.
void check(Stack& timed, const Args& args, Report& report) {
  std::uint64_t hashes[2] = {};
  for (auto& h : hashes) {
    auto s = build(args.seed, false);
    for (std::size_t i = 0; i < kCheckRounds; ++i) round(*s, nullptr);
    s->server->stop();
    h = param_hash(s->model->parameters_view());
  }
  std::cout << "determinism: " << kCheckRounds << "-round model hash " << std::hex
            << hashes[0] << " / " << hashes[1] << std::dec << "\n";
  if (hashes[0] != hashes[1]) report.fail("two runs of one seed ended on different models");
  const runtime::RuntimeStats rs = timed.server->stats(kId);
  if (rs.processed != rs.submitted) report.fail("processed != admitted");
  if (timed.server->version(kId) != rs.processed) report.fail("version != processed");
  timed.server->stop();
  const double loss = timed.model->evaluate_loss(timed.split->test.all());
  const double chance = std::log(10.0);
  std::cout << "held-out loss " << loss << " (bound: chance level " << chance << ")\n";
  if (!(loss < chance)) report.fail("held-out loss is not below chance level");
}

void end_to_end(const Args& args, Report& report) {
  std::vector<double> setup_s;
  auto stack = repeated_setup([&] { return setup(args, false); }, setup_s);
  Window w;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  run_window(*stack, args, w, begin, end);
  report.set("setup_s", median(setup_s), "s", setup_s.size());
  report.set("grads_per_s", static_cast<double>(w.folded) / (static_cast<double>(end - begin) / 1e9),
             "1/s", w.folded);
  report.set("delivered_fraction",
             w.attempted ? static_cast<double>(w.folded) / static_cast<double>(w.attempted) : 0.0,
             "ratio", w.attempted);
  report.set_latencies(w.updates, w.requests);
  report.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
  report.attempted = w.attempted;
  report.failed = w.attempted - w.folded;
  std::cout << "failed_fraction = "
            << static_cast<double>(report.failed) / static_cast<double>(std::max<std::size_t>(w.attempted, 1))
            << " (" << report.failed << " of " << w.attempted << " gradients), rounds "
            << w.rounds.size() << ", controller refusals " << w.run.rejects
            << ", mean mini-batch " << static_cast<double>(w.samples) / static_cast<double>(std::max<std::size_t>(w.folded, 1))
            << "\n";
  check(*stack, args, report);
}

void traced(const Args& args, Report& report) {
  double untraced_cost = 0.0;  // seconds per folded gradient
  {
    auto stack = setup(args, false);
    Window w;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    run_window(*stack, args, w, begin, end);
    untraced_cost = static_cast<double>(end - begin) / 1e9 / static_cast<double>(w.folded);
  }
  auto stack = setup(args, true);
  const std::uint64_t dropped0 = stack->sink->dropped();
  const runtime::RuntimeStats rs0 = stack->server->stats(kId);
  Window w;
  w.traced = true;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  run_window(*stack, args, w, begin, end);
  const runtime::RuntimeStats rs = stack->server->stats(kId);
  TracedRun& run = w.run;
  run.spans = server_spans(*stack->sink, begin, end + 1);
  const ServerSpans& spans = run.spans;
  std::vector<std::pair<profiler::DeviceFeatures, std::string>> devices;
  for (auto& worker : stack->workers) devices.emplace_back(worker.device_info(), worker.device().model_name());
  run.predict_us = predict_probe(args.seed, devices);
  run.staleness = histogram_diff(rs.staleness_hist, rs0.staleness_hist);
  run.weight = histogram_diff(rs.weight_hist, rs0.weight_hist);
  run.window_s = static_cast<double>(end - begin) / 1e9;
  run.untraced_cost = untraced_cost;
  run.traced_cost = run.window_s / static_cast<double>(w.folded);
  run.events_dropped = stack->sink->dropped() - dropped0;

  // Per round: requests (core), computation (nn, the busier thread), the
  // submits (runtime), then what the planner still did after the last
  // submit (plan, publish) and the pull that saw it. The rest of the round
  // (thread start/join, imbalance, planner wake-up) is unexplained.
  for (const auto& r : w.rounds) {
    const Interval tail{r.submit_end, r.observed};
    std::uint64_t batch = 0;
    std::uint64_t publish = 0;
    std::uint64_t last_publish_end = r.submit_end;
    for (const auto& b : spans.batches) {
      if (b.span.end <= tail.begin || b.span.begin >= tail.end) continue;
      batch += covered(tail, {b.span});
      publish += covered(tail, b.publishes);
      if (b.publish_end != 0 && b.publish_end <= tail.end) {
        last_publish_end = std::max(last_publish_end, b.publish_end);
      }
    }
    const std::uint64_t nn_ns = *std::max_element(std::begin(r.thread_busy_ns), std::end(r.thread_busy_ns));
    run.path.add(r.observed - r.begin,
             {0, r.request_ns, nn_ns, 0, 0, r.submit_ns, 0, batch - publish, 0, publish,
              r.observed - last_publish_end},
             std::max<std::size_t>(r.grads, 1));
  }
  report_layers(report, run);
  if (!args.trace_out.empty()) write_trace(args.trace_out, *stack->sink, run);
  report.attempted = w.attempted;
  report.failed = w.attempted - w.folded;
  check(*stack, args, report);
}

}  // namespace

void run_device_train(const Args& args, Report& report) {
  if (args.trace) {
    traced(args, report);
  } else {
    end_to_end(args, report);
  }
}

}  // namespace perfbench
