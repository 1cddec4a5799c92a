// online-serve: the paper's Online FL path on one tenant. An open loop of
// Poisson device arrivals: each device requests a task (handle_request),
// holds it for the round trip its simulated phone and network take, then
// sends an int8 gradient frame carrying the task's version through the
// loopback wire. While idle the generator pulls the published model
// (current(id)), which is how update latency is observed.
//
// The round trip is the repository's own device model, drawn as
// core::FleetSimulation draws it: half a NetworkModel transfer to
// download, DeviceSim::run_task(task.mini_batch) on the fleet allocation,
// half a transfer to upload. Device time runs kTimeCompression times
// faster than the wall clock, so a round trip of seconds on a phone takes
// milliseconds here while the number of tasks in flight, and so the
// staleness AdaSGD sees, stays that of the modelled population.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <queue>
#include <thread>

#include "common.hpp"
#include "fleet/core/server.hpp"
#include "fleet/device/allocation.hpp"
#include "fleet/device/catalog.hpp"
#include "fleet/device/device_model.hpp"
#include "fleet/net/compression.hpp"
#include "fleet/net/ingest.hpp"
#include "fleet/net/network_model.hpp"
#include "fleet/net/wire.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/stats/rng.hpp"

namespace perfbench {
namespace {

using namespace fleet;

// Open-loop arrival rate: half the highest rate the serving path kept up
// with on every probe of a 4-vCPU VM (500/s: generator lag p99 under 4 ms,
// update latency p50 under 2 ms; from 600/s some runs fall behind their
// schedule and update latency grows through the run; --arrivals-per-s
// reruns the sweep), so queues stay short and the figures steady.
constexpr double kArrivalsPerS = 250.0;
constexpr std::size_t kDevices = 256;
// kDevices phones, each asking for a task kThinkMeanS (FleetSimulation's
// default think time) after its last upload, with the mean round trip of
// about 5.4 s of device time the model gives, arrive at 256 / 35.4 = 7.2
// tasks per device second; mapping that onto kArrivalsPerS compresses
// device time by 35. The run prints the population its rate models.
constexpr double kThinkMeanS = 30.0;
constexpr double kTimeCompression = 35.0;
constexpr std::size_t kPayloads = 32;
// Steady state: AdaSGD's staleness window, the Controller's quantile
// windows and the ModelStore's version window are all full.
constexpr std::size_t kWarmGradients = 4096;
constexpr std::size_t kWarmRequests = 4096;
constexpr std::size_t kWarmVersions = 64;
constexpr std::size_t kWarmBacklog = 8;
constexpr std::uint64_t kSendGiveUpNs = 1'000'000'000;
constexpr std::uint64_t kDrainTimeoutNs = 20'000'000'000;
constexpr core::ModelId kId = core::kDefaultModelId;
// The device population, the model and the payload pool define the
// workload and stay fixed; the seed drives the arrival schedule.
constexpr std::uint64_t kPopulationSeed = 1;

struct Device {
  profiler::DeviceFeatures features;
  std::string model_name;
  stats::LabelDistribution labels{10};
  std::size_t payload = 0;
};

/// Everything the seed determines: the device population and the payload
/// pool of pre-quantized real gradients of the served model.
struct Inputs {
  std::vector<Device> devices;
  std::vector<net::QuantizedGradient> payloads;
  std::vector<std::vector<float>> dequantized;  // what the server folds
};

std::unique_ptr<nn::Sequential> make_model(std::uint64_t seed) {
  auto model = nn::zoo::mlp(100, 1000, 10);
  model->init(seed);
  return model;
}

Inputs make_inputs(std::uint64_t seed, nn::Sequential& model) {
  Inputs in;
  stats::Rng rng(seed * 7919 + 1);
  const auto fleet_names = device::lab_fleet();
  for (std::size_t d = 0; d < kDevices; ++d) {
    Device dev;
    dev.model_name = fleet_names[d % fleet_names.size()];
    device::DeviceSim sim(device::spec(dev.model_name), seed + d);
    dev.features = sim.features(&rng);
    // Non-IID: each device holds two dominant classes.
    const int a = static_cast<int>(rng.uniform_int(0, 9));
    const int b = static_cast<int>(rng.uniform_int(0, 9));
    dev.labels.add(a, 8);
    dev.labels.add(b, 6);
    dev.labels.add(static_cast<int>(rng.uniform_int(0, 9)), 2);
    dev.payload = d % kPayloads;
    in.devices.push_back(std::move(dev));
  }
  // Real gradients of the initial model on class-clustered inputs.
  std::vector<std::vector<float>> centroids(10, std::vector<float>(100));
  for (auto& c : centroids) {
    for (float& x : c) x = static_cast<float>(rng.gaussian(0.0, 1.0));
  }
  std::vector<float> grad;
  for (std::size_t p = 0; p < kPayloads; ++p) {
    const std::size_t batch = 16;
    nn::Batch b;
    b.inputs = tensor::Tensor({batch, 100});
    std::vector<float> data(batch * 100);
    for (std::size_t i = 0; i < batch; ++i) {
      const int label = static_cast<int>((p + i * (i % 3 == 0 ? 1 : 3)) % 10);
      b.labels.push_back(label);
      for (std::size_t k = 0; k < 100; ++k) {
        data[i * 100 + k] = centroids[label][k] +
                            static_cast<float>(rng.gaussian(0.0, 0.5));
      }
    }
    b.inputs = tensor::Tensor({batch, 100}, std::move(data));
    model.gradient(b, grad);
    in.payloads.push_back(net::quantize_gradient(grad));
    in.dequantized.push_back(net::dequantize_gradient(in.payloads.back()));
  }
  return in;
}

/// The seeded open-loop schedule, in virtual nanoseconds from 0: arrival
/// times, the device of each arrival and the network halves of its round
/// trip.
class Schedule {
 public:
  Schedule(std::uint64_t seed, double arrivals_per_s)
      : rng_(seed * 104729 + 17), mean_gap_ns_(1e9 / arrivals_per_s),
        network_(net::NetworkModel::Config{}) {
    advance();
  }
  struct Arrival {
    std::uint64_t t = 0;
    std::size_t device = 0;
    double download_s = 0.0;  // device time
    double upload_s = 0.0;
  };
  const Arrival& next() const { return next_; }
  void advance() {
    t_ += rng_.exponential(mean_gap_ns_);
    next_.t = static_cast<std::uint64_t>(t_);
    next_.device = static_cast<std::size_t>(rng_.uniform_int(0, kDevices - 1));
    next_.download_s = 0.5 * network_.sample_transfer_s(rng_);
    next_.upload_s = 0.5 * network_.sample_transfer_s(rng_);
  }

 private:
  stats::Rng rng_;
  double mean_gap_ns_;
  net::NetworkModel network_;
  double t_ = 0.0;
  Arrival next_;
};

/// The simulated phones of one setup: their thermal and battery state
/// evolves with the tasks they run, as a FleetWorker's device does.
struct Phones {
  std::vector<device::DeviceSim> sims;
  std::vector<std::uint64_t> free_v;  // virtual time each phone's last task ended
  double round_trip_s = 0.0;          // device-time sums, for the printout
  double compute_s = 0.0;
  std::size_t tasks = 0;

  explicit Phones(const std::vector<Device>& devices) : free_v(devices.size(), 0) {
    for (std::size_t d = 0; d < devices.size(); ++d) {
      sims.emplace_back(device::spec(devices[d].model_name), kPopulationSeed + d);
    }
  }

  /// Runs an accepted task arriving at virtual time `t` on its phone and
  /// returns the wall-clock nanoseconds until its upload is due.
  std::uint64_t round_trip(const Schedule::Arrival& a, std::size_t mini_batch) {
    device::DeviceSim& sim = sims[a.device];
    // The phone cooled down since its last task (none if that is still in
    // flight: arrivals pick devices at random, so tasks may overlap).
    if (a.t > free_v[a.device]) {
      sim.idle(static_cast<double>(a.t - free_v[a.device]) / 1e9 * kTimeCompression);
    }
    const double compute = sim.run_task(mini_batch, device::fleet_allocation(sim.spec())).time_s;
    const double total = a.download_s + compute + a.upload_s;
    round_trip_s += total;
    compute_s += compute;
    ++tasks;
    const auto wall = static_cast<std::uint64_t>(total / kTimeCompression * 1e9);
    free_v[a.device] = std::max(free_v[a.device], a.t + wall);
    return wall;
  }
};

struct InFlight {
  std::uint64_t due_v = 0;  // virtual time the frame is due
  std::size_t device = 0;
  std::size_t version = 0;
  std::size_t mini_batch = 0;
  bool operator>(const InFlight& o) const { return due_v > o.due_v; }
};

/// One frame admitted in send order, for the oracle replay.
struct Sent {
  std::size_t device = 0;
  std::size_t version = 0;
  std::size_t mini_batch = 0;
};

/// A server, its wire front end and the generator state of one setup.
struct Stack {
  std::unique_ptr<nn::Sequential> model;
  Inputs inputs;
  std::unique_ptr<runtime::ConcurrentFleetServer> server;
  std::unique_ptr<net::LoopbackIngest> ingest;
  std::unique_ptr<TraceSink> sink;
  std::unique_ptr<Schedule> schedule;
  std::unique_ptr<Phones> phones;
  std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>> inflight;
  std::vector<Sent> sent;
  std::vector<std::uint8_t> frame;
  std::size_t requests = 0;
  std::size_t ring_give_ups = 0;
  std::uint64_t last_poll = 0;

  ~Stack() {
    if (ingest) ingest->close();
    if (server) server->stop();
  }
};

/// What the timed window records; spans only when traced.
struct Window {
  bool traced = false;
  std::vector<Outcome> requests;
  TracedRun run;  // lag and refusals always; spans only when traced
  std::vector<SentFrame> frames;
  std::vector<std::size_t> frame_slots;  // each frame's slot in the tracker
  std::size_t pulls = 0;
};

class Generator {
 public:
  Generator(Stack& s, UpdateTracker* tracker, Window* window)
      : s_(s), tracker_(tracker), w_(window) {}

  void pull() {
    const std::uint64_t b = now_ns();
    const auto rec = s_.server->current(kId);
    const std::uint64_t e = now_ns();
    if (tracker_ != nullptr) tracker_->observe(e, rec.version);
    if (w_ != nullptr && w_->traced && (rec.version != last_version_ || (w_->pulls & 63) == 0)) {
      w_->run.pulls.push_back({b, e});
    }
    if (w_ != nullptr) ++w_->pulls;
    last_version_ = rec.version;
    poll_trace(e);
    // Idle polling must not take a core from the serving threads.
    std::this_thread::yield();
  }

  void poll_trace(std::uint64_t now) {
    if (s_.sink && now - s_.last_poll > 5'000'000) {
      s_.sink->poll();
      s_.last_poll = now;
    }
  }

  /// Request for one arrival due at `due` (bench time).
  void request(const Schedule::Arrival& a, std::uint64_t due, std::uint64_t due_v) {
    const Device& dev = s_.inputs.devices[a.device];
    // Request-time features, as FleetWorker::device_info() reports them.
    const profiler::DeviceFeatures features = s_.phones->sims[a.device].features();
    const std::uint64_t b = now_ns();
    const core::TaskAssignment task =
        s_.server->handle_request(kId, features, dev.model_name, dev.labels);
    const std::uint64_t e = now_ns();
    ++s_.requests;
    if (w_ != nullptr) {
      w_->requests.push_back({due, e});
      w_->run.lag_ms.push_back(b > due ? static_cast<double>(b - due) / 1e6 : 0.0);
      if (!task.accepted) ++w_->run.rejects;
      if (w_->traced) {
        w_->run.requests.push_back({b, e});
        if ((s_.requests & 3) == 0) probe_learning(w_->run, *s_.server->session(kId), dev.labels);
      }
    }
    if (task.accepted) {
      const std::uint64_t hold = s_.phones->round_trip(a, task.mini_batch);
      s_.inflight.push({due_v + hold, a.device, task.model_version, task.mini_batch});
    }
  }

  /// Sends the due frame; retries a full ring (pulling meanwhile) until it
  /// is taken or the give-up time passes. Returns false on give-up.
  bool send(const InFlight& f, std::uint64_t due) {
    const Device& dev = s_.inputs.devices[f.device];
    net::WireMeta meta;
    meta.model_id = kId;
    meta.task_version = f.version;
    meta.mini_batch = f.mini_batch;
    net::encode_frame(meta, dev.labels, s_.inputs.payloads[dev.payload], s_.frame);
    const std::uint64_t first = now_ns();
    if (w_ != nullptr) {
      w_->run.lag_ms.push_back(first > due ? static_cast<double>(first - due) / 1e6 : 0.0);
    }
    while (true) {
      const std::uint64_t b = now_ns();
      const bool ok = s_.ingest->try_send(s_.frame);
      const std::uint64_t e = now_ns();
      if (w_ != nullptr && w_->traced) w_->run.sends.push_back({b, e});
      if (ok) {
        s_.sent.push_back({f.device, f.version, f.mini_batch});
        if (tracker_ != nullptr) {
          const std::size_t slot = tracker_->add(due);
          if (w_ != nullptr && w_->traced) {
            w_->frames.push_back({kId, due, {b, e}, {}});
            w_->frame_slots.push_back(slot);
          }
        }
        return true;
      }
      if (e - first > kSendGiveUpNs) {
        ++s_.ring_give_ups;
        if (tracker_ != nullptr) tracker_->add_failed(due);
        return false;
      }
      pull();
    }
  }

 private:
  Stack& s_;
  UpdateTracker* tracker_;
  Window* w_;
  std::size_t last_version_ = 0;
};

std::unique_ptr<Stack> setup(const Args& args, bool traced) {
  auto s = std::make_unique<Stack>();
  s->model = make_model(kPopulationSeed);
  s->inputs = make_inputs(kPopulationSeed, *s->model);
  runtime::RuntimeConfig rc;
  rc.aggregation_shards = 2;
  rc.planner_threads = 1;
  rc.telemetry.enabled = traced;
  rc.telemetry.trace_ring_capacity = 1u << 16;
  s->server = std::make_unique<runtime::ConcurrentFleetServer>(rc);
  core::ServerConfig sc;
  sc.aggregator.aggregation_k = 1;
  s->server->register_model(*s->model, pretrained_iprof(kPopulationSeed), sc);
  net::LoopbackIngest::Config ic;
  ic.injector_threads = 1;
  s->ingest = std::make_unique<net::LoopbackIngest>(*s->server, ic);
  if (traced) s->sink = std::make_unique<TraceSink>(*s->server->telemetry());
  s->schedule = std::make_unique<Schedule>(args.seed, args.arrivals_per_s.value_or(kArrivalsPerS));
  s->phones = std::make_unique<Phones>(s->inputs.devices);

  // Warm-up: the same schedule, replayed without waiting for its times,
  // until every window the serving path keeps is full. Sends wait while
  // the server is more than kWarmBacklog gradients behind, so the queue
  // (444 KB per decoded gradient) stays as short as in the timed window
  // and the peak memory is the serving path's, not the warm-up backlog's.
  Generator gen(*s, nullptr, nullptr);
  const std::uint64_t warm_deadline = now_ns() + kDrainTimeoutNs;
  while (s->requests < kWarmRequests || s->sent.size() < kWarmGradients) {
    const auto& a = s->schedule->next();
    if (!s->inflight.empty() && s->inflight.top().due_v <= a.t) {
      while (s->sent.size() > s->server->version(kId) + kWarmBacklog) {
        if (now_ns() > warm_deadline) throw std::runtime_error("warm-up never caught up");
        gen.pull();
      }
      const InFlight f = s->inflight.top();
      s->inflight.pop();
      if (!gen.send(f, now_ns())) throw std::runtime_error("warm-up send gave up");
    } else {
      gen.request(a, now_ns(), a.t);
      s->schedule->advance();
    }
    gen.poll_trace(now_ns());
  }
  // Let the server catch up so timing starts with no backlog.
  const std::size_t target = std::max(s->sent.size(), kWarmVersions);
  while (s->server->version(kId) < target) {
    if (now_ns() > warm_deadline) throw std::runtime_error("warm-up never caught up");
    gen.pull();
  }
  return s;
}

struct Timed {
  double grads_per_s = 0.0;
  std::size_t attempted = 0;
  std::size_t folded = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;   // end of the window
  std::uint64_t done = 0;  // all window gradients observed or given up
  std::vector<Outcome> updates;
  std::size_t lost = 0;  // frames the ingest lost after a successful send
  runtime::RuntimeStats stats_begin;
  net::IngestStats ingest_begin;
};

Timed run_window(Stack& s, const Args& args, Window& w) {
  Timed t;
  t.stats_begin = s.server->stats(kId);
  t.ingest_begin = s.ingest->stats();
  if (s.sink) {
    s.sink->poll();
    s.sink->clear();
  }
  const std::size_t v0 = s.server->version(kId);
  UpdateTracker tracker(s.sent.size(), 1);
  Generator gen(s, &tracker, &w);
  // Map the schedule's virtual time onto the clock from the next event on.
  std::uint64_t next_v = s.schedule->next().t;
  if (!s.inflight.empty()) next_v = std::min(next_v, s.inflight.top().due_v);
  t.begin = now_ns();
  const std::uint64_t offset = t.begin - next_v;
  const std::uint64_t end_v = next_v + static_cast<std::uint64_t>(args.seconds * 1e9);
  std::size_t v_end = 0;
  bool window_open = true;
  while (true) {
    const std::uint64_t now = now_ns();
    if (window_open && now >= offset + end_v) {
      window_open = false;
      t.end = now;
      v_end = s.server->version(kId);
    }
    const auto& a = s.schedule->next();
    const bool arrival_due = a.t < end_v && a.t + offset <= now;
    const bool send_due = !s.inflight.empty() && s.inflight.top().due_v + offset <= now;
    // A due send goes first: it takes microseconds, a request takes a
    // sort-bound fraction of a millisecond, and both count from due time.
    if (send_due) {
      const InFlight f = s.inflight.top();
      s.inflight.pop();
      gen.send(f, f.due_v + offset);
    } else if (arrival_due) {
      gen.request(a, a.t + offset, a.t);
      s.schedule->advance();
    } else if (!window_open && s.inflight.empty()) {
      break;
    } else {
      gen.pull();
    }
  }
  // Every gradient of the window is observed (or given up) before the
  // run ends; misses stay misses.
  const std::uint64_t deadline = now_ns() + kDrainTimeoutNs;
  while (tracker.pending() > 0 && now_ns() < deadline) gen.pull();
  t.done = now_ns();
  t.lost = lost_after_send(ingest_diff(s.ingest->stats(), t.ingest_begin));
  t.grads_per_s = static_cast<double>(v_end - v0) / (static_cast<double>(t.end - t.begin) / 1e9);
  t.updates = tracker.outcomes();
  t.attempted = t.updates.size();
  std::size_t completed = 0;
  for (const Outcome& o : t.updates) completed += o.done_ns.has_value();
  t.folded = completed;
  for (std::size_t i = 0; i < w.frames.size(); ++i) {
    w.frames[i].observed_ns = t.updates[w.frame_slots[i]].done_ns;
  }
  if (s.sink) s.sink->poll();
  return t;
}

/// Accounting identities, then a bitwise replay of the admitted stream
/// through the serial FleetServer oracle.
void check(Stack& s, Report& report) {
  s.ingest->drain();
  s.server->drain();
  const net::IngestStats is = s.ingest->stats();
  const runtime::RuntimeStats rs = s.server->stats(kId);
  const std::size_t version = s.server->version(kId);
  if (is.frames_sent != is.frames_submitted + is.wire_rejects + is.server_rejects + is.shed_drops) {
    report.fail("ingest identity: frames_sent != submitted + wire_rejects + server_rejects + shed_drops");
  }
  if (rs.processed != rs.submitted) report.fail("processed != admitted");
  if (version != rs.processed) report.fail("version != processed");
  const std::size_t lost = is.frames_sent - is.frames_submitted;
  s.ingest->close();
  s.server->stop();
  if (lost > 0 || s.ring_give_ups > 0) {
    std::cout << "replay skipped: " << lost << " frames lost in ingest and "
              << s.ring_give_ups << " sends given up, so the admitted stream "
              << "is not the sent stream\n";
    return;
  }
  auto oracle_model = make_model(kPopulationSeed);
  core::ServerConfig sc;
  sc.aggregator.aggregation_k = 1;
  core::FleetServer oracle(*oracle_model,
                           std::make_unique<profiler::IProf>(profiler::IProf::Config{}), sc);
  for (const Sent& f : s.sent) {
    const Device& dev = s.inputs.devices[f.device];
    const auto receipt = oracle.handle_gradient(f.version, s.inputs.dequantized[dev.payload],
                                                dev.labels, f.mini_batch);
    if (!receipt.accepted) {
      report.fail("oracle refused a gradient the server admitted");
      return;
    }
  }
  const auto served = s.model->parameters_view();
  const auto replayed = oracle_model->parameters_view();
  const bool equal = served.size() == replayed.size() &&
                     std::memcmp(served.data(), replayed.data(), served.size() * sizeof(float)) == 0;
  std::cout << "replay: " << s.sent.size() << " gradients through the serial oracle, "
            << (equal ? "bitwise identical" : "MISMATCH") << " (hash "
            << std::hex << param_hash(served) << std::dec << ")\n";
  if (!equal) report.fail("final parameters differ from the serial FleetServer replay");
}

void end_to_end(const Args& args, Report& report) {
  std::vector<double> setup_s;
  auto stack = repeated_setup([&] { return setup(args, false); }, setup_s);
  Window w;
  const Timed t = run_window(*stack, args, w);
  report.set("setup_s", median(setup_s), "s", setup_s.size());
  report.set("grads_per_s", t.grads_per_s, "1/s", t.folded);
  report.set("delivered_fraction",
             t.attempted ? static_cast<double>(t.folded) / static_cast<double>(t.attempted) : 0.0,
             "ratio", t.attempted);
  report.set_latencies(t.updates, w.requests, t.lost);
  report.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
  report.attempted = t.attempted;
  report.failed = t.attempted - t.folded;
  const Phones& ph = *stack->phones;
  const double rate = args.arrivals_per_s.value_or(kArrivalsPerS);
  const double round_trip_s = ph.round_trip_s / static_cast<double>(std::max<std::size_t>(ph.tasks, 1));
  std::cout << "failed_fraction = "
            << (t.attempted ? static_cast<double>(report.failed) / static_cast<double>(t.attempted) : 0.0)
            << " (" << report.failed << " of " << t.attempted << " gradients)\n"
            << "arrivals " << rate << "/s; requests " << w.requests.size()
            << " (controller refusals " << w.run.rejects << "), generator lag p99 "
            << percentile(w.run.lag_ms, 99, 0).value_or(0.0) << " ms\n"
            << "device round trip mean " << round_trip_s << " s (compute "
            << ph.compute_s / static_cast<double>(std::max<std::size_t>(ph.tasks, 1))
            << " s), " << round_trip_s / kTimeCompression * 1e3
            << " ms of wall time; population this rate models: "
            << rate / kTimeCompression * (kThinkMeanS + round_trip_s) << " phones\n";
  check(*stack, report);
}

/// Update latency p50 in ms: what tracing costs an open loop, whose
/// throughput is the arrival rate either way.
double update_p50_ms(const Timed& t) {
  return chunked_percentile(t.updates, 1e6, 50).value_or(0.0);
}

void traced(const Args& args, Report& report) {
  double untraced_cost = 0.0;
  {
    auto stack = setup(args, false);
    Window w;
    untraced_cost = update_p50_ms(run_window(*stack, args, w));
    check(*stack, report);
  }
  auto stack = setup(args, true);
  const std::uint64_t dropped0 = stack->sink->dropped();
  Window w;
  w.traced = true;
  const Timed t = run_window(*stack, args, w);
  const runtime::RuntimeStats rs = stack->server->stats(kId);
  TracedRun& run = w.run;
  run.spans = server_spans(*stack->sink, t.begin, t.done + 1);
  std::vector<std::pair<profiler::DeviceFeatures, std::string>> devices;
  for (const Device& d : stack->inputs.devices) devices.emplace_back(d.features, d.model_name);
  run.predict_us = predict_probe(kPopulationSeed, devices);
  std::vector<std::vector<std::uint8_t>> frames(kPayloads);
  for (std::size_t p = 0; p < kPayloads; ++p) {
    net::WireMeta meta;
    meta.task_version = 1;
    meta.mini_batch = 16;
    net::encode_frame(meta, stack->inputs.devices[p].labels, stack->inputs.payloads[p], frames[p]);
  }
  run.decode_us = decode_probe(frames);
  run.staleness = histogram_diff(rs.staleness_hist, t.stats_begin.staleness_hist);
  run.weight = histogram_diff(rs.weight_hist, t.stats_begin.weight_hist);
  run.ingest = ingest_diff(stack->ingest->stats(), t.ingest_begin);
  run.window_s = static_cast<double>(t.done - t.begin) / 1e9;
  run.untraced_cost = untraced_cost;
  run.traced_cost = update_p50_ms(t);
  run.events_dropped = stack->sink->dropped() - dropped0;
  attribute_wire_path(run.spans, w.frames, run.path);
  report_layers(report, run);
  if (!args.trace_out.empty()) write_trace(args.trace_out, *stack->sink, run);
  report.attempted = t.attempted;
  report.failed = t.attempted - t.folded;
  check(*stack, report);
}

}  // namespace

void run_online_serve(const Args& args, Report& report) {
  if (args.trace) {
    traced(args, report);
  } else {
    end_to_end(args, report);
  }
}

}  // namespace perfbench
