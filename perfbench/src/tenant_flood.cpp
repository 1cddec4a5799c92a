// tenant-flood: per-gradient overhead with no arithmetic. Four tenants of
// a 51-parameter MLP behind two planners; one sender keeps the loopback
// ring full in rounds of a fixed frame count (a closed loop), so the ring,
// decode, admission, queue shards, planner demux and AdaSGD bookkeeping
// carry the load while fold arithmetic is negligible. While the ring is
// full the sender pulls the tenants' published versions and, on a seeded
// Poisson schedule, sends task requests to a fifth tenant that the flood
// does not write: the request path stays off the flooded sessions, and
// the requests show what the flood costs another tenant of the host.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <thread>

#include "common.hpp"
#include "fleet/device/catalog.hpp"
#include "fleet/net/compression.hpp"
#include "fleet/net/ingest.hpp"
#include "fleet/net/wire.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/stats/rng.hpp"

namespace perfbench {
namespace {

using namespace fleet;

constexpr std::size_t kTenants = 4;       // flooded tenants, ids 0..3
constexpr std::size_t kAllTenants = 5;    // plus the probe tenant, id 4
constexpr std::size_t kRoundFrames = 8192;  // frames per round: ring + queue capacity
constexpr std::size_t kPayloads = 16;        // per tenant
constexpr double kProbesPerS = 300.0;        // probe task requests
constexpr std::size_t kMaxLag = 16;          // task-version lag of a frame
constexpr std::size_t kWarmGradients = 4096;  // per tenant
constexpr std::size_t kWarmRequests = 4096;   // per tenant
constexpr std::uint64_t kSendGiveUpNs = 1'000'000'000;
// The tenants, their payloads and the probe devices define the workload
// and stay fixed; the seed drives the frame stream and the probe schedule.
constexpr std::uint64_t kPopulationSeed = 1;

struct Tenant {
  core::ModelId id = 0;
  std::unique_ptr<nn::Sequential> model;
  std::vector<net::QuantizedGradient> payloads;
  std::vector<stats::LabelDistribution> labels;
};

struct Probe {
  profiler::DeviceFeatures features;
  std::string model_name;
  stats::LabelDistribution labels{3};
};

struct Stack {
  std::vector<Tenant> tenants;
  std::vector<Probe> probes;
  std::unique_ptr<runtime::ConcurrentFleetServer> server;
  std::unique_ptr<net::LoopbackIngest> ingest;
  std::unique_ptr<TraceSink> sink;
  stats::Rng rng{1};
  std::vector<std::uint8_t> frame;
  std::size_t ring_give_ups = 0;
  std::uint64_t last_poll = 0;

  ~Stack() {
    if (ingest) ingest->close();
    if (server) server->stop();
  }

  void poll_trace(std::uint64_t now) {
    if (sink && now - last_poll > 5'000'000) {
      sink->poll();
      last_poll = now;
    }
  }
};

void make_tenant(Tenant& t, std::uint64_t seed, stats::Rng& rng) {
  t.model = nn::zoo::mlp(8, 4, 3);
  t.model->init(seed);
  std::vector<float> grad;
  for (std::size_t p = 0; p < kPayloads; ++p) {
    nn::Batch b;
    std::vector<float> data(4 * 8);
    for (float& x : data) x = static_cast<float>(rng.gaussian(0.0, 1.0));
    b.inputs = tensor::Tensor({4, 8}, std::move(data));
    stats::LabelDistribution ld(3);
    for (int i = 0; i < 4; ++i) {
      const int label = static_cast<int>(rng.uniform_int(0, 2));
      b.labels.push_back(label);
      ld.add(label);
    }
    t.model->gradient(b, grad);
    t.payloads.push_back(net::quantize_gradient(grad));
    t.labels.push_back(ld);
  }
}

/// A frame for `tenant`: a seeded payload, and a task version a seeded lag
/// behind the tenant's clock.
void encode(Stack& s, std::size_t tenant) {
  const Tenant& t = s.tenants[tenant];
  const std::size_t p = static_cast<std::size_t>(s.rng.uniform_int(0, kPayloads - 1));
  const std::size_t lag = static_cast<std::size_t>(s.rng.uniform_int(0, kMaxLag));
  const std::size_t now = s.server->version(t.id);
  net::WireMeta meta;
  meta.model_id = t.id;
  meta.task_version = now > lag ? now - lag : 0;
  meta.mini_batch = 4;
  net::encode_frame(meta, t.labels[p], t.payloads[p], s.frame);
}

std::unique_ptr<Stack> setup(const Args& args, bool traced) {
  auto s = std::make_unique<Stack>();
  stats::Rng population(kPopulationSeed);
  s->rng = stats::Rng(args.seed * 15485863 + 3);
  runtime::RuntimeConfig rc;
  rc.planner_threads = 2;
  rc.aggregation_shards = 1;
  rc.telemetry.enabled = traced;
  rc.telemetry.trace_ring_capacity = 1u << 16;
  s->server = std::make_unique<runtime::ConcurrentFleetServer>(rc);
  core::ServerConfig sc;
  sc.aggregator.aggregation_k = 1;
  s->tenants.resize(kAllTenants);
  for (std::size_t i = 0; i < kAllTenants; ++i) {
    make_tenant(s->tenants[i], kPopulationSeed + i, population);
    s->tenants[i].id = s->server->register_model(*s->tenants[i].model,
                                                 pretrained_iprof(kPopulationSeed + i), sc);
  }
  const auto fleet_names = device::lab_fleet();
  for (std::size_t d = 0; d < 64; ++d) {
    Probe p;
    p.model_name = fleet_names[d % fleet_names.size()];
    device::DeviceSim sim(device::spec(p.model_name), kPopulationSeed + d);
    p.features = sim.features(&population);
    p.labels.add(static_cast<int>(population.uniform_int(0, 2)), 3);
    p.labels.add(static_cast<int>(population.uniform_int(0, 2)), 1);
    s->probes.push_back(std::move(p));
  }
  net::LoopbackIngest::Config ic;
  ic.injector_threads = 1;
  s->ingest = std::make_unique<net::LoopbackIngest>(*s->server, ic);
  if (traced) s->sink = std::make_unique<TraceSink>(*s->server->telemetry());

  // Warm-up to steady state: fill every tenant's Controller windows with
  // requests, then its staleness window and version window with folds.
  for (std::size_t r = 0; r < kWarmRequests * kAllTenants; ++r) {
    const Probe& p = s->probes[r % s->probes.size()];
    s->server->handle_request(s->tenants[r % kAllTenants].id, p.features, p.model_name, p.labels);
  }
  for (std::size_t i = 0; i < kWarmGradients * kAllTenants;) {
    encode(*s, i % kAllTenants);
    while (!s->ingest->try_send(s->frame)) {
      s->poll_trace(now_ns());
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ++i;
    s->poll_trace(now_ns());
  }
  s->ingest->drain();
  s->server->drain();
  return s;
}

struct Window {
  bool traced = false;
  std::vector<double> round_gps;
  std::vector<Outcome> updates;
  std::vector<Outcome> requests;
  TracedRun run;  // lag and refusals always; spans only when traced
  std::vector<SentFrame> frames;
  std::size_t attempted = 0;
  std::size_t folded = 0;
  std::size_t lost = 0;  // frames the ingest lost after a successful send
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Gradients folded so far over all tenants: with K=1 each fold is one
/// version. Cheap (atomic loads), unlike stats(), which copies histograms
/// under the session's lock.
std::size_t folded_total(const Stack& s) {
  std::size_t n = 0;
  for (const Tenant& t : s.tenants) n += s.server->version(t.id);
  return n;
}

/// Every frame sent so far has left the ring with a counted outcome, and
/// every admitted gradient is folded and published.
bool settled(const Stack& s) {
  const net::IngestStats is = s.ingest->stats();
  if (is.frames_sent != is.frames_submitted + is.wire_rejects + is.server_rejects + is.shed_drops) {
    return false;
  }
  std::size_t published = 0;
  for (const Tenant& t : s.tenants) published += s.server->current(t.id).version;
  return published == is.frames_submitted;
}

void run_window(Stack& s, const Args& args, Window& w) {
  if (s.sink) {
    s.sink->poll();
    s.sink->clear();
  }
  stats::Rng probe_rng(args.seed * 2654435761ULL + 5);
  const net::IngestStats ingest_begin = s.ingest->stats();
  w.begin = now_ns();
  const std::uint64_t stop = w.begin + static_cast<std::uint64_t>(args.seconds * 1e9);
  std::uint64_t next_probe = w.begin + static_cast<std::uint64_t>(probe_rng.exponential(1e9 / kProbesPerS));
  std::size_t probe_count = 0;
  std::size_t pull_rr = 0;
  std::size_t stream_index = 0;
  // Per tenant: the tracker of its gradients (K=1, version == folded).
  std::vector<UpdateTracker> trackers;
  do {
    const std::uint64_t round_begin = now_ns();
    const std::size_t folded_begin = folded_total(s);
    trackers.clear();
    for (std::size_t k = 0; k < kTenants; ++k) {
      trackers.emplace_back(s.server->version(s.tenants[k].id), 1);
    }
    std::vector<std::size_t> frames_of_round;  // index into w.frames
    const auto pull_one = [&] {
      const Tenant& t = s.tenants[pull_rr++ % kTenants];
      const std::uint64_t b = now_ns();
      const auto rec = s.server->current(t.id);
      const std::uint64_t e = now_ns();
      trackers[t.id % kTenants].observe(e, rec.version);
      if (w.traced && (pull_rr & 63) == 0) w.run.pulls.push_back({b, e});
      s.poll_trace(e);
    };
    const auto probe_if_due = [&] {
      const std::uint64_t now = now_ns();
      if (now < next_probe) return;
      const Probe& p = s.probes[probe_count % s.probes.size()];
      const Tenant& t = s.tenants[kTenants];  // the probe tenant
      ++probe_count;
      const std::uint64_t due = next_probe;
      next_probe += static_cast<std::uint64_t>(probe_rng.exponential(1e9 / kProbesPerS));
      const std::uint64_t b = now_ns();
      const auto task = s.server->handle_request(t.id, p.features, p.model_name, p.labels);
      const std::uint64_t e = now_ns();
      w.requests.push_back({due, e});
      w.run.lag_ms.push_back(b > due ? static_cast<double>(b - due) / 1e6 : 0.0);
      if (!task.accepted) ++w.run.rejects;
      if (w.traced) {
        w.run.requests.push_back({b, e});
        // AdaSGD's queries are timed on the flooded sessions.
        probe_learning(w.run, *s.server->session(s.tenants[probe_count % kTenants].id), p.labels);
      }
    };
    std::vector<std::vector<std::size_t>> slots(kTenants);
    for (std::size_t i = 0; i < kRoundFrames; ++i, ++stream_index) {
      const std::size_t tenant = stream_index % kTenants;
      encode(s, tenant);
      const std::uint64_t due = now_ns();
      ++w.attempted;
      while (true) {
        const std::uint64_t b = now_ns();
        const bool ok = s.ingest->try_send(s.frame);
        const std::uint64_t e = now_ns();
        if (w.traced) w.run.sends.push_back({b, e});
        if (ok) {
          const std::size_t slot = trackers[tenant].add(due);
          if (w.traced) {
            w.frames.push_back({s.tenants[tenant].id, due, {b, e}, {}});
            frames_of_round.push_back(w.frames.size() - 1);
            slots[tenant].push_back(slot);
          }
          break;
        }
        if (e - due > kSendGiveUpNs) {
          ++s.ring_give_ups;
          trackers[tenant].add_failed(due);
          break;
        }
        probe_if_due();
        pull_one();
        // Ring full: wait as a blocking socket send would, instead of
        // spinning on the ring's lock against the injector.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    // The backlog drains while the sender keeps pulling and probing; the
    // round ends when every frame has settled and every admitted gradient
    // is folded.
    std::uint64_t next_check = 0;
    while (true) {
      probe_if_due();
      pull_one();
      const std::uint64_t now = now_ns();
      if (now >= next_check) {
        next_check = now + 1'000'000;
        if (settled(s)) break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    for (std::size_t k = 0; k < kTenants; ++k) pull_one();
    const std::uint64_t round_end = now_ns();
    const std::size_t folded = folded_total(s) - folded_begin;
    w.folded += folded;
    w.round_gps.push_back(static_cast<double>(folded) /
                          (static_cast<double>(round_end - round_begin) / 1e9));
    for (std::size_t k = 0; k < kTenants; ++k) {
      const auto& outs = trackers[k].outcomes();
      w.updates.insert(w.updates.end(), outs.begin(), outs.end());
    }
    if (w.traced) {
      // frames_of_round is in send order; per tenant, slots[k] lists the
      // tracker slots of its frames in the same order.
      std::vector<std::size_t> next(kTenants, 0);
      for (std::size_t fi : frames_of_round) {
        const std::size_t k = w.frames[fi].model % kTenants;
        w.frames[fi].observed_ns = trackers[k].outcomes()[slots[k][next[k]++]].done_ns;
      }
    }
  } while (now_ns() < stop);
  w.end = now_ns();
  w.lost = lost_after_send(ingest_diff(s.ingest->stats(), ingest_begin));
  if (s.sink) s.sink->poll();
}

void check(Stack& s, Report& report) {
  s.ingest->drain();
  s.server->drain();
  const net::IngestStats is = s.ingest->stats();
  if (is.frames_sent != is.frames_submitted + is.wire_rejects + is.server_rejects + is.shed_drops) {
    report.fail("ingest identity: frames_sent != submitted + wire_rejects + server_rejects + shed_drops");
  }
  std::size_t admitted = 0;
  for (const Tenant& t : s.tenants) {
    const runtime::RuntimeStats rs = s.server->stats(t.id);
    admitted += rs.submitted;
    if (rs.processed != rs.submitted) {
      report.fail("tenant " + std::to_string(t.id) + ": processed != admitted");
    }
    if (s.server->version(t.id) != rs.processed) {
      report.fail("tenant " + std::to_string(t.id) + ": version != processed");
    }
  }
  if (admitted != is.frames_submitted) {
    report.fail("sum of tenants' admitted gradients != frames submitted by the ingest");
  }
  std::cout << "ingest: frames_sent " << is.frames_sent << " submitted " << is.frames_submitted
            << " server_rejects " << is.server_rejects << " wire_rejects " << is.wire_rejects
            << " shed_drops " << is.shed_drops << " ring_rejects " << is.ring_rejects
            << " backpressure_retries " << is.backpressure_retries << "\n";
}

void end_to_end(const Args& args, Report& report) {
  std::vector<double> setup_s;
  auto stack = repeated_setup([&] { return setup(args, false); }, setup_s);
  Window w;
  run_window(*stack, args, w);
  report.set("setup_s", median(setup_s), "s", setup_s.size());
  report.set("grads_per_s", median(w.round_gps), "1/s", w.round_gps.size());
  report.set("delivered_fraction",
             w.attempted ? static_cast<double>(w.folded) / static_cast<double>(w.attempted) : 0.0,
             "ratio", w.attempted);
  report.set_latencies(w.updates, w.requests, w.lost);
  report.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
  report.attempted = w.attempted;
  report.failed = w.attempted - w.folded;
  std::cout << "failed_fraction = "
            << static_cast<double>(report.failed) / static_cast<double>(std::max<std::size_t>(w.attempted, 1))
            << " (" << report.failed << " of " << w.attempted << " frames; ring give-ups "
            << stack->ring_give_ups << ")\n"
            << "rounds " << w.round_gps.size() << " of " << kRoundFrames << " frames\n";
  check(*stack, report);
}

void traced(const Args& args, Report& report) {
  double untraced_cost = 0.0;  // seconds per folded gradient
  {
    auto stack = setup(args, false);
    Window w;
    run_window(*stack, args, w);
    untraced_cost = 1.0 / median(w.round_gps);
    check(*stack, report);
  }
  auto stack = setup(args, true);
  const std::uint64_t dropped0 = stack->sink->dropped();
  Window w;
  w.traced = true;
  const net::IngestStats is0 = stack->ingest->stats();
  std::vector<runtime::RuntimeStats> rs0;
  for (const Tenant& t : stack->tenants) rs0.push_back(stack->server->stats(t.id));
  run_window(*stack, args, w);
  TracedRun& run = w.run;
  run.spans = server_spans(*stack->sink, w.begin, w.end + 1);
  std::vector<std::pair<profiler::DeviceFeatures, std::string>> devices;
  for (const Probe& p : stack->probes) devices.emplace_back(p.features, p.model_name);
  run.predict_us = predict_probe(kPopulationSeed, devices);
  std::vector<std::vector<std::uint8_t>> frames(kPayloads);
  for (std::size_t p = 0; p < kPayloads; ++p) {
    net::WireMeta meta;
    meta.task_version = 1;
    meta.mini_batch = 4;
    net::encode_frame(meta, stack->tenants[0].labels[p], stack->tenants[0].payloads[p], frames[p]);
  }
  run.decode_us = decode_probe(frames);
  for (std::size_t i = 0; i < kTenants; ++i) {
    const runtime::RuntimeStats rs = stack->server->stats(stack->tenants[i].id);
    run.staleness.merge(histogram_diff(rs.staleness_hist, rs0[i].staleness_hist));
    run.weight.merge(histogram_diff(rs.weight_hist, rs0[i].weight_hist));
  }
  run.ingest = ingest_diff(stack->ingest->stats(), is0);
  run.window_s = static_cast<double>(w.end - w.begin) / 1e9;
  run.planners = 2;
  run.untraced_cost = untraced_cost;
  run.traced_cost = 1.0 / median(w.round_gps);
  run.events_dropped = stack->sink->dropped() - dropped0;
  attribute_wire_path(run.spans, w.frames, run.path);
  report_layers(report, run);
  if (!args.trace_out.empty()) write_trace(args.trace_out, *stack->sink, run);
  report.attempted = w.attempted;
  report.failed = w.attempted - w.folded;
  check(*stack, report);
}

}  // namespace

void run_tenant_flood(const Args& args, Report& report) {
  if (args.trace) {
    traced(args, report);
  } else {
    end_to_end(args, report);
  }
}

}  // namespace perfbench
