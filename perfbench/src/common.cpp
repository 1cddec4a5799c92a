#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "fleet/device/catalog.hpp"
#include "fleet/profiler/training_data.hpp"
#include "fleet/telemetry/export.hpp"
#include "fleet/tensor/kernels/kernels.hpp"

namespace perfbench {

using fleet::telemetry::TracePhase;

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--arrivals-per-s") {
      args.arrivals_per_s = std::stod(value);
      if (!(*args.arrivals_per_s > 0.0)) throw std::invalid_argument("--arrivals-per-s must be > 0");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace is 0 or 1");
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return args;
}

std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

void Report::set(const std::string& name, double value, const std::string& unit,
                 std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::set_latency(const std::string& name, const std::vector<Outcome>& ops,
                         double unit_ns, double p, const std::string& unit) {
  const auto value = chunked_percentile(ops, unit_ns, p);
  if (!value) {
    fail(name + ": " + std::to_string(ops.size()) + " samples in " +
         std::to_string(kChunks) + " chunks do not support p" +
         std::to_string(static_cast<int>(p)));
    set(name, 0.0, unit, ops.size());
    return;
  }
  double v = *value;
  if (std::isinf(v)) {
    // The percentile is a miss: report the largest completed sample as a
    // lower bound, and say so.
    double finite = 0.0;
    for (const Outcome& op : ops) {
      const double s = due_latency(op, unit_ns);
      if (std::isfinite(s)) finite = std::max(finite, s);
    }
    note(name + " lands on a failed or never-completed operation; "
         "reporting the largest completed sample as a lower bound");
    v = finite;
  }
  set(name, v, unit, ops.size());
}

void Report::set_latencies(const std::vector<Outcome>& updates,
                           const std::vector<Outcome>& requests,
                           std::size_t lost_frames) {
  if (lost_frames > 0) {
    note(std::to_string(lost_frames) +
         " frames were lost after a successful send; every later gradient of "
         "their session is matched to a version one too late per earlier "
         "loss, so update_latency_* are upper bounds, not exact");
  }
  set_latency("update_latency_p50_ms", updates, 1e6, 50, "ms");
  set_latency("update_latency_p99_ms", updates, 1e6, 99, "ms");
  set_latency("request_latency_p50_us", requests, 1e3, 50, "us");
  set_latency("request_latency_p99_us", requests, 1e3, 99, "us");
}

void Report::set_layer_percentile(const std::string& name,
                                  const std::vector<double>& samples, double p,
                                  const std::string& unit) {
  if (samples.empty()) {
    set(name, 0.0, unit, 0);
    return;
  }
  double q = p;
  if (!percentile_supported(samples.size(), q)) {
    // Highest percentile these samples support, but never below the
    // median (which fewer than 20 samples get), named as requested; the
    // note records the substitution.
    const double n = static_cast<double>(samples.size());
    q = std::max(50.0, 100.0 * (1.0 - static_cast<double>(kMinBeyond) / n));
    note(name + ": only " + std::to_string(samples.size()) +
         " samples; reporting p" + std::to_string(q));
  }
  const auto value = percentile(samples, q, 0);
  set(name, value.value_or(0.0), unit, samples.size());
}

void Report::fail(const std::string& why) {
  failures_.push_back(why);
  std::cerr << "CHECK FAILED: " << why << "\n";
}

void Report::note(const std::string& line) { std::cout << "note: " << line << "\n"; }

namespace {

std::vector<double> span_durations(const std::vector<Span>& spans,
                                   double unit_ns) {
  std::vector<double> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    out.push_back(static_cast<double>(s.end - s.begin) / unit_ns);
  }
  return out;
}

/// The drain batch that processed a gradient dequeued at `dequeue_ns` by
/// planner thread `tid`: that planner's first batch starting at or after
/// the dequeue. Null if none.
const ServerSpans::Batch* batch_after(const ServerSpans& spans,
                                      std::uint64_t dequeue_ns,
                                      std::uint32_t tid) {
  auto it = std::lower_bound(
      spans.batches.begin(), spans.batches.end(), dequeue_ns,
      [](const ServerSpans::Batch& b, std::uint64_t t) { return b.span.begin < t; });
  for (; it != spans.batches.end(); ++it) {
    if (it->tid == tid) return &*it;
  }
  return nullptr;
}

/// Largest number of admitted-but-not-dequeued gradients at any instant of
/// the window, from the submit and dequeue events.
std::size_t max_queue_depth(const ServerSpans& spans) {
  std::vector<std::pair<std::uint64_t, int>> steps;
  for (const auto& [model, admissions] : spans.admissions) {
    for (const auto& a : admissions) {
      steps.emplace_back(a.submit_ns, +1);
      steps.emplace_back(a.dequeue_ns, -1);
    }
  }
  // At equal times count the dequeue first: a depth is only real if the
  // job was still waiting.
  std::sort(steps.begin(), steps.end());
  long depth = 0;
  long peak = 0;
  for (const auto& [t, d] : steps) {
    depth += d;
    peak = std::max(peak, depth);
  }
  return static_cast<std::size_t>(peak);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::print(const std::vector<std::string>& metric_order,
                   const std::vector<std::string>& info_order) const {
  for (const std::string& name : info_order) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    std::cout << "info " << name << " = " << json_number(it->second.value) << " "
              << it->second.unit << " (samples " << it->second.samples << ")\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : metric_order) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    const Metric& m = it->second;
    std::cout << "metric " << name << " = " << json_number(m.value) << " "
              << m.unit << " (samples " << m.samples << ")\n";
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  for (const std::string& f : failures_) std::cout << "failed check: " << f << "\n";
  std::cout << json.str() << std::endl;
}

std::string fingerprint() {
  std::ostringstream out;
  out << "nproc=" << std::thread::hardware_concurrency()
      << " kernel_backend="
      << fleet::tensor::kernels::name(fleet::tensor::kernels::active_backend())
      << " build_type=" << PERFBENCH_BUILD_TYPE
      << " compiler=\"" << PERFBENCH_COMPILER << "\"";
  return out.str();
}

namespace {

/// {total, steal} jiffies of all CPUs from /proc/stat's first line.
std::pair<double, double> cpu_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0.0;
  double steal = 0.0;
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(stat >> v)) return {0.0, 0.0};
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

}  // namespace

double steal_pct() {
  static const auto start = cpu_jiffies();
  const auto now = cpu_jiffies();
  const double total = now.first - start.first;
  return total > 0.0 ? 100.0 * (now.second - start.second) / total : 0.0;
}

void release_free_memory() { malloc_trim(0); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::unique_ptr<fleet::profiler::IProf> pretrained_iprof(std::uint64_t seed) {
  auto iprof = std::make_unique<fleet::profiler::IProf>(
      fleet::profiler::IProf::Config{});
  iprof->pretrain(fleet::profiler::collect_profile_dataset(
      fleet::device::training_fleet(), fleet::profiler::IProf::Config{}.slo,
      seed));
  return iprof;
}

std::uint64_t param_hash(std::span<const float> params) {
  std::uint64_t h = 1469598103934665603ULL;
  for (float value : params) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    h ^= bits;
    h *= 1099511628211ULL;
  }
  return h;
}

fleet::telemetry::HistogramSnapshot histogram_diff(
    const fleet::telemetry::HistogramSnapshot& later,
    const fleet::telemetry::HistogramSnapshot& earlier) {
  fleet::telemetry::HistogramSnapshot out = later;
  if (earlier.counts.size() != later.counts.size()) return out;
  for (std::size_t b = 0; b < out.counts.size(); ++b) {
    out.counts[b] -= earlier.counts[b];
  }
  out.count -= earlier.count;
  out.sum -= earlier.sum;
  return out;
}

TraceSink::TraceSink(fleet::telemetry::Telemetry& telemetry)
    : telemetry_(telemetry) {
  // Bracket the trace clock read with two bench clock reads.
  const std::uint64_t a = now_ns();
  const std::uint64_t t = telemetry_.now_ns();
  const std::uint64_t b = now_ns();
  offset_ns_ = (a + b) / 2 - t;
  records_.reserve(1u << 20);
}

void TraceSink::poll() {
  auto batch = telemetry_.tracer().collect();
  records_.insert(records_.end(), batch.begin(), batch.end());
}

std::uint64_t TraceSink::dropped() const { return telemetry_.tracer().dropped(); }

ServerSpans server_spans(const TraceSink& sink, std::uint64_t begin_ns,
                         std::uint64_t end_ns) {
  ServerSpans out;
  struct Child {
    Interval span;
    std::uint32_t tid;
    bool publish;
  };
  std::vector<Child> children;
  std::map<std::uint64_t, ServerSpans::Admission> by_ticket;
  std::map<std::uint64_t, fleet::core::ModelId> model_of;
  for (const auto& rec : sink.records()) {
    const auto& ev = rec.event;
    const std::uint64_t ts = sink.to_bench_ns(ev.ts_ns);
    if (ts < begin_ns || ts >= end_ns) continue;
    const Interval span{ts, ts + ev.a};
    switch (ev.phase) {
      case TracePhase::kDrainBatch: {
        ServerSpans::Batch batch;
        batch.span = span;
        batch.tid = rec.tid;
        batch.size = ev.b;
        out.batches.push_back(batch);
        out.batch_busy_ns += static_cast<double>(ev.a);
        break;
      }
      case TracePhase::kSessionFold:
        children.push_back({span, rec.tid, false});
        out.session_fold_us.push_back(static_cast<double>(ev.a) / 1e3);
        break;
      case TracePhase::kPublish:
        children.push_back({span, rec.tid, true});
        out.publish_us.push_back(static_cast<double>(ev.a) / 1e3);
        break;
      case TracePhase::kFoldTask:
        out.fold_task_us.push_back(static_cast<double>(ev.a) / 1e3);
        break;
      case TracePhase::kFold:
        ++out.folds;
        break;
      case TracePhase::kSubmit:
        by_ticket[ev.ticket].submit_ns = ts;
        model_of[ev.ticket] = ev.model;
        break;
      case TracePhase::kDequeue:
        by_ticket[ev.ticket].dequeue_ns = ts;
        by_ticket[ev.ticket].dequeue_tid = rec.tid;
        out.queue_wait_us.push_back(static_cast<double>(ev.b) / 1e3);
        break;
      default:
        break;
    }
  }
  std::sort(out.batches.begin(), out.batches.end(),
            [](const auto& a, const auto& b) { return a.span.begin < b.span.begin; });
  // Attach each child span to the batch on its thread that contains it.
  for (const Child& c : children) {
    auto it = std::upper_bound(
        out.batches.begin(), out.batches.end(), c.span.begin,
        [](std::uint64_t t, const ServerSpans::Batch& b) { return t < b.span.begin; });
    // Batches of one planner never overlap, so the latest batch on the
    // child's thread that starts before it is the only candidate.
    while (it != out.batches.begin()) {
      --it;
      if (it->tid != c.tid) continue;
      if (c.span.begin <= it->span.end) {
        if (c.publish) {
          it->publishes.push_back(c.span);
          it->publish_end = std::max(it->publish_end, c.span.end);
        } else {
          it->session_folds.push_back(c.span);
        }
      }
      break;
    }
  }
  for (const auto& batch : out.batches) {
    std::vector<Interval> kids = batch.session_folds;
    kids.insert(kids.end(), batch.publishes.begin(), batch.publishes.end());
    out.plan_self_us.push_back(static_cast<double>(self_time(batch.span, kids)) / 1e3);
  }
  for (const auto& [ticket, adm] : by_ticket) {
    const auto model = model_of.find(ticket);
    if (model == model_of.end() || adm.dequeue_ns == 0) continue;
    out.admissions[model->second].push_back(adm);
  }
  return out;
}

void attribute_wire_path(const ServerSpans& spans,
                         const std::vector<SentFrame>& frames,
                         PathReport& path) {
  std::map<fleet::core::ModelId, std::size_t> next;
  for (const SentFrame& f : frames) {
    const std::uint64_t total =
        f.observed_ns && *f.observed_ns > f.due_ns ? *f.observed_ns - f.due_ns : 0;
    const auto adm_it = spans.admissions.find(f.model);
    const std::size_t k = next[f.model]++;
    if (!f.observed_ns || adm_it == spans.admissions.end() ||
        k >= adm_it->second.size()) {
      path.add_unexplained(total);
      continue;
    }
    const auto& adm = adm_it->second[k];
    const ServerSpans::Batch* batch = batch_after(spans, adm.dequeue_ns, adm.dequeue_tid);
    const std::uint64_t observed = *f.observed_ns;
    const std::uint64_t seq[] = {f.due_ns, f.send.begin, f.send.end, adm.submit_ns,
                                 adm.dequeue_ns,
                                 batch != nullptr ? batch->publish_end : 0};
    bool ordered = batch != nullptr && batch->publish_end != 0;
    for (std::size_t i = 1; i < std::size(seq) && ordered; ++i) {
      ordered = seq[i] >= seq[i - 1];
    }
    if (!ordered) {
      path.add_unexplained(total);
      continue;
    }
    std::uint64_t fold = 0;
    for (const Interval& s : batch->session_folds) fold += s.end - s.begin;
    std::uint64_t publish = 0;
    for (const Interval& s : batch->publishes) publish += s.end - s.begin;
    const std::uint64_t in_batch = batch->publish_end - adm.dequeue_ns;
    const std::uint64_t plan = in_batch > fold + publish ? in_batch - fold - publish : 0;
    // A pull can return the new version before the publish span closes.
    const std::uint64_t pull =
        observed > batch->publish_end ? observed - batch->publish_end : 0;
    path.add(total, {f.send.begin - f.due_ns, 0, 0, f.send.end - f.send.begin,
                     adm.submit_ns - f.send.end, 0,
                     adm.dequeue_ns - adm.submit_ns, plan, fold, publish, pull});
  }
}

void PathReport::add(std::uint64_t total_ns,
                     const std::vector<std::uint64_t>& stage_ns,
                     std::size_t grads) {
  total_ns_ += static_cast<double>(total_ns);
  for (std::size_t i = 0; i < stage_ns.size() && i < stage_total_ns_.size(); ++i) {
    stage_total_ns_[i] += static_cast<double>(stage_ns[i]);
  }
  grads_ += grads;
}

void PathReport::add_unexplained(std::uint64_t total_ns, std::size_t grads) {
  total_ns_ += static_cast<double>(total_ns);
  grads_ += grads;
}

void PathReport::emit(Report& report) const {
  double explained = 0.0;
  const auto& names = all_path_stages();
  for (std::size_t i = 0; i < names.size(); ++i) {
    explained += stage_total_ns_[i];
    const double per_grad =
        grads_ > 0 ? stage_total_ns_[i] / static_cast<double>(grads_) / 1e3 : 0.0;
    report.set(names[i], per_grad, "us", grads_);
  }
  const double unexplained =
      total_ns_ > 0.0 ? 100.0 * std::max(0.0, total_ns_ - explained) / total_ns_
                      : 0.0;
  report.set("path.unexplained_pct", unexplained, "%", grads_);
}

void probe_learning(TracedRun& run, const fleet::runtime::ModelSession& session,
                    const fleet::stats::LabelDistribution& labels) {
  std::uint64_t b = now_ns();
  volatile double sink = session.aggregator().tau_thres();
  std::uint64_t e = now_ns();
  run.tau_thres.push_back({b, e});
  b = now_ns();
  sink = session.aggregator().similarity_of(labels);
  e = now_ns();
  run.similarity.push_back({b, e});
  (void)sink;
}

std::vector<double> predict_probe(
    std::uint64_t seed,
    const std::vector<std::pair<fleet::profiler::DeviceFeatures, std::string>>& devices) {
  auto iprof = pretrained_iprof(seed);
  std::vector<double> per_call_us;
  std::size_t sink = 0;
  for (std::size_t block = 0; block < 200; ++block) {
    const std::uint64_t b = now_ns();
    for (std::size_t i = 0; i < 100; ++i) {
      const auto& [features, model] = devices[(block * 100 + i) % devices.size()];
      sink += iprof->predict_batch(features, model);
    }
    per_call_us.push_back(static_cast<double>(now_ns() - b) / 1e3 / 100.0);
  }
  if (sink == 0) per_call_us.push_back(0.0);  // keeps the calls observable
  return per_call_us;
}

std::vector<double> decode_probe(const std::vector<std::vector<std::uint8_t>>& frames) {
  fleet::net::WireDecoder decoder;
  fleet::runtime::GradientJob job;
  std::vector<double> per_call_us;
  for (std::size_t block = 0; block < 200; ++block) {
    const std::uint64_t b = now_ns();
    for (std::size_t i = 0; i < 100; ++i) {
      if (decoder.decode(frames[(block + i) % frames.size()], job) !=
          fleet::net::WireError::kOk) {
        throw std::runtime_error("decode probe: a well-formed frame did not decode");
      }
    }
    per_call_us.push_back(static_cast<double>(now_ns() - b) / 1e3 / 100.0);
  }
  return per_call_us;
}

fleet::net::IngestStats ingest_diff(const fleet::net::IngestStats& later,
                                    const fleet::net::IngestStats& earlier) {
  fleet::net::IngestStats d = later;
  d.frames_sent -= earlier.frames_sent;
  d.ring_rejects -= earlier.ring_rejects;
  d.frames_submitted -= earlier.frames_submitted;
  d.bytes_sent -= earlier.bytes_sent;
  d.wire_rejects -= earlier.wire_rejects;
  d.server_rejects -= earlier.server_rejects;
  d.backpressure_retries -= earlier.backpressure_retries;
  d.shed_drops -= earlier.shed_drops;
  d.injector_restarts -= earlier.injector_restarts;
  d.frames_corrupted -= earlier.frames_corrupted;
  return d;
}

std::size_t lost_after_send(const fleet::net::IngestStats& stats) {
  return stats.wire_rejects + stats.server_rejects + stats.shed_drops;
}

void report_layers(Report& report, const TracedRun& run) {
  const ServerSpans& spans = run.spans;
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  const auto pct = [&](const std::string& name, const std::vector<double>& v,
                       const std::string& unit) {
    report.set_layer_percentile(name + ".p50", v, 50, unit);
    report.set_layer_percentile(name + ".p99", v, 99, unit);
  };
  pct("core.handle_request_us", span_durations(run.requests, 1e3), "us");
  report.set("core.request_rejects",
             ratio(static_cast<double>(run.rejects), static_cast<double>(run.requests.size())),
             "ratio", run.requests.size());
  pct("core.pull_ns", span_durations(run.pulls, 1.0), "ns");
  pct("core.publish_us", spans.publish_us, "us");
  report.set("core.publishes_per_grad",
             ratio(static_cast<double>(spans.publish_us.size()), static_cast<double>(spans.folds)),
             "ratio", spans.folds);
  report.set_layer_percentile("profiler.predict_us.p50", run.predict_us, 50, "us");
  pct("learning.tau_thres_us", span_durations(run.tau_thres, 1e3), "us");
  pct("learning.similarity_us", span_durations(run.similarity, 1e3), "us");
  report.set("learning.staleness.p50", run.staleness.quantile(0.5), "versions", run.staleness.count);
  report.set("learning.staleness.p99", run.staleness.quantile(0.99), "versions", run.staleness.count);
  report.set("learning.weight.mean", run.weight.mean(), "ratio", run.weight.count);

  const fleet::net::IngestStats& in = run.ingest;
  pct("net.send_ns", span_durations(run.sends, 1.0), "ns");
  const double offered = static_cast<double>(in.frames_sent + in.ring_rejects);
  report.set("net.ring_accept_ratio", ratio(static_cast<double>(in.frames_sent), offered),
             "ratio", in.frames_sent + in.ring_rejects);
  report.set_layer_percentile("net.decode_us.p50", run.decode_us, 50, "us");
  report.set("net.submit_attempts_per_frame",
             ratio(static_cast<double>(in.frames_submitted + in.backpressure_retries),
                   static_cast<double>(in.frames_submitted)),
             "ratio", in.frames_submitted);
  report.set("net.server_rejects", static_cast<double>(in.server_rejects), "count",
             in.frames_sent);

  pct("runtime.queue_wait_us", spans.queue_wait_us, "us");
  report.set("runtime.queue_max_depth", static_cast<double>(max_queue_depth(spans)), "count",
             spans.queue_wait_us.size());
  pct("runtime.plan_self_us", spans.plan_self_us, "us");
  double batched = 0.0;
  for (const auto& b : spans.batches) batched += static_cast<double>(b.size);
  report.set("runtime.drain_batch.mean",
             ratio(batched, static_cast<double>(spans.batches.size())), "count",
             spans.batches.size());
  report.set("runtime.planner_busy_pct",
             100.0 * ratio(spans.batch_busy_ns / 1e9,
                           run.window_s * static_cast<double>(run.planners)),
             "%", spans.batches.size());
  pct("runtime.session_fold_us", spans.session_fold_us, "us");
  pct("runtime.fold_task_us", spans.fold_task_us, "us");
  pct("nn.gradient_ms", span_durations(run.gradients, 1e6), "ms");

  report.set("telemetry.overhead_pct",
             100.0 * ratio(run.traced_cost - run.untraced_cost, run.untraced_cost), "%", 2);
  report.set("telemetry.events_dropped", static_cast<double>(run.events_dropped), "count",
             1);
  if (run.events_dropped != 0) {
    report.note("trace events were dropped: the attribution is incomplete");
  }
  pct("bench.generator_lag_ms", run.lag_ms, "ms");
  run.path.emit(report);
}

void write_trace(const std::string& path, const TraceSink& sink, const TracedRun& run) {
  constexpr std::size_t kMaxWrittenEvents = 200000;
  const auto& all = sink.records();
  const std::vector<fleet::telemetry::TraceRecord> records(
      all.begin(), all.begin() + static_cast<std::ptrdiff_t>(std::min(all.size(), kMaxWrittenEvents)));
  std::string json = fleet::telemetry::trace_to_chrome_json(records);
  std::ostringstream bench;
  const std::pair<const char*, const std::vector<Span>*> groups[] = {
      {"bench:core.handle_request", &run.requests}, {"bench:core.current", &run.pulls},
      {"bench:learning.tau_thres", &run.tau_thres}, {"bench:learning.similarity_of", &run.similarity},
      {"bench:net.try_send", &run.sends},          {"bench:nn.execute", &run.gradients}};
  std::uint32_t lane = 1000;  // one lane per call kind, apart from the server's
  bool first = records.empty();
  for (const auto& [name, spans] : groups) {
    for (std::size_t i = 0; i < spans->size() && i < kMaxWrittenEvents / 4; ++i) {
      const Span& sp = (*spans)[i];
      bench << (first ? "" : ",") << "{\"name\":\"" << name
            << "\",\"ph\":\"X\",\"ts\":" << static_cast<double>(sink.to_trace_ns(sp.begin)) / 1e3
            << ",\"dur\":" << static_cast<double>(sp.end - sp.begin) / 1e3
            << ",\"pid\":1,\"tid\":" << lane << "}";
      first = false;
    }
    ++lane;
  }
  json.insert(json.size() - 2, bench.str());  // before the closing "]}"
  std::ofstream out(path);
  out << json;
  if (!out) throw std::runtime_error("cannot write " + path);
}

const std::vector<std::string>& all_path_stages() {
  static const std::vector<std::string> names = {
      "path.bench.lag_us",         "path.core.request_us",
      "path.nn.gradient_us",       "path.net.send_us",
      "path.net.ring_decode_admit_us", "path.runtime.submit_us",
      "path.runtime.queue_wait_us", "path.runtime.plan_us",
      "path.nn.fold_us",           "path.core.publish_us",
      "path.core.pull_us"};
  return names;
}

const std::vector<std::string>& end_to_end_metrics() {
  static const std::vector<std::string> names = {
      "setup_s",
      "grads_per_s",
      "delivered_fraction",
      "update_latency_p50_ms",
      "request_latency_p50_us",
      "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& tail_metrics() {
  static const std::vector<std::string> names = {"update_latency_p99_ms",
                                                 "request_latency_p99_us"};
  return names;
}

const std::vector<std::string>& per_layer_metrics() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "core.handle_request_us.p50", "core.handle_request_us.p99",
        "core.request_rejects",       "core.pull_ns.p50",
        "core.pull_ns.p99",           "core.publish_us.p50",
        "core.publish_us.p99",        "core.publishes_per_grad",
        "profiler.predict_us.p50",    "learning.tau_thres_us.p50",
        "learning.tau_thres_us.p99",  "learning.similarity_us.p50",
        "learning.similarity_us.p99", "learning.staleness.p50",
        "learning.staleness.p99",     "learning.weight.mean",
        "net.send_ns.p50",            "net.send_ns.p99",
        "net.ring_accept_ratio",      "net.decode_us.p50",
        "net.submit_attempts_per_frame", "net.server_rejects",
        "runtime.queue_wait_us.p50",  "runtime.queue_wait_us.p99",
        "runtime.queue_max_depth",    "runtime.plan_self_us.p50",
        "runtime.plan_self_us.p99",   "runtime.drain_batch.mean",
        "runtime.planner_busy_pct",   "runtime.session_fold_us.p50",
        "runtime.session_fold_us.p99", "runtime.fold_task_us.p50",
        "runtime.fold_task_us.p99",   "nn.gradient_ms.p50",
        "nn.gradient_ms.p99",         "telemetry.overhead_pct",
        "telemetry.events_dropped",   "bench.generator_lag_ms.p50",
        "bench.generator_lag_ms.p99"};
    for (const auto& s : all_path_stages()) n.push_back(s);
    n.push_back("path.unexplained_pct");
    return n;
  }();
  return names;
}

}  // namespace perfbench
