// Shared pieces of the serving-path benchmark: command line, result
// report, clocks, fingerprint, bench-owned spans, server trace collection
// and the per-gradient path attribution the traced runs print.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fleet/net/ingest.hpp"
#include "fleet/profiler/iprof.hpp"
#include "fleet/runtime/concurrent_server.hpp"
#include "fleet/telemetry/metrics.hpp"
#include "stats.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< where a traced run writes its spans ("" = nowhere)
  /// online-serve's arrival rate; unset = the workload's gated rate. Only
  /// for the capacity sweep that places that rate.
  std::optional<double> arrivals_per_s;
};

/// Parses `--workload W --seed N --seconds S --trace 0|1` (plus the
/// optional `--trace-out PATH` and `--arrivals-per-s R`); throws
/// std::invalid_argument on anything else.
Args parse_args(int argc, char** argv);

/// Nanoseconds on the steady clock since the first call in the process.
std::uint64_t now_ns();

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What one run prints: metrics by name with unit and sample count, the
/// correctness verdict and the attempted/failed operation counts.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  /// Sets the end-to-end latency medians and tails: chunked percentiles of
  /// the due-time latencies (failures are misses). A sample count below the
  /// percentile rule in any chunk fails the run. `lost_frames` frames
  /// the ingest dropped after a successful send break the update
  /// trackers' version mapping (see UpdateTracker); the run then says the
  /// update latencies are upper bounds, not exact.
  void set_latencies(const std::vector<Outcome>& updates,
                     const std::vector<Outcome>& requests,
                     std::size_t lost_frames = 0);
  /// Percentile `p` of one layer's samples; an empty sample set (the
  /// workload makes no such call) reports 0.
  void set_layer_percentile(const std::string& name,
                            const std::vector<double>& samples, double p,
                            const std::string& unit);
  /// Records a failed correctness check; the run exits non-zero.
  void fail(const std::string& why);
  void note(const std::string& line);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct() const { return failures_.empty(); }

  /// Prints the human-readable lines (`info_order` metrics only there),
  /// then the one-line JSON result of the `metric_order` metrics.
  void print(const std::vector<std::string>& metric_order,
             const std::vector<std::string>& info_order = {}) const;

 private:
  void set_latency(const std::string& name, const std::vector<Outcome>& ops,
                   double unit_ns, double p, const std::string& unit);

  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
};

/// Returns freed heap memory to the system, so the peak resident size of
/// one setup does not depend on what earlier setups left behind.
void release_free_memory();

/// Setups per run; setup_s is their median.
inline constexpr std::size_t kSetups = 3;

/// Runs `setup` kSetups times, timing each (the first from process start)
/// into `setup_s`, and keeps the last result.
template <class Setup>
auto repeated_setup(Setup&& setup, std::vector<double>& setup_s) {
  decltype(setup()) stack;
  for (std::size_t i = 0; i < kSetups; ++i) {
    stack.reset();
    release_free_memory();
    const std::uint64_t start = i == 0 ? 0 : now_ns();
    stack = setup();
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  return stack;
}

/// Machine fingerprint recorded with every result.
std::string fingerprint();

/// Share (%) of all CPU time since the first call that a hypervisor gave
/// to other guests (the steal column of /proc/stat; 0 where unreadable).
/// Interference from neighbours on a shared host shows here, and mostly
/// in the latency tails.
double steal_pct();

double peak_rss_mb();

/// I-Prof pretrained on the standard training fleet, as every serving
/// session in the repository uses it.
std::unique_ptr<fleet::profiler::IProf> pretrained_iprof(std::uint64_t seed);

/// FNV-1a over the raw parameter bits.
std::uint64_t param_hash(std::span<const float> params);

/// `later` minus `earlier` for two snapshots of one cumulative histogram.
fleet::telemetry::HistogramSnapshot histogram_diff(
    const fleet::telemetry::HistogramSnapshot& later,
    const fleet::telemetry::HistogramSnapshot& earlier);

/// A span the benchmark records around one of its own calls.
struct Span {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Collects the server's trace rings into memory during a traced run and
/// converts event times to the benchmark clock.
class TraceSink {
 public:
  explicit TraceSink(fleet::telemetry::Telemetry& telemetry);
  /// Moves whatever the rings hold into memory (cheap; call when idle).
  void poll();
  /// Forgets what was collected so far (the warm-up's events).
  void clear() { records_.clear(); }
  std::uint64_t to_bench_ns(std::uint64_t trace_ns) const {
    return trace_ns + offset_ns_;
  }
  std::uint64_t to_trace_ns(std::uint64_t bench_ns) const {
    return bench_ns - offset_ns_;
  }
  const std::vector<fleet::telemetry::TraceRecord>& records() const {
    return records_;
  }
  std::uint64_t dropped() const;

 private:
  fleet::telemetry::Telemetry& telemetry_;
  std::uint64_t offset_ns_ = 0;
  std::vector<fleet::telemetry::TraceRecord> records_;
};

/// Server-side spans of a traced window, in benchmark time.
struct ServerSpans {
  struct Batch {
    Interval span;
    std::uint32_t tid = 0;
    std::size_t size = 0;
    std::vector<Interval> session_folds;  ///< children on the same thread
    std::vector<Interval> publishes;      ///< children on the same thread
    std::uint64_t publish_end = 0;        ///< last publish end (0: none)
  };
  std::vector<Batch> batches;               ///< ordered by start
  std::vector<double> session_fold_us;
  std::vector<double> fold_task_us;
  std::vector<double> publish_us;
  std::vector<double> plan_self_us;         ///< batch minus its children
  double batch_busy_ns = 0.0;
  std::size_t folds = 0;
  /// Per model, in admission-ticket order.
  struct Admission {
    std::uint64_t submit_ns = 0;
    std::uint64_t dequeue_ns = 0;
    std::uint32_t dequeue_tid = 0;  ///< the planner that drained it
  };
  std::vector<double> queue_wait_us;  ///< per dequeued gradient
  std::map<fleet::core::ModelId, std::vector<Admission>> admissions;
};

/// Builds ServerSpans from the records of [begin_ns, end_ns).
ServerSpans server_spans(const TraceSink& sink, std::uint64_t begin_ns,
                         std::uint64_t end_ns);

/// Every path stage any workload reports (per-layer metrics must be the
/// same set on every workload), named `path.<layer>.<stage>`.
const std::vector<std::string>& all_path_stages();

/// Per-gradient attribution of a blocking path into stages, each named
/// `path.<layer>.<stage>` and reported as mean microseconds per gradient,
/// plus the share of the path time no stage covers.
class PathReport {
 public:
  /// One unit of work (a gradient, or a round of `grads` gradients) whose
  /// path took `total_ns`, split into `stage_ns` (in all_path_stages()
  /// order).
  void add(std::uint64_t total_ns, const std::vector<std::uint64_t>& stage_ns,
           std::size_t grads = 1);
  /// A unit whose events were incomplete: all of it is unexplained.
  void add_unexplained(std::uint64_t total_ns, std::size_t grads = 1);
  /// Writes every stage (0 for stages this path does not have) plus
  /// path.unexplained_pct into the report.
  void emit(Report& report) const;

 private:
  std::vector<double> stage_total_ns_ = std::vector<double>(all_path_stages().size());
  double total_ns_ = 0.0;
  std::size_t grads_ = 0;
};

/// One frame a wire workload sent, for the path attribution: when it was
/// due, its successful try_send span, and when a pull first showed it.
struct SentFrame {
  fleet::core::ModelId model = fleet::core::kDefaultModelId;
  std::uint64_t due_ns = 0;
  Span send;
  std::optional<std::uint64_t> observed_ns;
};

/// Splits each frame's update latency (due -> observed) into the wire path
/// stages: generator lag, send, ring + decode + admission, queue wait,
/// plan (drain batch minus fold and publish), fold, publish, pull. Frames
/// are matched to admissions per model in order (one injector keeps send
/// order); a frame whose events are missing or out of order is added as
/// unexplained.
void attribute_wire_path(const ServerSpans& spans,
                         const std::vector<SentFrame>& frames,
                         PathReport& path);

/// What a traced run measured: spans the benchmark recorded around its own
/// calls into each layer, bench-owned single-call probes, and the window's
/// server spans and counters.
struct TracedRun {
  std::vector<Span> requests;    ///< handle_request
  std::vector<Span> pulls;       ///< current(id), sampled
  std::vector<Span> tau_thres;   ///< aggregator().tau_thres()
  std::vector<Span> similarity;  ///< aggregator().similarity_of()
  std::vector<Span> sends;       ///< LoopbackIngest::try_send
  std::vector<Span> gradients;   ///< FleetWorker::execute
  std::vector<double> lag_ms;    ///< how late the generator ran
  std::vector<double> predict_us;  ///< IProf::predict_batch probe
  std::vector<double> decode_us;   ///< WireDecoder::decode probe
  std::size_t rejects = 0;         ///< controller refusals
  ServerSpans spans;
  fleet::telemetry::HistogramSnapshot staleness;  ///< window's folds
  fleet::telemetry::HistogramSnapshot weight;
  fleet::net::IngestStats ingest;  ///< window's counter increase
  double window_s = 0.0;
  std::size_t planners = 1;
  /// Per-gradient cost of an untraced and a traced window, for
  /// telemetry.overhead_pct: seconds per folded gradient on a closed loop,
  /// whose throughput tracing slows; the update latency p50 on an open
  /// loop, whose throughput is the arrival rate whatever tracing costs.
  double untraced_cost = 0.0;
  double traced_cost = 0.0;
  std::uint64_t events_dropped = 0;
  PathReport path;
};

/// Times the live session's AdaSGD queries, lock wait included.
void probe_learning(TracedRun& run, const fleet::runtime::ModelSession& session,
                    const fleet::stats::LabelDistribution& labels);

/// Per-call microseconds of a pretrained I-Prof on these devices (blocks of
/// 100 calls: one call is too short to time alone).
std::vector<double> predict_probe(
    std::uint64_t seed,
    const std::vector<std::pair<fleet::profiler::DeviceFeatures, std::string>>& devices);

/// Per-call microseconds of WireDecoder::decode over `frames` (blocks of
/// 100 decodes). Throws if a frame does not decode.
std::vector<double> decode_probe(const std::vector<std::vector<std::uint8_t>>& frames);

/// `later` minus `earlier`, counter by counter.
fleet::net::IngestStats ingest_diff(const fleet::net::IngestStats& later,
                                    const fleet::net::IngestStats& earlier);

/// Frames the ingest took from the ring and then lost (server rejects,
/// wire rejects, shed drops).
std::size_t lost_after_send(const fleet::net::IngestStats& stats);

/// Writes every per-layer metric of a traced run into the report.
void report_layers(Report& report, const TracedRun& run);

/// Writes the traced window as Chrome trace-event JSON (Perfetto-loadable):
/// the server's events (the first kMaxWrittenEvents) plus the benchmark's
/// own spans, on the server trace clock.
void write_trace(const std::string& path, const TraceSink& sink, const TracedRun& run);


/// Metric names in print order.
const std::vector<std::string>& end_to_end_metrics();
/// The p99 latency tails: printed with every untraced run, but not part of
/// its result, because on a shared 4-vCPU VM neighbours' load moves them
/// by several times between runs, beyond any bound a gate may set.
const std::vector<std::string>& tail_metrics();
const std::vector<std::string>& per_layer_metrics();

/// Entry points, one per workload.
void run_online_serve(const Args& args, Report& report);
void run_tenant_flood(const Args& args, Report& report);
void run_device_train(const Args& args, Report& report);

}  // namespace perfbench
