// Telemetry dump (DESIGN.md §11): drive a two-tenant fleet on the
// concurrent host with the observability substrate enabled, then export
// everything it captured — a JSON metrics snapshot (metrics.json), a
// Prometheus text exposition (metrics.prom) and a Chrome trace-event file
// (trace.json, loadable in Perfetto / chrome://tracing to see the
// submit -> dequeue -> fold -> publish lifecycle of every gradient) —
// and print a latency breakdown table from the same histograms, plus the
// planner control-plane view (drain batch sizes) and the host
// health/degradation view (per-planner progress, degraded sessions,
// shed/quarantine/restart counters, DESIGN.md §14).
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fleet/data/partition.hpp"
#include "fleet/data/synthetic_images.hpp"
#include "fleet/device/catalog.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/profiler/iprof.hpp"
#include "fleet/profiler/training_data.hpp"
#include "fleet/runtime/parallel_fleet.hpp"
#include "fleet/telemetry/export.hpp"
#include "fleet/telemetry/telemetry.hpp"

using namespace fleet;

namespace {

std::unique_ptr<profiler::Profiler> pretrained_iprof() {
  auto iprof = std::make_unique<profiler::IProf>(profiler::IProf::Config{});
  iprof->pretrain(profiler::collect_profile_dataset(
      device::training_fleet(), profiler::IProf::Config{}.slo, 20));
  return iprof;
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  out << body;
  std::cout << "wrote " << path << " (" << body.size() << " bytes)\n";
}

void latency_row(const telemetry::MetricsSnapshot& snapshot,
                 const std::string& name) {
  const telemetry::HistogramSnapshot* hist = snapshot.histogram(name);
  if (hist == nullptr || hist->count == 0) return;
  std::cout << "  " << std::left << std::setw(26) << name << std::right
            << std::setw(8) << hist->count << std::setw(12) << std::fixed
            << std::setprecision(1) << hist->mean() / 1e3 << std::setw(12)
            << hist->quantile(0.5) / 1e3 << std::setw(12)
            << hist->quantile(0.99) / 1e3 << "\n";
}

/// Row for count-valued histograms (drain batch sizes): same columns as
/// latency_row but without the ns -> us scale.
void value_row(const telemetry::MetricsSnapshot& snapshot,
               const std::string& name) {
  const telemetry::HistogramSnapshot* hist = snapshot.histogram(name);
  if (hist == nullptr || hist->count == 0) return;
  std::cout << "  " << std::left << std::setw(26) << name << std::right
            << std::setw(8) << hist->count << std::setw(12) << std::fixed
            << std::setprecision(1) << hist->mean() << std::setw(12)
            << hist->quantile(0.5) << std::setw(12) << hist->quantile(0.99)
            << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t rounds = argc > 1 ? std::stoul(argv[1]) : 6;

  // Two tenants on one concurrent host — one planner per tenant —
  // telemetry on.
  runtime::RuntimeConfig runtime_cfg;
  runtime_cfg.aggregation_shards = 2;
  runtime_cfg.planner_threads = 2;
  runtime_cfg.max_drain_batch = 16;
  runtime_cfg.telemetry.enabled = true;
  runtime::ConcurrentFleetServer host(runtime_cfg);

  core::ServerConfig server_cfg;
  server_cfg.learning_rate = 0.05f;
  std::vector<std::unique_ptr<nn::Sequential>> models;
  std::vector<core::ModelId> ids;
  for (std::size_t m = 0; m < 2; ++m) {
    models.push_back(nn::zoo::small_cnn(1, 14, 14, 4));
    models.back()->init(1 + m);
    ids.push_back(
        host.register_model(*models.back(), pretrained_iprof(), server_cfg));
  }

  // A small synthetic fleet: 8 devices, each worker pinned to one tenant.
  const auto split = data::generate_synthetic_images([] {
    data::SyntheticImageConfig cfg;
    cfg.n_classes = 4;
    cfg.n_train = 320;
    cfg.n_test = 40;
    return cfg;
  }());
  stats::Rng rng(2);
  const auto partition = data::partition_iid(split.train.size(), 8, rng);
  const auto fleet = device::lab_fleet();
  std::vector<core::FleetWorker> workers;
  runtime::ParallelFleet::Config drive;
  for (std::size_t u = 0; u < partition.size(); ++u) {
    auto replica = nn::zoo::small_cnn(1, 14, 14, 4);
    replica->init(1 + u % 2);
    workers.emplace_back(static_cast<int>(u), std::move(replica), split.train,
                         partition[u], device::spec(fleet[u % fleet.size()]),
                         100 + u);
    drive.worker_models.push_back(ids[u % 2]);
  }
  drive.n_threads = 4;
  drive.rounds = rounds;
  drive.max_arrival_delay = 2;
  drive.seed = 7;

  runtime::ParallelFleet driver(host, workers, drive);
  const auto stats = driver.run();
  const runtime::HealthSnapshot health = host.health();
  std::vector<runtime::RuntimeStats> per_session;
  for (const core::ModelId id : ids) per_session.push_back(host.stats(id));
  host.stop();
  std::cout << "drove " << workers.size() << " workers x " << rounds
            << " rounds across " << ids.size() << " tenants: "
            << stats.runtime.processed << " gradients folded, "
            << stats.runtime.model_updates << " model updates\n\n";

  telemetry::Telemetry* telemetry = host.telemetry();
  const telemetry::MetricsSnapshot snapshot = telemetry->metrics().snapshot();
  const std::vector<telemetry::TraceRecord> records =
      telemetry->tracer().collect();

  write_file("metrics.json", telemetry::metrics_to_json(snapshot));
  write_file("metrics.prom", telemetry::metrics_to_prometheus(snapshot));
  write_file("trace.json", telemetry::trace_to_chrome_json(records));
  std::cout << records.size() << " trace events captured, "
            << telemetry->tracer().dropped()
            << " dropped (load trace.json in Perfetto)\n\n";

  std::cout << "latency breakdown (microseconds)\n  " << std::left
            << std::setw(26) << "histogram" << std::right << std::setw(8)
            << "count" << std::setw(12) << "mean" << std::setw(12) << "p50"
            << std::setw(12) << "p99" << "\n";
  latency_row(snapshot, "queue.admit_ns");
  latency_row(snapshot, "queue.wait_ns");
  latency_row(snapshot, "server.session_fold_ns");
  latency_row(snapshot, "server.publish_ns");
  latency_row(snapshot, "pool.task_ns");

  std::cout << "\nplanner control plane (counts)\n  " << std::left
            << std::setw(26) << "histogram" << std::right << std::setw(8)
            << "count" << std::setw(12) << "mean" << std::setw(12) << "p50"
            << std::setw(12) << "p99" << "\n";
  value_row(snapshot, "server.drain_batch");

  // Health / degradation view (DESIGN.md §14): is every planner making
  // progress, did any session quarantine a fold task, and what has the
  // overload policy cost so far. All zeros on a healthy faultless drive —
  // the table is the point: CI greps it, operators read it.
  std::cout << "\nhost health\n";
  std::cout << "  planner progress (batches)";
  for (const std::size_t ticks : health.planner_progress) {
    std::cout << "  " << ticks;
  }
  std::cout << "\n  shed drops                " << health.shed_drops
            << "\n  fold quarantines          " << health.fold_quarantines
            << "\n  degraded sessions         ";
  if (health.degraded_sessions.empty()) {
    std::cout << "none";
  } else {
    for (const core::ModelId id : health.degraded_sessions) {
      std::cout << id << " ";
    }
  }
  std::cout << "\n";
  for (std::size_t m = 0; m < ids.size(); ++m) {
    const runtime::RuntimeStats& session = per_session[m];
    std::cout << "  session " << ids[m] << ": "
              << (session.degraded ? "DEGRADED" : "healthy") << ", "
              << session.processed << " folded, " << session.invalid_jobs
              << " invalid, " << session.shed_drops << " shed\n";
  }
  return 0;
}
