#include "fleet/core/simulation.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "fleet/data/partition.hpp"
#include "fleet/data/synthetic_images.hpp"
#include "fleet/device/catalog.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/profiler/iprof.hpp"
#include "fleet/profiler/training_data.hpp"

namespace fleet::core {
namespace {

/// Self-contained simulation environment (model + server + workers), so
/// tests can build several identical instances.
struct SimEnv {
  SimEnv()
      : split(data::generate_synthetic_images([] {
          data::SyntheticImageConfig cfg;
          cfg.n_classes = 4;
          cfg.n_train = 400;
          cfg.n_test = 100;
          return cfg;
        }())) {
    model = nn::zoo::small_cnn(1, 14, 14, 4);
    model->init(1);
    auto iprof = std::make_unique<profiler::IProf>(profiler::IProf::Config{});
    iprof->pretrain(profiler::collect_profile_dataset(
        device::training_fleet(), profiler::IProf::Config{}.slo, 20));
    ServerConfig config;
    config.learning_rate = 0.05f;
    server = std::make_unique<FleetServer>(*model, std::move(iprof), config);

    stats::Rng rng(2);
    const auto partition = data::partition_iid(split.train.size(), 6, rng);
    const auto fleet = device::lab_fleet();
    for (std::size_t u = 0; u < partition.size(); ++u) {
      auto replica = nn::zoo::small_cnn(1, 14, 14, 4);
      replica->init(1);
      workers.emplace_back(static_cast<int>(u), std::move(replica),
                           split.train, partition[u],
                           device::spec(fleet[u % fleet.size()]), 100 + u);
    }
  }

  data::TrainTestSplit split;
  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<FleetServer> server;
  std::vector<FleetWorker> workers;
};

struct SimulationFixture : ::testing::Test {
  SimEnv env;
};

TEST_F(SimulationFixture, RunsAndUpdatesModel) {
  FleetSimulation::Config cfg;
  cfg.duration_s = 900.0;
  cfg.think_time_mean_s = 20.0;
  FleetSimulation sim(*env.server, env.workers, cfg);
  const auto stats = sim.run();
  EXPECT_GT(stats.requests, 10u);
  EXPECT_GT(stats.gradients, 5u);
  EXPECT_EQ(stats.model_updates, env.server->version());
  EXPECT_GT(stats.model_updates, 0u);
}

TEST_F(SimulationFixture, StalenessEmergesAndIsNonNegative) {
  FleetSimulation::Config cfg;
  cfg.duration_s = 1200.0;
  cfg.think_time_mean_s = 10.0;
  FleetSimulation sim(*env.server, env.workers, cfg);
  const auto stats = sim.run();
  ASSERT_FALSE(stats.staleness_values.empty());
  double max_tau = 0.0;
  for (double tau : stats.staleness_values) {
    EXPECT_GE(tau, 0.0);
    max_tau = std::max(max_tau, tau);
  }
  // With overlapping in-flight tasks some staleness must occur.
  EXPECT_GT(max_tau, 0.0);
}

TEST_F(SimulationFixture, RoundTripsIncludeComputeAndNetwork) {
  FleetSimulation::Config cfg;
  cfg.duration_s = 600.0;
  FleetSimulation sim(*env.server, env.workers, cfg);
  const auto stats = sim.run();
  ASSERT_FALSE(stats.round_trip_s.empty());
  for (std::size_t i = 0; i < stats.round_trip_s.size(); ++i) {
    EXPECT_GT(stats.round_trip_s[i], stats.task_times_s[i]);
  }
}

TEST(SimulationTest, DeterministicGivenSeed) {
  FleetSimulation::Config cfg;
  cfg.duration_s = 300.0;
  SimEnv a, b;
  const auto stats_a = FleetSimulation(*a.server, a.workers, cfg).run();
  const auto stats_b = FleetSimulation(*b.server, b.workers, cfg).run();
  EXPECT_EQ(stats_a.requests, stats_b.requests);
  EXPECT_EQ(stats_a.gradients, stats_b.gradients);
  EXPECT_EQ(stats_a.model_updates, stats_b.model_updates);
}

TEST_F(SimulationFixture, DropoutLosesGradientsButSimulationProgresses) {
  FleetSimulation::Config cfg;
  cfg.duration_s = 1200.0;
  cfg.think_time_mean_s = 10.0;
  cfg.dropout_prob = 0.5;
  FleetSimulation sim(*env.server, env.workers, cfg);
  const auto stats = sim.run();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.gradients, 0u);
  // Dropped gradients were computed (device time charged) but never
  // reached the server; the run's end leaves others mid-upload.
  EXPECT_EQ(stats.task_times_s.size(),
            stats.gradients + stats.dropped + stats.in_flight);
  EXPECT_GT(stats.model_updates, 0u);
}

TEST(SimulationTest, ZeroDropoutReplaysLegacyEventSequence) {
  // Golden counts pinning the event sequence of the pre-dropout-knob
  // simulation (same SimEnv, seed and config as before the knob existed).
  // A disabled knob must consume NO extra RNG draws — if this fails after
  // touching FleetSimulation, the dropout guard (draw only when
  // dropout_prob > 0) regressed and every seeded experiment shifted. If
  // the change to the event loop is intentional, update the numbers
  // deliberately. The default controller config disables both percentile
  // checks, so every request is admitted and computed.
  FleetSimulation::Config cfg;
  cfg.duration_s = 300.0;
  cfg.dropout_prob = 0.0;
  SimEnv env;
  const auto stats = FleetSimulation(*env.server, env.workers, cfg).run();
  EXPECT_EQ(stats.requests, 58u);
  EXPECT_EQ(stats.gradients, 58u);
  EXPECT_EQ(stats.model_updates, 58u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.task_times_s.size(), stats.gradients + stats.in_flight);
}

TEST_F(SimulationFixture, RejectsBadConfig) {
  FleetSimulation::Config cfg;
  cfg.duration_s = 0.0;
  EXPECT_THROW(FleetSimulation(*env.server, env.workers, cfg),
               std::invalid_argument);
  std::vector<FleetWorker> empty;
  cfg.duration_s = 10.0;
  EXPECT_THROW(FleetSimulation(*env.server, empty, cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace fleet::core
