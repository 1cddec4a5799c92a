#include "fleet/core/controller.hpp"

#include <gtest/gtest.h>

namespace fleet::core {
namespace {

TEST(ControllerTest, AdmitsEverythingWithDefaultConfig) {
  Controller controller{ControllerConfig{}};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(controller.admit(51 + static_cast<std::size_t>(i), 0.5).admitted);
  }
  // Past min_history, a new lowest bound and a new highest similarity
  // must still be admitted: size_percentile = 0 and
  // similarity_percentile = 100 disable those checks, they do not
  // threshold at the window's minimum and maximum.
  for (std::size_t n = 50; n >= 1; --n) {
    EXPECT_TRUE(controller.admit(n, 0.5).admitted) << "size " << n;
  }
  for (int i = 1; i <= 50; ++i) {
    EXPECT_TRUE(controller.admit(10, 0.5 + 0.01 * i).admitted) << "step " << i;
  }
  EXPECT_EQ(controller.rejected_count(), 0u);
  EXPECT_DOUBLE_EQ(controller.size_threshold(), 0.0);
  EXPECT_DOUBLE_EQ(controller.similarity_threshold(), 1.0);
}

TEST(ControllerTest, EnforcesAbsoluteMinBatch) {
  ControllerConfig cfg;
  cfg.absolute_min_batch = 10;
  Controller controller(cfg);
  EXPECT_FALSE(controller.admit(5, 0.5).admitted);
  EXPECT_TRUE(controller.admit(10, 0.5).admitted);
}

TEST(ControllerTest, SizePercentileRejectsSmallBatches) {
  ControllerConfig cfg;
  cfg.size_percentile = 50.0;
  cfg.min_history = 10;
  Controller controller(cfg);
  // Build history: sizes 1..20.
  for (std::size_t n = 1; n <= 20; ++n) controller.admit(n, 0.5);
  // Median is ~10; a size-2 request must now be rejected, size-19 admitted.
  const auto small = controller.admit(2, 0.5);
  EXPECT_FALSE(small.admitted);
  EXPECT_NE(small.reason.find("size"), std::string::npos);
  EXPECT_TRUE(controller.admit(19, 0.5).admitted);
}

TEST(ControllerTest, SimilarityPercentileRejectsRedundantData) {
  ControllerConfig cfg;
  cfg.similarity_percentile = 50.0;
  cfg.min_history = 10;
  Controller controller(cfg);
  for (int i = 0; i < 20; ++i) {
    controller.admit(100, 0.05 * static_cast<double>(i));
  }
  // Highly similar (redundant) data is dropped; novel data admitted.
  const auto redundant = controller.admit(100, 0.99);
  EXPECT_FALSE(redundant.admitted);
  EXPECT_NE(redundant.reason.find("similarity"), std::string::npos);
  EXPECT_TRUE(controller.admit(100, 0.01).admitted);
}

TEST(ControllerTest, NoThresholdingBeforeMinHistory) {
  ControllerConfig cfg;
  cfg.size_percentile = 99.0;
  cfg.min_history = 50;
  Controller controller(cfg);
  for (int i = 0; i < 49; ++i) {
    EXPECT_TRUE(controller.admit(1, 0.5).admitted);
  }
}

TEST(ControllerTest, CountsAdmittedAndRejected) {
  ControllerConfig cfg;
  cfg.absolute_min_batch = 10;
  Controller controller(cfg);
  controller.admit(5, 0.5);
  controller.admit(15, 0.5);
  controller.admit(3, 0.5);
  EXPECT_EQ(controller.admitted_count(), 1u);
  EXPECT_EQ(controller.rejected_count(), 2u);
}

TEST(ControllerTest, ThresholdAccessorsReflectHistory) {
  ControllerConfig cfg;
  cfg.size_percentile = 50.0;
  cfg.similarity_percentile = 50.0;
  cfg.min_history = 5;
  Controller controller(cfg);
  EXPECT_DOUBLE_EQ(controller.size_threshold(), 0.0);
  EXPECT_DOUBLE_EQ(controller.similarity_threshold(), 1.0);
  for (std::size_t n = 1; n <= 9; ++n) {
    controller.admit(n * 10, static_cast<double>(n) / 10.0);
  }
  EXPECT_NEAR(controller.size_threshold(), 50.0, 1e-9);
  EXPECT_NEAR(controller.similarity_threshold(), 0.5, 1e-9);
}

TEST(ServerConfigTest, ValidateCatchesBadSettings) {
  ServerConfig ok;
  EXPECT_NO_THROW(validate(ok));
  ServerConfig bad = ok;
  bad.learning_rate = 0.0f;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = ok;
  bad.aggregator.aggregation_k = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = ok;
  bad.controller.size_percentile = 150.0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = ok;
  bad.slo.latency_s = -1.0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

}  // namespace
}  // namespace fleet::core
