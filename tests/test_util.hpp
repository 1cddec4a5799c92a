#pragma once

// Helpers shared by the runtime / stress / multitenant suites (each suite
// is its own gtest binary; this header keeps the copies from diverging).

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "fleet/core/server.hpp"
#include "fleet/device/catalog.hpp"
#include "fleet/profiler/iprof.hpp"
#include "fleet/profiler/training_data.hpp"
#include "fleet/runtime/gradient_queue.hpp"

namespace fleet::test {

/// An I-Prof pretrained on the standard training fleet — what every
/// server/session under test uses as its profiler.
inline std::unique_ptr<profiler::Profiler> pretrained_iprof() {
  auto iprof = std::make_unique<profiler::IProf>(profiler::IProf::Config{});
  iprof->pretrain(profiler::collect_profile_dataset(
      device::training_fleet(), profiler::IProf::Config{}.slo, 20));
  return iprof;
}

/// FNV-1a over the raw parameter bits: two runs are "identical" only if
/// every float matches exactly.
inline std::uint64_t param_hash(std::span<const float> params) {
  std::uint64_t h = 1469598103934665603ULL;
  for (float value : params) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    h ^= bits;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The serial oracle: replay one session's jobs, in admission order,
/// through core::FleetServer::handle_gradient on `model` (freshly
/// initialized by the caller) and return the final parameters. The
/// concurrent host must match this bit for bit in every configuration.
inline std::vector<float> serial_replay(
    nn::TrainableModel& model, const core::ServerConfig& config,
    const std::vector<runtime::GradientJob>& jobs) {
  core::FleetServer server(model, pretrained_iprof(), config);
  for (const runtime::GradientJob& job : jobs) {
    server.handle_gradient(job.task_version, job.gradient, job.label_dist,
                           job.mini_batch, job.feedback);
  }
  const auto view = model.parameters_view();
  return std::vector<float>(view.begin(), view.end());
}

inline bool bitwise_equal(const std::vector<float>& a,
                          const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace fleet::test
