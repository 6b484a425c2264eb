// Cross-engine parity for the socket backend: the same configurations run
// through the virtual-time engine (sim), the threaded engine and the
// multi-process socket engine must converge to the same solution, conserve
// components across migrations, and satisfy the shared famine guard —
// three independent runtimes driving one algorithm layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <tuple>

#include "core/sim_engine.hpp"
#include "core/thread_engine.hpp"
#include "grid/grid.hpp"
#include "net/net_engine.hpp"
#include "ode/brusselator.hpp"
#include "ode/fisher_kpp.hpp"

namespace {

using namespace aiac;
using core::DetectionMode;
using core::EngineConfig;

EngineConfig base_config() {
  EngineConfig config;
  config.scheme = core::Scheme::kAIAC;
  config.num_steps = 30;
  config.t_end = 0.8;
  config.tolerance = 1e-8;
  config.balancer.trigger_period = 3;
  config.balancer.threshold_ratio = 1.5;
  config.balancer.min_components = 3;
  config.max_iterations_per_processor = 200000;
  return config;
}

std::unique_ptr<grid::Grid> dedicated_cluster(std::size_t processes) {
  grid::HomogeneousClusterParams cluster;
  cluster.processes = processes;
  cluster.multi_user = false;
  return grid::make_homogeneous_cluster(cluster);
}

net::NetConfig net_config() {
  net::NetConfig config;
  config.deadline_seconds = 90.0;
  return config;
}

std::size_t sum(const std::vector<std::size_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::size_t{0});
}

/// The checks every engine's result must pass, whatever the backend.
void check_result(const core::EngineResult& result, std::size_t processors,
                  std::size_t dimension, std::size_t min_keep,
                  const char* label) {
  ASSERT_TRUE(result.converged) << label << ": " << result.failure_reason;
  ASSERT_EQ(result.final_components.size(), processors) << label;
  EXPECT_EQ(sum(result.final_components), dimension) << label;
  EXPECT_GE(result.min_components_observed, min_keep) << label;
  EXPECT_GT(result.total_iterations, 0u) << label;
}

// ---- Brusselator across rank counts and ±LB ---------------------------

class NetParity
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(NetParity, MatchesSimAndThreadEngines) {
  const auto [ranks, load_balancing] = GetParam();
  ode::Brusselator::Params params;
  params.grid_points = 24;
  const ode::Brusselator system(params);

  EngineConfig config = base_config();
  config.load_balancing = load_balancing;
  config.detection = DetectionMode::kCoordinator;

  auto cluster = dedicated_cluster(ranks);
  const auto simulated = core::run_simulated(system, *cluster, config);
  const auto threaded = core::run_threaded(system, ranks, config);
  const auto netted = net::run_net(system, ranks, config, net_config());

  const std::size_t min_keep =
      std::max<std::size_t>(config.balancer.min_components,
                            system.stencil_halfwidth() + 1);
  check_result(simulated, ranks, system.dimension(), min_keep, "sim");
  check_result(threaded, ranks, system.dimension(), min_keep, "thread");
  check_result(netted, ranks, system.dimension(), min_keep, "net");

  // All three converged to the same waveform: asynchronous iteration is
  // schedule-dependent in its path but not in its fixed point.
  EXPECT_LT(netted.solution.max_abs_diff(simulated.solution), 1e-4);
  EXPECT_LT(netted.solution.max_abs_diff(threaded.solution), 1e-4);

  if (!load_balancing) {
    // No migrations: the shared partitioner fixed the layout up front and
    // every backend must report the identical partition.
    EXPECT_EQ(netted.final_components, simulated.final_components);
    EXPECT_EQ(netted.migrations, 0u);
    EXPECT_EQ(netted.components_migrated, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndLb, NetParity,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{3},
                                         std::size_t{4}),
                       ::testing::Bool()),
    [](const auto& param_info) {
      return std::to_string(std::get<0>(param_info.param)) + "ranks" +
             (std::get<1>(param_info.param) ? "Lb" : "NoLb");
    });

// ---- Fisher-KPP: a different nonlinearity through all three engines ----

TEST(NetParityFisher, AllEnginesAgree) {
  ode::FisherKpp::Params params;
  params.grid_points = 24;
  const ode::FisherKpp system(params);

  EngineConfig config = base_config();
  config.num_steps = 24;
  config.t_end = 0.5;
  config.load_balancing = true;
  config.detection = DetectionMode::kCoordinator;

  constexpr std::size_t kRanks = 3;
  auto cluster = dedicated_cluster(kRanks);
  const auto simulated = core::run_simulated(system, *cluster, config);
  const auto threaded = core::run_threaded(system, kRanks, config);
  const auto netted = net::run_net(system, kRanks, config, net_config());

  const std::size_t min_keep =
      std::max<std::size_t>(config.balancer.min_components,
                            system.stencil_halfwidth() + 1);
  check_result(simulated, kRanks, system.dimension(), min_keep, "sim");
  check_result(threaded, kRanks, system.dimension(), min_keep, "thread");
  check_result(netted, kRanks, system.dimension(), min_keep, "net");

  EXPECT_LT(netted.solution.max_abs_diff(simulated.solution), 1e-4);
  EXPECT_LT(netted.solution.max_abs_diff(threaded.solution), 1e-4);
}

}  // namespace
