// Differential test of the two backends over the shared algorithm layer:
// the virtual-time and threaded engines now run the same ProcessorCore /
// Partitioner / DetectionProtocol objects, so for every scheme (with and
// without load balancing) both must converge to the same solution, honor
// the same famine guard, and pass the same detection audit.
#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <tuple>

#include "algo/partitioner.hpp"
#include "core/sim_engine.hpp"
#include "core/thread_engine.hpp"
#include "grid/grid.hpp"
#include "ode/brusselator.hpp"

namespace {

using namespace aiac;
using core::DetectionMode;
using core::EngineConfig;
using core::InitialPartition;
using core::Scheme;

constexpr std::size_t kProcessors = 3;

ode::Brusselator test_system() {
  ode::Brusselator::Params params;
  params.grid_points = 24;
  return ode::Brusselator(params);
}

EngineConfig parity_config() {
  EngineConfig config;
  config.num_steps = 30;
  config.t_end = 0.8;
  config.tolerance = 1e-8;
  config.balancer.trigger_period = 3;
  config.balancer.threshold_ratio = 1.5;
  config.balancer.min_components = 3;
  config.max_iterations_per_processor = 50000;
  return config;
}

std::unique_ptr<grid::Grid> dedicated_cluster() {
  grid::HomogeneousClusterParams cluster;
  cluster.processes = kProcessors;
  cluster.multi_user = false;
  return grid::make_homogeneous_cluster(cluster);
}

class EngineParity
    : public ::testing::TestWithParam<std::tuple<Scheme, bool>> {};

TEST_P(EngineParity, BackendsAgreeOnTheSharedAlgorithm) {
  const auto [scheme, load_balancing] = GetParam();
  const auto system = test_system();
  auto config = parity_config();
  config.scheme = scheme;
  config.load_balancing = load_balancing;

  auto cluster = dedicated_cluster();
  const auto simulated = core::run_simulated(system, *cluster, config);
  const auto threaded = core::run_threaded(system, kProcessors, config);

  ASSERT_TRUE(simulated.converged);
  ASSERT_TRUE(threaded.converged);
  EXPECT_LT(simulated.solution.max_abs_diff(threaded.solution), 1e-4);

  // Both fleets are built by the shared partitioner over the same spec.
  ASSERT_EQ(simulated.final_components.size(), kProcessors);
  ASSERT_EQ(threaded.final_components.size(), kProcessors);
  if (!load_balancing) {
    EXPECT_EQ(simulated.final_components, threaded.final_components);
  }
  const auto sum = [](const std::vector<std::size_t>& v) {
    return std::accumulate(v.begin(), v.end(), std::size_t{0});
  };
  EXPECT_EQ(sum(simulated.final_components), system.dimension());
  EXPECT_EQ(sum(threaded.final_components), system.dimension());

  // Shared famine guard: min_keep = max(balancer.min_components,
  // stencil + 1) on both backends.
  const std::size_t min_keep =
      std::max<std::size_t>(config.balancer.min_components,
                            system.stencil_halfwidth() + 1);
  EXPECT_GE(simulated.min_components_observed, min_keep);
  EXPECT_GE(threaded.min_components_observed, min_keep);

  // Oracle detection audit (the default mode): what the probe verified at
  // the halt instant must have been within tolerance on both backends.
  for (const auto& result : {simulated, threaded}) {
    EXPECT_GE(result.detection_gap, 0.0);
    EXPECT_LE(result.detection_gap, config.tolerance);
    EXPECT_GE(result.detection_max_residual, 0.0);
    EXPECT_LE(result.detection_max_residual, config.tolerance);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, EngineParity,
    ::testing::Combine(::testing::Values(Scheme::kSISC, Scheme::kSIAC,
                                         Scheme::kAIAC),
                       ::testing::Bool()),
    [](const auto& param_info) {
      return std::string(core::to_string(std::get<0>(param_info.param))) +
             (std::get<1>(param_info.param) ? "_LB" : "_NoLB");
    });

class ThreadedDetection : public ::testing::TestWithParam<DetectionMode> {};

TEST_P(ThreadedDetection, ThreadedBackendHonorsProtocolModes) {
  const auto system = test_system();
  auto config = parity_config();
  config.scheme = Scheme::kAIAC;
  config.detection = GetParam();
  const auto result = core::run_threaded(system, kProcessors, config);
  ASSERT_TRUE(result.converged);
  // A genuine message protocol: reports plus the halt fan-out.
  EXPECT_GT(result.control_messages, 0u);
  // The measured audit is recorded even when the protocol does not
  // guarantee interface consistency.
  EXPECT_GE(result.detection_gap, 0.0);
  EXPECT_GE(result.detection_max_residual, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ThreadedDetection,
                         ::testing::Values(DetectionMode::kCoordinator),
                         [](const auto& param_info) {
                           return core::to_string(param_info.param);
                         });

TEST(EnginePartitionParity, ThreadedHonorsSpeedWeightedPartition) {
  const auto system = test_system();
  auto config = parity_config();
  config.scheme = Scheme::kAIAC;
  config.initial_partition = InitialPartition::kSpeedWeighted;
  config.processor_speeds = {1.0, 2.0, 3.0};

  algo::PartitionSpec spec;
  spec.mode = InitialPartition::kSpeedWeighted;
  spec.dimension = system.dimension();
  spec.processors = kProcessors;
  spec.speeds = config.processor_speeds;
  spec.min_per_part = system.stencil_halfwidth() + 1;
  const auto starts = algo::build_partition(spec);
  std::vector<std::size_t> expected;
  for (std::size_t p = 0; p < kProcessors; ++p)
    expected.push_back(starts[p + 1] - starts[p]);

  const auto threaded = core::run_threaded(system, kProcessors, config);
  ASSERT_TRUE(threaded.converged);
  EXPECT_EQ(threaded.final_components, expected);

  // The simulated backend with the same explicit speed override builds
  // the identical fleet.
  auto cluster = dedicated_cluster();
  const auto simulated = core::run_simulated(system, *cluster, config);
  ASSERT_TRUE(simulated.converged);
  EXPECT_EQ(simulated.final_components, expected);
}

TEST(EnginePartitionParity, MismatchedSpeedsRejectedByBothBackends) {
  const auto system = test_system();
  auto config = parity_config();
  config.initial_partition = InitialPartition::kSpeedWeighted;
  config.processor_speeds = {1.0, 2.0};  // three processors below
  auto cluster = dedicated_cluster();
  EXPECT_THROW(core::run_simulated(system, *cluster, config),
               std::invalid_argument);
  EXPECT_THROW(core::run_threaded(system, kProcessors, config),
               std::invalid_argument);
}

}  // namespace
