// End-to-end cross-validation: the three execution paths (sequential
// waveform relaxation, virtual-time engine, threaded engine) and the two
// local-solve granularities must all agree on the computed solution, for
// both test problems, across schemes, detection protocols and seeds.
#include <gtest/gtest.h>

#include <tuple>

#include "core/sim_engine.hpp"
#include "core/thread_engine.hpp"
#include "grid/grid.hpp"
#include "ode/brusselator.hpp"
#include "ode/linear_diffusion.hpp"
#include "ode/waveform.hpp"

namespace {

using namespace aiac;

core::EngineConfig common_config() {
  core::EngineConfig config;
  config.num_steps = 30;
  config.t_end = 0.6;
  config.tolerance = 1e-8;
  return config;
}

ode::Trajectory sequential(const ode::OdeSystem& system,
                           const core::EngineConfig& config) {
  ode::WaveformOptions opts;
  opts.blocks = 1;
  opts.num_steps = config.num_steps;
  opts.t_end = config.t_end;
  opts.tolerance = config.tolerance;
  return ode::waveform_relaxation(system, opts).trajectory;
}

// (scheme, load-balancing, detection, solve mode) full matrix on the
// virtual-time engine.
using SimCase = std::tuple<core::Scheme, bool, core::DetectionMode,
                           ode::LocalSolveMode>;

class SimMatrix : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimMatrix, AgreesWithSequentialSolution) {
  const auto [scheme, lb_on, detection, mode] = GetParam();
  ode::Brusselator::Params params;
  params.grid_points = 20;
  const ode::Brusselator system(params);
  auto config = common_config();
  config.scheme = scheme;
  config.load_balancing = lb_on;
  config.detection = detection;
  config.solve_mode = mode;
  config.balancer.trigger_period = 3;
  if (mode == ode::LocalSolveMode::kScalarJacobi)
    config.max_iterations_per_processor = 2000000;

  grid::HeterogeneousGridParams grid_params;
  grid_params.machines = 3;
  grid_params.multi_user = false;
  grid_params.seed = 77;
  auto grid_model = grid::make_heterogeneous_grid(grid_params);
  const auto result = core::run_simulated(system, *grid_model, config);
  ASSERT_TRUE(result.converged)
      << core::to_string(scheme) << " " << core::to_string(detection);
  EXPECT_LT(result.solution.max_abs_diff(sequential(system, config)), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    FullMatrix, SimMatrix,
    ::testing::Combine(
        ::testing::Values(core::Scheme::kSISC, core::Scheme::kAIAC),
        ::testing::Bool(),
        ::testing::Values(core::DetectionMode::kOracle,
                          core::DetectionMode::kCoordinator),
        ::testing::Values(ode::LocalSolveMode::kBlockNewton,
                          ode::LocalSolveMode::kScalarJacobi)),
    [](const auto& param_info) {
      std::string name = core::to_string(std::get<0>(param_info.param));
      name += std::get<1>(param_info.param) ? "_LB_" : "_NoLB_";
      name += core::to_string(std::get<2>(param_info.param));
      name += std::get<3>(param_info.param) ==
                      ode::LocalSolveMode::kBlockNewton
                  ? "_Block"
                  : "_Scalar";
      return name;
    });

TEST(CrossBackend, SimulatedAndThreadedAgree) {
  ode::Brusselator::Params params;
  params.grid_points = 16;
  const ode::Brusselator system(params);
  auto config = common_config();
  config.scheme = core::Scheme::kAIAC;
  config.load_balancing = true;
  config.balancer.trigger_period = 3;

  grid::HomogeneousClusterParams cluster;
  cluster.processes = 3;
  cluster.multi_user = false;
  auto machines = grid::make_homogeneous_cluster(cluster);
  const auto simulated = core::run_simulated(system, *machines, config);
  const auto threaded = core::run_threaded(system, 3, config);
  ASSERT_TRUE(simulated.converged);
  ASSERT_TRUE(threaded.converged);
  EXPECT_LT(simulated.solution.max_abs_diff(threaded.solution), 1e-5);
}

TEST(CrossBackend, LinearProblemAllPathsAgree) {
  ode::LinearDiffusion::Params params;
  params.grid_points = 20;
  params.sigma = 0.2;
  params.right_boundary = 1.0;
  const ode::LinearDiffusion system(params);
  auto config = common_config();
  config.scheme = core::Scheme::kAIAC;

  const auto reference = sequential(system, config);
  grid::HomogeneousClusterParams cluster;
  cluster.processes = 2;
  cluster.multi_user = false;
  auto machines = grid::make_homogeneous_cluster(cluster);
  const auto simulated = core::run_simulated(system, *machines, config);
  const auto threaded = core::run_threaded(system, 2, config);
  ASSERT_TRUE(simulated.converged);
  ASSERT_TRUE(threaded.converged);
  EXPECT_LT(simulated.solution.max_abs_diff(reference), 1e-6);
  EXPECT_LT(threaded.solution.max_abs_diff(reference), 1e-6);
}

class DeterminismSweep
    : public ::testing::TestWithParam<std::tuple<core::Scheme, int>> {};

TEST_P(DeterminismSweep, IdenticalSeedsIdenticalRuns) {
  const auto [scheme, seed] = GetParam();
  ode::Brusselator::Params params;
  params.grid_points = 16;
  const ode::Brusselator system(params);
  auto config = common_config();
  config.scheme = scheme;
  config.load_balancing = true;
  config.balancer.trigger_period = 2;

  auto run_once = [&] {
    grid::HeterogeneousGridParams gp;
    gp.machines = 4;
    gp.seed = static_cast<std::uint64_t>(seed);
    auto grid_model = grid::make_heterogeneous_grid(gp);
    return core::run_simulated(system, *grid_model, config);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.execution_time, b.execution_time);
  EXPECT_EQ(a.total_iterations, b.total_iterations);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.data_messages, b.data_messages);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_DOUBLE_EQ(a.solution.max_abs_diff(b.solution), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeterminismSweep,
    ::testing::Combine(::testing::Values(core::Scheme::kSISC,
                                         core::Scheme::kSIAC,
                                         core::Scheme::kAIAC),
                       ::testing::Values(1, 42, 2003)),
    [](const auto& param_info) {
      return core::to_string(std::get<0>(param_info.param)) + "_seed" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
