// Integration tests of the virtual-time engine: scheme semantics,
// numerical correctness against the sequential reference, determinism,
// load-balancing invariants, and convergence detection.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "core/sim_engine.hpp"
#include "grid/grid.hpp"
#include "ode/brusselator.hpp"
#include "ode/waveform.hpp"
#include "trace/execution_trace.hpp"

namespace {

using namespace aiac;
using core::EngineConfig;
using core::EngineResult;
using core::Scheme;

ode::Brusselator test_system(std::size_t grid_points = 24) {
  ode::Brusselator::Params p;
  p.grid_points = grid_points;
  return ode::Brusselator(p);
}

EngineConfig base_config() {
  EngineConfig config;
  config.num_steps = 40;
  config.t_end = 1.0;
  config.tolerance = 1e-8;
  return config;
}

std::unique_ptr<grid::Grid> dedicated_cluster(std::size_t procs,
                                              std::uint64_t seed = 7) {
  grid::HomogeneousClusterParams params;
  params.processes = procs;
  params.multi_user = false;
  params.seed = seed;
  return grid::make_homogeneous_cluster(params);
}

ode::Trajectory reference_solution(const ode::OdeSystem& system,
                                   const EngineConfig& config) {
  ode::WaveformOptions opts;
  opts.blocks = 1;
  opts.num_steps = config.num_steps;
  opts.t_end = config.t_end;
  opts.tolerance = config.tolerance;
  return ode::waveform_relaxation(system, opts).trajectory;
}

TEST(SimEngine, AiacConvergesToSequentialSolution) {
  const auto system = test_system();
  auto cluster = dedicated_cluster(4);
  auto config = base_config();
  config.scheme = Scheme::kAIAC;
  const auto result = core::run_simulated(system, *cluster, config);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.execution_time, 0.0);
  const auto reference = reference_solution(system, config);
  EXPECT_LT(result.solution.max_abs_diff(reference), 1e-5);
}

TEST(SimEngine, AllSchemesConverge) {
  const auto system = test_system();
  const auto reference = reference_solution(system, base_config());
  for (const Scheme scheme :
       {Scheme::kSISC, Scheme::kSIAC, Scheme::kAIAC}) {
    auto cluster = dedicated_cluster(3);
    auto config = base_config();
    config.scheme = scheme;
    const auto result = core::run_simulated(system, *cluster, config);
    EXPECT_TRUE(result.converged) << core::to_string(scheme);
    EXPECT_LT(result.solution.max_abs_diff(reference), 1e-5)
        << core::to_string(scheme);
  }
}

TEST(SimEngine, SyncSchemesMatchSequentialIterationCount) {
  // With neighbor-synchronous iterations, every processor performs exactly
  // the iterations of the sequential block-Jacobi sweep (paper §1.2:
  // "these algorithms have exactly the same behavior as the sequential
  // version in terms of the iterations performed").
  const auto system = test_system();
  ode::WaveformOptions opts;
  opts.blocks = 3;
  opts.num_steps = 40;
  opts.t_end = 1.0;
  opts.tolerance = 1e-8;
  const auto sequential = ode::waveform_relaxation(system, opts);
  ASSERT_TRUE(sequential.converged);

  auto cluster = dedicated_cluster(3);
  auto config = base_config();
  config.scheme = Scheme::kSISC;
  const auto result = core::run_simulated(system, *cluster, config);
  ASSERT_TRUE(result.converged);
  // The engine may run one extra iteration on processors that had already
  // started when the halt condition became true.
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_GE(result.iterations_per_processor[p],
              sequential.outer_iterations)
        << "processor " << p;
    EXPECT_LE(result.iterations_per_processor[p],
              sequential.outer_iterations + 1)
        << "processor " << p;
  }
  EXPECT_LT(result.solution.max_abs_diff(sequential.trajectory), 1e-8);
}

TEST(SimEngine, DeterministicGivenSeed) {
  const auto system = test_system();
  auto config = base_config();
  config.scheme = Scheme::kAIAC;
  config.load_balancing = true;
  config.balancer.trigger_period = 5;

  grid::HeterogeneousGridParams params;
  params.machines = 5;
  params.seed = 123;
  auto grid_a = grid::make_heterogeneous_grid(params);
  auto grid_b = grid::make_heterogeneous_grid(params);
  const auto ra = core::run_simulated(system, *grid_a, config);
  const auto rb = core::run_simulated(system, *grid_b, config);
  EXPECT_DOUBLE_EQ(ra.execution_time, rb.execution_time);
  EXPECT_EQ(ra.total_iterations, rb.total_iterations);
  EXPECT_EQ(ra.migrations, rb.migrations);
  EXPECT_EQ(ra.bytes_sent, rb.bytes_sent);
  EXPECT_DOUBLE_EQ(ra.solution.max_abs_diff(rb.solution), 0.0);
}

TEST(SimEngine, LoadBalancingPreservesSolutionAndComponents) {
  const auto system = test_system(32);
  grid::HeterogeneousGridParams params;
  params.machines = 4;
  params.seed = 99;
  auto het_grid = grid::make_heterogeneous_grid(params);
  auto config = base_config();
  config.scheme = Scheme::kAIAC;
  config.load_balancing = true;
  config.balancer.trigger_period = 4;
  config.balancer.min_components = 4;
  const auto result = core::run_simulated(system, *het_grid, config);
  ASSERT_TRUE(result.converged);
  // Conservation: components are never lost or duplicated by migrations.
  const std::size_t total = std::accumulate(
      result.final_components.begin(), result.final_components.end(),
      std::size_t{0});
  EXPECT_EQ(total, system.dimension());
  EXPECT_GT(result.migrations, 0u);
  const auto reference = reference_solution(system, config);
  EXPECT_LT(result.solution.max_abs_diff(reference), 1e-5);
  // Famine guard: nobody starves.
  for (std::size_t c : result.final_components) EXPECT_GE(c, 4u);
}

TEST(SimEngine, LoadBalancingSpeedsUpHeterogeneousGrid) {
  const auto system = test_system(48);
  auto config = base_config();
  config.scheme = Scheme::kAIAC;

  grid::HeterogeneousGridParams params;
  params.machines = 5;
  params.seed = 11;
  params.multi_user = false;  // keep the contrast purely speed-driven

  auto grid_plain = grid::make_heterogeneous_grid(params);
  const auto without = core::run_simulated(system, *grid_plain, config);
  ASSERT_TRUE(without.converged);

  config.load_balancing = true;
  config.balancer.trigger_period = 5;
  auto grid_lb = grid::make_heterogeneous_grid(params);
  const auto with = core::run_simulated(system, *grid_lb, config);
  ASSERT_TRUE(with.converged);

  EXPECT_LT(with.execution_time, without.execution_time);
}

TEST(SimEngine, SpeedWeightedPartitionBeatsEvenOnHeterogeneousGrid) {
  const auto system = test_system(48);
  auto config = base_config();
  config.scheme = Scheme::kAIAC;
  grid::HeterogeneousGridParams params;
  params.machines = 4;
  params.multi_user = false;
  params.seed = 5;

  auto grid_even = grid::make_heterogeneous_grid(params);
  const auto even = core::run_simulated(system, *grid_even, config);
  config.initial_partition = core::InitialPartition::kSpeedWeighted;
  auto grid_weighted = grid::make_heterogeneous_grid(params);
  const auto weighted = core::run_simulated(system, *grid_weighted, config);
  ASSERT_TRUE(even.converged);
  ASSERT_TRUE(weighted.converged);
  EXPECT_LT(weighted.execution_time, even.execution_time);
}

TEST(SimEngine, CoordinatorDetectionConvergesToCorrectSolution) {
  const auto system = test_system();
  auto cluster = dedicated_cluster(3);
  auto config = base_config();
  config.scheme = Scheme::kAIAC;
  config.detection = core::DetectionMode::kCoordinator;
  config.persistence = 3;
  const auto result = core::run_simulated(system, *cluster, config);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.control_messages, 0u);
  const auto reference = reference_solution(system, config);
  EXPECT_LT(result.solution.max_abs_diff(reference), 1e-4);
}

TEST(SimEngine, CoordinatorDetectionTakesLongerThanOracle) {
  const auto system = test_system();
  auto config = base_config();
  config.scheme = Scheme::kAIAC;
  auto g1 = dedicated_cluster(3);
  const auto oracle = core::run_simulated(system, *g1, config);
  config.detection = core::DetectionMode::kCoordinator;
  auto g2 = dedicated_cluster(3);
  const auto coord = core::run_simulated(system, *g2, config);
  ASSERT_TRUE(oracle.converged);
  ASSERT_TRUE(coord.converged);
  // The persistence guard plus control-message latency always costs time.
  EXPECT_GE(coord.execution_time, oracle.execution_time);
}

TEST(SimEngine, TraceRecordsConsistentIntervals) {
  const auto system = test_system();
  auto cluster = dedicated_cluster(3);
  auto config = base_config();
  config.scheme = Scheme::kAIAC;
  trace::ExecutionTrace trace;
  const auto result = core::run_simulated(system, *cluster, config, &trace);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(trace.processor_count(), 3u);
  EXPECT_GT(trace.iterations().size(), 0u);
  for (const auto& it : trace.iterations()) {
    EXPECT_LE(it.start, it.end);
    EXPECT_LE(it.end, trace.span() + 1e-12);
    EXPECT_GT(it.components, 0u);
  }
  for (const auto& m : trace.messages()) EXPECT_LE(m.send_time, m.receive_time);
  // Per-processor iteration counts match the engine's.
  for (std::size_t p = 0; p < 3; ++p)
    EXPECT_EQ(trace.iteration_count(p), result.iterations_per_processor[p]);
}

TEST(SimEngine, SiscIdlesMoreThanAiacOnSlowNetwork) {
  // The phenomenon of Figures 1-3: synchronous schemes accumulate idle
  // time waiting for data; AIAC does not wait at all.
  const auto system = test_system(24);
  grid::HomogeneousClusterParams params;
  params.processes = 3;
  params.multi_user = false;
  params.lan = grid::campus_wan();  // slow, jittery links
  auto config = base_config();

  config.scheme = Scheme::kSISC;
  trace::ExecutionTrace sisc_trace;
  auto g1 = grid::make_homogeneous_cluster(params);
  ASSERT_TRUE(core::run_simulated(system, *g1, config, &sisc_trace).converged);

  config.scheme = Scheme::kAIAC;
  trace::ExecutionTrace aiac_trace;
  auto g2 = grid::make_homogeneous_cluster(params);
  ASSERT_TRUE(core::run_simulated(system, *g2, config, &aiac_trace).converged);

  EXPECT_GT(sisc_trace.mean_idle_fraction(),
            aiac_trace.mean_idle_fraction());
}

TEST(SimEngine, FailsGracefullyWhenPartitionTooFine) {
  const auto system = test_system(2);  // 4 components
  auto cluster = dedicated_cluster(4);
  auto config = base_config();
  EXPECT_THROW(core::run_simulated(system, *cluster, config),
               std::invalid_argument);
}

TEST(SimEngine, HitsIterationGuardWithoutConvergence) {
  const auto system = test_system();
  auto cluster = dedicated_cluster(3);
  auto config = base_config();
  // Strictly negative: a run can legitimately reach an exact bitwise
  // fixed point (residual and interface gaps exactly 0.0), which a
  // zero tolerance would accept.
  config.tolerance = -1.0;
  config.max_iterations_per_processor = 20;
  const auto result = core::run_simulated(system, *cluster, config);
  EXPECT_FALSE(result.converged);
  EXPECT_LE(result.iterations_per_processor[0], 21u);
  // The same text the threaded and socket drivers report.
  EXPECT_EQ(result.failure_reason, core::iteration_budget_reason(config));
}

TEST(SimEngine, VirtualTimeLimitNamesTheStop) {
  const auto system = test_system();
  auto cluster = dedicated_cluster(3);
  auto config = base_config();
  config.tolerance = -1.0;  // never converges; the time limit must stop it
  config.max_virtual_time = 1e-3;
  const auto result = core::run_simulated(system, *cluster, config);
  EXPECT_FALSE(result.converged);
  EXPECT_FALSE(result.failure_reason.empty());
  EXPECT_NE(result.failure_reason.find("virtual-time limit"),
            std::string::npos)
      << result.failure_reason;
}

class SchemeMatrix
    : public ::testing::TestWithParam<std::tuple<Scheme, bool>> {};

TEST_P(SchemeMatrix, ConvergesWithAndWithoutBalancing) {
  const auto [scheme, lb_on] = GetParam();
  const auto system = test_system(32);
  grid::HeterogeneousGridParams params;
  params.machines = 4;
  params.seed = 3;
  auto g = grid::make_heterogeneous_grid(params);
  auto config = base_config();
  config.scheme = scheme;
  config.load_balancing = lb_on;
  config.balancer.trigger_period = 6;
  const auto result = core::run_simulated(system, *g, config);
  ASSERT_TRUE(result.converged);
  const auto reference = reference_solution(system, config);
  EXPECT_LT(result.solution.max_abs_diff(reference), 1e-4);
  const std::size_t total = std::accumulate(
      result.final_components.begin(), result.final_components.end(),
      std::size_t{0});
  EXPECT_EQ(total, system.dimension());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeMatrix,
    ::testing::Combine(::testing::Values(Scheme::kSISC, Scheme::kSIAC,
                                         Scheme::kAIAC),
                       ::testing::Bool()),
    [](const auto& param_info) {
      return core::to_string(std::get<0>(param_info.param)) +
             std::string(std::get<1>(param_info.param) ? "_LB" : "_NoLB");
    });

}  // namespace
