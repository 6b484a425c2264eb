// Golden trajectories of the scalar-Jacobi (paper Algorithm 1) path: a
// fixed-seed virtual-time AIAC run on the loaded Fig. 5 cluster, with and
// without load balancing, at intra_threads 1 and 2. The
// expected hashes were recorded with the component-outer scalar kernel;
// the lockstep batched kernel must reproduce them bit for bit — solution,
// virtual execution time, total work and iteration counts — since the
// virtual clock and every balancing decision derive from them.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/config.hpp"
#include "core/sim_engine.hpp"
#include "grid/grid.hpp"
#include "golden_hash.hpp"
#include "ode/brusselator.hpp"

namespace {

using namespace aiac;

std::uint64_t run_hash(bool load_balancing, std::size_t intra) {
  ode::Brusselator::Params params;
  params.grid_points = 32;
  const ode::Brusselator system(params);

  core::EngineConfig config;
  config.scheme = core::Scheme::kAIAC;
  config.num_steps = 40;
  config.t_end = 10.0;
  config.tolerance = 1e-6;
  config.solve_mode = ode::LocalSolveMode::kScalarJacobi;
  config.load_balancing = load_balancing;
  config.intra_threads = intra;
  config.balancer.threshold_ratio = 1.5;
  config.balancer.trigger_period = 2;
  config.balancer.migration_fraction = 1.0;
  config.balancer.max_fraction_per_migration = 0.5;
  config.balancer.min_components = 3;

  grid::HomogeneousClusterParams cluster;
  cluster.processes = 4;
  cluster.multi_user = true;
  cluster.load.loaded_fraction = 0.15;
  cluster.load.mean_busy_period = 30.0;
  cluster.load.mean_idle_period = 60.0;
  cluster.seed = 20030422;
  const auto grid = grid::make_homogeneous_cluster(cluster);

  const core::EngineResult result =
      core::run_simulated(system, *grid, config);
  EXPECT_TRUE(result.converged) << result.failure_reason;
  return golden::result_hash(result);
}

// No engine reads intra_threads, so both settings share one hash.
TEST(ScalarGolden, Fig5ClusterWithoutBalancing) {
  EXPECT_EQ(run_hash(false, 1), 0xd20194eaf512a236ULL);
  EXPECT_EQ(run_hash(false, 2), 0xd20194eaf512a236ULL);
}

TEST(ScalarGolden, Fig5ClusterWithBalancing) {
  EXPECT_EQ(run_hash(true, 1), 0xbd194b3cf79ae325ULL);
  EXPECT_EQ(run_hash(true, 2), 0xbd194b3cf79ae325ULL);
}

}  // namespace
