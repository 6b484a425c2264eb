// Golden trajectories of the block-Newton path (the paper's local `Solve`
// read as one banded implicit-Euler Newton per time step over a rank's
// rows): fixed-seed virtual-time AIAC runs on the loaded Fig. 5 cluster
// and on a 16-machine 3-site grid (Table 1's model, 4-row blocks), with
// and without load balancing, at one and two intra-processor chunks. The
// expected hashes were recorded with the generic-bound banded LU; the
// fixed-bandwidth kernels and the branch-free Jacobian assembly must
// reproduce them bit for bit — solution, virtual execution time, total
// work and iteration counts — since the virtual clock and every
// balancing decision derive from them. The coordinator case pins the
// detection control path the same way: its hashes were recorded while
// control messages still travelled as closures, and the plain-data
// ControlFrame delivery must reproduce them, message counts included.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/config.hpp"
#include "core/sim_engine.hpp"
#include "golden_hash.hpp"
#include "grid/grid.hpp"
#include "ode/brusselator.hpp"

namespace {

using namespace aiac;

enum class Platform { kFig5Cluster, kGrid16 };

std::unique_ptr<grid::Grid> make_platform(Platform platform) {
  grid::OnOffAvailability::Params load;
  if (platform == Platform::kGrid16) {
    grid::HeterogeneousGridParams params;
    params.machines = 16;
    params.sites = 3;
    params.speed_spread = 3.5;
    params.multi_user = true;
    load.loaded_fraction = 0.25;
    load.mean_busy_period = 5000.0;
    load.mean_idle_period = 5000.0;
    params.load = load;
    params.irregular_mapping = true;
    params.seed = 20030422;
    return grid::make_heterogeneous_grid(params);
  }
  grid::HomogeneousClusterParams params;
  params.processes = 4;
  params.multi_user = true;
  load.loaded_fraction = 0.15;
  load.mean_busy_period = 30.0;
  load.mean_idle_period = 60.0;
  params.load = load;
  params.seed = 20030422;
  return grid::make_homogeneous_cluster(params);
}

core::EngineResult run(Platform platform, bool load_balancing,
                       std::size_t intra,
                       core::DetectionMode detection =
                           core::DetectionMode::kOracle) {
  ode::Brusselator::Params params;
  params.grid_points = 32;
  const ode::Brusselator system(params);

  core::EngineConfig config;
  config.scheme = core::Scheme::kAIAC;
  config.num_steps = 40;
  config.t_end = 10.0;
  config.tolerance = 1e-6;
  config.solve_mode = ode::LocalSolveMode::kBlockNewton;
  config.load_balancing = load_balancing;
  config.intra_threads = intra;
  config.balancer.threshold_ratio = 1.5;
  config.balancer.trigger_period = 2;
  config.balancer.migration_fraction = 1.0;
  config.balancer.max_fraction_per_migration = 0.5;
  config.balancer.min_components = 3;
  config.detection = detection;

  const auto grid = make_platform(platform);
  const core::EngineResult result =
      core::run_simulated(system, *grid, config);
  EXPECT_TRUE(result.converged) << result.failure_reason;
  return result;
}

std::uint64_t run_hash(Platform platform, bool load_balancing,
                       std::size_t intra) {
  return golden::result_hash(run(platform, load_balancing, intra));
}

// The message-based detection protocols: every control message is a
// scheduled delivery with a grid latency, so these also pin the control,
// data and byte counters.
std::uint64_t detection_hash(core::DetectionMode detection,
                             bool load_balancing) {
  const core::EngineResult result =
      run(Platform::kFig5Cluster, load_balancing, 1, detection);
  EXPECT_GT(result.control_messages, 0u);
  return golden::traffic_hash(result);
}

// Block mode is a chunk-level block-Jacobi, so the chunk count is a
// numerics parameter and each intra setting has its own hash.
TEST(BlockGolden, Fig5ClusterWithoutBalancing) {
  EXPECT_EQ(run_hash(Platform::kFig5Cluster, false, 1),
            0x12d90df0f2d851a1ULL);
  EXPECT_EQ(run_hash(Platform::kFig5Cluster, false, 2),
            0x2b712f9d964036f3ULL);
}

TEST(BlockGolden, Fig5ClusterWithBalancing) {
  EXPECT_EQ(run_hash(Platform::kFig5Cluster, true, 1),
            0x396f373165ce1cd0ULL);
  EXPECT_EQ(run_hash(Platform::kFig5Cluster, true, 2),
            0xfcc4c1ffc78ebd85ULL);
}

TEST(BlockGolden, Grid16WithoutBalancing) {
  EXPECT_EQ(run_hash(Platform::kGrid16, false, 1),
            0x150794edac270041ULL);
  EXPECT_EQ(run_hash(Platform::kGrid16, false, 2),
            0x3d72dce8f0eda1f8ULL);
}

TEST(BlockGolden, Grid16WithBalancing) {
  EXPECT_EQ(run_hash(Platform::kGrid16, true, 1),
            0x67d97d8a5315a673ULL);
  EXPECT_EQ(run_hash(Platform::kGrid16, true, 2),
            0x4ae56082cd58b0b5ULL);
}

TEST(BlockGolden, Fig5ClusterCoordinatorDetection) {
  EXPECT_EQ(detection_hash(core::DetectionMode::kCoordinator, false),
            0x425e7c9eb3379bd7ULL);
  EXPECT_EQ(detection_hash(core::DetectionMode::kCoordinator, true),
            0xd053a213043f830dULL);
}

}  // namespace
