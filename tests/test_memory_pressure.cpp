// Tests for the memory-pressure machine model.
#include <gtest/gtest.h>

#include "core/sim_engine.hpp"
#include "grid/grid.hpp"
#include "grid/machine.hpp"
#include "ode/brusselator.hpp"

namespace {

using namespace aiac;

ode::Brusselator small_system(std::size_t n = 24) {
  ode::Brusselator::Params p;
  p.grid_points = n;
  return ode::Brusselator(p);
}

core::EngineConfig base_config() {
  core::EngineConfig config;
  config.num_steps = 40;
  config.t_end = 1.0;
  config.tolerance = 1e-8;
  return config;
}

TEST(MemoryPressure, SlowsOnlyBeyondCapacity) {
  grid::Machine machine(
      "m", 1000.0, std::make_unique<grid::ConstantAvailability>(1.0),
      grid::MemoryPressure{.capacity = 100.0, .penalty = 8.0});
  EXPECT_DOUBLE_EQ(machine.effective_speed(0.0, 50.0), 1000.0);
  EXPECT_DOUBLE_EQ(machine.effective_speed(0.0, 100.0), 1000.0);
  // 2x over capacity: slowdown 1 + 8*1 = 9.
  EXPECT_NEAR(machine.effective_speed(0.0, 200.0), 1000.0 / 9.0, 1e-9);
  EXPECT_GT(machine.compute_duration(1000.0, 0.0, 200.0),
            machine.compute_duration(1000.0, 0.0, 10.0));
}

TEST(MemoryPressure, DisabledByDefault) {
  grid::Machine machine("m", 1000.0,
                        std::make_unique<grid::ConstantAvailability>(1.0));
  EXPECT_DOUBLE_EQ(machine.effective_speed(0.0, 1e9), 1000.0);
}

std::unique_ptr<grid::Grid> cluster_with_one_small_node(
    std::size_t nodes, double small_capacity) {
  // Hand-built grid: identical speeds, but node 1 pages beyond
  // `small_capacity` components while the others have ample memory.
  std::vector<std::unique_ptr<grid::Machine>> machines;
  for (std::size_t i = 0; i < nodes; ++i) {
    grid::MemoryPressure memory;
    if (i == 1)
      memory = grid::MemoryPressure{.capacity = small_capacity,
                                    .penalty = 20.0};
    machines.push_back(std::make_unique<grid::Machine>(
        "node" + std::to_string(i), 1000.0,
        std::make_unique<grid::ConstantAvailability>(1.0), memory));
  }
  grid::NetworkModel net(std::vector<std::size_t>(nodes, 0),
                         grid::fast_ethernet_lan(),
                         grid::fast_ethernet_lan());
  std::vector<std::size_t> mapping(nodes);
  for (std::size_t i = 0; i < nodes; ++i) mapping[i] = i;
  return std::make_unique<grid::Grid>(std::move(machines), std::move(net),
                                      std::move(mapping), util::Rng(5));
}

TEST(MemoryPressure, LoadBalancingRescuesAnOvercommittedNode) {
  // One tiny-memory machine in the chain: the even partition pushes it
  // into paging (24 components vs capacity 15); shedding components
  // restores its speed, so balancing must win clearly. The balancer runs
  // at a measured cadence: piggybacked load estimates lag by a message
  // hop, and a twitchy trigger (period 2, ratio 1.5) reacts to that lag
  // by sloshing components back into the paging node as fast as it sheds
  // them — the run still wins on time, but the final distribution samples
  // churn instead of demonstrating the rescue.
  const auto system = small_system(48);
  auto config = base_config();
  config.scheme = core::Scheme::kAIAC;
  config.balancer.trigger_period = 8;
  config.balancer.threshold_ratio = 2.0;
  config.balancer.min_components = 3;

  auto g_plain = cluster_with_one_small_node(4, 15.0);
  const auto without = core::run_simulated(system, *g_plain, config);
  ASSERT_TRUE(without.converged);

  config.load_balancing = true;
  auto g_lb = cluster_with_one_small_node(4, 15.0);
  const auto with = core::run_simulated(system, *g_lb, config);
  ASSERT_TRUE(with.converged);
  EXPECT_LT(with.execution_time, without.execution_time);
  // The paging node must have shed components (it cannot always reach its
  // capacity before the run converges, but it must have moved).
  EXPECT_LT(with.final_components[1], 24u);
}

}  // namespace
