// Property-based tests: randomized migration schedules, partition
// invariants, simulator ordering, and RNG distribution sanity — the
// invariants that must hold for *any* input, exercised over many seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "algo/partitioner.hpp"
#include "des/simulator.hpp"
#include "ode/brusselator.hpp"
#include "ode/waveform.hpp"
#include "ode/waveform_block.hpp"
#include "util/rng.hpp"

namespace {

using namespace aiac;

// ---------------------------------------------------------------------
// Random migration schedules on a chain of WaveformBlocks must preserve
// the tiling invariant (blocks cover [0, dim) exactly, in order) and must
// not change the fixed point the iteration converges to.
class MigrationSchedule : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MigrationSchedule, PreservesTilingAndFixedPoint) {
  ode::Brusselator::Params params;
  params.grid_points = 24;  // 48 components
  const ode::Brusselator system(params);
  const std::size_t blocks_count = 4;
  const auto starts = ode::even_partition(system.dimension(), blocks_count);

  std::vector<std::unique_ptr<ode::WaveformBlock>> blocks;
  for (std::size_t b = 0; b < blocks_count; ++b) {
    ode::WaveformBlockConfig config;
    config.first = starts[b];
    config.count = starts[b + 1] - starts[b];
    config.num_steps = 30;
    config.t_end = 0.4;
    blocks.push_back(std::make_unique<ode::WaveformBlock>(system, config));
  }

  auto exchange = [&] {
    for (std::size_t b = 0; b + 1 < blocks_count; ++b) {
      EXPECT_TRUE(
          blocks[b + 1]->accept_left_ghosts(blocks[b]->boundary_for_right()));
      EXPECT_TRUE(
          blocks[b]->accept_right_ghosts(blocks[b + 1]->boundary_for_left()));
    }
  };
  auto check_tiling = [&] {
    std::size_t cursor = 0;
    for (const auto& block : blocks) {
      ASSERT_EQ(block->first(), cursor);
      cursor += block->count();
    }
    ASSERT_EQ(cursor, system.dimension());
  };

  util::Rng rng(GetParam());
  for (int round = 0; round < 30; ++round) {
    for (auto& block : blocks) (void)block->iterate();
    exchange();
    // A random legal migration between a random adjacent pair.
    const std::size_t left = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(blocks_count) - 2));
    const bool to_left = rng.bernoulli(0.5);
    auto& sender = to_left ? blocks[left + 1] : blocks[left];
    auto& receiver = to_left ? blocks[left] : blocks[left + 1];
    const std::size_t stencil = system.stencil_halfwidth();
    if (sender->count() > stencil + 1) {
      const std::size_t max_amount = sender->count() - stencil - 1;
      const std::size_t amount = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(max_amount)));
      if (to_left) {
        receiver->absorb_from_right(sender->extract_for_left(amount));
      } else {
        receiver->absorb_from_left(sender->extract_for_right(amount));
      }
    }
    check_tiling();
  }

  // Converge after all the churn and compare against the clean solution.
  double residual = 1.0;
  for (int i = 0; i < 3000 && residual > 1e-10; ++i) {
    residual = 0.0;
    for (auto& block : blocks)
      residual = std::max(residual, block->iterate().residual);
    exchange();
  }
  ASSERT_LE(residual, 1e-10);
  ode::Trajectory merged(system.dimension(), 30);
  for (const auto& block : blocks) block->copy_local_into(merged);

  ode::WaveformOptions ref_opts;
  ref_opts.blocks = 1;
  ref_opts.num_steps = 30;
  ref_opts.t_end = 0.4;
  const auto reference = ode::waveform_relaxation(system, ref_opts);
  EXPECT_LT(merged.max_abs_diff(reference.trajectory), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationSchedule,
                         ::testing::Values(11, 23, 37, 59, 71, 97));

// ---------------------------------------------------------------------
// Partition invariants over random shapes.
class PartitionProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionProperty, EvenPartitionInvariants) {
  const auto [total_raw, parts_raw] = GetParam();
  const auto parts = static_cast<std::size_t>(1 + parts_raw % 16);
  const std::size_t total = parts + static_cast<std::size_t>(total_raw % 500);
  const auto starts = ode::even_partition(total, parts);
  ASSERT_EQ(starts.size(), parts + 1);
  EXPECT_EQ(starts.front(), 0u);
  EXPECT_EQ(starts.back(), total);
  std::size_t min_size = total, max_size = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t size = starts[p + 1] - starts[p];
    EXPECT_GE(size, 1u);
    min_size = std::min(min_size, size);
    max_size = std::max(max_size, size);
  }
  EXPECT_LE(max_size - min_size, 1u);  // near-equal by construction
}

TEST_P(PartitionProperty, SpeedWeightedInvariants) {
  const auto [total_raw, parts_raw] = GetParam();
  const auto parts = static_cast<std::size_t>(1 + parts_raw % 8);
  const std::size_t total =
      4 * parts + static_cast<std::size_t>(total_raw % 500);
  util::Rng rng(static_cast<std::uint64_t>(total_raw * 31 + parts_raw));
  std::vector<double> speeds(parts);
  for (auto& s : speeds) s = rng.uniform(0.5, 5.0);
  algo::PartitionSpec spec;
  spec.mode = algo::InitialPartition::kSpeedWeighted;
  spec.dimension = total;
  spec.processors = parts;
  spec.speeds = speeds;
  spec.min_per_part = 2;
  const auto starts = algo::build_partition(spec);
  ASSERT_EQ(starts.size(), parts + 1);
  EXPECT_EQ(starts.front(), 0u);
  EXPECT_EQ(starts.back(), total);
  for (std::size_t p = 0; p < parts; ++p)
    EXPECT_GE(starts[p + 1] - starts[p], 2u);
  // Monotone relation between speed and size cannot be guaranteed with
  // rounding, but the sizes must correlate: the fastest part is at least
  // as large as the slowest.
  const auto slowest = static_cast<std::size_t>(
      std::min_element(speeds.begin(), speeds.end()) - speeds.begin());
  const auto fastest = static_cast<std::size_t>(
      std::max_element(speeds.begin(), speeds.end()) - speeds.begin());
  EXPECT_GE(starts[fastest + 1] - starts[fastest],
            starts[slowest + 1] - starts[slowest]);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionProperty,
    ::testing::Combine(::testing::Values(0, 17, 101, 499),
                       ::testing::Values(1, 3, 7, 12)));

// ---------------------------------------------------------------------
// The simulator executes randomly scheduled events in nondecreasing time
// order regardless of insertion order.
class SimulatorOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorOrdering, RandomScheduleExecutesSorted) {
  util::Rng rng(GetParam());
  des::Simulator sim;
  std::vector<double> executed;
  for (int i = 0; i < 500; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    sim.schedule_at(t, [&executed, t] { executed.push_back(t); });
  }
  sim.run();
  ASSERT_EQ(executed.size(), 500u);
  EXPECT_TRUE(std::is_sorted(executed.begin(), executed.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorOrdering,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------
// RNG distribution sanity: uniform_int over a small range is roughly
// uniform (loose chi-square-style bound).
TEST(RngProperty, UniformIntIsRoughlyUniform) {
  util::Rng rng(12345);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i)
    counts[static_cast<std::size_t>(rng.uniform_int(0, kBuckets - 1))] += 1;
  const double expected = static_cast<double>(kSamples) / kBuckets;
  double chi2 = 0.0;
  for (int c : counts)
    chi2 += (c - expected) * (c - expected) / expected;
  // 9 degrees of freedom; 99.9th percentile is ~27.9.
  EXPECT_LT(chi2, 28.0);
}

TEST(RngProperty, SplitStreamsDecorrelated) {
  util::Rng parent(777);
  auto a = parent.split("alpha");
  auto b = parent.split("beta");
  // Pearson correlation of paired uniforms should be near zero.
  const int n = 20000;
  double sum_a = 0, sum_b = 0, sum_ab = 0, sum_a2 = 0, sum_b2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = a.uniform();
    const double y = b.uniform();
    sum_a += x;
    sum_b += y;
    sum_ab += x * y;
    sum_a2 += x * x;
    sum_b2 += y * y;
  }
  const double cov = sum_ab / n - (sum_a / n) * (sum_b / n);
  const double var_a = sum_a2 / n - (sum_a / n) * (sum_a / n);
  const double var_b = sum_b2 / n - (sum_b / n) * (sum_b / n);
  const double corr = cov / std::sqrt(var_a * var_b);
  EXPECT_LT(std::abs(corr), 0.03);
}

}  // namespace
