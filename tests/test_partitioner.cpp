// Edge cases of the shared initial-partition builder: the inputs a config
// file can get wrong (too few components, nonsense speeds) must be
// rejected up front in every mode, not surface later as an empty block or
// a famine-guard trip on iteration one.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "algo/partitioner.hpp"
#include "algo/types.hpp"

namespace {

using namespace aiac::algo;

PartitionSpec spec(InitialPartition mode, std::size_t dimension,
                   std::size_t processors, std::vector<double> speeds = {},
                   std::size_t min_per_part = 2) {
  PartitionSpec s;
  s.mode = mode;
  s.dimension = dimension;
  s.processors = processors;
  s.speeds = std::move(speeds);
  s.min_per_part = min_per_part;
  return s;
}

TEST(Partitioner, RejectsTooFewComponentsEvenMode) {
  // 4 processors x floor 2 needs at least 8 components.
  EXPECT_THROW(build_partition(spec(InitialPartition::kEven, 7, 4)),
               std::invalid_argument);
  EXPECT_NO_THROW(build_partition(spec(InitialPartition::kEven, 8, 4)));
}

TEST(Partitioner, RejectsTooFewComponentsSpeedWeightedMode) {
  EXPECT_THROW(
      build_partition(spec(InitialPartition::kSpeedWeighted, 7, 4,
                           {1.0, 2.0, 3.0, 4.0})),
      std::invalid_argument);
  EXPECT_NO_THROW(build_partition(
      spec(InitialPartition::kSpeedWeighted, 8, 4, {1.0, 2.0, 3.0, 4.0})));
}

TEST(Partitioner, RejectsZeroSpeed) {
  EXPECT_THROW(
      build_partition(
          spec(InitialPartition::kSpeedWeighted, 20, 3, {1.0, 0.0, 2.0})),
      std::invalid_argument);
}

TEST(Partitioner, RejectsNegativeSpeed) {
  EXPECT_THROW(
      build_partition(
          spec(InitialPartition::kSpeedWeighted, 20, 3, {1.0, -0.5, 2.0})),
      std::invalid_argument);
}

TEST(Partitioner, RejectsNonPositiveSpeedInEvenModeToo) {
  // A bad speed vector is a config error regardless of the mode actually
  // selected; even mode must not silently ignore it.
  EXPECT_THROW(
      build_partition(spec(InitialPartition::kEven, 20, 3, {1.0, 0.0, 2.0})),
      std::invalid_argument);
}

TEST(Partitioner, RejectsSpeedCountMismatch) {
  EXPECT_THROW(
      build_partition(
          spec(InitialPartition::kSpeedWeighted, 20, 3, {1.0, 2.0})),
      std::invalid_argument);
}

TEST(Partitioner, SingleProcessorTakesEverything) {
  for (const InitialPartition mode :
       {InitialPartition::kEven, InitialPartition::kSpeedWeighted}) {
    const auto starts = build_partition(spec(mode, 9, 1, {}, 2));
    ASSERT_EQ(starts.size(), 2u);
    EXPECT_EQ(starts[0], 0u);
    EXPECT_EQ(starts[1], 9u);
  }
}

TEST(Partitioner, EveryPartMeetsTheFloorUnderSkewedSpeeds) {
  // A 100:1 speed skew must still leave the slow processor its floor.
  const auto starts = build_partition(
      spec(InitialPartition::kSpeedWeighted, 12, 3, {100.0, 1.0, 1.0}, 3));
  ASSERT_EQ(starts.size(), 4u);
  EXPECT_EQ(starts.front(), 0u);
  EXPECT_EQ(starts.back(), 12u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_GE(starts[p + 1] - starts[p], 3u) << "part " << p;
  }
}

// The speed-weighted apportionment itself (largest remainder with a
// per-part floor), driven through the public builder.
TEST(SpeedWeightedPartition, ProportionalSizes) {
  const auto starts = build_partition(
      spec(InitialPartition::kSpeedWeighted, 100, 2, {1.0, 3.0}, 1));
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0], 0u);
  EXPECT_EQ(starts[2], 100u);
  EXPECT_NEAR(static_cast<double>(starts[1]), 25.0, 1.0);
}

TEST(SpeedWeightedPartition, RespectsMinimumAndTotal) {
  const auto starts = build_partition(
      spec(InitialPartition::kSpeedWeighted, 20, 3, {100.0, 1.0, 1.0}, 4));
  ASSERT_EQ(starts.size(), 4u);
  EXPECT_EQ(starts[3], 20u);
  for (std::size_t p = 0; p < 3; ++p)
    EXPECT_GE(starts[p + 1] - starts[p], 4u);
}

TEST(SpeedWeightedPartition, RejectsImpossibleRequests) {
  EXPECT_THROW(build_partition(spec(InitialPartition::kSpeedWeighted, 5, 3,
                                    {1.0, 1.0, 1.0}, 2)),
               std::invalid_argument);
  EXPECT_THROW(build_partition(spec(InitialPartition::kSpeedWeighted, 10, 2,
                                    {1.0, -1.0}, 1)),
               std::invalid_argument);
  EXPECT_THROW(
      build_partition(spec(InitialPartition::kSpeedWeighted, 10, 0, {}, 1)),
      std::invalid_argument);
}

}  // namespace
