// The migration-link ledger CoreFleet owns for every in-process driver and
// the model checker: a claimed link refuses the neighbour's claim, a
// famine-guarded extraction gives its claim back, and only the receiver's
// absorption frees a link.
#include <gtest/gtest.h>

#include <vector>

#include "algo/processor_core.hpp"
#include "ode/linear_diffusion.hpp"

namespace {

using namespace aiac;
using algo::MigrationAttempt;
using algo::Side;
using Outcome = algo::MigrationAttempt::Outcome;

ode::LinearDiffusion diffusion(std::size_t grid_points) {
  ode::LinearDiffusion::Params params;
  params.grid_points = grid_points;
  return ode::LinearDiffusion(params);
}

/// Two ranks whose load is their component count, with the checker's
/// aggressive balancer: stencil 1, so the core's famine floor is 2.
algo::FleetConfig two_rank_config() {
  algo::FleetConfig fc;
  fc.processors = 2;
  fc.num_steps = 4;
  fc.t_end = 1.0;
  fc.estimator = lb::EstimatorKind::kComponentCount;
  fc.balancer.threshold_ratio = 1.5;
  fc.balancer.min_components = 1;
  fc.balancer.migration_fraction = 1.0;
  fc.balancer.max_fraction_per_migration = 1.0;
  fc.balancer.trigger_period = 3;
  return fc;
}

/// Makes rank p believe its neighbour on `side` carries `load`, the way a
/// piggybacked boundary message would.
void report_neighbor_load(algo::CoreFleet& fleet, std::size_t p, Side side,
                          double load) {
  const std::size_t q = side == Side::kLeft ? p - 1 : p + 1;
  ode::BoundaryMessage msg = fleet.core(q).make_boundary(algo::opposite(side));
  msg.sender_load = load;
  fleet.core(p).ingest_boundary(side, msg);
}

void run_out_trigger(algo::ProcessorCore& core) {
  while (!core.lb_trigger_due()) {
  }
}

TEST(CoreFleetLedger, ClaimedLinkRefusesTheNeighbourUntilTheReceiverAbsorbs) {
  const auto system = diffusion(12);
  algo::CoreFleet fleet(system, two_rank_config());
  ASSERT_EQ(fleet.core(0).components(), 6u);
  ASSERT_EQ(fleet.core(1).components(), 6u);

  // Rank 0 sees a light right neighbour and claims link 0.
  report_neighbor_load(fleet, 0, Side::kRight, 1.0);
  ode::MigrationPayload sent;
  const MigrationAttempt first = fleet.migrate(0, sent);
  ASSERT_EQ(first.outcome, Outcome::kExtracted);
  EXPECT_EQ(first.side, Side::kRight);
  EXPECT_GT(sent.owned_count, 0u);
  EXPECT_TRUE(fleet.lb_in_flight());
  EXPECT_TRUE(fleet.adjacent_link_busy(0));
  EXPECT_TRUE(fleet.adjacent_link_busy(1));

  // Rank 1 now wants to send left over the same link. Told the flag, its
  // planner keeps everything.
  report_neighbor_load(fleet, 1, Side::kLeft, 1.0);
  run_out_trigger(fleet.core(1));
  ode::MigrationPayload probe;
  probe.owned_count = 777;
  probe.rows = {42.0};
  EXPECT_EQ(fleet.migrate(1, probe).outcome, Outcome::kNoDecision);

  // Planning on flags read before rank 0's claim landed, it chooses the
  // claimed link, and the claim refuses it: nothing is extracted, the
  // payload and the elapsed trigger are untouched.
  {
    algo::mutation::ScopedLinkFlagsHidden hidden;
    const MigrationAttempt refused = fleet.migrate(1, probe);
    EXPECT_EQ(refused.outcome, Outcome::kLinkBusy);
    EXPECT_EQ(refused.side, Side::kLeft);
  }
  EXPECT_EQ(probe.owned_count, 777u);
  EXPECT_EQ(probe.rows, std::vector<double>{42.0});
  EXPECT_EQ(fleet.core(1).components(), 6u);
  EXPECT_EQ(fleet.core(1).migrations_out(), 0u);
  EXPECT_TRUE(fleet.core(1).lb_trigger_due());

  // The sender's own iteration start does not free the link; the
  // receiver's absorption does.
  fleet.begin_iteration(0);
  EXPECT_TRUE(fleet.lb_in_flight());
  fleet.core(1).enqueue_migration(Side::kLeft, std::move(sent));
  const auto begin = fleet.begin_iteration(1);
  EXPECT_TRUE(begin.absorbed_from_left);
  EXPECT_FALSE(fleet.lb_in_flight());
  EXPECT_FALSE(fleet.adjacent_link_busy(0));
  EXPECT_EQ(fleet.core(0).components() + fleet.core(1).components(), 12u);
}

TEST(CoreFleetLedger, FamineGuardedExtractionReleasesTheClaim) {
  const auto system = diffusion(6);
  algo::FleetConfig fc = two_rank_config();
  fc.partition = algo::InitialPartition::kSpeedWeighted;
  fc.speeds = {1.0, 2.0};
  algo::CoreFleet fleet(system, fc);
  ASSERT_EQ(fleet.core(0).components(), fleet.min_keep());
  ASSERT_EQ(fleet.core(1).components(), 4u);

  // The balancer's own floor is 1, so it plans a send; the core's famine
  // floor (stencil + 1) then refuses the extraction.
  report_neighbor_load(fleet, 0, Side::kRight, 0.5);
  ode::MigrationPayload payload;
  const MigrationAttempt attempt = fleet.migrate(0, payload);
  EXPECT_EQ(attempt.outcome, Outcome::kGuarded);
  EXPECT_EQ(attempt.side, Side::kRight);
  EXPECT_FALSE(fleet.lb_in_flight());
  EXPECT_FALSE(fleet.adjacent_link_busy(1));
  EXPECT_EQ(payload.owned_count, 0u);
  EXPECT_EQ(fleet.core(0).components(), fleet.min_keep());
  EXPECT_EQ(fleet.core(0).migrations_out(), 0u);

  // The released link is free for the neighbour's claim.
  report_neighbor_load(fleet, 1, Side::kLeft, 0.5);
  EXPECT_EQ(fleet.migrate(1, payload).outcome, Outcome::kExtracted);
  EXPECT_TRUE(fleet.lb_in_flight());
}

}  // namespace
