// The fleet state machine the sim driver and the model checker share:
// the AIAC send-skip with its pending retry, one FIFO per directed link
// for boundaries and migrations, and a stop that hands in-flight payloads
// to their receivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <variant>

#include "algo/fleet_machine.hpp"
#include "ode/linear_diffusion.hpp"

namespace {

using namespace aiac;
using algo::FleetAction;
using algo::FleetMachine;
using algo::Side;
using Kind = algo::FleetAction::Kind;

ode::LinearDiffusion diffusion(std::size_t grid_points) {
  ode::LinearDiffusion::Params params;
  params.grid_points = grid_points;
  return ode::LinearDiffusion(params);
}

/// Two ranks over 12 points; the tolerance is out of reach, so no halt
/// ends a short schedule.
algo::FleetConfig two_ranks() {
  algo::FleetConfig fc;
  fc.processors = 2;
  fc.num_steps = 4;
  fc.t_end = 1.0;
  fc.tolerance = 1e-300;
  return fc;
}

/// Rank 1 starts with three times rank 0's components, its load is its
/// component count, and it balances at its second finish.
algo::FleetConfig lopsided_balancing_ranks() {
  algo::FleetConfig fc = two_ranks();
  fc.partition = algo::InitialPartition::kSpeedWeighted;
  fc.speeds = {1.0, 3.0};
  fc.estimator = lb::EstimatorKind::kComponentCount;
  fc.balancer.threshold_ratio = 1.5;
  fc.balancer.min_components = 1;
  fc.balancer.trigger_period = 1;
  return fc;
}

algo::MachineRules aiac_rules(bool load_balancing) {
  return {algo::Scheme::kAIAC, algo::DetectionMode::kOracle, load_balancing,
          /*park_idle=*/false};
}

void act(FleetMachine& machine, Kind kind, std::size_t rank,
         Side side = Side::kLeft) {
  machine.apply({kind, side, rank, 0}, 0.0);
}

/// Start, depart every staged boundary, finish.
void iterate(FleetMachine& machine, std::size_t rank) {
  act(machine, Kind::kStart, rank);
  for (const Side side : {Side::kLeft, Side::kRight})
    if (machine.fleet().core(rank).has_neighbor(side))
      act(machine, Kind::kDepart, rank, side);
  act(machine, Kind::kFinish, rank);
}

bool enabled(const FleetMachine& machine, const FleetAction& action) {
  const auto actions = machine.newly_enabled();
  return std::find(actions.begin(), actions.end(), action) != actions.end();
}

bool front_is_boundary(const FleetMachine::Channel& ch) {
  return std::holds_alternative<ode::BoundaryMessage>(ch.in_flight.front());
}

/// Runs the lopsided fleet until rank 1 has queued a boundary and then a
/// migration on its link to rank 0.
void boundary_then_migration(FleetMachine& machine) {
  iterate(machine, 0);
  act(machine, Kind::kArriveLink, 1, Side::kLeft);  // rank 1 learns load 3
  iterate(machine, 1);  // boundary leaves toward rank 0; trigger ticks
  iterate(machine, 1);  // departure skipped (busy), then the migration
}

TEST(FleetMachineChannels, BusyLinkSetsPendingAndTheFreeingArrivalSendsFresh) {
  const auto system = diffusion(12);
  FleetMachine machine(system, two_ranks(), aiac_rules(false));
  const FleetMachine::Channel& link = machine.channel(0, Side::kRight);

  iterate(machine, 0);
  ASSERT_EQ(link.in_flight.size(), 1u);
  EXPECT_TRUE(link.busy);
  EXPECT_FALSE(link.pending);

  // Two more iterations while the first boundary travels: both departures
  // are skipped, and the link remembers it owes the receiver an update.
  iterate(machine, 0);
  iterate(machine, 0);
  EXPECT_TRUE(link.pending);
  ASSERT_EQ(link.in_flight.size(), 1u);
  EXPECT_EQ(std::get<ode::BoundaryMessage>(link.in_flight.front())
                .sender_iteration,
            1u);
  ASSERT_EQ(machine.fleet().core(0).iteration(), 3u);

  // The arrival frees the link and dispatches what rank 0 holds now.
  act(machine, Kind::kArriveLink, 1, Side::kLeft);
  EXPECT_EQ(machine.fleet().core(1).data_iteration(Side::kLeft), 1u);
  EXPECT_FALSE(link.pending);
  EXPECT_TRUE(link.busy);
  ASSERT_EQ(link.in_flight.size(), 1u);
  EXPECT_EQ(std::get<ode::BoundaryMessage>(link.in_flight.front())
                .sender_iteration,
            3u);
  EXPECT_TRUE(enabled(machine, {Kind::kArriveLink, Side::kLeft, 1, 0}));

  act(machine, Kind::kArriveLink, 1, Side::kLeft);
  EXPECT_EQ(machine.fleet().core(1).data_iteration(Side::kLeft), 3u);
  EXPECT_FALSE(link.busy);
  EXPECT_TRUE(link.in_flight.empty());
}

TEST(FleetMachineChannels, BoundaryAndMigrationOnOneLinkArriveInSendOrder) {
  const auto system = diffusion(12);
  FleetMachine machine(system, lopsided_balancing_ranks(), aiac_rules(true));
  ASSERT_EQ(machine.fleet().core(0).components(), 3u);
  ASSERT_EQ(machine.fleet().core(1).components(), 9u);
  boundary_then_migration(machine);

  const FleetMachine::Channel& link = machine.channel(1, Side::kLeft);
  ASSERT_EQ(link.in_flight.size(), 2u);
  ASSERT_TRUE(front_is_boundary(link));
  EXPECT_EQ(machine.migrations_in_flight(1, Side::kLeft), 1u);
  const std::size_t moved = machine.in_transit_components();
  ASSERT_GT(moved, 0u);
  const algo::ProcessorCore& receiver = machine.fleet().core(0);

  // The boundary first; its arrival frees the link, and the retry queues
  // behind the migration.
  act(machine, Kind::kArriveLink, 0, Side::kRight);
  EXPECT_EQ(receiver.data_iteration(Side::kRight), 1u);
  EXPECT_EQ(receiver.pending_migration_components(), 0u);
  ASSERT_EQ(link.in_flight.size(), 2u);
  EXPECT_FALSE(front_is_boundary(link));

  act(machine, Kind::kArriveLink, 0, Side::kRight);
  EXPECT_EQ(receiver.pending_migration_components(), moved);
  EXPECT_EQ(receiver.data_iteration(Side::kRight), 1u);

  act(machine, Kind::kArriveLink, 0, Side::kRight);
  EXPECT_EQ(receiver.data_iteration(Side::kRight), 2u);
  EXPECT_TRUE(link.in_flight.empty());
}

TEST(FleetMachineStop, PayloadInFlightGoesToItsReceiver) {
  const auto system = diffusion(12);
  FleetMachine machine(system, lopsided_balancing_ranks(), aiac_rules(true));
  boundary_then_migration(machine);
  const std::size_t moved = machine.in_transit_components();
  ASSERT_GT(moved, 0u);

  machine.stop();
  EXPECT_TRUE(machine.stopped());
  EXPECT_TRUE(machine.enabled_actions().empty());
  EXPECT_EQ(machine.in_transit_components(), 0u);
  const algo::CoreFleet& fleet = machine.fleet();
  EXPECT_EQ(fleet.core(0).pending_migration_components(), moved);
  std::size_t total = 0;
  for (std::size_t p = 0; p < fleet.size(); ++p)
    total += fleet.core(p).components() +
             fleet.core(p).pending_migration_components();
  EXPECT_EQ(total, 12u);
  EXPECT_THROW(act(machine, Kind::kArriveLink, 0, Side::kRight),
               std::logic_error);
}

}  // namespace
