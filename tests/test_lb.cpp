// Unit and property tests for the load-balancing module: estimators and
// the Bertsekas-Tsitsiklis neighbor balancer.
#include <gtest/gtest.h>

#include "lb/balancer.hpp"
#include "lb/estimators.hpp"

namespace {

using namespace aiac::lb;

TEST(Estimators, ResidualEstimatorReturnsResidual) {
  ResidualEstimator est;
  NodeLoadInputs in;
  in.residual = 0.125;
  in.last_iteration_seconds = 99.0;
  EXPECT_DOUBLE_EQ(est.estimate(in), 0.125);
}

TEST(Estimators, FactoryCoversAllKinds) {
  for (auto kind :
       {EstimatorKind::kResidual, EstimatorKind::kIterationTime,
        EstimatorKind::kComponentCount, EstimatorKind::kResidualTime}) {
    auto est = make_estimator(kind);
    ASSERT_NE(est, nullptr);
    EXPECT_FALSE(est->name().empty());
    EXPECT_EQ(to_string(kind), est->name());
  }
}

TEST(Estimators, ResidualTimeCombinesBoth) {
  ResidualTimeEstimator est;
  NodeLoadInputs in;
  in.residual = 0.5;
  in.last_iteration_seconds = 4.0;
  EXPECT_DOUBLE_EQ(est.estimate(in), 2.0);
}

BalancerConfig tuned() {
  BalancerConfig c;
  c.threshold_ratio = 2.0;
  c.min_components = 4;
  c.migration_fraction = 1.0;
  c.max_fraction_per_migration = 0.5;
  return c;
}

TEST(NeighborBalancer, NoNeighborsNoAction) {
  NeighborBalancer balancer(tuned());
  BalanceView view;
  view.my_load = 100.0;
  view.my_components = 50;
  EXPECT_EQ(balancer.decide(view).action, BalanceDecision::Action::kNone);
}

TEST(NeighborBalancer, SendsOnlyAboveThreshold) {
  NeighborBalancer balancer(tuned());
  BalanceView view;
  view.my_load = 10.0;
  view.my_components = 50;
  view.left_load = 6.0;  // ratio 1.67 < 2: no action
  EXPECT_EQ(balancer.decide(view).action, BalanceDecision::Action::kNone);
  view.left_load = 4.0;  // ratio 2.5 > 2: send left
  const auto d = balancer.decide(view);
  EXPECT_EQ(d.action, BalanceDecision::Action::kSendLeft);
  EXPECT_GT(d.amount, 0u);
}

TEST(NeighborBalancer, PicksLightestNeighbor) {
  NeighborBalancer balancer(tuned());
  BalanceView view;
  view.my_load = 10.0;
  view.my_components = 40;
  view.left_load = 2.0;
  view.right_load = 1.0;
  EXPECT_EQ(balancer.decide(view).action,
            BalanceDecision::Action::kSendRight);
  view.right_load = 3.0;
  EXPECT_EQ(balancer.decide(view).action, BalanceDecision::Action::kSendLeft);
}

TEST(NeighborBalancer, LeftFirstSelectionMatchesPaperOrdering) {
  auto config = tuned();
  config.selection = BalancerConfig::Selection::kLeftFirst;
  NeighborBalancer balancer(config);
  BalanceView view;
  view.my_load = 10.0;
  view.my_components = 40;
  view.left_load = 2.0;
  view.right_load = 1.0;  // lighter, but left is tested first
  EXPECT_EQ(balancer.decide(view).action, BalanceDecision::Action::kSendLeft);
}

TEST(NeighborBalancer, BusyLinkSuppressesThatDirection) {
  NeighborBalancer balancer(tuned());
  BalanceView view;
  view.my_load = 10.0;
  view.my_components = 40;
  view.left_load = 1.0;
  view.left_link_busy = true;
  view.right_load = 2.0;
  EXPECT_EQ(balancer.decide(view).action,
            BalanceDecision::Action::kSendRight);
  view.right_link_busy = true;
  EXPECT_EQ(balancer.decide(view).action, BalanceDecision::Action::kNone);
}

TEST(NeighborBalancer, FamineGuardBlocksSmallNodes) {
  NeighborBalancer balancer(tuned());
  EXPECT_EQ(balancer.amount_to_send(10.0, 0.0, 4), 0u);  // at the floor
  EXPECT_EQ(balancer.amount_to_send(10.0, 0.0, 3), 0u);  // below it
  const std::size_t amount = balancer.amount_to_send(10.0, 0.0, 40);
  EXPECT_GT(amount, 0u);
  EXPECT_LE(amount, 36u);
}

TEST(NeighborBalancer, CapLimitsSingleMigration) {
  auto config = tuned();
  config.max_fraction_per_migration = 0.1;
  NeighborBalancer balancer(config);
  // Converged neighbor (load 0) attracts at most 10% of the components.
  EXPECT_LE(balancer.amount_to_send(10.0, 0.0, 100), 10u);
}

TEST(NeighborBalancer, ZeroLoadNodeNeverSends) {
  NeighborBalancer balancer(tuned());
  BalanceView view;
  view.my_load = 0.0;
  view.my_components = 100;
  view.left_load = 0.0;
  EXPECT_EQ(balancer.decide(view).action, BalanceDecision::Action::kNone);
}

TEST(NeighborBalancer, RejectsBadConfig) {
  BalancerConfig c;
  c.threshold_ratio = 1.0;
  EXPECT_THROW(NeighborBalancer{c}, std::invalid_argument);
  c = {};
  c.migration_fraction = 0.0;
  EXPECT_THROW(NeighborBalancer{c}, std::invalid_argument);
  c = {};
  c.trigger_period = 0;
  EXPECT_THROW(NeighborBalancer{c}, std::invalid_argument);
}

}  // namespace
