// Tests for the discrete-event simulation kernel: ordering, determinism,
// and the run guards.
#include <gtest/gtest.h>

#include <vector>

#include "des/simulator.hpp"

namespace {

using aiac::des::Simulator;

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, SimultaneousEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.schedule_after(0.5, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
}

TEST(Simulator, RejectsPastAndNegative) {
  Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, StopHaltsTheLoop) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
}

TEST(Simulator, EventBudgetGuardsRunawayLoops) {
  Simulator sim;
  std::function<void()> reschedule = [&] {
    sim.schedule_after(1.0, reschedule);
  };
  sim.schedule_after(1.0, reschedule);
  EXPECT_THROW(sim.run(/*max_events=*/100), std::runtime_error);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

}  // namespace
