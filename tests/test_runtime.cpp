// Tests for the PM²-like in-process message-passing primitives.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "runtime/mailbox.hpp"
#include "runtime/notifier.hpp"
#include "runtime/ordered_mutex.hpp"
#include "runtime/thread_team.hpp"

namespace {

using namespace aiac::runtime;

TEST(Mailbox, FifoOrder) {
  Mailbox<int> box;
  box.push(1);
  box.push(2);
  box.push(3);
  EXPECT_EQ(box.size(), 3u);
  EXPECT_EQ(box.try_pop().value(), 1);
  EXPECT_EQ(box.try_pop().value(), 2);
  EXPECT_EQ(box.try_pop().value(), 3);
  EXPECT_FALSE(box.try_pop().has_value());
  EXPECT_TRUE(box.empty());
}

TEST(Mailbox, NotifiesOnPush) {
  // No sleep-based sequencing: whether the push lands before or after the
  // consumer blocks, the predicate re-check under the notifier lock must
  // see it (the lost-wakeup guarantee the drain loops rely on).
  Notifier notifier;
  Mailbox<int> box(&notifier);
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    notifier.wait_for(std::chrono::seconds(10), [&] { return !box.empty(); });
    got = box.try_pop().has_value();
  });
  box.push(42);
  consumer.join();
  EXPECT_TRUE(got);
}

TEST(SlotBox, LatestValueWins) {
  SlotBox<int> slot;
  EXPECT_FALSE(slot.has_value());
  slot.put(1);
  slot.put(2);  // overwrites the unread value
  EXPECT_EQ(slot.take().value(), 2);
  EXPECT_FALSE(slot.take().has_value());
}

TEST(SlotBox, ConcurrentPutTakeIsSafe) {
  SlotBox<int> slot;
  std::atomic<bool> stop{false};
  std::atomic<int> taken{0};
  std::thread producer([&] {
    for (int i = 1; i <= 2000; ++i) slot.put(i);
    stop = true;
  });
  std::thread consumer([&] {
    int last = 0;
    while (!stop || slot.has_value()) {
      if (auto v = slot.take()) {
        // Values must be observed in nondecreasing order (latest wins).
        EXPECT_GE(*v, last);
        last = *v;
        ++taken;
      }
    }
  });
  producer.join();
  consumer.join();
  EXPECT_GT(taken.load(), 0);
}

TEST(ThreadTeam, RunsEveryRankExactlyOnce) {
  std::vector<std::atomic<int>> hits(8);
  ThreadTeam team;
  team.spawn(8, [&](std::size_t rank) { hits[rank].fetch_add(1); });
  team.join();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Notifier, WaitTimesOutWhenNothingHappens) {
  Notifier notifier;
  const bool result = notifier.wait_for(std::chrono::milliseconds(20),
                                        [] { return false; });
  EXPECT_FALSE(result);
}

TEST(OrderedMutex, AscendingAcquisitionIsAllowed) {
  OrderedMutex low(1);
  OrderedMutex mid(2);
  OrderedMutex high(3);
  std::lock_guard<OrderedMutex> a(low);
  std::lock_guard<OrderedMutex> b(mid);
  std::lock_guard<OrderedMutex> c(high);
  EXPECT_EQ(low.rank(), 1u);
  EXPECT_EQ(high.rank(), 3u);
}

TEST(OrderedMutex, ReacquireAfterReleaseIsAllowed) {
  OrderedMutex low(1);
  OrderedMutex high(2);
  {
    std::lock_guard<OrderedMutex> a(low);
    std::lock_guard<OrderedMutex> b(high);
  }
  // Holding nothing again: the low rank is fine now.
  std::lock_guard<OrderedMutex> a(low);
}

TEST(OrderedMutex, OutOfOrderReleaseIsAllowed) {
  // unique_lock collections release in destruction order, which can invert
  // the acquisition order; only *acquisition* order is ranked.
  OrderedMutex low(1);
  OrderedMutex high(2);
  std::unique_lock<OrderedMutex> a(low);
  std::unique_lock<OrderedMutex> b(high);
  a.unlock();
  b.unlock();
  std::lock_guard<OrderedMutex> c(low);
}

TEST(OrderedMutex, TryLockContendedDoesNotRecordRank) {
  OrderedMutex m(5);
  m.lock();
  std::thread t([&m] {
    EXPECT_FALSE(m.try_lock());
    // The failed try_lock must not have polluted this thread's held set:
    // acquiring a lower rank afterwards is still legal.
    OrderedMutex low(1);
    std::lock_guard<OrderedMutex> g(low);
  });
  t.join();
  m.unlock();
}

using OrderedMutexDeathTest = ::testing::Test;

TEST(OrderedMutexDeathTest, InvertedAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  OrderedMutex low(1);
  OrderedMutex high(2);
  EXPECT_DEATH(
      {
        std::lock_guard<OrderedMutex> a(high);
        std::lock_guard<OrderedMutex> b(low);
      },
      "lock-order violation: acquiring rank 1 while holding rank 2");
}

TEST(OrderedMutexDeathTest, EqualRankAcquisitionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  OrderedMutex a(3);
  OrderedMutex b(3);
  EXPECT_DEATH(
      {
        std::lock_guard<OrderedMutex> ga(a);
        std::lock_guard<OrderedMutex> gb(b);
      },
      "lock-order violation: acquiring rank 3 while holding rank 3");
}

TEST(OrderedMutexDeathTest, ForeignUnlockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  OrderedMutex m(4);
  EXPECT_DEATH(m.unlock(), "unlocking rank 4 this thread does not hold");
}

}  // namespace
