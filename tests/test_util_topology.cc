// Tests for util/topology: the machine thread-count default and the
// SpawnThread chokepoint.
#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "util/topology.h"

namespace querc::util {
namespace {

TEST(TopologyTest, DefaultThreadCountNeverZero) {
  EXPECT_GE(DefaultThreadCount(), 1u);
  size_t hw = std::thread::hardware_concurrency();
  EXPECT_EQ(DefaultThreadCount(), hw == 0 ? 1u : hw);
}

TEST(TopologyTest, SpawnThreadRunsBodyAndJoins) {
  std::atomic<bool> ran{false};
  std::thread t = SpawnThread("querc-test", [&ran] {
    ran.store(true, std::memory_order_release);
  });
  ASSERT_TRUE(t.joinable());
  t.join();
  EXPECT_TRUE(ran.load(std::memory_order_acquire));
}

TEST(TopologyTest, SpawnThreadTruncatesLongNames) {
  // Linux caps thread names at 15 chars + NUL; a longer tag must be
  // truncated silently, not rejected.
  std::atomic<bool> ran{false};
  std::thread t = SpawnThread("querc-very-long-thread-name-tag",
                              [&ran] { ran.store(true); });
  t.join();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace querc::util
