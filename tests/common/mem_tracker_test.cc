/// \file mem_tracker_test.cc
/// \brief Hierarchical MemTracker semantics: charge propagation, peak and
/// cumulative counters, limit enforcement via TryConsume, destructor release,
/// the RAII charge helpers, and the runtime gate.
#include "common/mem_tracker.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace dl2sql {
namespace {

/// Forces the gate on for the test body and restores the prior state.
class ScopedTrackingEnabled {
 public:
  ScopedTrackingEnabled() : prior_(MemTracker::Enabled()) {
    MemTracker::SetEnabled(true);
  }
  ~ScopedTrackingEnabled() { MemTracker::SetEnabled(prior_); }

 private:
  const bool prior_;
};

TEST(MemTrackerTest, ChargesPropagateToAncestors) {
  ScopedTrackingEnabled guard;
  MemTracker root("root");
  MemTracker mid("mid", &root);
  MemTracker leaf("leaf", &mid);

  leaf.Consume(100);
  EXPECT_EQ(leaf.consumption(), 100);
  EXPECT_EQ(mid.consumption(), 100);
  EXPECT_EQ(root.consumption(), 100);

  mid.Consume(50);
  EXPECT_EQ(leaf.consumption(), 100);
  EXPECT_EQ(mid.consumption(), 150);
  EXPECT_EQ(root.consumption(), 150);

  leaf.Release(100);
  mid.Release(50);
  EXPECT_EQ(root.consumption(), 0);
}

TEST(MemTrackerTest, PeakAndCumulativeTrackHighWaterAndTotal) {
  ScopedTrackingEnabled guard;
  MemTracker t("t");
  t.Consume(100);
  t.Release(60);
  t.Consume(30);
  EXPECT_EQ(t.consumption(), 70);
  EXPECT_EQ(t.peak(), 100);
  EXPECT_EQ(t.cumulative(), 130);  // releases never reduce cumulative
  t.Release(70);
}

TEST(MemTrackerTest, TryConsumeEnforcesAncestorLimitNamingTracker) {
  ScopedTrackingEnabled guard;
  MemTracker budget("query-7", nullptr, /*limit_bytes=*/1000);
  MemTracker op("op.join", &budget);

  EXPECT_TRUE(op.TryConsume(800).ok());
  const Status overrun = op.TryConsume(300);
  ASSERT_FALSE(overrun.ok());
  EXPECT_EQ(overrun.code(), StatusCode::kResourceExhausted);
  // Names the limited tracker and the leaf that asked.
  EXPECT_NE(overrun.ToString().find("query-7"), std::string::npos)
      << overrun.ToString();
  EXPECT_NE(overrun.ToString().find("op.join"), std::string::npos)
      << overrun.ToString();
  // Failed attempt charged nothing.
  EXPECT_EQ(budget.consumption(), 800);
  // Still room below the limit.
  EXPECT_TRUE(op.TryConsume(200).ok());
  op.Release(1000);
}

TEST(MemTrackerTest, DestructorReleasesOutstandingFromAncestors) {
  ScopedTrackingEnabled guard;
  MemTracker root("root");
  {
    MemTracker child("child", &root);
    child.Consume(512);
    EXPECT_EQ(root.consumption(), 512);
  }
  EXPECT_EQ(root.consumption(), 0);
}

TEST(MemTrackerTest, ScopedChargeReleasesOnScopeExit) {
  ScopedTrackingEnabled guard;
  MemTracker t("t", nullptr, /*limit_bytes=*/100);
  {
    ScopedMemCharge charge(&t);
    EXPECT_TRUE(charge.Charge(60).ok());
    EXPECT_FALSE(charge.Charge(60).ok());  // over the limit, nothing charged
    charge.Add(10);                        // unchecked
    EXPECT_EQ(charge.charged(), 70);
    EXPECT_EQ(t.consumption(), 70);
  }
  EXPECT_EQ(t.consumption(), 0);
}

TEST(MemTrackerTest, BatchedChargeFlushesAtThresholdAndReleasesAll) {
  ScopedTrackingEnabled guard;
  MemTracker t("t");
  {
    BatchedMemCharge charge(&t, /*flush_bytes=*/100);
    charge.Add(40);
    EXPECT_EQ(t.consumption(), 0);  // below threshold, still pending
    charge.Add(70);
    EXPECT_EQ(t.consumption(), 110);  // crossed, flushed
    charge.Add(5);
  }
  EXPECT_EQ(t.consumption(), 0);  // dtor flushed the 5 and released 115
}

TEST(MemTrackerTest, DisabledGateMakesChargesNoOps) {
  ScopedTrackingEnabled guard;
  MemTracker t("t", nullptr, /*limit_bytes=*/10);
  MemTracker::SetEnabled(false);
  t.Consume(1000);
  EXPECT_EQ(t.consumption(), 0);
  EXPECT_TRUE(t.TryConsume(1000).ok());  // limits not enforced either
  EXPECT_EQ(t.peak(), 0);
  MemTracker::SetEnabled(true);
}

TEST(MemTrackerTest, ConcurrentChargesSumExactly) {
  ScopedTrackingEnabled guard;
  MemTracker root("root");
  MemTracker child("child", &root);
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&child] {
      for (int n = 0; n < kIters; ++n) {
        child.Consume(3);
        child.Release(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(child.consumption(), kThreads * kIters * 2);
  EXPECT_EQ(root.consumption(), kThreads * kIters * 2);
  EXPECT_GE(child.peak(), child.consumption());
  child.Release(child.consumption());
}

TEST(MemTrackerTest, ProcessRootIsSharedSingleton) {
  EXPECT_EQ(MemTracker::Process(), MemTracker::Process());
  EXPECT_EQ(MemTracker::Process()->parent(), nullptr);
}

TEST(ThreadCpuTest, CpuClockAdvancesUnderWork) {
  const int64_t before = ThreadCpuNanos();
  if (before == 0) GTEST_SKIP() << "thread CPU clock unavailable";
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 2'000'000; ++i) sink = sink + i * i;
  (void)sink;
  EXPECT_GT(ThreadCpuNanos(), before);
}

}  // namespace
}  // namespace dl2sql
