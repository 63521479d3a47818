/// \file pool_stress_test.cc
/// \brief ParallelForMorsel's completion handshake under many short calls.
///
/// A ParallelForMorsel call keeps its completion mutex and condition variable
/// on the caller's stack. A worker that touches them after the caller has
/// returned works on a dead frame that later calls reuse. Many short
/// two-worker calls with the stack overwritten between them give such a late
/// touch many chances to land on a reused frame; ThreadSanitizer reports it,
/// and in plain builds it aborts inside pthread_mutex_lock.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>

#include "accel/thread_pool.h"

namespace dl2sql {
namespace {

constexpr int kCalls = 20000;

/// Overwrites the stack region the next ParallelForMorsel frame will occupy.
[[gnu::noinline]] void ScribbleStack() {
  volatile unsigned char frame[4096];
  std::memset(const_cast<unsigned char*>(frame), 0xA5, sizeof(frame));
}

TEST(PoolStressTest, ShortTwoWorkerCallsSurviveStackReuse) {
  ThreadPool pool(2);
  std::atomic<int64_t> rows{0};
  for (int call = 0; call < kCalls; ++call) {
    const Status s =
        pool.ParallelForMorsel(2, 1, [&](int64_t begin, int64_t end, int) {
          rows.fetch_add(end - begin, std::memory_order_relaxed);
          return Status::OK();
        });
    ASSERT_TRUE(s.ok()) << s.ToString();
    ScribbleStack();
  }
  EXPECT_EQ(rows.load(), 2 * kCalls);
}

TEST(PoolStressTest, FailingCallsSurviveStackReuse) {
  ThreadPool pool(2);
  for (int call = 0; call < kCalls / 4; ++call) {
    const Status s = pool.ParallelForMorsel(
        4, 1, [](int64_t begin, int64_t, int) -> Status {
          if (begin == 1) return Status::InvalidArgument("morsel ", begin);
          return Status::OK();
        });
    ASSERT_FALSE(s.ok());
    ScribbleStack();
  }
}

}  // namespace
}  // namespace dl2sql
