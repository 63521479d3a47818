#include "accel/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/mem_tracker.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace dl2sql {

namespace {

/// True on threads currently executing a pool task. A nested parallel loop
/// issued from such a thread must run inline: blocking a worker on work that
/// needs workers can starve the pool into deadlock once every worker waits.
thread_local bool tls_in_pool_worker = false;

/// Monotone per-thread totals of pool work done on this thread's behalf
/// (resource accounting; see credited_cpu_ns() in the header).
thread_local int64_t tls_credited_cpu_ns = 0;
thread_local int64_t tls_credited_queue_wait_us = 0;

}  // namespace

int64_t ThreadPool::credited_cpu_ns() { return tls_credited_cpu_ns; }

int64_t ThreadPool::credited_queue_wait_us() {
  return tls_credited_queue_wait_us;
}

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  worker_busy_us_ = std::make_unique<std::atomic<int64_t>[]>(
      static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) worker_busy_us_[static_cast<size_t>(i)] = 0;
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  tls_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (shutdown_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
  }
  cv_.notify_one();
}

Status ThreadPool::RunMorsel(const MorselFn& fn, int64_t begin, int64_t end,
                             int worker, std::atomic<int64_t>* cpu_ns_out) {
  const int64_t t0 = TraceCollector::NowMicros();
  const int64_t cpu0 = cpu_ns_out != nullptr ? ThreadCpuNanos() : 0;
  Status s;
  if (TraceCollector::Global().enabled()) {
    DL2SQL_TRACE_SPAN("pool", "morsel",
                      "\"worker\":" + std::to_string(worker) +
                          ",\"begin\":" + std::to_string(begin) +
                          ",\"end\":" + std::to_string(end));
    s = fn(begin, end, worker);
  } else {
    s = fn(begin, end, worker);
  }
  const int64_t us = TraceCollector::NowMicros() - t0;
  if (cpu_ns_out != nullptr) {
    cpu_ns_out->fetch_add(ThreadCpuNanos() - cpu0, std::memory_order_relaxed);
  }
  worker_busy_us_[static_cast<size_t>(worker)].fetch_add(
      us, std::memory_order_relaxed);
  // Static handles: one registry lookup for the process lifetime.
  static Counter* const morsels =
      MetricsRegistry::Global().counter("pool.morsels");
  static Histogram* const morsel_us =
      MetricsRegistry::Global().histogram("pool.morsel_us");
  morsels->Increment();
  morsel_us->Record(us);
  return s;
}

Status ThreadPool::ParallelForMorsel(int64_t n, int64_t morsel_size,
                                     const MorselFn& fn) {
  if (n <= 0) return Status::OK();
  morsel_size = std::max<int64_t>(1, morsel_size);

  // Inline path: single-threaded pool, a single morsel's worth of rows, or a
  // nested call from a pool worker. Still iterates morsel-at-a-time so
  // per-morsel output buffers see identical boundaries in every mode.
  if (num_threads() == 1 || n <= morsel_size || tls_in_pool_worker) {
    for (int64_t b = 0; b < n; b += morsel_size) {
      DL2SQL_RETURN_NOT_OK(
          RunMorsel(fn, b, std::min(n, b + morsel_size), 0, nullptr));
    }
    return Status::OK();
  }

  const int64_t num_morsels = (n + morsel_size - 1) / morsel_size;
  const int workers =
      static_cast<int>(std::min<int64_t>(num_threads(), num_morsels));

  // Attribution accumulators for this call; credited to the calling thread's
  // monotone counters after the barrier so a query thread can diff them.
  const bool attribute = MemTracker::Enabled();
  std::atomic<int64_t> call_cpu_ns{0};
  std::atomic<int64_t> call_queue_wait_us{0};
  std::atomic<int64_t>* cpu_out = attribute ? &call_cpu_ns : nullptr;

  std::atomic<int64_t> cursor{0};
  std::atomic<bool> failed{false};
  // Guarded by done_mu: the caller's wait predicate reads it under the same
  // lock, so the last worker's decrement and notify both finish before the
  // caller can see 0, return, and destroy this frame's done_mu/done_cv.
  int remaining = workers;
  Status first_error;
  std::mutex done_mu;
  std::condition_variable done_cv;

  for (int w = 0; w < workers; ++w) {
    const int64_t submitted_us = attribute ? TraceCollector::NowMicros() : 0;
    Submit([&, w, submitted_us] {
      if (attribute) {
        call_queue_wait_us.fetch_add(
            TraceCollector::NowMicros() - submitted_us,
            std::memory_order_relaxed);
      }
      while (!failed.load(std::memory_order_relaxed)) {
        const int64_t begin = cursor.fetch_add(morsel_size);
        if (begin >= n) break;
        Status s =
            RunMorsel(fn, begin, std::min(n, begin + morsel_size), w, cpu_out);
        if (!s.ok()) {
          std::lock_guard<std::mutex> lock(done_mu);
          if (first_error.ok()) first_error = std::move(s);
          failed.store(true, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(done_mu);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (attribute) {
    tls_credited_cpu_ns += call_cpu_ns.load(std::memory_order_relaxed);
    tls_credited_queue_wait_us +=
        call_queue_wait_us.load(std::memory_order_relaxed);
  }
  return first_error;
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t, int64_t)>& fn) {
  if (n <= 0) return;
  // Chunking below ~1k iterations per worker costs more in wakeups than it
  // buys in parallelism for our kernels.
  if (num_threads() == 1 || n < 1024 || tls_in_pool_worker) {
    fn(0, n);
    return;
  }
  // Dynamic morsels sized for ~4 morsels per worker so a slow chunk (NUMA
  // page faults, skewed rows) no longer pins the whole loop's tail latency to
  // one worker, while staying coarse enough to keep cursor traffic trivial.
  const int64_t morsel =
      std::max<int64_t>(512, n / (static_cast<int64_t>(num_threads()) * 4));
  (void)ParallelForMorsel(n, morsel, [&fn](int64_t b, int64_t e, int) {
    fn(b, e);
    return Status::OK();
  });
}

}  // namespace dl2sql
