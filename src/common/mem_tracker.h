/// \file mem_tracker.h
/// \brief Hierarchical per-query memory accounting.
///
/// The paper's comparison hinges on *where* each in-database inference
/// approach spends its resources (relation materialization size, UDF
/// invocation cost, batch amortization). A MemTracker tree attributes every
/// large allocation to the query/operator that made it:
///
///   process                      (root, MemTracker::Process())
///   ├── session-<id>             (owned by server::Session)
///   │   └── query-<seq>          (per ExecuteStatementRecorded call)
///   │       ├── op.join          (per-PlanKind operator trackers)
///   │       └── op.aggregate
///   ├── cache.<name>             (ShardedLruCache entry charges)
///   ├── catalog                  (Table/Column storage)
///   └── exec.arena               (pooled VectorBatch buffers)
///
/// Consume/Release walk the parent chain with relaxed atomics (a handful of
/// fetch_adds per charge); peak is maintained with a CAS-max. TryConsume
/// additionally checks each ancestor's optional hard limit and returns
/// ResourceExhausted naming the offending tracker — it never aborts, so a
/// budget overrun is an ordinary query error (the ROADMAP's out-of-core item
/// turns exactly this failure into a spill).
///
/// Gate semantics mirror the trace/vector switches: `DL2SQL_MEM_TRACKER=OFF`
/// in the environment turns the whole resource-accounting layer — memory
/// charges AND the CPU/wait-state sampling that keys off
/// MemTracker::Enabled() — into a single relaxed atomic load per call site.
/// Accounting must never change query results; the bit-identity test pins
/// that, and bench/profile_overhead.cc pins the <5% overhead budget.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace dl2sql {

/// CPU nanoseconds consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID);
/// 0 where the clock is unavailable. Deltas of this around an execution region
/// are the "cpu" half of the per-query cpu-vs-wait attribution.
int64_t ThreadCpuNanos();

/// \brief One node in the memory-accounting tree. Thread-safe.
///
/// A tracker's `consumption` includes everything charged to it and to its
/// descendants (charges propagate up at Consume time, so reading any node is
/// one relaxed load). The destructor releases outstanding consumption from
/// every ancestor, so a leaked charge is bounded by its tracker's lifetime.
class MemTracker {
 public:
  /// `limit_bytes` <= 0 means unlimited. `parent` must outlive this tracker.
  explicit MemTracker(std::string label, MemTracker* parent = nullptr,
                      int64_t limit_bytes = 0);
  ~MemTracker();

  MemTracker(const MemTracker&) = delete;
  MemTracker& operator=(const MemTracker&) = delete;

  /// Process-wide root tracker (leaked singleton, like TraceCollector).
  static MemTracker* Process();

  /// Runtime gate for the whole resource-accounting layer. Initialized once
  /// from the DL2SQL_MEM_TRACKER env var (OFF/off/0 disable). A disabled
  /// tracker still exists — charges are no-ops.
  static bool Enabled();

  /// Flips the runtime gate (tests and the overhead bench).
  static void SetEnabled(bool enabled);

  /// Charges `bytes` to this tracker and every ancestor, ignoring limits.
  /// Negative values release. No-op when the gate is off.
  void Consume(int64_t bytes);

  /// Releases `bytes` (asymmetric name for call-site readability).
  void Release(int64_t bytes) { Consume(-bytes); }

  /// Charges `bytes` if no ancestor's hard limit would be exceeded; on
  /// overrun, charges nothing and returns ResourceExhausted naming the
  /// limited tracker, its limit, and current consumption. OK when disabled.
  Status TryConsume(int64_t bytes);

  /// Bytes currently charged to this tracker (includes descendants).
  int64_t consumption() const {
    return consumption_.load(std::memory_order_relaxed);
  }

  /// High-water mark of consumption() over this tracker's lifetime.
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }

  /// Total bytes ever charged (sum of positive charges; never decreases).
  int64_t cumulative() const {
    return cumulative_.load(std::memory_order_relaxed);
  }

  int64_t limit_bytes() const { return limit_bytes_; }
  const std::string& label() const { return label_; }
  MemTracker* parent() const { return parent_; }

 private:
  void ConsumeLocal(int64_t bytes);

  const std::string label_;
  MemTracker* const parent_;
  const int64_t limit_bytes_;
  std::atomic<int64_t> consumption_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<int64_t> cumulative_{0};
};

/// \brief RAII charge against one tracker: releases whatever was charged on
/// destruction. For transient operator state (join build sides, aggregation
/// hash tables) whose lifetime is a lexical scope.
class ScopedMemCharge {
 public:
  explicit ScopedMemCharge(MemTracker* tracker) : tracker_(tracker) {}
  ~ScopedMemCharge() {
    if (tracker_ != nullptr && charged_ != 0) tracker_->Release(charged_);
  }

  ScopedMemCharge(const ScopedMemCharge&) = delete;
  ScopedMemCharge& operator=(const ScopedMemCharge&) = delete;

  /// Limit-checked charge; on ResourceExhausted nothing is charged.
  Status Charge(int64_t bytes) {
    if (tracker_ == nullptr || bytes == 0) return Status::OK();
    Status s = tracker_->TryConsume(bytes);
    if (s.ok()) charged_ += bytes;
    return s;
  }

  /// Unchecked charge (metrics-only call sites).
  void Add(int64_t bytes) {
    if (tracker_ == nullptr || bytes == 0) return;
    tracker_->Consume(bytes);
    charged_ += bytes;
  }

  int64_t charged() const { return charged_; }

 private:
  MemTracker* tracker_;
  int64_t charged_ = 0;
};

/// \brief Batches many small charges into few tracker updates.
///
/// Fine-grained allocators (BatchArena buffer growth) would otherwise pay a
/// parent-chain walk per vector resize; this accumulates locally and flushes
/// to the tracker only when the pending delta crosses `flush_bytes`. The
/// destructor flushes the remainder and releases everything charged.
class BatchedMemCharge {
 public:
  explicit BatchedMemCharge(MemTracker* tracker,
                            int64_t flush_bytes = 64 * 1024)
      : tracker_(tracker), flush_bytes_(flush_bytes) {}
  ~BatchedMemCharge() {
    if (tracker_ == nullptr) return;
    if (pending_ != 0) Flush();
    if (charged_ != 0) tracker_->Release(charged_);
  }

  BatchedMemCharge(const BatchedMemCharge&) = delete;
  BatchedMemCharge& operator=(const BatchedMemCharge&) = delete;

  void Add(int64_t bytes) {
    if (tracker_ == nullptr || bytes == 0) return;
    pending_ += bytes;
    if (pending_ >= flush_bytes_ || pending_ <= -flush_bytes_) Flush();
  }

  void Flush() {
    if (tracker_ == nullptr || pending_ == 0) return;
    tracker_->Consume(pending_);
    charged_ += pending_;
    pending_ = 0;
  }

 private:
  MemTracker* tracker_;
  const int64_t flush_bytes_;
  int64_t pending_ = 0;
  int64_t charged_ = 0;
};

}  // namespace dl2sql
