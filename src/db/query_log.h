/// \file query_log.h
/// \brief Lock-free fixed-capacity ring buffer of finished queries.
///
/// Backs system.queries and the slow-query log. Writers (query threads
/// finishing a statement) take a sequence number with one fetch_add, claim
/// its slot by CAS on the slot's seqlock version and publish through the
/// same version. Recording never blocks on readers; a writer waits on
/// another writer only when the ring has wrapped onto a slot whose older
/// record is still mid-write, and a writer whose slot already holds a newer
/// record (it was lapped) drops its own. Readers (system.queries scans) copy
/// slots out and use the version protocol to detect and skip records that
/// were mid-write, giving torn-free snapshots without stalling the write
/// path.
///
/// Every slot field is an atomic (including the SQL/error text, stored as
/// fixed-size atomic<char> arrays), so concurrent read/write is defined
/// behavior and TSAN-clean by construction; the seqlock only ensures the
/// *combination* of fields a reader returns belongs to one record.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dl2sql::db {

/// Statement class recorded with each query-log entry.
enum class QueryKind : uint8_t {
  kSelect = 0,
  kInsert,
  kUpdate,
  kDelete,
  kDdl,
  kOther,
};

const char* QueryKindName(QueryKind kind);

/// Distributed-strategy code recorded by a coordinator (0 on plain shards
/// and embedded use). Codes mirror cluster::DistStrategy; the label mapping
/// lives here so system.queries can render it without a cluster dependency.
/// 0 = "" (not distributed), 1 = pushdown, 2 = merge_aggregate, 3 = fallback.
const char* DistStrategyLabel(uint8_t code);

/// One finished query, copied out of the ring.
struct QueryLogRecord {
  int64_t id = 0;           ///< monotonically increasing finish sequence
  std::string sql;          ///< statement text (truncated to slot capacity)
  QueryKind kind = QueryKind::kOther;
  std::string error;        ///< empty on success
  int64_t duration_us = 0;
  int64_t rows = 0;         ///< result rows (SELECT) or affected rows (DML)
  int64_t neural_calls = 0;
  int64_t nudf_cache_hits = 0;
  bool plan_cache_hit = false;
  int64_t admission_wait_us = 0;  ///< server-side queueing delay; 0 if direct
  int64_t session_id = 0;         ///< serving-layer session; 0 if direct
  int64_t peak_operator_bytes = 0;  ///< largest single operator output
  int64_t operator_rows = 0;        ///< rows produced across all plan nodes
  int64_t vector_batches = 0;  ///< vectorized batches across all operators
  int64_t end_micros = 0;  ///< finish time, microseconds since trace epoch
  /// \name Resource-accounting profile (zeros with DL2SQL_MEM_TRACKER=OFF)
  /// @{
  int64_t cpu_us = 0;       ///< thread CPU, incl. pool morsels run on behalf
  int64_t lock_wait_us = 0;       ///< session statement RW-lock acquisition
  int64_t pool_queue_wait_us = 0;  ///< submit-to-start delay of pool tasks
  int64_t mem_peak_bytes = 0;      ///< query tracker high-water mark
  int64_t mem_cumulative_bytes = 0;  ///< total bytes ever charged to it
  int64_t spill_bytes = 0;  ///< logical bytes written to spill partitions
  int64_t spill_partitions = 0;  ///< non-empty spill partition runs
  /// @}
  /// \name Distributed tracing / scatter-gather attribution
  /// @{
  uint64_t trace_id = 0;       ///< coordinator-assigned id; 0 = untraced
  uint64_t parent_span_id = 0;  ///< parent span on the coordinator; 0 = root
  uint8_t dist_strategy = 0;   ///< see DistStrategyLabel(); 0 on shards
  int64_t dist_shards = 0;      ///< shards the statement touched
  int64_t dist_slowest_shard = -1;  ///< index of the straggler; -1 = n/a
  int64_t dist_slowest_us = 0;  ///< straggler's shard-side wall time
  int64_t dist_merge_us = 0;    ///< coordinator-side merge/concat time
  /// @}
};

/// \brief The ring. Capacity is fixed at construction; records overwrite the
/// oldest once full.
class QueryLog {
 public:
  /// Longest SQL/error text preserved per record; longer text is truncated
  /// with a trailing "..." so slots stay fixed-size (lock-freedom needs
  /// atomically typed storage, which rules out std::string in slots).
  static constexpr size_t kMaxSqlBytes = 512;
  static constexpr size_t kMaxErrorBytes = 256;

  explicit QueryLog(size_t capacity);
  ~QueryLog();

  /// Publishes one finished query. Wait-free apart from the slot fetch_add.
  void Record(const QueryLogRecord& record);

  /// Copies out every published record, oldest first. Records being written
  /// during the scan are skipped (they reappear complete on the next scan).
  std::vector<QueryLogRecord> Snapshot() const;

  size_t capacity() const { return capacity_; }

  /// Total records ever published (>= capacity once the ring has wrapped).
  /// Total records ever submitted, including any dropped because a newer
  /// record had already taken their slot.
  int64_t total_recorded() const {
    return static_cast<int64_t>(next_.load(std::memory_order_relaxed));
  }

 private:
  struct Slot;

  const size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
};

}  // namespace dl2sql::db
