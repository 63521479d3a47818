#include "db/query_log.h"

#include <algorithm>
#include <cstring>
#include <thread>

namespace dl2sql::db {

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSelect:
      return "select";
    case QueryKind::kInsert:
      return "insert";
    case QueryKind::kUpdate:
      return "update";
    case QueryKind::kDelete:
      return "delete";
    case QueryKind::kDdl:
      return "ddl";
    case QueryKind::kOther:
      return "other";
  }
  return "other";
}

const char* DistStrategyLabel(uint8_t code) {
  switch (code) {
    case 1:
      return "pushdown";
    case 2:
      return "merge_aggregate";
    case 3:
      return "fallback";
    default:
      return "";
  }
}

namespace {

/// Stores `text` (truncated with "..." past `cap`) into an atomic<char>
/// array, returning the stored length. Relaxed stores: the slot's seqlock
/// version (release-published) orders them for readers.
template <size_t N>
uint16_t StoreText(std::atomic<char> (&dst)[N], const std::string& text) {
  size_t len = text.size();
  if (len > N) {
    len = N;
    for (size_t i = 0; i < N - 3; ++i) {
      dst[i].store(text[i], std::memory_order_relaxed);
    }
    for (size_t i = N - 3; i < N; ++i) {
      dst[i].store('.', std::memory_order_relaxed);
    }
  } else {
    for (size_t i = 0; i < len; ++i) {
      dst[i].store(text[i], std::memory_order_relaxed);
    }
  }
  return static_cast<uint16_t>(len);
}

template <size_t N>
std::string LoadText(const std::atomic<char> (&src)[N], uint16_t len) {
  const size_t n = std::min<size_t>(len, N);
  std::string out(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    out[i] = src[i].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace

/// Seqlock protocol per slot: a writer claims the slot by CAS from a
/// published (even) version older than its own to 2*seq+1 (odd:
/// in-progress), writes every field, then stores 2*seq+2 (even: published).
/// At most one writer is ever inside a slot: a writer that finds an older
/// writer mid-write waits for it, and one that finds a newer version
/// (claimed or published) has been lapped and drops its record, which is
/// already outside the ring's window. A reader accepts a slot only if it
/// observes the same even version before and after copying the fields.
struct QueryLog::Slot {
  std::atomic<uint64_t> version{0};  ///< 0 = never written
  std::atomic<int64_t> id{0};
  std::atomic<int64_t> duration_us{0};
  std::atomic<int64_t> rows{0};
  std::atomic<int64_t> neural_calls{0};
  std::atomic<int64_t> nudf_cache_hits{0};
  std::atomic<int64_t> admission_wait_us{0};
  std::atomic<int64_t> session_id{0};
  std::atomic<int64_t> peak_operator_bytes{0};
  std::atomic<int64_t> operator_rows{0};
  std::atomic<int64_t> vector_batches{0};
  std::atomic<int64_t> end_micros{0};
  std::atomic<int64_t> cpu_us{0};
  std::atomic<int64_t> lock_wait_us{0};
  std::atomic<int64_t> pool_queue_wait_us{0};
  std::atomic<int64_t> mem_peak_bytes{0};
  std::atomic<int64_t> mem_cumulative_bytes{0};
  std::atomic<int64_t> spill_bytes{0};
  std::atomic<int64_t> spill_partitions{0};
  std::atomic<uint64_t> trace_id{0};
  std::atomic<uint64_t> parent_span_id{0};
  std::atomic<int64_t> dist_shards{0};
  std::atomic<int64_t> dist_slowest_shard{-1};
  std::atomic<int64_t> dist_slowest_us{0};
  std::atomic<int64_t> dist_merge_us{0};
  std::atomic<uint8_t> dist_strategy{0};
  std::atomic<uint16_t> sql_len{0};
  std::atomic<uint16_t> error_len{0};
  std::atomic<uint8_t> kind{0};
  std::atomic<uint8_t> plan_cache_hit{0};
  std::atomic<char> sql[kMaxSqlBytes];
  std::atomic<char> error[kMaxErrorBytes];
};

QueryLog::QueryLog(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(new Slot[capacity == 0 ? 1 : capacity]) {
  for (size_t s = 0; s < capacity_; ++s) {
    for (auto& c : slots_[s].sql) c.store('\0', std::memory_order_relaxed);
    for (auto& c : slots_[s].error) c.store('\0', std::memory_order_relaxed);
  }
}

QueryLog::~QueryLog() = default;

void QueryLog::Record(const QueryLogRecord& record) {
  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % capacity_];
  const uint64_t claim = 2 * seq + 1;
  uint64_t cur = slot.version.load(std::memory_order_relaxed);
  for (;;) {
    if (cur > claim) return;  // lapped by a newer record
    if ((cur & 1) != 0) {
      // An older record's writer is mid-write; it is a few stores from done.
      std::this_thread::yield();
      cur = slot.version.load(std::memory_order_relaxed);
      continue;
    }
    if (slot.version.compare_exchange_weak(cur, claim,
                                           std::memory_order_relaxed)) {
      break;
    }
  }
  // Orders the odd claim before every field store (readers that see any of
  // this record's fields also see the claim and reject the copy).
  std::atomic_thread_fence(std::memory_order_release);
  slot.id.store(static_cast<int64_t>(seq), std::memory_order_relaxed);
  slot.duration_us.store(record.duration_us, std::memory_order_relaxed);
  slot.rows.store(record.rows, std::memory_order_relaxed);
  slot.neural_calls.store(record.neural_calls, std::memory_order_relaxed);
  slot.nudf_cache_hits.store(record.nudf_cache_hits,
                             std::memory_order_relaxed);
  slot.admission_wait_us.store(record.admission_wait_us,
                               std::memory_order_relaxed);
  slot.session_id.store(record.session_id, std::memory_order_relaxed);
  slot.peak_operator_bytes.store(record.peak_operator_bytes,
                                 std::memory_order_relaxed);
  slot.operator_rows.store(record.operator_rows, std::memory_order_relaxed);
  slot.vector_batches.store(record.vector_batches, std::memory_order_relaxed);
  slot.end_micros.store(record.end_micros, std::memory_order_relaxed);
  slot.cpu_us.store(record.cpu_us, std::memory_order_relaxed);
  slot.lock_wait_us.store(record.lock_wait_us, std::memory_order_relaxed);
  slot.pool_queue_wait_us.store(record.pool_queue_wait_us,
                                std::memory_order_relaxed);
  slot.mem_peak_bytes.store(record.mem_peak_bytes, std::memory_order_relaxed);
  slot.mem_cumulative_bytes.store(record.mem_cumulative_bytes,
                                  std::memory_order_relaxed);
  slot.spill_bytes.store(record.spill_bytes, std::memory_order_relaxed);
  slot.spill_partitions.store(record.spill_partitions,
                              std::memory_order_relaxed);
  slot.trace_id.store(record.trace_id, std::memory_order_relaxed);
  slot.parent_span_id.store(record.parent_span_id, std::memory_order_relaxed);
  slot.dist_shards.store(record.dist_shards, std::memory_order_relaxed);
  slot.dist_slowest_shard.store(record.dist_slowest_shard,
                                std::memory_order_relaxed);
  slot.dist_slowest_us.store(record.dist_slowest_us,
                             std::memory_order_relaxed);
  slot.dist_merge_us.store(record.dist_merge_us, std::memory_order_relaxed);
  slot.dist_strategy.store(record.dist_strategy, std::memory_order_relaxed);
  slot.sql_len.store(StoreText(slot.sql, record.sql),
                     std::memory_order_relaxed);
  slot.error_len.store(StoreText(slot.error, record.error),
                       std::memory_order_relaxed);
  slot.kind.store(static_cast<uint8_t>(record.kind),
                  std::memory_order_relaxed);
  slot.plan_cache_hit.store(record.plan_cache_hit ? 1 : 0,
                            std::memory_order_relaxed);
  slot.version.store(claim + 1, std::memory_order_release);
}

std::vector<QueryLogRecord> QueryLog::Snapshot() const {
  std::vector<QueryLogRecord> out;
  out.reserve(capacity_);
  for (size_t s = 0; s < capacity_; ++s) {
    const Slot& slot = slots_[s];
    const uint64_t v1 = slot.version.load(std::memory_order_acquire);
    if (v1 == 0 || (v1 & 1) != 0) continue;  // never written / mid-write
    QueryLogRecord r;
    r.id = slot.id.load(std::memory_order_relaxed);
    r.duration_us = slot.duration_us.load(std::memory_order_relaxed);
    r.rows = slot.rows.load(std::memory_order_relaxed);
    r.neural_calls = slot.neural_calls.load(std::memory_order_relaxed);
    r.nudf_cache_hits = slot.nudf_cache_hits.load(std::memory_order_relaxed);
    r.admission_wait_us =
        slot.admission_wait_us.load(std::memory_order_relaxed);
    r.session_id = slot.session_id.load(std::memory_order_relaxed);
    r.peak_operator_bytes =
        slot.peak_operator_bytes.load(std::memory_order_relaxed);
    r.operator_rows = slot.operator_rows.load(std::memory_order_relaxed);
    r.vector_batches = slot.vector_batches.load(std::memory_order_relaxed);
    r.end_micros = slot.end_micros.load(std::memory_order_relaxed);
    r.cpu_us = slot.cpu_us.load(std::memory_order_relaxed);
    r.lock_wait_us = slot.lock_wait_us.load(std::memory_order_relaxed);
    r.pool_queue_wait_us =
        slot.pool_queue_wait_us.load(std::memory_order_relaxed);
    r.mem_peak_bytes = slot.mem_peak_bytes.load(std::memory_order_relaxed);
    r.mem_cumulative_bytes =
        slot.mem_cumulative_bytes.load(std::memory_order_relaxed);
    r.spill_bytes = slot.spill_bytes.load(std::memory_order_relaxed);
    r.spill_partitions =
        slot.spill_partitions.load(std::memory_order_relaxed);
    r.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    r.parent_span_id = slot.parent_span_id.load(std::memory_order_relaxed);
    r.dist_shards = slot.dist_shards.load(std::memory_order_relaxed);
    r.dist_slowest_shard =
        slot.dist_slowest_shard.load(std::memory_order_relaxed);
    r.dist_slowest_us = slot.dist_slowest_us.load(std::memory_order_relaxed);
    r.dist_merge_us = slot.dist_merge_us.load(std::memory_order_relaxed);
    r.dist_strategy = slot.dist_strategy.load(std::memory_order_relaxed);
    r.sql = LoadText(slot.sql, slot.sql_len.load(std::memory_order_relaxed));
    r.error =
        LoadText(slot.error, slot.error_len.load(std::memory_order_relaxed));
    r.kind = static_cast<QueryKind>(std::min<uint8_t>(
        slot.kind.load(std::memory_order_relaxed),
        static_cast<uint8_t>(QueryKind::kOther)));
    r.plan_cache_hit =
        slot.plan_cache_hit.load(std::memory_order_relaxed) != 0;
    // Accept only if nothing republished the slot while we copied; the
    // fence keeps the field loads above ahead of the second version load.
    std::atomic_thread_fence(std::memory_order_acquire);
    const uint64_t v2 = slot.version.load(std::memory_order_relaxed);
    if (v1 != v2) continue;
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(),
            [](const QueryLogRecord& a, const QueryLogRecord& b) {
              return a.id < b.id;
            });
  return out;
}

}  // namespace dl2sql::db
