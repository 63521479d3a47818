/// \file session.h
/// \brief QueryService + Session: the thread-safe concurrent entry path into
/// an embedded Database (see DESIGN.md, "Serving").
///
/// The Database itself stays an embedded engine; QueryService layers the
/// serving concerns on top: admission control, a statement-level
/// reader/writer lock (concurrent SELECTs, exclusive DML/DDL) and per-query
/// budgets.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/trace.h"
#include "db/database.h"
#include "server/admission.h"
#include "server/wire.h"

namespace dl2sql::server {

/// Per-client knobs, adjustable per session (the wire protocol's
/// .format/.maxrows commands).
struct SessionSettings {
  OutputFormat format = OutputFormat::kTsv;
  /// Rows rendered per result; <0 = all (the result itself is never
  /// truncated — this caps the rendering only).
  int64_t render_max_rows = -1;
};

struct ServiceOptions {
  AdmissionOptions admission;
  /// Reject (ResourceExhausted) any statement whose result exceeds this many
  /// rows; 0 = unlimited. A safety valve against accidental cross joins
  /// flooding client connections.
  int64_t max_result_rows = 0;
  /// Statement deadline, best effort: execution is not interrupted
  /// mid-operator, but a statement that finishes past its deadline is
  /// reported (and counted) as ResourceExhausted instead of returning rows.
  /// 0 = no deadline. The hard never-hang guarantee lives in admission
  /// (bounded queue + queue timeout).
  double statement_timeout_ms = 0.0;
};

class Session;

/// \brief Hook the cluster coordinator implements to intercept statements
/// that touch sharded tables (src/cluster/coordinator.h). The service asks
/// Handles() after parsing; handled statements run through Execute() under
/// the same statement-level RW lock as local ones (shared when IsReadOnly),
/// so local and distributed execution still serialize correctly against each
/// other. Implementations must never hang: every shard failure or timeout is
/// a returned status.
class DistributedExecutor {
 public:
  virtual ~DistributedExecutor() = default;

  /// True if `stmt` references distributed state and must be routed.
  virtual bool Handles(const db::Statement& stmt) = 0;

  /// True when the distributed execution of `stmt` only reads (SELECT
  /// scatter-gather); false forces the exclusive lock (DDL/DML fan-out, and
  /// fallback gathers that materialize shard tables locally).
  virtual bool IsReadOnly(const db::Statement& stmt) = 0;

  /// Executes one handled statement end to end (scatter, gather, merge).
  virtual Result<db::Table> Execute(const db::Statement& stmt,
                                    const std::string& sql,
                                    const db::QueryRecordHints& hints) = 0;

  /// \name Distributed observability hooks (defaults keep single-node
  /// servers working unchanged).
  /// @{

  /// Extra Prometheus exposition lines appended to the local /metrics body:
  /// shard-labeled series scraped from each shard's MetricsRegistry plus the
  /// coordinator's per-shard client counters. Best effort — unreachable
  /// shards are skipped. Empty for non-cluster executors.
  virtual std::string FederatedMetricsText() { return std::string(); }

  /// Writes one Chrome-trace file for the last traced distributed query,
  /// one lane (pid) per shard. Default: the local collector's trace.
  virtual Status WriteClusterTrace(const std::string& path) {
    return TraceCollector::Global().WriteChromeTrace(path);
  }

  /// EXPLAIN ANALYZE for a handled statement: runs it and renders the
  /// distributed plan with a per-shard footer (strategy, per-shard
  /// latency/rows/bytes, merge cost, slowest shard).
  virtual Result<std::string> ExplainAnalyze(const db::Statement& stmt,
                                             const std::string& sql) {
    (void)stmt;
    (void)sql;
    return Status::InvalidArgument(
        "distributed EXPLAIN ANALYZE is not supported by this executor");
  }

  /// @}
};

/// \brief Owns the serving state for one Database. Create one QueryService,
/// then one Session per client connection; Session::Execute is safe from any
/// thread.
class QueryService {
 public:
  /// When the database has introspection enabled, registers the
  /// system.sessions virtual table (live per-session statement counters).
  /// `db` must outlive the service; no other caller may mutate the database
  /// while serving.
  QueryService(db::Database* db, ServiceOptions options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  std::shared_ptr<Session> CreateSession();

  db::Database* database() { return db_; }
  const ServiceOptions& options() const { return options_; }
  AdmissionController& admission() { return admission_; }

  /// Routes statements the executor claims through it instead of the local
  /// database. Set once after construction, before serving begins (the
  /// pointer is read unsynchronized on the statement path); nullptr restores
  /// local-only execution. Not owned; must be cleared before destruction.
  void set_distributed_executor(DistributedExecutor* executor) {
    distributed_ = executor;
  }
  DistributedExecutor* distributed_executor() const { return distributed_; }

  /// EXPLAIN ANALYZE under admission and the statement lock, routed as
  /// Execute routes; a local run's query tracker parents under the session's.
  Result<std::string> ExplainAnalyze(const std::string& sql,
                                     Session* session);

 private:
  friend class Session;

  /// The concurrent entry path: admission -> parse -> classify -> RW lock ->
  /// execute -> budget checks. Every failure is a status, never a hang.
  /// The session's id, memory tracker, and the measured admission / RW-lock
  /// waits flow into the query log (system.queries, system.query_profiles)
  /// as QueryRecordHints.
  Result<db::Table> Execute(const std::string& sql, Session* session);

  /// Same path with a propagated distributed trace context (installed as the
  /// thread's scoped context so spans and the query-log record carry the
  /// coordinator's ids) and an optional query-log record copy-out for the
  /// wire trailer.
  Result<db::Table> Execute(const std::string& sql, Session* session,
                            const TraceContext& trace,
                            db::QueryLogRecord* record_out);

  /// Whole scripts take the exclusive lock once (DDL/DML heavy by nature).
  Status ExecuteScript(const std::string& script);

  db::Database* const db_;
  const ServiceOptions options_;
  AdmissionController admission_;
  DistributedExecutor* distributed_ = nullptr;
  /// Statement-level RW lock: SELECTs share, everything else is exclusive.
  /// Held once per top-level statement — scalar subqueries re-enter
  /// Database::ExecuteSelect below this layer, so the lock must not be
  /// re-acquired recursively.
  std::shared_mutex exec_mu_;
  std::atomic<uint64_t> next_session_id_{1};
  /// Live sessions behind system.sessions. Weak: a session's lifetime stays
  /// owned by its connection; dead entries are pruned on CreateSession and
  /// at scan time. Only populated when the provider is registered.
  std::mutex sessions_mu_;
  std::vector<std::weak_ptr<Session>> sessions_;
  bool sessions_table_registered_ = false;
};

/// \brief One client's handle onto the service: settings + statistics.
/// A session itself is used by a single connection thread; different
/// sessions execute concurrently.
class Session {
 public:
  Session(QueryService* service, uint64_t id)
      : service_(service), id_(id),
        mem_("session-" + std::to_string(id), MemTracker::Process()) {}

  uint64_t id() const { return id_; }
  SessionSettings& settings() { return settings_; }
  const SessionSettings& settings() const { return settings_; }

  /// Executes one SQL statement through the service.
  Result<db::Table> Execute(const std::string& sql);

  /// Executes one statement under a propagated trace context (".trace" wire
  /// header); `record_out` (optional) receives the statement's query-log
  /// record for the response trailer.
  Result<db::Table> ExecuteTraced(const std::string& sql,
                                  const TraceContext& trace,
                                  db::QueryLogRecord* record_out);

  /// Executes a ';'-separated script under one exclusive lock.
  Status ExecuteScript(const std::string& script);

  /// Statements successfully executed / failed on this session.
  int64_t statements_ok() const {
    return ok_.load(std::memory_order_relaxed);
  }
  int64_t statements_failed() const {
    return failed_.load(std::memory_order_relaxed);
  }

  /// Per-session memory tracker ("session-<id>" under the process root);
  /// each statement's query tracker is parented here, so consumption() is
  /// the session's live tracked bytes and peak() its high-water mark.
  /// Surfaced as the tracked_bytes / tracked_peak_bytes columns of
  /// system.sessions (zeros with DL2SQL_MEM_TRACKER=OFF).
  MemTracker* mem_tracker() { return &mem_; }
  const MemTracker& mem_tracker() const { return mem_; }

 private:
  QueryService* const service_;
  const uint64_t id_;
  MemTracker mem_;
  SessionSettings settings_;
  std::atomic<int64_t> ok_{0};
  std::atomic<int64_t> failed_{0};
};

}  // namespace dl2sql::server
