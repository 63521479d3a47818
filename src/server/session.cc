#include "server/session.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <utility>
#include <variant>

#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "db/virtual_table.h"

namespace dl2sql::server {

namespace {

struct ServiceMetrics {
  Counter* requests;
  Counter* errors;
  Counter* budget_rows;
  Counter* budget_deadline;
  Counter* sessions;
  Histogram* exec_us;
  Histogram* total_us;

  static const ServiceMetrics& Get() {
    static const ServiceMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      ServiceMetrics out;
      out.requests = r.counter("server.requests");
      out.errors = r.counter("server.errors");
      out.budget_rows = r.counter("server.budget_rows_exceeded");
      out.budget_deadline = r.counter("server.budget_deadline_exceeded");
      out.sessions = r.counter("server.sessions");
      out.exec_us = r.histogram("server.exec_us");
      out.total_us = r.histogram("server.total_us");
      return out;
    }();
    return m;
  }
};

bool IsSelect(const db::Statement& stmt) {
  return std::holds_alternative<std::shared_ptr<db::SelectStmt>>(stmt);
}

}  // namespace

QueryService::QueryService(db::Database* db, ServiceOptions options)
    : db_(db), options_(options), admission_(options.admission) {
  if (db_->introspection_options().enabled) {
    db::TableSchema schema({{"id", db::DataType::kInt64},
                            {"statements_ok", db::DataType::kInt64},
                            {"statements_failed", db::DataType::kInt64},
                            {"tracked_bytes", db::DataType::kInt64},
                            {"tracked_peak_bytes", db::DataType::kInt64}});
    sessions_table_registered_ =
        db_->catalog()
            .RegisterVirtualTable(std::make_shared<db::CallbackVirtualTable>(
                "system.sessions", std::move(schema),
                [this](const db::TableSchema& s) -> Result<db::TablePtr> {
                  auto t = std::make_shared<db::Table>(db::Table{s});
                  std::lock_guard<std::mutex> lock(sessions_mu_);
                  for (const auto& weak : sessions_) {
                    auto session = weak.lock();
                    if (session == nullptr) continue;
                    const MemTracker& mem = *session->mem_tracker();
                    DL2SQL_RETURN_NOT_OK(t->AppendRow(
                        {db::Value::Int(static_cast<int64_t>(session->id())),
                         db::Value::Int(session->statements_ok()),
                         db::Value::Int(session->statements_failed()),
                         db::Value::Int(mem.consumption()),
                         db::Value::Int(mem.peak())}));
                  }
                  return t;
                }))
            .ok();
  }
}

QueryService::~QueryService() {
  if (sessions_table_registered_) {
    db_->catalog().UnregisterVirtualTable("system.sessions");
  }
}

std::shared_ptr<Session> QueryService::CreateSession() {
  ServiceMetrics::Get().sessions->Increment();
  auto session = std::make_shared<Session>(
      this, next_session_id_.fetch_add(1, std::memory_order_relaxed));
  if (sessions_table_registered_) {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions_.erase(std::remove_if(sessions_.begin(), sessions_.end(),
                                   [](const std::weak_ptr<Session>& w) {
                                     return w.expired();
                                   }),
                    sessions_.end());
    sessions_.push_back(session);
  }
  return session;
}

Result<db::Table> QueryService::Execute(const std::string& sql,
                                        Session* session) {
  return Execute(sql, session, TraceContext{}, nullptr);
}

Result<db::Table> QueryService::Execute(const std::string& sql,
                                        Session* session,
                                        const TraceContext& trace,
                                        db::QueryLogRecord* record_out) {
  // Installed before the first span so every span this statement records
  // (server + engine) is stamped with the propagated trace id.
  std::optional<ScopedTraceContext> scoped;
  if (trace.active()) scoped.emplace(trace);
  DL2SQL_TRACE_SPAN("server", "request");
  const ServiceMetrics& m = ServiceMetrics::Get();
  m.requests->Increment();
  Stopwatch total_watch;

  // Parse before admission: syntax errors should not consume a slot.
  DL2SQL_ASSIGN_OR_RETURN(db::Statement stmt, db::sql::ParseStatement(sql));

  Stopwatch wait_watch;
  DL2SQL_ASSIGN_OR_RETURN(AdmissionController::Ticket ticket,
                          admission_.AdmitTicket());
  db::QueryRecordHints hints;
  hints.session_id = static_cast<int64_t>(session->id());
  hints.session_mem = session->mem_tracker();
  hints.admission_wait_us = wait_watch.ElapsedMicros();
  hints.trace_id = trace.trace_id;
  hints.parent_span_id = trace.parent_span_id;
  hints.record_out = record_out;

  Stopwatch exec_watch;
  DistributedExecutor* const dist =
      distributed_ != nullptr && distributed_->Handles(stmt) ? distributed_
                                                             : nullptr;
  Result<db::Table> result = [&]() -> Result<db::Table> {
    const bool shared = dist != nullptr ? dist->IsReadOnly(stmt)
                                        : IsSelect(stmt);
    if (shared) {
      Stopwatch lock_watch;
      std::shared_lock<std::shared_mutex> lock(exec_mu_);
      hints.lock_wait_us = lock_watch.ElapsedMicros();
      DL2SQL_TRACE_SPAN("server", "exec_select");
      if (dist != nullptr) return dist->Execute(stmt, sql, hints);
      return db_->ExecuteStatementRecorded(stmt, sql, hints);
    }
    Stopwatch lock_watch;
    std::unique_lock<std::shared_mutex> lock(exec_mu_);
    hints.lock_wait_us = lock_watch.ElapsedMicros();
    DL2SQL_TRACE_SPAN("server", "exec_write");
    if (dist != nullptr) return dist->Execute(stmt, sql, hints);
    return db_->ExecuteStatementRecorded(stmt, sql, hints);
  }();
  const double exec_seconds = exec_watch.ElapsedSeconds();
  ticket.reset();

  m.exec_us->Record(static_cast<int64_t>(exec_seconds * 1e6));
  m.total_us->Record(total_watch.ElapsedMicros());
  if (!result.ok()) {
    m.errors->Increment();
    return result;
  }
  if (options_.max_result_rows > 0 &&
      result->num_rows() > options_.max_result_rows) {
    m.budget_rows->Increment();
    m.errors->Increment();
    return Status::ResourceExhausted(
        "result has ", result->num_rows(), " rows, over the per-query cap of ",
        options_.max_result_rows);
  }
  if (options_.statement_timeout_ms > 0 &&
      exec_seconds * 1e3 > options_.statement_timeout_ms) {
    m.budget_deadline->Increment();
    m.errors->Increment();
    return Status::ResourceExhausted(
        "statement ran ", exec_seconds * 1e3, " ms, over the deadline of ",
        options_.statement_timeout_ms, " ms");
  }
  return result;
}

Status QueryService::ExecuteScript(const std::string& script) {
  DL2SQL_TRACE_SPAN("server", "script");
  DL2SQL_ASSIGN_OR_RETURN(AdmissionController::Ticket ticket,
                          admission_.AdmitTicket());
  std::unique_lock<std::shared_mutex> lock(exec_mu_);
  return db_->ExecuteScript(script);
}

Result<db::Table> Session::Execute(const std::string& sql) {
  auto result = service_->Execute(sql, this);
  (result.ok() ? ok_ : failed_).fetch_add(1, std::memory_order_relaxed);
  return result;
}

Result<db::Table> Session::ExecuteTraced(const std::string& sql,
                                         const TraceContext& trace,
                                         db::QueryLogRecord* record_out) {
  auto result = service_->Execute(sql, this, trace, record_out);
  (result.ok() ? ok_ : failed_).fetch_add(1, std::memory_order_relaxed);
  return result;
}

Status Session::ExecuteScript(const std::string& script) {
  Status st = service_->ExecuteScript(script);
  (st.ok() ? ok_ : failed_).fetch_add(1, std::memory_order_relaxed);
  return st;
}

}  // namespace dl2sql::server
