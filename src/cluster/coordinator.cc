#include "cluster/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <thread>
#include <utility>

#include "cluster/hash_partitioner.h"
#include "cluster/merge.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "db/query_log.h"
#include "db/sql/printer.h"

namespace dl2sql::cluster {

namespace {

struct ClusterMetrics {
  Counter* pushdown;
  Counter* merge_agg;
  Counter* fallback;
  Counter* broadcast_writes;
  Counter* routed_rows;

  static const ClusterMetrics& Get() {
    static const ClusterMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return ClusterMetrics{r.counter("cluster.select.pushdown"),
                            r.counter("cluster.select.merge_aggregate"),
                            r.counter("cluster.select.fallback"),
                            r.counter("cluster.write.broadcasts"),
                            r.counter("cluster.insert.rows_routed")};
    }();
    return m;
  }
};

db::QueryKind KindOfStatement(const db::Statement& stmt) {
  if (std::holds_alternative<std::shared_ptr<db::SelectStmt>>(stmt)) {
    return db::QueryKind::kSelect;
  }
  if (std::holds_alternative<db::InsertStmt>(stmt)) {
    return db::QueryKind::kInsert;
  }
  if (std::holds_alternative<db::UpdateStmt>(stmt)) {
    return db::QueryKind::kUpdate;
  }
  if (std::holds_alternative<db::DeleteStmt>(stmt)) {
    return db::QueryKind::kDelete;
  }
  return db::QueryKind::kDdl;
}

void CollectReferencedTables(const db::SelectStmt& stmt,
                             std::vector<std::string>* out);

void CollectReferencedTablesExpr(const db::Expr& e,
                                 std::vector<std::string>* out) {
  if (e.subquery != nullptr) CollectReferencedTables(*e.subquery, out);
  for (const auto& child : e.children) {
    if (child != nullptr) CollectReferencedTablesExpr(*child, out);
  }
}

/// Every table name a SELECT mentions syntactically: FROM, joins, derived
/// tables, and scalar subqueries anywhere in the statement.
void CollectReferencedTables(const db::SelectStmt& stmt,
                             std::vector<std::string>* out) {
  auto visit_ref = [&](const db::TableRef& ref) {
    if (ref.IsDerived()) {
      CollectReferencedTables(*ref.subquery, out);
    } else if (!ref.table_name.empty()) {
      out->push_back(ref.table_name);
    }
  };
  if (stmt.from) visit_ref(*stmt.from);
  for (const auto& j : stmt.joins) visit_ref(j.table);
  for (const auto& item : stmt.items) {
    if (item.expr != nullptr) CollectReferencedTablesExpr(*item.expr, out);
  }
  if (stmt.where != nullptr) CollectReferencedTablesExpr(*stmt.where, out);
  for (const auto& g : stmt.group_by) {
    if (g != nullptr) CollectReferencedTablesExpr(*g, out);
  }
  if (stmt.having != nullptr) CollectReferencedTablesExpr(*stmt.having, out);
  for (const auto& o : stmt.order_by) {
    if (o.expr != nullptr) CollectReferencedTablesExpr(*o.expr, out);
  }
}

bool StatementHasSubquery(const db::Expr& e) {
  if (e.kind == db::ExprKind::kScalarSubquery) return true;
  for (const auto& child : e.children) {
    if (child != nullptr && StatementHasSubquery(*child)) return true;
  }
  return false;
}

/// SQL type token for broadcast DDL, chosen from the names LookupTypeName
/// accepts so the shard parses the reconstructed statement back to the same
/// schema.
Result<const char*> DdlTypeName(db::DataType type) {
  switch (type) {
    case db::DataType::kInt64:
      return "int64";
    case db::DataType::kFloat64:
      return "float64";
    case db::DataType::kString:
      return "text";
    case db::DataType::kBool:
      return "bool";
    case db::DataType::kBlob:
      return "blob";
    default:
      return Status::NotImplemented("column type ", db::DataTypeToString(type),
                                    " cannot be broadcast as DDL");
  }
}

/// The partition key of one VALUES cell. Only literals (and negated numeric
/// literals) qualify: routing must not depend on coordinator-side expression
/// evaluation the shards would repeat differently.
Result<db::Value> LiteralPartitionKey(const db::Expr& e) {
  if (e.kind == db::ExprKind::kLiteral) return e.literal;
  if (e.kind == db::ExprKind::kUnary && e.un_op == db::UnaryOp::kNeg &&
      !e.children.empty() && e.children[0] != nullptr &&
      e.children[0]->kind == db::ExprKind::kLiteral) {
    const db::Value& v = e.children[0]->literal;
    if (v.type() == db::DataType::kInt64) return db::Value::Int(-v.int_value());
    if (v.type() == db::DataType::kFloat64) {
      return db::Value::Float(-v.float_value());
    }
  }
  return Status::NotImplemented(
      "INSERT into a sharded table needs a literal partition key, got ",
      db::sql::PrintExpr(e));
}

/// Renders a materialized value back to a SQL literal for INSERT..SELECT
/// routing. Strings with embedded newlines are rejected: the line protocol
/// flattens newlines, so they cannot round-trip.
Result<std::string> FormatSqlLiteral(const db::Value& v) {
  switch (v.type()) {
    case db::DataType::kNull:
      return std::string("NULL");
    case db::DataType::kBool:
      return std::string(v.bool_value() ? "TRUE" : "FALSE");
    case db::DataType::kInt64:
      return std::to_string(v.int_value());
    case db::DataType::kFloat64: {
      if (!std::isfinite(v.float_value())) {
        return Status::NotImplemented(
            "non-finite float values cannot be routed as SQL literals");
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.float_value());
      std::string text(buf);
      // Keep the literal's float type explicit when the value is integral.
      if (text.find_first_of(".eE") == std::string::npos) text += ".0";
      return text;
    }
    case db::DataType::kString: {
      const std::string& s = v.string_value();
      if (s.find('\n') != std::string::npos ||
          s.find('\r') != std::string::npos) {
        return Status::NotImplemented(
            "string values with newlines cannot be routed over the line "
            "protocol");
      }
      std::string out = "'";
      for (char c : s) {
        if (c == '\'') out += "''";
        else out += c;
      }
      out += "'";
      return out;
    }
    default:
      return Status::NotImplemented("values of type ",
                                    db::DataTypeToString(v.type()),
                                    " cannot be routed as SQL literals");
  }
}

/// Typed decode of one wire TSV cell. "NULL" decodes as SQL NULL for every
/// column type (the text protocol cannot distinguish it from a literal
/// string "NULL" — acceptable for this workload's data).
Result<db::Value> DecodeCell(const std::string& cell, db::DataType type) {
  if (cell == "NULL") return db::Value::Null();
  switch (type) {
    case db::DataType::kBool:
      if (cell == "true") return db::Value::Bool(true);
      if (cell == "false") return db::Value::Bool(false);
      return Status::ParseError("bad bool cell '", cell, "'");
    case db::DataType::kInt64: {
      char* end = nullptr;
      const long long v = std::strtoll(cell.c_str(), &end, 10);
      if (end == cell.c_str() || *end != '\0') {
        return Status::ParseError("bad int cell '", cell, "'");
      }
      return db::Value::Int(static_cast<int64_t>(v));
    }
    case db::DataType::kFloat64: {
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (end == cell.c_str() || *end != '\0') {
        return Status::ParseError("bad float cell '", cell, "'");
      }
      return db::Value::Float(v);
    }
    case db::DataType::kString:
      return db::Value::String(cell);
    case db::DataType::kBlob:
      return db::Value::Blob(cell);
    default:
      return Status::ParseError("cell for unsupported column type ",
                                db::DataTypeToString(type));
  }
}

/// Zero-column result carrying an affected-row count, matching what
/// single-node DML/DDL returns.
db::Table RowCountResult(int64_t rows) {
  db::Table out{db::TableSchema{}};
  out.SetZeroColumnRows(rows);
  return out;
}

/// db::DistStrategyLabel code for a planner strategy (query log, EXPLAIN
/// ANALYZE header).
uint8_t StrategyCode(DistStrategy strategy) {
  switch (strategy) {
    case DistStrategy::kPushdown:
      return 1;
    case DistStrategy::kMergeAggregate:
      return 2;
    case DistStrategy::kFallback:
      return 3;
  }
  return 0;
}

std::string FormatMs(int64_t micros) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(micros) / 1000.0);
  return buf;
}

}  // namespace

thread_local Coordinator::DistQueryStats* Coordinator::tls_stats_ = nullptr;

Coordinator::Coordinator(db::Database* db, std::vector<ShardEndpoint> endpoints,
                         ShardClientOptions options)
    : db_(db) {
  // Trace ids only need to be unique per coordinator plus unlikely to collide
  // across restarts; wall-clock micros at construction mixed with the object
  // address is plenty without dragging in a PRNG.
  id_base_ = static_cast<uint64_t>(
                 std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::system_clock::now().time_since_epoch())
                     .count())
             << 16;
  id_base_ ^= reinterpret_cast<uintptr_t>(this);
  shards_.reserve(endpoints.size());
  for (size_t i = 0; i < endpoints.size(); ++i) {
    shards_.push_back(std::make_unique<ShardClient>(
        static_cast<int>(i), std::move(endpoints[i]), options));
  }
  RegisterClusterSystemTables();
}

Coordinator::~Coordinator() {
  db::Catalog& catalog = db_->catalog();
  if (shards_table_registered_) {
    catalog.UnregisterVirtualTable("system.shards");
  }
  if (saved_queries_ != nullptr) {
    (void)catalog.RegisterVirtualTable(saved_queries_);
  }
  if (saved_sessions_ != nullptr) {
    (void)catalog.RegisterVirtualTable(saved_sessions_);
  }
  if (saved_spans_ != nullptr) {
    (void)catalog.RegisterVirtualTable(saved_spans_);
  }
  if (saved_profiles_ != nullptr) {
    (void)catalog.RegisterVirtualTable(saved_profiles_);
  }
}

uint64_t Coordinator::NextId() {
  const uint64_t id =
      id_base_ + id_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  return id == 0 ? 1 : id;
}

std::set<std::string> Coordinator::ShardedTables() const {
  std::set<std::string> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, info] : tables_) out.insert(name);
  return out;
}

bool Coordinator::IsSharded(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(ToLower(name)) != 0;
}

DistStrategy Coordinator::last_strategy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_strategy_;
}

std::string Coordinator::last_fallback_reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_fallback_reason_;
}

Result<ShardedTableInfo> Coordinator::GetShardedTable(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) {
    return Status::NotFound("'", name, "' is not a sharded table");
  }
  return it->second;
}

namespace {

/// Sharded names a SELECT reaches, following local view definitions (a view
/// over a sharded table must route like the table itself).
void CollectShardedNames(const db::SelectStmt& stmt, const db::Catalog& catalog,
                         const std::set<std::string>& sharded,
                         std::set<std::string>* visited_views,
                         std::set<std::string>* out) {
  std::vector<std::string> names;
  CollectReferencedTables(stmt, &names);
  for (const std::string& name : names) {
    const std::string key = ToLower(name);
    if (sharded.count(key) != 0) {
      out->insert(key);
      continue;
    }
    if (visited_views->count(key) != 0) continue;
    visited_views->insert(key);
    if (catalog.HasView(name)) {
      auto view = catalog.GetView(name);
      if (view.ok() && *view != nullptr) {
        CollectShardedNames(**view, catalog, sharded, visited_views, out);
      }
    }
  }
}

}  // namespace

bool Coordinator::Handles(const db::Statement& stmt) {
  if (const auto* sel =
          std::get_if<std::shared_ptr<db::SelectStmt>>(&stmt)) {
    if (*sel == nullptr) return false;
    std::set<std::string> visited, sharded_refs;
    CollectShardedNames(**sel, db_->catalog(), ShardedTables(), &visited,
                        &sharded_refs);
    return !sharded_refs.empty();
  }
  if (const auto* create = std::get_if<db::CreateTableStmt>(&stmt)) {
    return !create->partition_by.empty() && !create->is_view;
  }
  if (const auto* insert = std::get_if<db::InsertStmt>(&stmt)) {
    return IsSharded(insert->table);
  }
  if (const auto* update = std::get_if<db::UpdateStmt>(&stmt)) {
    return IsSharded(update->table);
  }
  if (const auto* del = std::get_if<db::DeleteStmt>(&stmt)) {
    return IsSharded(del->table);
  }
  if (const auto* drop = std::get_if<db::DropStmt>(&stmt)) {
    return !drop->is_view && IsSharded(drop->name);
  }
  return false;
}

bool Coordinator::IsReadOnly(const db::Statement& stmt) {
  const auto* sel = std::get_if<std::shared_ptr<db::SelectStmt>>(&stmt);
  if (sel == nullptr || *sel == nullptr) return false;
  // A fallback gather mutates the local catalog, so it needs the exclusive
  // lock; pushdown and merge-aggregate scatter-gathers only read. Planning
  // errors stay read-only — Execute re-plans and returns the same error.
  DistributedPlanner planner(db_);
  auto plan = planner.Plan(**sel, ShardedTables());
  if (!plan.ok()) return true;
  return plan->strategy != DistStrategy::kFallback;
}

Result<db::Table> Coordinator::Execute(const db::Statement& stmt,
                                       const std::string& sql,
                                       const db::QueryRecordHints& hints) {
  Stopwatch watch;
  DistQueryStats stats;
  Result<db::Table> result = ExecuteTraced(stmt, sql, &stats);
  const int64_t duration_us = watch.ElapsedMicros();

  int64_t shards_used = 0;
  int64_t slowest_shard = -1;
  int64_t slowest_us = 0;
  for (size_t i = 0; i < stats.shards.size(); ++i) {
    if (!stats.shards[i].used) continue;
    ++shards_used;
    if (stats.shards[i].latency_us > slowest_us) {
      slowest_us = stats.shards[i].latency_us;
      slowest_shard = static_cast<int64_t>(i);
    }
  }

  db::QueryLogRecord rec;
  rec.sql = sql;
  rec.kind = KindOfStatement(stmt);
  if (result.ok()) {
    rec.rows = result->num_rows();
  } else {
    rec.error = result.status().ToString();
  }
  rec.duration_us = duration_us;
  rec.session_id = hints.session_id;
  rec.admission_wait_us = hints.admission_wait_us;
  rec.lock_wait_us = hints.lock_wait_us;
  rec.end_micros = TraceCollector::NowMicros();
  rec.trace_id = stats.trace_id;
  rec.parent_span_id = hints.parent_span_id;
  rec.dist_strategy = stats.strategy;
  rec.dist_shards = shards_used;
  rec.dist_slowest_shard = slowest_shard;
  rec.dist_slowest_us = slowest_us;
  rec.dist_merge_us = stats.merge_us;
  db_->query_log()->Record(rec);
  if (hints.record_out != nullptr) *hints.record_out = rec;

  // The single-node slow-query WARN lives in ExecuteStatementRecorded, which
  // distributed statements bypass — so the coordinator emits its own, naming
  // the straggler and its share of wall time.
  const double threshold_ms = db_->slow_query_ms();
  const double duration_ms = static_cast<double>(duration_us) / 1000.0;
  if (threshold_ms > 0 && duration_ms >= threshold_ms) {
    std::string straggler;
    if (slowest_shard >= 0 && duration_us > 0) {
      const int share = static_cast<int>(
          100.0 * static_cast<double>(slowest_us) /
          static_cast<double>(duration_us));
      straggler = " [slowest: " +
                  shards_[static_cast<size_t>(slowest_shard)]->label() + " " +
                  FormatMs(slowest_us) + " ms = " + std::to_string(share) +
                  "% of wall time, merge " + FormatMs(stats.merge_us) + " ms]";
    }
    const char* strategy = db::DistStrategyLabel(stats.strategy);
    DL2SQL_LOG(Warning) << "slow distributed query (" << duration_ms
                        << " ms >= " << threshold_ms << " ms threshold, "
                        << (*strategy != '\0' ? strategy : "no scatter") << ", "
                        << shards_used << " shards): " << sql << straggler;
  }
  return result;
}

Result<db::Table> Coordinator::ExecuteTraced(const db::Statement& stmt,
                                             const std::string& sql,
                                             DistQueryStats* stats) {
  stats->shards.resize(shards_.size());
  // Adopt an inbound trace context (a client/upstream coordinator sent a
  // ".trace"-headed statement) or mint a fresh trace id when tracing is on.
  // When tracing is off and nothing arrived, trace_id stays 0 and no shard
  // statement carries a header — the wire bytes are identical to pre-tracing.
  const TraceContext inbound = CurrentTraceContext();
  if (inbound.active() || TraceCollector::Global().enabled()) {
    stats->trace_id = inbound.active() ? inbound.trace_id : NextId();
    stats->root_span_id = NextId();
  }
  stats->start_us = TraceCollector::NowMicros();

  DistQueryStats* const prev = tls_stats_;
  tls_stats_ = stats;
  Result<db::Table> result = Status::InternalError("not dispatched");
  {
    std::optional<ScopedTraceContext> scoped;
    if (stats->trace_id != 0 && !inbound.active()) {
      scoped.emplace(TraceContext{stats->trace_id, stats->root_span_id});
    }
    DL2SQL_TRACE_SPAN("cluster", "distributed_query");
    result = Dispatch(stmt, sql);
  }
  tls_stats_ = prev;

  if (stats->trace_id != 0) {
    std::lock_guard<std::mutex> lock(trace_mu_);
    last_trace_id_ = stats->trace_id;
    last_shard_events_ = stats->shard_events;
  }
  return result;
}

Result<db::Table> Coordinator::Dispatch(const db::Statement& stmt,
                                        const std::string& sql) {
  if (const auto* sel =
          std::get_if<std::shared_ptr<db::SelectStmt>>(&stmt)) {
    return ExecSelect(**sel);
  }
  if (const auto* create = std::get_if<db::CreateTableStmt>(&stmt)) {
    return ExecCreate(*create);
  }
  if (const auto* insert = std::get_if<db::InsertStmt>(&stmt)) {
    return ExecInsert(*insert);
  }
  if (std::holds_alternative<db::UpdateStmt>(stmt) ||
      std::holds_alternative<db::DeleteStmt>(stmt)) {
    return ExecBroadcastWrite(sql, stmt);
  }
  if (const auto* drop = std::get_if<db::DropStmt>(&stmt)) {
    return ExecDrop(*drop);
  }
  return Status::InternalError("unroutable statement reached the coordinator");
}

std::vector<Result<server::WireResponse>> Coordinator::Scatter(
    const std::string& sql) {
  return ScatterEach(std::vector<std::string>(shards_.size(), sql));
}

std::vector<Result<server::WireResponse>> Coordinator::ScatterEach(
    const std::vector<std::string>& sqls) {
  std::vector<Result<server::WireResponse>> out(
      shards_.size(),
      Result<server::WireResponse>(Status::InternalError("not dispatched")));
  DistQueryStats* const stats = tls_stats_;
  TraceContext trace;
  if (stats != nullptr && stats->trace_id != 0) {
    trace = TraceContext{stats->trace_id, stats->root_span_id};
  }
  const TraceContext* const trace_ptr = trace.active() ? &trace : nullptr;

  struct Call {
    bool ran = false;
    int64_t start_us = 0;
    int64_t latency_us = 0;
  };
  std::vector<Call> calls(shards_.size());
  // Each invocation writes only its own out/calls slots, so the spawned
  // threads never touch shared state; everything folds into `stats` after
  // the join, on the calling thread.
  auto run_one = [&](size_t i) {
    calls[i].ran = true;
    calls[i].start_us = TraceCollector::NowMicros();
    out[i] = shards_[i]->Execute(sqls[i], 0.0, trace_ptr);
    calls[i].latency_us = TraceCollector::NowMicros() - calls[i].start_us;
  };

  // One thread per remote shard, shard 0 on the calling thread. Statement
  // counts here are serving-request rate, not row rate, so the per-statement
  // thread spawn is noise next to the network round-trip.
  std::vector<std::thread> threads;
  threads.reserve(shards_.size());
  for (size_t i = 1; i < shards_.size(); ++i) {
    if (sqls[i].empty()) continue;
    threads.emplace_back([&run_one, i] { run_one(i); });
  }
  if (!shards_.empty() && !sqls[0].empty()) run_one(0);
  for (auto& t : threads) t.join();

  if (stats == nullptr) return out;
  const bool tracing = TraceCollector::Global().enabled();
  // Shipped-span cap per query: a pathological shard can't balloon the
  // coordinator's trace buffer.
  constexpr size_t kMaxShardEvents = 4096;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!calls[i].ran) continue;
    ShardCallStats& s = stats->shards[i];
    s.used = true;
    ++s.statements;
    s.latency_us += calls[i].latency_us;
    if (tracing) {
      // Coordinator-side view of the round trip; the shard's own spans (from
      // the trailer) nest under it on their per-shard lane.
      TraceEvent rpc;
      rpc.name = "shard " + std::to_string(i) + " rpc";
      rpc.category = "cluster";
      rpc.start_us = calls[i].start_us;
      rpc.duration_us = calls[i].latency_us;
      rpc.tid = TraceCollector::CurrentThreadId();
      rpc.trace_id = stats->trace_id;
      TraceCollector::Global().Record(std::move(rpc));
    }
    if (!out[i].ok()) continue;
    s.rows += static_cast<int64_t>(out[i]->cells.size());
    s.bytes += out[i]->wire_bytes;
    for (const auto& fields : out[i]->meta) {
      TraceEvent ev;
      server::WireProfile profile;
      if (server::ParseSpanMeta(fields, &ev)) {
        if (stats->shard_events.size() >= kMaxShardEvents) continue;
        ev.pid = 2 + static_cast<int32_t>(i);
        ev.trace_id = stats->trace_id;
        // Shard clocks ship relative to their statement start; rebase onto
        // this coordinator's clock at the moment the rpc went out.
        ev.start_us += calls[i].start_us;
        stats->shard_events.push_back(std::move(ev));
      } else if (server::ParseProfileMeta(fields, &profile)) {
        s.has_profile = true;
        s.profile.rows += profile.rows;
        s.profile.bytes += profile.bytes;
        s.profile.duration_us += profile.duration_us;
        s.profile.cpu_us += profile.cpu_us;
        s.profile.admission_wait_us += profile.admission_wait_us;
        s.profile.lock_wait_us += profile.lock_wait_us;
        s.profile.pool_queue_wait_us += profile.pool_queue_wait_us;
        s.profile.mem_peak_bytes =
            std::max(s.profile.mem_peak_bytes, profile.mem_peak_bytes);
        s.profile.spill_bytes += profile.spill_bytes;
        s.profile.spill_partitions += profile.spill_partitions;
        s.profile.neural_calls += profile.neural_calls;
      }
    }
  }
  return out;
}

Result<db::Table> Coordinator::ResponseToTable(
    const server::WireResponse& response, const db::TableSchema& schema,
    const std::string& shard_label) const {
  if (!response.error.ok()) return response.error.WithContext(shard_label);
  if (schema.num_fields() == 0) return RowCountResult(response.rows);
  if (static_cast<int>(response.columns.size()) != schema.num_fields()) {
    return Status::InternalError(
        shard_label, " returned ", response.columns.size(),
        " columns where the distributed plan expected ", schema.num_fields());
  }
  db::Table out{schema};
  std::vector<db::Value> row;
  for (const auto& cells : response.cells) {
    row.clear();
    row.reserve(cells.size());
    for (size_t c = 0; c < cells.size(); ++c) {
      auto value = DecodeCell(cells[c], schema.field(static_cast<int>(c)).type);
      if (!value.ok()) return value.status().WithContext(shard_label);
      row.push_back(std::move(*value));
    }
    DL2SQL_RETURN_NOT_OK(out.AppendRow(row));
  }
  return out;
}

Result<db::Table> Coordinator::ExecSelect(const db::SelectStmt& stmt) {
  DistributedPlanner planner(db_);
  DL2SQL_ASSIGN_OR_RETURN(DistributedQueryPlan plan,
                          planner.Plan(stmt, ShardedTables()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_strategy_ = plan.strategy;
    last_fallback_reason_ = plan.fallback_reason;
  }
  if (tls_stats_ != nullptr && tls_stats_->strategy == 0) {
    // Outermost SELECT wins; a nested fallback gather's inner scatters keep
    // the outer statement's classification.
    tls_stats_->strategy = StrategyCode(plan.strategy);
  }
  if (plan.strategy == DistStrategy::kFallback) {
    ClusterMetrics::Get().fallback->Increment();
    return GatherFallback(stmt, plan.fallback_reason);
  }

  std::vector<Result<server::WireResponse>> responses =
      Scatter(plan.shard_sql);
  // Everything after the scatter — typed decode plus concat/k-way
  // merge/partial-aggregate re-merge — is coordinator merge cost.
  struct MergeTimer {
    explicit MergeTimer(int64_t* out) : out_(out) {}
    ~MergeTimer() {
      if (out_ != nullptr) *out_ += watch_.ElapsedMicros();
    }
    Stopwatch watch_;
    int64_t* out_;
  } merge_timer(tls_stats_ != nullptr ? &tls_stats_->merge_us : nullptr);
  std::vector<db::Table> parts;
  parts.reserve(responses.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    if (!responses[i].ok()) return responses[i].status();
    DL2SQL_ASSIGN_OR_RETURN(
        db::Table part, ResponseToTable(*responses[i], plan.shard_schema,
                                        shards_[i]->label()));
    parts.push_back(std::move(part));
  }

  if (plan.strategy == DistStrategy::kPushdown) {
    ClusterMetrics::Get().pushdown->Increment();
    if (plan.merge_keys.empty()) {
      return ConcatTables(plan.output_schema, parts, plan.limit);
    }
    return MergeSortedTables(plan.output_schema, parts, plan.merge_keys,
                             plan.limit);
  }

  ClusterMetrics::Get().merge_agg->Increment();
  DL2SQL_ASSIGN_OR_RETURN(
      db::Table merged,
      MergeAggregatePartials(plan.output_schema, parts, plan.num_group_keys,
                             plan.outputs));
  return SortAndLimit(std::move(merged), plan.final_order, plan.limit);
}

Result<db::Table> Coordinator::GatherFallback(const db::SelectStmt& stmt,
                                              const std::string& reason) {
  (void)reason;  // recorded in last_fallback_reason_ for introspection
  std::set<std::string> visited, sharded_refs;
  CollectShardedNames(stmt, db_->catalog(), ShardedTables(), &visited,
                      &sharded_refs);

  // Pull every referenced sharded table whole, swap it in for the empty
  // stub, run locally, and restore the stubs — even on failure.
  std::vector<ShardedTableInfo> gathered;
  Status gather_status = Status::OK();
  for (const std::string& name : sharded_refs) {
    auto info = GetShardedTable(name);
    if (!info.ok()) {
      gather_status = info.status();
      break;
    }
    std::vector<Result<server::WireResponse>> responses =
        Scatter("SELECT * FROM " + info->display_name);
    std::vector<db::Table> parts;
    parts.reserve(responses.size());
    for (size_t i = 0; i < responses.size() && gather_status.ok(); ++i) {
      if (!responses[i].ok()) {
        gather_status = responses[i].status();
        break;
      }
      auto part =
          ResponseToTable(*responses[i], info->schema, shards_[i]->label());
      if (!part.ok()) {
        gather_status = part.status();
        break;
      }
      parts.push_back(std::move(*part));
    }
    if (!gather_status.ok()) break;
    auto whole = ConcatTables(info->schema, parts, -1);
    if (!whole.ok()) {
      gather_status = whole.status();
      break;
    }
    gather_status = db_->RegisterTable(info->display_name, std::move(*whole));
    if (!gather_status.ok()) break;
    gathered.push_back(std::move(*info));
  }

  Result<db::Table> result = gather_status.ok()
                                 ? db_->ExecuteSelect(stmt)
                                 : Result<db::Table>(gather_status);

  for (const ShardedTableInfo& info : gathered) {
    (void)db_->RegisterTable(info.display_name, db::Table{info.schema});
  }
  return result;
}

Result<db::Table> Coordinator::ExecCreate(const db::CreateTableStmt& stmt) {
  if (stmt.as_select != nullptr) {
    return Status::NotImplemented(
        "CREATE TABLE ... AS SELECT cannot be partitioned");
  }
  if (stmt.temporary) {
    return Status::NotImplemented("temporary tables cannot be partitioned");
  }
  db::TableSchema schema{stmt.columns};
  int partition_index = -1;
  for (int i = 0; i < schema.num_fields(); ++i) {
    if (EqualsIgnoreCase(schema.field(i).name, stmt.partition_by)) {
      partition_index = i;
      break;
    }
  }
  if (partition_index < 0) {
    return Status::InvalidArgument("partition column '", stmt.partition_by,
                                   "' is not a column of '", stmt.name, "'");
  }

  const bool existed = db_->catalog().HasTable(stmt.name);
  // The local stub first: name conflicts surface here with single-node
  // wording, before any shard is touched.
  db::CreateTableStmt local = stmt;
  local.partition_by.clear();
  DL2SQL_ASSIGN_OR_RETURN(db::Table result,
                          db_->ExecuteStatement(db::Statement{local}));
  if (existed) {
    // IF NOT EXISTS no-op on an existing table: nothing changed, nothing to
    // broadcast, and the existing table keeps its current (possibly
    // unsharded) residency.
    return result;
  }

  // Broadcast DDL, partition clause stripped and IF NOT EXISTS forced so a
  // retry after a partial failure is idempotent on shards that succeeded.
  std::string ddl = "CREATE TABLE IF NOT EXISTS " + stmt.name + " (";
  for (int i = 0; i < schema.num_fields(); ++i) {
    if (i > 0) ddl += ", ";
    DL2SQL_ASSIGN_OR_RETURN(const char* type_name,
                            DdlTypeName(schema.field(i).type));
    ddl += schema.field(i).name + " " + type_name;
  }
  ddl += ")";
  std::vector<Result<server::WireResponse>> responses = Scatter(ddl);
  for (const auto& response : responses) {
    if (!response.ok()) {
      // Roll the stub back so the retried CREATE replays cleanly end to end.
      (void)db_->catalog().DropTable(stmt.name, /*if_exists=*/true);
      return response.status();
    }
  }

  ShardedTableInfo info;
  info.display_name = stmt.name;
  info.schema = std::move(schema);
  info.partition_column = stmt.partition_by;
  info.partition_index = partition_index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tables_[ToLower(stmt.name)] = std::move(info);
  }
  return result;
}

Result<db::Table> Coordinator::ExecInsert(const db::InsertStmt& stmt) {
  DL2SQL_ASSIGN_OR_RETURN(ShardedTableInfo info, GetShardedTable(stmt.table));

  // Position of the partition key in the inserted row layout. Absent from an
  // explicit column list means every row routes by NULL — deterministic, and
  // the shard-side INSERT still validates the row itself.
  int key_pos = info.partition_index;
  if (!stmt.columns.empty()) {
    key_pos = -1;
    for (size_t i = 0; i < stmt.columns.size(); ++i) {
      if (EqualsIgnoreCase(stmt.columns[i], info.partition_column)) {
        key_pos = static_cast<int>(i);
        break;
      }
    }
  }

  std::string column_list;
  if (!stmt.columns.empty()) {
    column_list = " (" + Join(stmt.columns, ", ") + ")";
  }

  std::vector<std::string> bodies(shards_.size());
  auto route_row = [&](const db::Value& key,
                       const std::string& rendered_row) {
    std::string& body = bodies[static_cast<size_t>(
        ShardIndexFor(key, num_shards()))];
    if (!body.empty()) body += ", ";
    body += rendered_row;
  };

  if (stmt.select == nullptr) {
    for (const auto& row : stmt.rows) {
      db::Value key = db::Value::Null();
      if (key_pos >= 0 && key_pos < static_cast<int>(row.size())) {
        DL2SQL_ASSIGN_OR_RETURN(key, LiteralPartitionKey(*row[key_pos]));
      }
      std::string rendered = "(";
      for (size_t j = 0; j < row.size(); ++j) {
        if (j > 0) rendered += ", ";
        rendered += db::sql::PrintExpr(*row[j]);
      }
      rendered += ")";
      route_row(key, rendered);
    }
  } else {
    // INSERT .. SELECT: materialize the source (itself distributed when it
    // touches sharded tables — Handles classified this statement as a write,
    // so the exclusive lock covers a nested fallback gather), then route the
    // result rows as literal VALUES.
    std::set<std::string> visited, sharded_refs;
    CollectShardedNames(*stmt.select, db_->catalog(), ShardedTables(),
                        &visited, &sharded_refs);
    db::Table source{db::TableSchema{}};
    if (!sharded_refs.empty()) {
      DL2SQL_ASSIGN_OR_RETURN(source, ExecSelect(*stmt.select));
    } else {
      DL2SQL_ASSIGN_OR_RETURN(source, db_->ExecuteSelect(*stmt.select));
    }
    for (int64_t r = 0; r < source.num_rows(); ++r) {
      const std::vector<db::Value> row = source.GetRow(r);
      db::Value key = db::Value::Null();
      if (key_pos >= 0 && key_pos < static_cast<int>(row.size())) {
        key = row[static_cast<size_t>(key_pos)];
      }
      std::string rendered = "(";
      for (size_t j = 0; j < row.size(); ++j) {
        if (j > 0) rendered += ", ";
        DL2SQL_ASSIGN_OR_RETURN(std::string lit, FormatSqlLiteral(row[j]));
        rendered += lit;
      }
      rendered += ")";
      route_row(key, rendered);
    }
  }

  std::vector<std::string> sqls(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (bodies[s].empty()) continue;
    sqls[s] = "INSERT INTO " + info.display_name + column_list + " VALUES " +
              bodies[s];
  }
  std::vector<Result<server::WireResponse>> responses = ScatterEach(sqls);
  int64_t total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (sqls[s].empty()) continue;
    if (!responses[s].ok()) return responses[s].status();
    total += responses[s]->rows;
  }
  ClusterMetrics::Get().routed_rows->Increment(total);
  return RowCountResult(total);
}

Result<db::Table> Coordinator::ExecBroadcastWrite(const std::string& sql,
                                                  const db::Statement& stmt) {
  // Shard-local predicate evaluation only: a subquery would see the shard's
  // slice, not the table, and silently write the wrong rows.
  bool has_subquery = false;
  if (const auto* update = std::get_if<db::UpdateStmt>(&stmt)) {
    for (const auto& [column, expr] : update->assignments) {
      if (expr != nullptr && StatementHasSubquery(*expr)) has_subquery = true;
    }
    if (update->where != nullptr && StatementHasSubquery(*update->where)) {
      has_subquery = true;
    }
  } else if (const auto* del = std::get_if<db::DeleteStmt>(&stmt)) {
    if (del->where != nullptr && StatementHasSubquery(*del->where)) {
      has_subquery = true;
    }
  }
  if (has_subquery) {
    return Status::NotImplemented(
        "UPDATE/DELETE on a sharded table cannot use subqueries (they would "
        "evaluate against one shard's slice)");
  }
  ClusterMetrics::Get().broadcast_writes->Increment();
  DL2SQL_ASSIGN_OR_RETURN(int64_t total, BroadcastWrite(sql));
  return RowCountResult(total);
}

Result<int64_t> Coordinator::BroadcastWrite(const std::string& sql) {
  std::vector<Result<server::WireResponse>> responses = Scatter(sql);
  int64_t total = 0;
  for (const auto& response : responses) {
    // All-must-ack: the first failure wins, named by the shard label baked
    // into the status. Shards that already applied the write stay applied —
    // there is no distributed rollback (see DESIGN.md's failure matrix).
    if (!response.ok()) return response.status();
    total += response->rows;
  }
  return total;
}

Result<db::Table> Coordinator::ExecDrop(const db::DropStmt& stmt) {
  // Broadcast first with IF EXISTS forced (idempotent retries), local drop
  // and registry erase only once every shard has acknowledged.
  std::vector<Result<server::WireResponse>> responses =
      Scatter("DROP TABLE IF EXISTS " + stmt.name);
  for (const auto& response : responses) {
    if (!response.ok()) return response.status();
  }
  DL2SQL_ASSIGN_OR_RETURN(db::Table result,
                          db_->ExecuteStatement(db::Statement{stmt}));
  {
    std::lock_guard<std::mutex> lock(mu_);
    tables_.erase(ToLower(stmt.name));
  }
  return result;
}

std::string Coordinator::FederatedMetricsText() {
  std::string out;
  for (const auto& shard : shards_) {
    const std::string label =
        "{shard=\"" + std::to_string(shard->shard_index()) + "\"} ";
    const struct {
      const char* name;
      int64_t value;
    } client_series[] = {
        {"cluster_shard_client_statements", shard->requests()},
        {"cluster_shard_client_failures", shard->failures()},
        {"cluster_shard_client_bytes_sent", shard->bytes_sent()},
        {"cluster_shard_client_bytes_received", shard->bytes_received()},
        {"cluster_shard_client_rows_shipped", shard->rows_shipped()},
        {"cluster_shard_client_p95_latency_us", shard->p95_latency_us()},
    };
    for (const auto& series : client_series) {
      out += series.name + label + std::to_string(series.value) + "\n";
    }
    // The shard's own registry, scraped over the existing statement protocol
    // (system.metrics flattens histograms into .count/.sum_us/.pXX_us rows).
    // Untyped exposition lines are valid Prometheus; TYPE comments can't be
    // emitted per-label-set anyway.
    auto response =
        shard->Execute("SELECT name, kind, value FROM system.metrics");
    if (!response.ok()) continue;
    for (const auto& cells : response->cells) {
      if (cells.size() != 3) continue;
      out += MetricsRegistry::SanitizeName(cells[0]) + label + cells[2] + "\n";
    }
  }
  return out;
}

Status Coordinator::WriteClusterTrace(const std::string& path) {
  uint64_t trace_id = 0;
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(trace_mu_);
    trace_id = last_trace_id_;
    events = last_shard_events_;
  }
  if (trace_id == 0) {
    // Nothing distributed was traced yet; the local trace is still useful.
    return TraceCollector::Global().WriteChromeTrace(path);
  }
  std::vector<TraceEvent> local =
      TraceCollector::Global().SnapshotTrace(trace_id);
  events.insert(events.end(), std::make_move_iterator(local.begin()),
                std::make_move_iterator(local.end()));
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_us < b.start_us;
            });
  const std::string json = TraceCollector::ChromeTraceJson(events);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open trace output file ", path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::IoError("short write to trace output file ", path);
  }
  return Status::OK();
}

Result<std::string> Coordinator::ExplainAnalyze(const db::Statement& stmt,
                                                const std::string& sql) {
  if (!std::holds_alternative<std::shared_ptr<db::SelectStmt>>(stmt)) {
    return Status::InvalidArgument(
        "distributed EXPLAIN ANALYZE supports only SELECT statements");
  }
  DistQueryStats stats;
  Stopwatch watch;
  DL2SQL_ASSIGN_OR_RETURN(db::Table result, ExecuteTraced(stmt, sql, &stats));
  const int64_t total_us = watch.ElapsedMicros();

  int64_t shards_used = 0;
  int64_t slowest_shard = -1;
  int64_t slowest_us = 0;
  for (size_t i = 0; i < stats.shards.size(); ++i) {
    if (!stats.shards[i].used) continue;
    ++shards_used;
    if (stats.shards[i].latency_us > slowest_us) {
      slowest_us = stats.shards[i].latency_us;
      slowest_shard = static_cast<int64_t>(i);
    }
  }

  const char* strategy = db::DistStrategyLabel(stats.strategy);
  std::string out = "Distributed SELECT  strategy=";
  out += *strategy != '\0' ? strategy : "none";
  out += "  shards=" + std::to_string(shards_used) + "/" +
         std::to_string(shards_.size()) + "\n";
  if (stats.strategy == 3) {
    const std::string reason = last_fallback_reason();
    if (!reason.empty()) out += "fallback reason: " + reason + "\n";
  }
  out += "rows=" + std::to_string(result.num_rows()) + "  total=" +
         FormatMs(total_us) + " ms  merge=" + FormatMs(stats.merge_us) +
         " ms\n";
  for (size_t i = 0; i < stats.shards.size(); ++i) {
    const ShardCallStats& s = stats.shards[i];
    if (!s.used) continue;
    out += "  " + shards_[i]->label() + ": " + std::to_string(s.statements) +
           " stmt, " + FormatMs(s.latency_us) + " ms, " +
           std::to_string(s.rows) + " rows, " + std::to_string(s.bytes) +
           " bytes";
    if (s.has_profile) {
      out += " (shard-side: " + FormatMs(s.profile.duration_us) + " ms, cpu " +
             FormatMs(s.profile.cpu_us) + " ms, " +
             std::to_string(s.profile.neural_calls) + " neural calls)";
    }
    out += "\n";
  }
  if (slowest_shard >= 0 && total_us > 0) {
    const int share = static_cast<int>(100.0 * static_cast<double>(slowest_us) /
                                       static_cast<double>(total_us));
    out += "slowest: " + shards_[static_cast<size_t>(slowest_shard)]->label() +
           " - " + std::to_string(share) + "% of wall time\n";
  }
  return out;
}

void Coordinator::RegisterClusterSystemTables() {
  db::Catalog& catalog = db_->catalog();

  db::TableSchema shards_schema({{"shard", db::DataType::kInt64},
                                 {"host", db::DataType::kString},
                                 {"port", db::DataType::kInt64},
                                 {"healthy", db::DataType::kBool},
                                 {"ping_ms", db::DataType::kFloat64},
                                 {"requests", db::DataType::kInt64},
                                 {"failures", db::DataType::kInt64},
                                 {"last_error", db::DataType::kString},
                                 {"bytes_sent", db::DataType::kInt64},
                                 {"bytes_received", db::DataType::kInt64},
                                 {"rows_shipped", db::DataType::kInt64},
                                 {"p95_latency_ms", db::DataType::kFloat64}});
  shards_table_registered_ =
      catalog
          .RegisterVirtualTable(std::make_shared<db::CallbackVirtualTable>(
              "system.shards", std::move(shards_schema),
              [this](const db::TableSchema& s) -> Result<db::TablePtr> {
                auto t = std::make_shared<db::Table>(db::Table{s});
                for (const auto& shard : shards_) {
                  Stopwatch watch;
                  const Status ping = shard->Ping();
                  const double ping_ms =
                      static_cast<double>(watch.ElapsedMicros()) / 1000.0;
                  DL2SQL_RETURN_NOT_OK(t->AppendRow(
                      {db::Value::Int(shard->shard_index()),
                       db::Value::String(shard->endpoint().host),
                       db::Value::Int(shard->endpoint().port),
                       db::Value::Bool(ping.ok()),
                       db::Value::Float(ping_ms),
                       db::Value::Int(shard->requests()),
                       db::Value::Int(shard->failures()),
                       db::Value::String(shard->last_error()),
                       db::Value::Int(shard->bytes_sent()),
                       db::Value::Int(shard->bytes_received()),
                       db::Value::Int(shard->rows_shipped()),
                       db::Value::Float(
                           static_cast<double>(shard->p95_latency_us()) /
                           1000.0)}));
                }
                return t;
              }))
          .ok();

  // Federate system.queries, system.sessions, system.spans, and
  // system.query_profiles: the local provider's rows
  // tagged shard = -1, then each shard's rows tagged with its index. Shard
  // fetch failures skip that shard (federation is best-effort observability;
  // system.shards reports the health).
  auto federate = [this, &catalog](const std::string& name) {
    std::shared_ptr<db::VirtualTableProvider> inner =
        catalog.GetVirtualTable(name);
    if (inner == nullptr) return inner;
    std::vector<db::Field> fields;
    for (int i = 0; i < inner->schema().num_fields(); ++i) {
      fields.push_back(inner->schema().field(i));
    }
    fields.push_back({"shard", db::DataType::kInt64});
    const Status registered = catalog.RegisterVirtualTable(
        std::make_shared<db::CallbackVirtualTable>(
            name, db::TableSchema{fields},
            [this, inner, name](const db::TableSchema& s)
                -> Result<db::TablePtr> {
              auto t = std::make_shared<db::Table>(db::Table{s});
              auto local = inner->Materialize();
              if (local.ok()) {
                for (int64_t r = 0; r < (*local)->num_rows(); ++r) {
                  std::vector<db::Value> row = (*local)->GetRow(r);
                  row.push_back(db::Value::Int(-1));
                  DL2SQL_RETURN_NOT_OK(t->AppendRow(row));
                }
              }
              for (const auto& shard : shards_) {
                auto response = shard->Execute("SELECT * FROM " + name);
                if (!response.ok()) continue;
                auto part = ResponseToTable(*response, inner->schema(),
                                            shard->label());
                if (!part.ok()) continue;
                for (int64_t r = 0; r < part->num_rows(); ++r) {
                  std::vector<db::Value> row = part->GetRow(r);
                  row.push_back(db::Value::Int(shard->shard_index()));
                  DL2SQL_RETURN_NOT_OK(t->AppendRow(row));
                }
              }
              return t;
            }));
    return registered.ok() ? inner
                           : std::shared_ptr<db::VirtualTableProvider>();
  };
  saved_queries_ = federate("system.queries");
  saved_sessions_ = federate("system.sessions");
  saved_spans_ = federate("system.spans");
  saved_profiles_ = federate("system.query_profiles");
}

}  // namespace dl2sql::cluster
