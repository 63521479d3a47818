#include "db/database.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <map>

#include <cstdlib>

#include "accel/device.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "db/exec/hash_table.h"
#include "db/exec/row_key.h"
#include "db/exec/vector_aggregate.h"
#include "db/exec/vector_batch.h"
#include "db/exec/vector_expr.h"
#include "db/exec/vector_kernels.h"
#include "db/sql/printer.h"
#include "db/storage/column_source.h"
#include "db/storage/paged_table.h"
#include "db/storage/storage_engine.h"
#include "db/system_tables.h"

namespace dl2sql::db {

thread_local Database::QueryTally* Database::tls_tally_ = nullptr;

namespace {

/// Vectorized-kernel stats drained since the innermost ExecNode wrapper
/// last claimed them (ExplainAnalyze node-stats collection only). Operators
/// drain their contexts on the query's calling thread, and each wrapper
/// takes the pending stats right after its operator finishes, so the stats a
/// wrapper claims belong to exactly its own operator.
thread_local vec::VectorOpStats tls_pending_vec_stats;

/// Tracker label for an operator kind: "op.join", "op.aggregate", ... —
/// lower-cased so labels match the documented hierarchy (mem_tracker.h) and
/// stay stable even if plan rendering changes capitalization.
std::string OpTrackerLabel(PlanKind kind) {
  std::string label = PlanKindToString(kind);
  for (char& c : label) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return "op." + label;
}

/// A memoized optimized plan plus everything needed to prove it is still
/// valid: the catalog version of every relation it resolved, and the cost
/// model it was optimized under. Holding the cost model alive by shared_ptr
/// makes the pointer-identity check at hit time immune to address reuse.
struct CachedPlan {
  PlanPtr plan;
  std::shared_ptr<const CostModel> cost_model;
  std::vector<std::pair<std::string, uint64_t>> deps;
};

/// DL2SQL_CACHE=OFF|off|0 disables both caches at construction.
CacheOptions DefaultCacheOptions() {
  CacheOptions opts;
  const char* env = std::getenv("DL2SQL_CACHE");
  if (env != nullptr) {
    const std::string v = env;
    if (v == "OFF" || v == "off" || v == "0") {
      opts.enable_nudf_cache = false;
      opts.enable_plan_cache = false;
    }
  }
  return opts;
}

/// DL2SQL_VECTOR=OFF|off|0 disables batch-at-a-time vectorized execution at
/// construction, forcing the original row paths everywhere (the off-vs-on
/// bit-identity baseline and the CI rerun leg).
bool DefaultVectorEnabled() {
  if (const char* env = std::getenv("DL2SQL_VECTOR")) {
    const std::string v = env;
    if (v == "OFF" || v == "off" || v == "0") return false;
  }
  return true;
}

/// DL2SQL_INTROSPECTION=OFF|off|0 disables the system.* tables and query
/// recording; DL2SQL_QUERY_LOG_CAPACITY / DL2SQL_SLOW_QUERY_MS tune them.
IntrospectionOptions DefaultIntrospectionOptions() {
  IntrospectionOptions opts;
  if (const char* env = std::getenv("DL2SQL_INTROSPECTION")) {
    const std::string v = env;
    if (v == "OFF" || v == "off" || v == "0") opts.enabled = false;
  }
  if (const char* env = std::getenv("DL2SQL_QUERY_LOG_CAPACITY")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) opts.query_log_capacity = static_cast<size_t>(parsed);
  }
  if (const char* env = std::getenv("DL2SQL_SLOW_QUERY_MS")) {
    char* end = nullptr;
    const double parsed = std::strtod(env, &end);
    if (end != env) opts.slow_query_ms = parsed;
  }
  return opts;
}

/// Hard guard against runaway cross products.
constexpr int64_t kMaxJoinPairs = 100'000'000;

/// Charges `seconds` minus the inference time already charged separately.
void ChargeOperator(CostAccumulator* costs, const std::string& bucket,
                    double seconds, double inference_delta) {
  if (costs == nullptr) return;
  costs->Add(bucket, std::max(0.0, seconds - inference_delta));
}

}  // namespace

Database::Database()
    : cache_options_(DefaultCacheOptions()),
      vectorized_(DefaultVectorEnabled()),
      introspection_options_(DefaultIntrospectionOptions()) {
  RebuildCaches();
  // Model reload: replacing a neural UDF with a different fingerprint drops
  // every memoized result. (Fingerprints already keep stale entries from
  // being *served*; the hook reclaims their memory promptly.)
  udfs_.set_neural_replaced_hook([this](const std::string& /*name*/) {
    if (nudf_cache_ != nullptr) nudf_cache_->Clear();
  });
  slow_query_ms_.store(introspection_options_.slow_query_ms,
                       std::memory_order_relaxed);
  // DL2SQL_QUERY_MEM_LIMIT=<bytes> seeds the per-query hard memory budget
  // (soft check: overrunning queries fail with ResourceExhausted, nothing
  // aborts). Zero/absent = unlimited.
  if (const char* env = std::getenv("DL2SQL_QUERY_MEM_LIMIT")) {
    const long long parsed = std::strtoll(env, nullptr, 10);
    if (parsed > 0) query_mem_limit_.store(parsed, std::memory_order_relaxed);
  }
  // DL2SQL_STORAGE=paged selects the out-of-core paged storage mode at
  // construction (pool budget and the other knobs come from their own env
  // variables via StorageOptions::FromEnv). An engine that fails to open —
  // no writable temp directory — degrades to in-memory with a warning
  // instead of failing construction.
  if (const char* env = std::getenv("DL2SQL_STORAGE")) {
    const std::string v = env;
    if (v == "paged" || v == "PAGED") {
      const Status st = set_storage_mode(StorageMode::kPaged);
      if (!st.ok()) {
        DL2SQL_LOG(Warning)
            << "DL2SQL_STORAGE=paged: storage engine unavailable, staying "
               "in-memory: "
            << st.ToString();
      }
    } else if (v != "memory" && v != "MEMORY" && !v.empty()) {
      DL2SQL_LOG(Warning) << "DL2SQL_STORAGE='" << v
                          << "' not recognized (want 'paged' or 'memory'); "
                             "staying in-memory";
    }
  }
  if (introspection_options_.enabled) {
    query_log_ =
        std::make_unique<QueryLog>(introspection_options_.query_log_capacity);
    RegisterDatabaseSystemTables(this);
  }
}

void Database::set_cache_options(CacheOptions opts) {
  cache_options_ = opts;
  RebuildCaches();
}

Status Database::set_storage_mode(StorageMode mode) {
  return set_storage_mode(mode, storage::StorageOptions::FromEnv());
}

Status Database::set_storage_mode(StorageMode mode,
                                  const storage::StorageOptions& options) {
  if (mode == StorageMode::kPaged && storage_ == nullptr) {
    DL2SQL_ASSIGN_OR_RETURN(storage_, storage::StorageEngine::Create(options));
  }
  storage_mode_ = mode;
  return Status::OK();
}

Status Database::MaybePageOut(Table* table) {
  if (storage_mode_ != StorageMode::kPaged || storage_ == nullptr ||
      table == nullptr || table->is_paged() || table->num_columns() == 0) {
    return Status::OK();
  }
  if (table->ByteSize() < storage_->options().page_min_bytes) {
    return Status::OK();
  }
  return table->PageOut(storage_);
}

void Database::TallySpill(int64_t bytes, int64_t partitions) {
  if (QueryTally* tally = tls_tally_) {
    tally->spill_bytes += bytes;
    tally->spill_partitions += partitions;
  }
  static Counter* const spill_bytes_counter =
      MetricsRegistry::Global().counter("db.spill.bytes");
  static Counter* const spill_partitions_counter =
      MetricsRegistry::Global().counter("db.spill.partitions");
  if (bytes > 0) spill_bytes_counter->Increment(bytes);
  if (partitions > 0) spill_partitions_counter->Increment(partitions);
}

void Database::RebuildCaches() {
  nudf_cache_ =
      cache_options_.enable_nudf_cache
          ? std::make_unique<ShardedLruCache>("nudf",
                                              cache_options_.nudf_cache_bytes)
          : nullptr;
  plan_cache_ =
      cache_options_.enable_plan_cache
          ? std::make_unique<ShardedLruCache>("plan",
                                              cache_options_.plan_cache_bytes)
          : nullptr;
}

uint64_t Database::PlanCacheKey(const SelectStmt& stmt) const {
  uint64_t key = Hash64(sql::PrintSelect(stmt));
  const uint64_t opt_bits =
      (opt_options_.enable_pushdown ? 1u : 0u) |
      (opt_options_.enable_join_reorder ? 2u : 0u) |
      (opt_options_.enable_nudf_hints ? 4u : 0u);
  key = HashCombine(key, opt_bits);
  key = HashCombine(key, reinterpret_cast<uintptr_t>(
                             opt_options_.cost_model.get()));
  uint64_t parallelism = 1;
  if (exec_options_.device != nullptr) {
    parallelism =
        static_cast<uint64_t>(exec_options_.device->pool()->num_threads());
  }
  key = HashCombine(key, parallelism);
  // Registering any UDF bumps the registry version: plans embed resolved UDF
  // metadata (selectivity, per-call cost), so a redeploy must miss.
  return HashCombine(key, udfs_.version());
}

EvalContext Database::MakeEvalContext() {
  EvalContext ctx;
  ctx.udfs = &udfs_;
  ctx.costs = costs_;
  ctx.vectorized = vectorized_;
  ctx.nudf_cache = nudf_cache_.get();
  if (exec_options_.device != nullptr) {
    ctx.pool = exec_options_.device->pool();
    if (exec_options_.morsel_size > 0) {
      ctx.morsel_size = exec_options_.morsel_size;
    }
  }
  ctx.subquery_exec = [this](const SelectStmt& stmt) -> Result<Value> {
    DL2SQL_ASSIGN_OR_RETURN(Table t, ExecuteSelect(stmt));
    if (t.num_rows() != 1 || t.num_columns() != 1) {
      return Status::InvalidArgument("scalar subquery returned ", t.num_rows(),
                                     "x", t.num_columns(),
                                     ", expected exactly one value");
    }
    return t.column(0).GetValue(0);
  };
  return ctx;
}

double Database::DrainEvalContext(const EvalContext& ctx) {
  neural_calls_.fetch_add(ctx.neural_calls, std::memory_order_relaxed);
  // Contexts are drained on the query's calling thread, so the per-query
  // tally (when a recorded statement is running) needs no synchronization.
  if (QueryTally* tally = tls_tally_) {
    tally->neural_calls += ctx.neural_calls;
    tally->nudf_cache_hits += ctx.nudf_cache_hits;
    tally->vector_batches += ctx.vec_batches;
  }
  if (ctx.vec_batches > 0) {
    static Counter* const batches_counter =
        MetricsRegistry::Global().counter("db.vector.batches");
    static Counter* const rows_counter =
        MetricsRegistry::Global().counter("db.vector.rows");
    static Counter* const selected_counter =
        MetricsRegistry::Global().counter("db.vector.selected");
    batches_counter->Increment(ctx.vec_batches);
    rows_counter->Increment(ctx.vec_rows_in);
    selected_counter->Increment(ctx.vec_rows_selected);
    if (collect_node_stats_) {
      // Parked per-thread until the enclosing ExecNode wrapper claims it for
      // its NodeRunStats; children consume their own drains first, so a
      // parent wrapper only ever sees its own operators' kernels.
      tls_pending_vec_stats.batches += ctx.vec_batches;
      tls_pending_vec_stats.rows_in += ctx.vec_rows_in;
      tls_pending_vec_stats.rows_selected += ctx.vec_rows_selected;
    }
  }
  return ctx.inference_seconds;
}

Result<Table> Database::Execute(const std::string& sql) {
  DL2SQL_ASSIGN_OR_RETURN(Statement stmt, sql::ParseStatement(sql));
  return ExecuteStatementRecorded(stmt, sql, QueryRecordHints{});
}

namespace {

QueryKind KindOfStatement(const Statement& stmt) {
  if (std::holds_alternative<std::shared_ptr<SelectStmt>>(stmt)) {
    return QueryKind::kSelect;
  }
  if (std::holds_alternative<InsertStmt>(stmt)) return QueryKind::kInsert;
  if (std::holds_alternative<UpdateStmt>(stmt)) return QueryKind::kUpdate;
  if (std::holds_alternative<DeleteStmt>(stmt)) return QueryKind::kDelete;
  if (std::holds_alternative<CreateTableStmt>(stmt) ||
      std::holds_alternative<DropStmt>(stmt)) {
    return QueryKind::kDdl;
  }
  return QueryKind::kOther;
}

}  // namespace

Result<Table> Database::ExecuteStatementRecorded(const Statement& stmt,
                                                 const std::string& sql,
                                                 const QueryRecordHints& hints) {
  if (query_log_ == nullptr) return ExecuteStatement(stmt);

  // Resource accounting: a per-query tracker parented under the session's
  // (serving) or the process root (embedded), carrying the optional hard
  // budget. Declared before the tally so the tally's operator trackers —
  // its children — are destroyed first, releasing their outstanding charges
  // up the chain in order.
  const bool profile = MemTracker::Enabled();
  std::unique_ptr<MemTracker> query_mem;
  QueryTally tally;
  int64_t cpu0_ns = 0;
  int64_t pool_cpu0_ns = 0;
  int64_t pool_wait0_us = 0;
  if (profile) {
    query_mem = std::make_unique<MemTracker>(
        "query-" + std::to_string(query_log_->total_recorded()),
        hints.session_mem != nullptr ? hints.session_mem
                                     : MemTracker::Process(),
        query_mem_limit_.load(std::memory_order_relaxed));
    tally.mem = query_mem.get();
    cpu0_ns = ThreadCpuNanos();
    pool_cpu0_ns = ThreadPool::credited_cpu_ns();
    pool_wait0_us = ThreadPool::credited_queue_wait_us();
  }
  // Save/restore: a recorded statement can reach another recorded execution
  // on the same thread (scripted pipelines); inner statements keep their own
  // tallies and the outer record stays scoped to its own work.
  QueryTally* const prev = tls_tally_;
  tls_tally_ = &tally;
  Stopwatch watch;
  auto result = ExecuteStatement(stmt);
  const int64_t duration_us = static_cast<int64_t>(watch.ElapsedMicros());
  tls_tally_ = prev;

  QueryLogRecord rec;
  rec.sql = sql;
  rec.kind = KindOfStatement(stmt);
  if (!result.ok()) rec.error = result.status().ToString();
  rec.duration_us = duration_us;
  rec.rows = result.ok() ? result->num_rows() : 0;
  rec.neural_calls = tally.neural_calls;
  rec.nudf_cache_hits = tally.nudf_cache_hits;
  rec.plan_cache_hit = tally.plan_cache_hit;
  rec.admission_wait_us = hints.admission_wait_us;
  rec.session_id = hints.session_id;
  rec.peak_operator_bytes = tally.peak_operator_bytes;
  rec.operator_rows = tally.operator_rows;
  rec.vector_batches = tally.vector_batches;
  rec.spill_bytes = tally.spill_bytes;
  rec.spill_partitions = tally.spill_partitions;
  rec.end_micros = TraceCollector::NowMicros();
  rec.lock_wait_us = hints.lock_wait_us;
  // Distributed trace stamp: the wire header wins; otherwise inherit the
  // thread's scoped context so embedded use under ScopedTraceContext tags too.
  if (hints.trace_id != 0) {
    rec.trace_id = hints.trace_id;
    rec.parent_span_id = hints.parent_span_id;
  } else {
    const TraceContext ctx = CurrentTraceContext();
    rec.trace_id = ctx.trace_id;
    rec.parent_span_id = ctx.parent_span_id;
  }
  if (profile) {
    // CPU = this thread's execution time plus pool-morsel time the pool
    // credited back to this thread; with parallel morsels the sum can
    // legitimately exceed wall time (work done concurrently).
    rec.cpu_us = (ThreadCpuNanos() - cpu0_ns +
                  ThreadPool::credited_cpu_ns() - pool_cpu0_ns) /
                 1000;
    rec.pool_queue_wait_us =
        ThreadPool::credited_queue_wait_us() - pool_wait0_us;
    rec.mem_peak_bytes = query_mem->peak();
    rec.mem_cumulative_bytes = query_mem->cumulative();
    // Static handles: one registry lookup for the process lifetime.
    static Histogram* const h_mem_peak =
        MetricsRegistry::Global().histogram("dl2sql.query.mem_peak_bytes");
    static Histogram* const h_cpu =
        MetricsRegistry::Global().histogram("dl2sql.query.cpu_us");
    static Histogram* const h_lock_wait =
        MetricsRegistry::Global().histogram("dl2sql.query.lock_wait_us");
    static Histogram* const h_pool_wait =
        MetricsRegistry::Global().histogram("dl2sql.query.pool_queue_wait_us");
    h_mem_peak->Record(rec.mem_peak_bytes);
    h_cpu->Record(rec.cpu_us);
    h_lock_wait->Record(rec.lock_wait_us);
    h_pool_wait->Record(rec.pool_queue_wait_us);
  }
  query_log_->Record(rec);
  if (hints.record_out != nullptr) *hints.record_out = rec;

  const double threshold_ms = slow_query_ms_.load(std::memory_order_relaxed);
  const double duration_ms = static_cast<double>(duration_us) / 1000.0;
  if (threshold_ms > 0 && duration_ms >= threshold_ms) {
    std::string plan_text;
    if (rec.kind == QueryKind::kSelect) {
      if (tally.plan != nullptr) {
        plan_text = tally.plan->ToString();
        if (!plan_text.empty() && plan_text.back() == '\n') {
          plan_text.pop_back();
        }
      }
    }
    std::string breakdown;
    if (profile) {
      breakdown = " [cpu=" + std::to_string(rec.cpu_us) +
                  "us, mem_peak=" + std::to_string(rec.mem_peak_bytes) +
                  "B, waits(us): admission=" +
                  std::to_string(rec.admission_wait_us) +
                  " lock=" + std::to_string(rec.lock_wait_us) +
                  " pool_queue=" + std::to_string(rec.pool_queue_wait_us) +
                  "]";
    }
    DL2SQL_LOG(Warning) << "slow query (" << duration_ms << " ms >= "
                        << threshold_ms << " ms threshold): " << rec.sql
                        << (rec.error.empty() ? "" : " [error: " + rec.error + "]")
                        << breakdown
                        << (plan_text.empty() ? ""
                                              : "\nplan:\n" + plan_text);
  }
  return result;
}

namespace {

/// Error-context tag for one script statement: 1-based index plus its SQL
/// text (middle-elided past ~120 chars so a giant INSERT stays readable).
std::string StatementContext(size_t index, const std::string& sql) {
  constexpr size_t kMaxSql = 120;
  std::string text = sql;
  for (char& c : text) {
    if (c == '\n' || c == '\r' || c == '\t') c = ' ';
  }
  if (text.size() > kMaxSql) {
    text = text.substr(0, kMaxSql / 2) + " ... " +
           text.substr(text.size() - kMaxSql / 2);
  }
  return "statement #" + std::to_string(index + 1) + ": " + text;
}

}  // namespace

Status Database::ExecuteScript(const std::string& script) {
  // Split first so every error — parse or execution — can name the failing
  // statement's position and SQL text. Parse the whole script before running
  // anything, preserving ParseScript's all-or-nothing semantics for syntax
  // errors.
  const std::vector<std::string> pieces = sql::SplitStatements(script);
  std::vector<Statement> stmts;
  stmts.reserve(pieces.size());
  for (size_t i = 0; i < pieces.size(); ++i) {
    auto parsed = sql::ParseStatement(pieces[i]);
    if (!parsed.ok()) {
      return parsed.status().WithContext(StatementContext(i, pieces[i]));
    }
    stmts.push_back(std::move(parsed).ValueOrDie());
  }
  for (size_t i = 0; i < stmts.size(); ++i) {
    Status st =
        ExecuteStatementRecorded(stmts[i], pieces[i], QueryRecordHints{})
            .status();
    if (!st.ok()) return st.WithContext(StatementContext(i, pieces[i]));
  }
  return Status::OK();
}

Result<Table> Database::ExecuteStatement(const Statement& stmt) {
  if (std::holds_alternative<std::shared_ptr<SelectStmt>>(stmt)) {
    return ExecuteSelect(*std::get<std::shared_ptr<SelectStmt>>(stmt));
  }
  if (std::holds_alternative<CreateTableStmt>(stmt)) {
    return ExecCreateTable(std::get<CreateTableStmt>(stmt));
  }
  if (std::holds_alternative<InsertStmt>(stmt)) {
    return ExecInsert(std::get<InsertStmt>(stmt));
  }
  if (std::holds_alternative<UpdateStmt>(stmt)) {
    return ExecUpdate(std::get<UpdateStmt>(stmt));
  }
  if (std::holds_alternative<DeleteStmt>(stmt)) {
    return ExecDelete(std::get<DeleteStmt>(stmt));
  }
  if (std::holds_alternative<DropStmt>(stmt)) {
    return ExecDrop(std::get<DropStmt>(stmt));
  }
  return Status::InternalError("unknown statement variant");
}

Result<PlanPtr> Database::PlanQuery(const SelectStmt& stmt,
                                    std::vector<std::string>* referenced) {
  Planner planner(&catalog_, &udfs_, referenced);
  DL2SQL_ASSIGN_OR_RETURN(PlanPtr plan, planner.PlanSelect(stmt));
  CostContext cctx;
  cctx.catalog = &catalog_;
  cctx.udfs = &udfs_;
  if (exec_options_.device != nullptr) {
    cctx.parallelism =
        static_cast<double>(exec_options_.device->pool()->num_threads());
  }
  Optimizer optimizer(opt_options_, cctx);
  return optimizer.Optimize(std::move(plan));
}

Result<std::string> Database::Explain(const std::string& sql) {
  DL2SQL_ASSIGN_OR_RETURN(Statement stmt, sql::ParseStatement(sql));
  if (!std::holds_alternative<std::shared_ptr<SelectStmt>>(stmt)) {
    return Status::InvalidArgument("EXPLAIN supports only SELECT");
  }
  DL2SQL_ASSIGN_OR_RETURN(
      PlanPtr plan, PlanQuery(*std::get<std::shared_ptr<SelectStmt>>(stmt)));
  CostContext cctx;
  cctx.catalog = &catalog_;
  cctx.udfs = &udfs_;
  if (exec_options_.device != nullptr) {
    cctx.parallelism =
        static_cast<double>(exec_options_.device->pool()->num_threads());
  }
  const CostModel* model = opt_options_.cost_model.get();
  std::shared_ptr<const CostModel> fallback;
  if (model == nullptr) {
    fallback = std::make_shared<DefaultCostModel>();
    model = fallback.get();
  }
  DL2SQL_RETURN_NOT_OK(model->Annotate(plan.get(), cctx));
  return plan->ToString();
}

Result<Table> Database::ExecuteSelect(const SelectStmt& stmt) {
  if (plan_cache_ == nullptr) {
    DL2SQL_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(stmt));
    SetLastPlan(plan);
    return ExecRoot(*plan);
  }

  const uint64_t key = PlanCacheKey(stmt);
  std::shared_ptr<const CachedPlan> hit;
  {
    // The span covers the probe only; a hit's plan executes after it.
    DL2SQL_TRACE_SPAN("cache", "plan_probe");
    // A stale entry (DDL/DML bumped a referenced relation, or the cost
    // model was swapped) is dropped and counted as a miss; planning falls
    // through to a fresh plan.
    hit = plan_cache_->LookupFreshAs<CachedPlan>(
        key, [this](const CachedPlan& cached) {
          if (cached.cost_model != opt_options_.cost_model) return false;
          for (const auto& [name, version] : cached.deps) {
            if (catalog_.VersionOf(name) != version) return false;
          }
          return true;
        });
  }
  if (hit != nullptr) {
    if (QueryTally* tally = tls_tally_) tally->plan_cache_hit = true;
    SetLastPlan(hit->plan);
    return ExecRoot(*hit->plan);
  }

  std::vector<std::string> referenced;
  DL2SQL_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(stmt, &referenced));
  // A temporary relation (DL2SQL runtime tables, DB-PyTorch's __indep_*
  // tables) is dropped and re-registered on every run, so a plan over one is
  // stale at its next lookup: caching it would only fill the budget.
  if (std::any_of(referenced.begin(), referenced.end(),
                  [this](const std::string& name) {
                    return catalog_.IsTemporary(name);
                  })) {
    SetLastPlan(plan);
    return ExecRoot(*plan);
  }
  auto entry = std::make_shared<CachedPlan>();
  entry->plan = plan;
  entry->cost_model = opt_options_.cost_model;
  std::sort(referenced.begin(), referenced.end());
  referenced.erase(std::unique(referenced.begin(), referenced.end()),
                   referenced.end());
  entry->deps.reserve(referenced.size());
  size_t charge = 4096;  // plan tree + entry bookkeeping, order of magnitude
  for (const std::string& name : referenced) {
    entry->deps.emplace_back(name, catalog_.VersionOf(name));
    charge += name.size() + sizeof(uint64_t);
  }
  plan_cache_->Insert(key, std::move(entry), charge);
  SetLastPlan(plan);
  return ExecRoot(*plan);
}

Result<Table> Database::ExecutePlan(const PlanNode& plan) {
  return ExecRoot(plan);
}

Result<Table> Database::ExecRoot(const PlanNode& plan) {
  DL2SQL_ASSIGN_OR_RETURN(Table out, ExecNode(plan));
  // Callers of a SELECT — result consumers, CTAS, subqueries — expect
  // resident columns; a paged root output (e.g. a bare scan of a paged base
  // table) decodes here.
  DL2SQL_RETURN_NOT_OK(out.EnsureResident());
  return out;
}

Status Database::RegisterTable(const std::string& name, Table table,
                               bool temporary) {
  if (catalog_.HasTable(name)) {
    DL2SQL_RETURN_NOT_OK(catalog_.DropTable(name, false));
  }
  DL2SQL_RETURN_NOT_OK(MaybePageOut(&table));
  return catalog_.CreateTable(name, std::make_shared<Table>(std::move(table)),
                              temporary);
}

// ------------------------------------------------------------- operators ----

MemTracker* Database::OpScratchTracker(PlanKind kind) {
  QueryTally* const tally = tls_tally_;
  if (tally == nullptr || tally->mem == nullptr) return nullptr;
  auto& slot = tally->op_trackers[static_cast<int>(kind)];
  if (slot == nullptr) {
    slot = std::make_unique<MemTracker>(OpTrackerLabel(kind), tally->mem);
  }
  return slot.get();
}

Status Database::ChargeOperatorOutput(QueryTally* tally, const PlanNode& node,
                                      int64_t out_bytes) {
  if (out_bytes <= 0) return Status::OK();
  auto& slot = tally->op_trackers[static_cast<int>(node.kind)];
  if (slot == nullptr) {
    slot = std::make_unique<MemTracker>(OpTrackerLabel(node.kind), tally->mem);
  }
  DL2SQL_RETURN_NOT_OK(slot->TryConsume(out_bytes));
  if (!tally->mem_frames.empty()) {
    // Parent operator holds this output as an input; released when it pops
    // its frame. The root output has no parent frame and stays charged until
    // the statement's trackers are destroyed.
    tally->mem_frames.back().emplace_back(slot.get(), out_bytes);
  }
  return Status::OK();
}

Result<bool> Database::TryEnsureResident(PlanKind kind, Table* t) {
  if (!t->is_paged()) return true;
  const int64_t bytes = static_cast<int64_t>(t->ByteSize());
  QueryTally* const tally = tls_tally_;
  if (tally != nullptr && tally->mem != nullptr) {
    MemTracker* const tracker = OpScratchTracker(kind);
    // Admission check: does the resident form fit under the query budget?
    // On admission the charge is parked in the operator's own frame (popped
    // when it finishes), billing the materialized input for exactly as long
    // as the operator holds it.
    if (!tracker->TryConsume(bytes).ok()) return false;
    if (!tally->mem_frames.empty()) {
      tally->mem_frames.back().emplace_back(tracker, bytes);
    } else {
      tracker->Release(bytes);
    }
  }
  DL2SQL_RETURN_NOT_OK(t->EnsureResident());
  return true;
}

Result<Table> Database::ExecNode(const PlanNode& node) {
  return ExecNodeWith(node, [&] { return ExecNodeImpl(node); });
}

Result<Table> Database::ExecNodeWith(
    const PlanNode& node, const std::function<Result<Table>()>& body) {
  DL2SQL_TRACE_SPAN("db", PlanKindToString(node.kind));
  // Per-operator accounting for the recorded statement running on this
  // thread (system.queries / system.query_profiles): output rows across all
  // plan nodes, the peak single-operator materialized footprint, and —
  // with resource accounting enabled — charge-frame memory attribution.
  // One TLS load when no recorded statement is active.
  QueryTally* const tally = tls_tally_;
  if (tally == nullptr && !collect_node_stats_) return body();

  const bool track = tally != nullptr && tally->mem != nullptr;
  if (track) tally->mem_frames.emplace_back();
  auto result = collect_node_stats_ ? ExecNodeCollect(node, body) : body();
  if (track) {
    // Children's outputs — charged into this operator's frame when their own
    // wrappers finished — die with this operator, like their Tables do.
    for (const auto& [t, bytes] : tally->mem_frames.back()) t->Release(bytes);
    tally->mem_frames.pop_back();
  }
  if (tally != nullptr && result.ok()) {
    // Resident bytes, not logical: a paged output's payload lives in the
    // buffer pool (billed to storage.buffer_pool), not in this query.
    const int64_t out_bytes = static_cast<int64_t>(result->ResidentBytes());
    tally->operator_rows += result->num_rows();
    tally->peak_operator_bytes =
        std::max(tally->peak_operator_bytes, out_bytes);
    if (track) {
      DL2SQL_RETURN_NOT_OK(ChargeOperatorOutput(tally, node, out_bytes));
    }
  }
  return result;
}

Result<Table> Database::ExecNodeCollect(
    const PlanNode& node, const std::function<Result<Table>()>& body) {
  ThreadPool* pool =
      exec_options_.device != nullptr ? exec_options_.device->pool() : nullptr;
  const int workers = pool != nullptr ? pool->num_threads() : 0;
  std::vector<double> busy_before(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    busy_before[static_cast<size_t>(w)] = pool->worker_busy_seconds(w);
  }

  Stopwatch watch;
  auto result = body();
  const double elapsed = watch.ElapsedSeconds();

  // Claim the vectorized-kernel stats this operator's context drains parked
  // on this thread. Child operators ran inside `body` through their own
  // ExecNode wrappers, which already claimed theirs.
  const vec::VectorOpStats vstats = tls_pending_vec_stats;
  tls_pending_vec_stats = vec::VectorOpStats{};

  std::lock_guard<std::mutex> lock(node_stats_mu_);
  NodeRunStats& stats = node_stats_[&node];
  stats.cumulative_seconds += elapsed;
  stats.vec_batches += vstats.batches;
  stats.vec_rows_in += vstats.rows_in;
  stats.vec_rows_selected += vstats.rows_selected;
  if (result.ok()) {
    stats.rows += result->num_rows();
    stats.output_bytes = std::max(
        stats.output_bytes, static_cast<int64_t>(result->ResidentBytes()));
  }
  if (workers > 0) {
    if (static_cast<int>(stats.worker_busy_seconds.size()) < workers) {
      stats.worker_busy_seconds.resize(static_cast<size_t>(workers), 0.0);
    }
    // Busy-time delta while this subtree ran. Morsels issued by concurrent
    // re-entrant queries would be co-charged, but ExplainAnalyze drives one
    // query at a time.
    for (int w = 0; w < workers; ++w) {
      stats.worker_busy_seconds[static_cast<size_t>(w)] +=
          pool->worker_busy_seconds(w) - busy_before[static_cast<size_t>(w)];
    }
  }
  return result;
}

Result<std::string> Database::ExplainAnalyze(const std::string& sql) {
  DL2SQL_ASSIGN_OR_RETURN(Statement stmt, sql::ParseStatement(sql));
  if (!std::holds_alternative<std::shared_ptr<SelectStmt>>(stmt)) {
    return Status::InvalidArgument("EXPLAIN ANALYZE supports only SELECT");
  }
  DL2SQL_ASSIGN_OR_RETURN(
      PlanPtr plan, PlanQuery(*std::get<std::shared_ptr<SelectStmt>>(stmt)));
  SetLastPlan(plan);
  node_stats_.clear();
  collect_node_stats_ = true;

  // Registry state before execution, captured as one consistent session-
  // local snapshot (single lock acquisition): the footer reports the deltas
  // this query produced (nUDF invocations, cache hits, pool morsels, ...).
  // The previous per-counter enumeration locked the registry once per name,
  // twice, so counters registered mid-query or bumped between the two passes
  // made footers interleave non-deterministically under concurrent sessions.
  MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricsSnapshot counters_before = registry.Snapshot();

  // Resource-accounting profile for the analyzed query: a scratch tracker
  // (declared before the tally so the tally's operator trackers destroy
  // first) plus a scoped tally so the charge frames run exactly as they do
  // for recorded statements.
  const bool profile = MemTracker::Enabled();
  std::unique_ptr<MemTracker> query_mem;
  QueryTally tally;
  int64_t cpu0_ns = 0;
  if (profile) {
    query_mem = std::make_unique<MemTracker>(
        "query-explain", MemTracker::Process(),
        query_mem_limit_.load(std::memory_order_relaxed));
    tally.mem = query_mem.get();
    cpu0_ns = ThreadCpuNanos();
  }
  QueryTally* const prev_tally = tls_tally_;
  tls_tally_ = &tally;
  auto result = ExecNode(*plan);
  tls_tally_ = prev_tally;
  const int64_t cpu_us = profile ? (ThreadCpuNanos() - cpu0_ns) / 1000 : 0;
  collect_node_stats_ = false;
  DL2SQL_RETURN_NOT_OK(result.status());

  std::string out;
  std::function<void(const PlanNode&, int)> render = [&](const PlanNode& n,
                                                         int indent) {
    // First line of the subtree rendering = this node's own description.
    std::string line = n.ToString(indent);
    line = line.substr(0, line.find('\n'));
    out += line;
    auto it = node_stats_.find(&n);
    if (it != node_stats_.end()) {
      double children = 0;
      for (const auto& c : n.children) {
        auto ci = node_stats_.find(c.get());
        if (ci != node_stats_.end()) children += ci->second.cumulative_seconds;
      }
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    " [actual rows=%lld, total=%.4fs, self=%.4fs, "
                    "bytes=%lld]",
                    static_cast<long long>(it->second.rows),
                    it->second.cumulative_seconds,
                    std::max(0.0, it->second.cumulative_seconds - children),
                    static_cast<long long>(it->second.output_bytes));
      out += buf;
      if (it->second.fused) out += " [fused into parent Aggregate]";
      if (it->second.dense_slots > 0) {
        out += " [dense slots=" + std::to_string(it->second.dense_slots) + "]";
      }
      // Vectorized-kernel profile: batches processed and average
      // selection-vector density (rows surviving selection / rows entering
      // the kernels). Omitted for nodes that ran the row path.
      if (it->second.vec_batches > 0) {
        const double density =
            it->second.vec_rows_in > 0
                ? static_cast<double>(it->second.vec_rows_selected) /
                      static_cast<double>(it->second.vec_rows_in)
                : 0.0;
        char vbuf[64];
        std::snprintf(vbuf, sizeof(vbuf), " [batches=%lld, sel_density=%.2f]",
                      static_cast<long long>(it->second.vec_batches), density);
        out += vbuf;
      }
      // Per-worker parallelism breakdown: seconds each pool worker spent
      // inside morsel bodies while this subtree ran. Omitted for nodes whose
      // subtree never touched the pool.
      double busy_total = 0;
      for (double s : it->second.worker_busy_seconds) busy_total += s;
      if (busy_total > 0) {
        out += " [workers:";
        for (size_t w = 0; w < it->second.worker_busy_seconds.size(); ++w) {
          char wbuf[48];
          std::snprintf(wbuf, sizeof(wbuf), " w%zu=%.4fs", w,
                        it->second.worker_busy_seconds[w]);
          out += wbuf;
        }
        out += "]";
      }
    }
    out += "\n";
    for (const auto& c : n.children) render(*c, indent + 1);
  };
  render(*plan, 0);

  // Per-query operator accounting: total rows produced across all plan
  // nodes and the largest single materialized operator output.
  int64_t total_rows = 0;
  int64_t peak_bytes = 0;
  for (const auto& [_, stats] : node_stats_) {
    total_rows += stats.rows;
    peak_bytes = std::max(peak_bytes, stats.output_bytes);
  }
  out += "Operators: rows=" + std::to_string(total_rows) +
         ", peak_bytes=" + std::to_string(peak_bytes) + "\n";

  // Resource-accounting footer: tracked memory per operator kind (peak bytes
  // charged to each "op.<kind>" tracker) and query-level totals. Omitted
  // with DL2SQL_MEM_TRACKER=OFF.
  if (profile) {
    out += "Profile: cpu_us=" + std::to_string(cpu_us) +
           ", mem_peak_bytes=" + std::to_string(query_mem->peak()) +
           ", mem_cumulative_bytes=" +
           std::to_string(query_mem->cumulative()) +
           ", spill_bytes=" + std::to_string(tally.spill_bytes) +
           ", spill_partitions=" + std::to_string(tally.spill_partitions) +
           "\n";
    for (const auto& [kind, tracker] : tally.op_trackers) {
      (void)kind;
      out += "  " + tracker->label() +
             ": peak_bytes=" + std::to_string(tracker->peak()) +
             ", cumulative_bytes=" + std::to_string(tracker->cumulative()) +
             "\n";
    }
  }

  // Footer: registry counters incremented by this query, computed as the
  // delta of two session-local snapshots.
  const MetricsSnapshot delta =
      MetricsRegistry::SnapshotDelta(counters_before, registry.Snapshot());
  std::string footer;
  for (const auto& [name, value] : delta.counters) {
    if (value == 0) continue;
    footer += "  " + name + "=" + std::to_string(value) + "\n";
  }
  if (!footer.empty()) out += "Counters:\n" + footer;
  return out;
}

namespace {

void CollectColumnRefs(const Expr& e, std::vector<int>* out) {
  if (e.kind == ExprKind::kColumnRef) out->push_back(e.bound_index);
  for (const auto& c : e.children) CollectColumnRefs(*c, out);
}

/// Plan-shape conditions of the fused join→aggregate: the aggregate's child
/// is an inner equi-join with no residual condition that is not a
/// symmetric-hash join, and every group key and aggregate argument is a
/// bound column reference or a numeric program (vec::CompileNum, judged
/// here over empty columns of the join's output types). Whether the
/// referenced columns are NULL-free is checked once the inputs exist.
bool FusableJoinAggregate(const PlanNode& agg, const PlanNode& join) {
  if (join.kind != PlanKind::kJoin || join.equi_keys.empty() ||
      join.join_condition != nullptr || join.use_symmetric_hash) {
    return false;
  }
  std::vector<Column> typed;
  for (const Field& f : join.output_schema.fields()) typed.emplace_back(f.type);
  const int width = static_cast<int>(typed.size());
  const vec::ColumnResolver resolve = [&](const Expr& c) -> const Column* {
    return c.bound_index >= 0 && c.bound_index < width
               ? &typed[static_cast<size_t>(c.bound_index)]
               : nullptr;
  };
  auto fits = [&](const Expr& e) {
    if (e.kind == ExprKind::kColumnRef) return resolve(e) != nullptr;
    return vec::CompileNum(e, resolve) != nullptr;
  };
  for (const auto& k : agg.group_keys) {
    if (!fits(*k)) return false;
  }
  for (const auto& call : agg.agg_calls) {
    if (call->agg_func != AggFunc::kCountStar && !fits(*call->children[0])) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<Table> Database::ExecNodeImpl(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kScan:
      return ExecScan(node);
    case PlanKind::kFilter: {
      DL2SQL_ASSIGN_OR_RETURN(Table in, ExecNode(*node.children[0]));
      return ExecFilter(node, std::move(in));
    }
    case PlanKind::kProject: {
      DL2SQL_ASSIGN_OR_RETURN(Table in, ExecNode(*node.children[0]));
      return ExecProject(node, std::move(in));
    }
    case PlanKind::kJoin: {
      DL2SQL_ASSIGN_OR_RETURN(Table l, ExecNode(*node.children[0]));
      DL2SQL_ASSIGN_OR_RETURN(Table r, ExecNode(*node.children[1]));
      return ExecJoin(node, std::move(l), std::move(r));
    }
    case PlanKind::kAggregate: {
      const PlanNode& child = *node.children[0];
      if (vectorized_ && FusableJoinAggregate(node, child)) {
        DL2SQL_ASSIGN_OR_RETURN(Table l, ExecNode(*child.children[0]));
        DL2SQL_ASSIGN_OR_RETURN(Table r, ExecNode(*child.children[1]));
        if (!l.is_paged() && !r.is_paged()) {
          DL2SQL_ASSIGN_OR_RETURN(std::optional<Table> fused,
                                  ExecJoinAggregate(node, child, l, r));
          if (fused.has_value()) return std::move(*fused);
        }
        DL2SQL_ASSIGN_OR_RETURN(Table in, ExecNodeWith(child, [&] {
                                  return ExecJoin(child, std::move(l),
                                                  std::move(r));
                                }));
        return ExecAggregate(node, std::move(in));
      }
      DL2SQL_ASSIGN_OR_RETURN(Table in, ExecNode(child));
      return ExecAggregate(node, std::move(in));
    }
    case PlanKind::kSort: {
      DL2SQL_ASSIGN_OR_RETURN(Table in, ExecNode(*node.children[0]));
      return ExecSort(node, std::move(in));
    }
    case PlanKind::kLimit: {
      DL2SQL_ASSIGN_OR_RETURN(Table in, ExecNode(*node.children[0]));
      Stopwatch watch;
      const int64_t n = std::min<int64_t>(in.num_rows(),
                                          node.limit < 0 ? in.num_rows()
                                                         : node.limit);
      std::vector<int64_t> rows(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) rows[static_cast<size_t>(i)] = i;
      Table out = in.TakeRows(rows);
      ChargeOperator(costs_, "limit", watch.ElapsedSeconds(), 0);
      return out;
    }
  }
  return Status::InternalError("unhandled plan node kind");
}

Result<Table> Database::ExecScan(const PlanNode& node) {
  Stopwatch watch;
  if (node.table_name.empty()) {
    // SELECT without FROM: one phantom row.
    Table t{TableSchema{}};
    t.SetZeroColumnRows(1);
    return t;
  }
  TablePtr table;
  if (auto provider = catalog_.GetVirtualTable(node.table_name)) {
    // Virtual tables have no stored columns: every scan materializes fresh
    // rows from live engine state, so even a plan-cache hit sees current
    // data.
    DL2SQL_ASSIGN_OR_RETURN(table, provider->Materialize());
    if (table->num_columns() != node.output_schema.num_fields()) {
      return Status::InternalError(
          "virtual table '", node.table_name, "' materialized ",
          table->num_columns(), " columns, plan expected ",
          node.output_schema.num_fields());
    }
  } else {
    DL2SQL_ASSIGN_OR_RETURN(table, catalog_.GetTable(node.table_name));
  }
  if (table->is_paged()) {
    // Zero-copy paged view: the scan output shares the table's backing under
    // the plan's qualified schema. Consumers either window over it, spill,
    // or materialize it after an admission check (TryEnsureResident).
    Table out = Table::FromPaged(node.output_schema, table->paged());
    ChargeOperator(costs_, "scan", watch.ElapsedSeconds(), 0);
    return out;
  }
  // Columns are shared copy-on-write; only the schema is rewritten with the
  // qualified names assigned at planning time.
  std::vector<Column> cols;
  cols.reserve(static_cast<size_t>(table->num_columns()));
  for (int i = 0; i < table->num_columns(); ++i) cols.push_back(table->column(i));
  DL2SQL_ASSIGN_OR_RETURN(Table out,
                          Table::FromColumns(node.output_schema, std::move(cols)));
  ChargeOperator(costs_, "scan", watch.ElapsedSeconds(), 0);
  return out;
}

namespace {

/// Accumulates windowed operator output back into paged storage, so the
/// streaming operators (filter/project, spill merges) never hold more than
/// one window of output resident. Finish() materializes small results
/// (< page_min_bytes) so trivially-sized paged tables don't escape into the
/// plan and force every consumer through the windowed machinery.
class PagedResultWriter {
 public:
  PagedResultWriter(std::shared_ptr<storage::StorageEngine> engine,
                    TableSchema schema)
      : engine_(std::move(engine)),
        schema_(schema),
        builder_(engine_, std::move(schema)) {}

  Status Append(const Table& t) { return builder_.Append(t); }

  Result<Table> Finish() {
    DL2SQL_ASSIGN_OR_RETURN(std::shared_ptr<storage::PagedTableData> data,
                            builder_.Finish());
    Table out = Table::FromPaged(schema_, std::move(data));
    if (out.ByteSize() < engine_->options().page_min_bytes) {
      DL2SQL_RETURN_NOT_OK(out.EnsureResident());
    }
    return out;
  }

 private:
  std::shared_ptr<storage::StorageEngine> engine_;
  TableSchema schema_;
  storage::PagedTableBuilder builder_;
};

}  // namespace

Result<Table> Database::ExecFilter(const PlanNode& node, Table input) {
  if (input.is_paged()) return ExecFilterPaged(node, input);
  Stopwatch watch;
  EvalContext ctx = MakeEvalContext();
  DL2SQL_ASSIGN_OR_RETURN(std::vector<int64_t> rows,
                          FilterRows(*node.predicate, input, &ctx));
  Table out = input.TakeRows(rows);
  const double inf = DrainEvalContext(ctx);
  ChargeOperator(costs_, "filter", watch.ElapsedSeconds(), inf);
  return out;
}

Result<Table> Database::ExecFilterPaged(const PlanNode& node,
                                        const Table& input) {
  Stopwatch watch;
  EvalContext ctx = MakeEvalContext();
  // One window per storage chunk: the predicate is row-local, so evaluating
  // it window-by-window and re-paging the survivors is exactly the resident
  // semantics with bounded residency.
  const std::unique_ptr<storage::ColumnSource> source =
      storage::MakeColumnSource(std::make_shared<Table>(input), 0);
  PagedResultWriter writer(input.paged()->shared_engine(), input.schema());
  for (int64_t w = 0; w < source->num_windows(); ++w) {
    DL2SQL_ASSIGN_OR_RETURN(Table window, source->ReadWindow(w));
    DL2SQL_ASSIGN_OR_RETURN(std::vector<int64_t> rows,
                            FilterRows(*node.predicate, window, &ctx));
    if (!rows.empty()) {
      DL2SQL_RETURN_NOT_OK(writer.Append(window.TakeRows(rows)));
    }
  }
  DL2SQL_ASSIGN_OR_RETURN(Table out, writer.Finish());
  const double inf = DrainEvalContext(ctx);
  ChargeOperator(costs_, "filter", watch.ElapsedSeconds(), inf);
  return out;
}

Result<Table> Database::ExecProject(const PlanNode& node, Table input) {
  if (input.is_paged()) return ExecProjectPaged(node, input);
  Stopwatch watch;
  EvalContext ctx = MakeEvalContext();
  std::vector<Column> cols;
  TableSchema schema;
  for (size_t i = 0; i < node.exprs.size(); ++i) {
    DL2SQL_ASSIGN_OR_RETURN(ColumnHandle col,
                            EvalExpr(*node.exprs[i], input, &ctx));
    cols.push_back(*col);  // cheap: shared payload
    schema.AddField({node.names[i], col->type()});
  }
  const double inf = DrainEvalContext(ctx);
  DL2SQL_ASSIGN_OR_RETURN(Table out,
                          Table::FromColumns(std::move(schema), std::move(cols)));
  if (node.exprs.empty()) out.SetZeroColumnRows(input.num_rows());
  ChargeOperator(costs_, "project", watch.ElapsedSeconds(), inf);
  return out;
}

Result<Table> Database::ExecProjectPaged(const PlanNode& node,
                                         const Table& input) {
  Stopwatch watch;
  EvalContext ctx = MakeEvalContext();
  if (node.exprs.empty()) {
    Table out;
    out.SetZeroColumnRows(input.num_rows());
    ChargeOperator(costs_, "project", watch.ElapsedSeconds(),
                   DrainEvalContext(ctx));
    return out;
  }
  const std::unique_ptr<storage::ColumnSource> source =
      storage::MakeColumnSource(std::make_shared<Table>(input), 0);
  // All expressions are row-local, so projecting each window independently
  // and concatenating reproduces the resident output exactly. The output
  // schema is discovered from the first window's expression types.
  std::unique_ptr<PagedResultWriter> writer;
  for (int64_t w = 0; w < source->num_windows(); ++w) {
    DL2SQL_ASSIGN_OR_RETURN(Table window, source->ReadWindow(w));
    std::vector<Column> cols;
    TableSchema schema;
    for (size_t i = 0; i < node.exprs.size(); ++i) {
      DL2SQL_ASSIGN_OR_RETURN(ColumnHandle col,
                              EvalExpr(*node.exprs[i], window, &ctx));
      cols.push_back(*col);
      schema.AddField({node.names[i], col->type()});
    }
    DL2SQL_ASSIGN_OR_RETURN(
        Table piece, Table::FromColumns(std::move(schema), std::move(cols)));
    if (writer == nullptr) {
      writer = std::make_unique<PagedResultWriter>(
          input.paged()->shared_engine(), piece.schema());
    }
    DL2SQL_RETURN_NOT_OK(writer->Append(piece));
  }
  DL2SQL_CHECK(writer != nullptr) << "paged table with zero chunks";
  DL2SQL_ASSIGN_OR_RETURN(Table out, writer->Finish());
  const double inf = DrainEvalContext(ctx);
  ChargeOperator(costs_, "project", watch.ElapsedSeconds(), inf);
  return out;
}

struct Database::HashJoinSides {
  bool build_left = false;
  /// Evaluated probe-side keys and, per probe row, the id of its key in
  /// the build table (kAbsent: no match, or a NULL key part).
  std::vector<ColumnHandle> probe_key_cols;
  std::vector<const Column*> probe_keys;
  std::vector<KeyHashTable::KeyId> probe_ids;
  /// A reused prebuilt index, else the table built for this join.
  std::shared_ptr<HashIndex> index;
  KeyHashTable built;

  const KeyHashTable& table() const {
    return index != nullptr ? index->table() : built;
  }

  int64_t probe_rows() const { return static_cast<int64_t>(probe_ids.size()); }

  /// Build rows matching probe row `p`, ascending (empty when none).
  std::pair<const int64_t*, const int64_t*> Matches(int64_t p) const {
    const KeyHashTable::KeyId k = probe_ids[static_cast<size_t>(p)];
    if (k == KeyHashTable::kAbsent) return {nullptr, nullptr};
    return {table().rows_begin(k), table().rows_end(k)};
  }

  /// Appends the (left, right) row pairs of probe row `p` to `lrows` and
  /// `rrows`, in build-row order.
  void AppendPairs(int64_t p, std::vector<int64_t>* lrows,
                   std::vector<int64_t>* rrows) const {
    const auto [b, e] = Matches(p);
    if (b == e) return;
    std::vector<int64_t>* build_rows = build_left ? lrows : rrows;
    std::vector<int64_t>* probe_rows = build_left ? rrows : lrows;
    build_rows->insert(build_rows->end(), b, e);
    probe_rows->insert(probe_rows->end(), static_cast<size_t>(e - b), p);
  }
};

Result<Database::HashJoinSides> Database::PrepareHashJoin(
    const PlanNode& node, const Table& left, const Table& right,
    EvalContext* ctx, ScopedMemCharge* scratch) {
  HashJoinSides s;
  s.build_left = node.join_build_left;
  std::vector<ColumnHandle> build_key_cols;
  for (const auto& [lk, rk] : node.equi_keys) {
    DL2SQL_ASSIGN_OR_RETURN(ColumnHandle lc, EvalExpr(*lk, left, ctx));
    DL2SQL_ASSIGN_OR_RETURN(ColumnHandle rc, EvalExpr(*rk, right, ctx));
    build_key_cols.push_back(s.build_left ? lc : rc);
    s.probe_key_cols.push_back(s.build_left ? rc : lc);
  }
  for (const auto& c : s.probe_key_cols) s.probe_keys.push_back(c.get());
  std::vector<const Column*> build_keys;
  for (const auto& c : build_key_cols) build_keys.push_back(c.get());

  // Canonical hashes and NULL flags a morsel at a time into preallocated
  // arrays (disjoint writes, so any wired pool may run the loop); for the
  // probe side, `table` is given and each morsel also resolves its rows'
  // key ids in it (read-only, so morsels may share it).
  auto hash_keys = [&](const std::vector<const Column*>& keys, int64_t kn,
                       std::vector<uint64_t>* hash,
                       std::vector<uint8_t>* nulls,
                       const KeyHashTable* table) -> Status {
    hash->resize(static_cast<size_t>(kn));
    nulls->resize(static_cast<size_t>(kn));
    if (table != nullptr) s.probe_ids.resize(static_cast<size_t>(kn));
    const int64_t m = ctx->morsel_size;
    auto body = [&](int64_t bgn, int64_t end, int) -> Status {
      vec::KeyNullRange(keys, bgn, end, nulls->data() + bgn);
      vec::HashKeyRange(keys, bgn, end, hash->data() + bgn);
      if (table != nullptr) {
        table->FindRange(keys, bgn, end, hash->data() + bgn,
                         nulls->data() + bgn, s.probe_ids.data() + bgn);
      }
      return Status::OK();
    };
    if (ctx->pool != nullptr) {
      DL2SQL_RETURN_NOT_OK(ctx->pool->ParallelForMorsel(kn, m, body));
    } else {
      for (int64_t b = 0; b < kn; b += m) {
        DL2SQL_RETURN_NOT_OK(body(b, std::min(kn, b + m), 0));
      }
    }
    if (ctx->vectorized) {
      ctx->vec_batches += kn == 0 ? 0 : (kn + m - 1) / m;
      ctx->vec_rows_in += kn;
      ctx->vec_rows_selected += kn;
    }
    return Status::OK();
  };

  // Reuse a prebuilt base-table index when the build side is an unfiltered
  // scan keyed on an indexed column (the shape of the generated
  // neural-operator joins: static kernel/mapping tables on the build side).
  // The index is the same table this join would build.
  const PlanNode& build_plan = *node.children[s.build_left ? 0 : 1];
  const Expr& build_key_expr = s.build_left ? *node.equi_keys[0].first
                                            : *node.equi_keys[0].second;
  if (node.equi_keys.size() == 1 && build_plan.kind == PlanKind::kScan &&
      build_plan.scan_predicates.empty() &&
      build_key_expr.kind == ExprKind::kColumnRef &&
      build_key_expr.bound_index >= 0) {
    const std::string& qualified =
        build_plan.output_schema.field(build_key_expr.bound_index).name;
    const size_t dot = qualified.rfind('.');
    s.index = catalog_.GetIndex(
        build_plan.table_name,
        dot == std::string::npos ? qualified : qualified.substr(dot + 1));
    const int64_t build_rows = (s.build_left ? left : right).num_rows();
    if (s.index != nullptr && s.index->indexed_rows() != build_rows) {
      s.index = nullptr;  // stale snapshot guard
    }
  }
  if (s.index != nullptr) {
    ++index_joins_;
    static Counter* const index_counter =
        MetricsRegistry::Global().counter("db.index_joins");
    index_counter->Increment();
  } else {
    std::vector<uint64_t> bhash;
    std::vector<uint8_t> bnull;
    const int64_t bn = (s.build_left ? left : right).num_rows();
    DL2SQL_RETURN_NOT_OK(hash_keys(build_keys, bn, &bhash, &bnull, nullptr));
    std::vector<Column> keys;
    for (const Column* c : build_keys) keys.push_back(*c);
    s.built = KeyHashTable::ForJoin(std::move(keys), bhash.data(), bnull.data());
    DL2SQL_RETURN_NOT_OK(scratch->Charge(
        s.built.ByteSize() +
        bn * static_cast<int64_t>(sizeof(uint64_t) + 1)));
  }
  const int64_t pn = (s.build_left ? right : left).num_rows();
  std::vector<uint64_t> phash;
  std::vector<uint8_t> pnull;
  DL2SQL_RETURN_NOT_OK(
      hash_keys(s.probe_keys, pn, &phash, &pnull, &s.table()));
  DL2SQL_RETURN_NOT_OK(scratch->Charge(
      pn * static_cast<int64_t>(sizeof(uint64_t) + 1 +
                                sizeof(KeyHashTable::KeyId))));
  return s;
}

Result<Table> Database::ExecJoin(const PlanNode& node, Table left, Table right) {
  if (left.is_paged() || right.is_paged()) {
    // Try to admit each paged side into the query's memory budget; whatever
    // doesn't fit forces the grace (partitioned, spilling) join, which only
    // exists for equi joins. Cross and symmetric-hash joins have no spill
    // path — surface the budget refusal instead of silently thrashing.
    DL2SQL_ASSIGN_OR_RETURN(bool left_fits,
                            TryEnsureResident(PlanKind::kJoin, &left));
    DL2SQL_ASSIGN_OR_RETURN(bool right_fits,
                            TryEnsureResident(PlanKind::kJoin, &right));
    if (!left_fits || !right_fits) {
      if (!node.equi_keys.empty() && !node.use_symmetric_hash) {
        return ExecJoinGrace(node, std::move(left), std::move(right));
      }
      return Status::ResourceExhausted(
          "join input (", left.ByteSize() + right.ByteSize(),
          " bytes) exceeds the query memory budget and this join shape "
          "(cross or symmetric-hash) has no spill path");
    }
  }
  Stopwatch watch;
  EvalContext ctx = MakeEvalContext();
  // Transient join state — build-side hash table, probe hashes and the pair
  // buffer — is charged against op.join while live and released on return.
  // Estimates, not malloc-exact: the accounting answers "which operator
  // holds the memory", not "what does malloc say".
  ScopedMemCharge scratch_mem(OpScratchTracker(PlanKind::kJoin));
  std::vector<std::pair<int64_t, int64_t>> pairs;

  if (node.use_symmetric_hash && node.equi_keys.size() == 1) {
    SymmetricHashJoinStats shj_stats;
    DL2SQL_ASSIGN_OR_RETURN(
        pairs, SymmetricHashJoinPairs(left, right, *node.equi_keys[0].first,
                                      *node.equi_keys[0].second, &ctx,
                                      shj_options_, &shj_stats));
    {
      std::lock_guard<std::mutex> lock(last_run_mu_);
      last_shj_stats_ = shj_stats;
    }
    ++symmetric_joins_;
    static Counter* const symmetric_counter =
        MetricsRegistry::Global().counter("db.symmetric_joins");
    symmetric_counter->Increment();
  } else if (!node.equi_keys.empty()) {
    DL2SQL_ASSIGN_OR_RETURN(
        HashJoinSides sides,
        PrepareHashJoin(node, left, right, &ctx, &scratch_mem));
    // Morsel-parallel probe: the table is immutable once built, so any
    // number of workers may probe it; each probe morsel collects its pairs
    // into its own buffer and the buffers are concatenated in morsel order,
    // which reproduces the serial pair order exactly for every thread count.
    const int64_t pn = sides.probe_rows();
    const int64_t m = ctx.morsel_size;
    auto probe_range = [&](int64_t bgn, int64_t end,
                           std::vector<std::pair<int64_t, int64_t>>* out) {
      for (int64_t p = bgn; p < end; ++p) {
        const auto [b, e] = sides.Matches(p);
        for (const int64_t* r = b; r != e; ++r) {
          if (sides.build_left) {
            out->emplace_back(*r, p);
          } else {
            out->emplace_back(p, *r);
          }
        }
      }
    };
    if (ctx.pool == nullptr || ctx.pool->num_threads() <= 1 || pn <= m) {
      for (int64_t bgn = 0; bgn < pn; bgn += m) {
        probe_range(bgn, std::min(pn, bgn + m), &pairs);
        if (static_cast<int64_t>(pairs.size()) > kMaxJoinPairs) {
          return Status::ResourceExhausted("join produced more than ",
                                           kMaxJoinPairs, " pairs");
        }
      }
    } else {
      std::vector<std::vector<std::pair<int64_t, int64_t>>> parts(
          static_cast<size_t>((pn + m - 1) / m));
      std::atomic<int64_t> total_pairs{0};
      DL2SQL_RETURN_NOT_OK(ctx.pool->ParallelForMorsel(
          pn, m, [&](int64_t bgn, int64_t end, int) -> Status {
            auto& part = parts[static_cast<size_t>(bgn / m)];
            probe_range(bgn, end, &part);
            const int64_t sz = static_cast<int64_t>(part.size());
            if (total_pairs.fetch_add(sz) + sz > kMaxJoinPairs) {
              return Status::ResourceExhausted("join produced more than ",
                                               kMaxJoinPairs, " pairs");
            }
            return Status::OK();
          }));
      pairs.reserve(static_cast<size_t>(total_pairs.load()));
      for (auto& part : parts) {
        pairs.insert(pairs.end(), part.begin(), part.end());
      }
    }
  } else {
    // Cross product (with optional residual condition applied below).
    const int64_t total = left.num_rows() * right.num_rows();
    if (total > kMaxJoinPairs) {
      return Status::ResourceExhausted("cross join of ", left.num_rows(), " x ",
                                       right.num_rows(), " rows is too large");
    }
    pairs.reserve(static_cast<size_t>(total));
    for (int64_t l = 0; l < left.num_rows(); ++l) {
      for (int64_t r = 0; r < right.num_rows(); ++r) pairs.emplace_back(l, r);
    }
  }

  // Materialize the joined table.
  DL2SQL_RETURN_NOT_OK(scratch_mem.Charge(
      static_cast<int64_t>(pairs.size() * sizeof(pairs[0]) * 2)));
  std::vector<int64_t> lrows, rrows;
  lrows.reserve(pairs.size());
  rrows.reserve(pairs.size());
  for (const auto& [l, r] : pairs) {
    lrows.push_back(l);
    rrows.push_back(r);
  }
  Table ltaken = left.TakeRows(lrows);
  Table rtaken = right.TakeRows(rrows);
  std::vector<Column> cols;
  for (int i = 0; i < ltaken.num_columns(); ++i) cols.push_back(ltaken.column(i));
  for (int i = 0; i < rtaken.num_columns(); ++i) cols.push_back(rtaken.column(i));
  DL2SQL_ASSIGN_OR_RETURN(Table joined,
                          Table::FromColumns(node.output_schema, std::move(cols)));

  if (node.join_condition != nullptr) {
    DL2SQL_ASSIGN_OR_RETURN(std::vector<int64_t> keep,
                            FilterRows(*node.join_condition, joined, &ctx));
    joined = joined.TakeRows(keep);
  }
  const double inf = DrainEvalContext(ctx);
  ChargeOperator(costs_, "join", watch.ElapsedSeconds(), inf);
  return joined;
}

Result<std::optional<Table>> Database::ExecJoinAggregate(
    const PlanNode& node, const PlanNode& join, const Table& left,
    const Table& right) {
  const int left_width = left.num_columns();
  auto input_column = [&](int idx) -> const Column& {
    return idx < left_width ? left.column(idx)
                            : right.column(idx - left_width);
  };
  // A batch of join pairs: pair i is row lrows[i] of the left input and row
  // rrows[i] of the right one.
  std::vector<int64_t> lrows, rrows;

  // Group keys and aggregate arguments read bare input columns in place,
  // through the row ids. Only the columns a compiled program reads (and,
  // when grouping is hashed, the key columns) are gathered, batch by batch,
  // into buffers reused from batch to batch.
  std::vector<int> refs;
  for (const auto& k : node.group_keys) CollectColumnRefs(*k, &refs);
  for (const auto& call : node.agg_calls) {
    if (call->agg_func != AggFunc::kCountStar) {
      CollectColumnRefs(*call->children[0], &refs);
    }
  }
  std::sort(refs.begin(), refs.end());
  refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
  std::vector<int> buffer_of(
      static_cast<size_t>(join.output_schema.num_fields()), -1);
  std::vector<Column> gathered;
  gathered.reserve(refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    buffer_of[static_cast<size_t>(refs[i])] = static_cast<int>(i);
    gathered.emplace_back(input_column(refs[i]).type());
  }
  std::vector<uint8_t> gather(refs.size(), 0);  // buffers each batch fills
  auto buffer = [&](const Expr& c) -> const Column* {
    const size_t i =
        static_cast<size_t>(buffer_of[static_cast<size_t>(c.bound_index)]);
    gather[i] = 1;
    return &gathered[i];
  };

  // Batch and whole-table evaluation agree value for value and type for
  // type only over NULL-free operands (a NULL operand turns an arithmetic
  // result FLOAT64), and the aggregate kernels refuse NULL arguments; so
  // only a bare column group key may hold NULLs.
  const vec::ColumnResolver resolve = [&](const Expr& c) -> const Column* {
    return input_column(c.bound_index).HasNulls() ? nullptr : buffer(c);
  };
  // An operand as a batch reads it: an input column through `rows`, or,
  // when `rows` is null, a batch-length column (a compiled program's output
  // or a gathered key).
  struct Operand {
    const Column* col = nullptr;  // nullptr: no operand (COUNT(*), no factor)
    const std::vector<int64_t>* rows = nullptr;
    std::unique_ptr<vec::CompiledNum> program;
    Column out;
  };
  auto bare = [&](const Expr& c, Operand* op) {
    op->col = &input_column(c.bound_index);
    op->rows = c.bound_index < left_width ? &lrows : &rrows;
  };
  auto compile = [&](const Expr& e, Operand* op) {
    op->program = vec::CompileNum(e, resolve);
    if (op->program == nullptr) return false;
    op->out = Column(op->program->is_int ? DataType::kInt64
                                         : DataType::kFloat64);
    op->col = &op->out;
    return true;
  };
  const size_t num_keys = node.group_keys.size();
  const size_t num_aggs = node.agg_calls.size();
  // factors[a] is set when argument a is a product the sum kernels take as
  // two bare columns (BatchAggregator::Compile checks their types).
  std::vector<Operand> keys(num_keys), args(num_aggs), factors(num_aggs);
  for (size_t k = 0; k < num_keys; ++k) {
    const Expr& e = *node.group_keys[k];
    if (e.kind == ExprKind::kColumnRef) {
      bare(e, &keys[k]);
    } else if (!compile(e, &keys[k])) {
      return std::optional<Table>();
    }
  }
  for (size_t a = 0; a < num_aggs; ++a) {
    const Expr& call = *node.agg_calls[a];
    if (call.agg_func == AggFunc::kCountStar) continue;
    const Expr& e = *call.children[0];
    const bool sums = call.agg_func == AggFunc::kSum ||
                      call.agg_func == AggFunc::kAvg ||
                      call.agg_func == AggFunc::kStddevSamp;
    if (e.kind == ExprKind::kColumnRef) {
      bare(e, &args[a]);
    } else if (sums && e.kind == ExprKind::kBinary &&
               e.bin_op == BinaryOp::kMul &&
               e.children[0]->kind == ExprKind::kColumnRef &&
               e.children[1]->kind == ExprKind::kColumnRef) {
      bare(*e.children[0], &args[a]);
      bare(*e.children[1], &factors[a]);
    } else if (!compile(e, &args[a])) {
      return std::optional<Table>();
    }
  }
  auto read = [](const Operand& op) {
    return vec::ColumnRead{op.col,
                           op.rows != nullptr ? op.rows->data() : nullptr};
  };
  std::vector<const Column*> key_cols;
  for (const Operand& k : keys) key_cols.push_back(k.col);
  std::vector<vec::ColumnRead> kreads(num_keys);
  std::vector<vec::ArgRead> areads(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    areads[a] = {read(args[a]), read(factors[a])};
  }
  vec::BatchAggregator agg;
  if (!agg.Compile(node, key_cols, areads)) return std::optional<Table>();

  Stopwatch watch;
  EvalContext ctx = MakeEvalContext();
  ScopedMemCharge join_mem(OpScratchTracker(PlanKind::kJoin));
  ScopedMemCharge agg_mem(OpScratchTracker(PlanKind::kAggregate));

  // Dense slots when every group key is an INT64 program over NULL-free
  // columns whose value bounds (input min/max through interval arithmetic)
  // are narrow enough; the generated conv, pool and FC statements group on
  // (BatchID, output id), whose box is the statement's output size. The
  // bounds hold for every row of the inputs, so every pair's keys lie in
  // the box, and a NULL-bearing column compiles to no program (no bounds).
  std::vector<std::pair<int64_t, int64_t>> bounds;
  const vec::ColumnResolver resolve_input = [&](const Expr& c) {
    return &input_column(c.bound_index);
  };
  for (const auto& k : node.group_keys) {
    const auto program = vec::CompileNum(*k, resolve_input);
    const auto b = program != nullptr ? vec::IntBounds(*program) : std::nullopt;
    if (!b.has_value()) {
      bounds.clear();
      break;
    }
    bounds.push_back(*b);
  }
  const int64_t dense_slots =
      bounds.empty() ? 0
                     : agg.UseDenseSlots(bounds,
                                         left.num_rows() + right.num_rows(),
                                         &agg_mem);

  DL2SQL_ASSIGN_OR_RETURN(HashJoinSides sides,
                          PrepareHashJoin(join, left, right, &ctx, &join_mem));

  // Hashed grouping compares and copies key rows by one row number, so its
  // bare key columns are gathered too. A bare key still hashes through
  // canonical key parts computed once per input row; a pair's key hash then
  // folds the parts of its rows (HashKeyRange's hash, without rehashing
  // every pair).
  std::vector<std::vector<uint64_t>> key_parts(num_keys);
  for (size_t k = 0; k < num_keys && dense_slots == 0; ++k) {
    if (keys[k].rows == nullptr) continue;
    const Column& col = *keys[k].col;
    key_parts[k].resize(static_cast<size_t>(col.size()));
    vec::KeyPartHashRange(col, 0, col.size(), key_parts[k].data());
    keys[k].col = buffer(*node.group_keys[k]);
    keys[k].rows = nullptr;
  }
  std::vector<uint64_t> hashes, part_buf;

  // Batches stay small enough that a batch's row ids, gathered columns,
  // hashes and group ids remain cache-resident between the passes over them.
  const int64_t batch_pairs = 1024;
  DL2SQL_RETURN_NOT_OK(join_mem.Charge(
      batch_pairs * static_cast<int64_t>(2 * sizeof(int64_t))));
  lrows.reserve(static_cast<size_t>(batch_pairs));
  rrows.reserve(static_cast<size_t>(batch_pairs));
  vec::BatchArena arena;
  double groupby_seconds = 0;
  int64_t pairs = 0;
  // Gathers the buffered pairs' program and hashed-key columns (join work),
  // then evaluates the programs and folds the pairs into the group states
  // (groupby).
  auto flush = [&]() -> Status {
    const int64_t n = static_cast<int64_t>(lrows.size());
    pairs += n;
    if (pairs > kMaxJoinPairs) {
      return Status::ResourceExhausted("join produced more than ",
                                       kMaxJoinPairs, " pairs");
    }
    for (size_t i = 0; i < refs.size(); ++i) {
      if (gather[i] == 0) continue;
      const int idx = refs[i];
      if (idx < left_width) {
        gathered[i].TakeFrom(left.column(idx), lrows.data(), n);
      } else {
        gathered[i].TakeFrom(right.column(idx - left_width), rrows.data(), n);
      }
    }
    Stopwatch group_watch;
    arena.Reset();
    for (auto* ops : {&keys, &args}) {
      for (Operand& op : *ops) {
        if (op.program != nullptr) {
          DL2SQL_RETURN_NOT_OK(
              vec::EvalNumInto(*op.program, n, &arena, &op.out));
        }
      }
    }
    const uint64_t* key_hashes = nullptr;
    if (dense_slots == 0 && num_keys > 0) {
      hashes.assign(static_cast<size_t>(n), vec::kKeyHashSeed);
      for (size_t k = 0; k < num_keys; ++k) {
        const uint64_t* parts = key_parts[k].data();
        const int64_t* rows = nullptr;
        if (key_parts[k].empty()) {
          part_buf.resize(static_cast<size_t>(n));
          vec::KeyPartHashRange(*keys[k].col, 0, n, part_buf.data());
          parts = part_buf.data();
        } else {
          rows = node.group_keys[k]->bound_index < left_width ? lrows.data()
                                                              : rrows.data();
        }
        for (int64_t i = 0; i < n; ++i) {
          hashes[static_cast<size_t>(i)] = vec::CombineKeyHash(
              hashes[static_cast<size_t>(i)], parts[rows ? rows[i] : i]);
        }
      }
      key_hashes = hashes.data();
    }
    for (size_t k = 0; k < num_keys; ++k) kreads[k] = read(keys[k]);
    for (size_t a = 0; a < num_aggs; ++a) {
      areads[a] = {read(args[a]), read(factors[a])};
    }
    agg.Consume(kreads, areads, 0, n, pairs - n, key_hashes);
    ++ctx.vec_batches;
    ctx.vec_rows_in += n;
    ctx.vec_rows_selected += n;
    lrows.clear();
    rrows.clear();
    groupby_seconds += group_watch.ElapsedSeconds();
    return Status::OK();
  };
  for (int64_t p = 0; p < sides.probe_rows(); ++p) {
    sides.AppendPairs(p, &lrows, &rrows);
    if (static_cast<int64_t>(lrows.size()) >= batch_pairs) {
      DL2SQL_RETURN_NOT_OK(flush());
    }
  }
  if (!lrows.empty()) DL2SQL_RETURN_NOT_OK(flush());
  Stopwatch finish_watch;
  DL2SQL_RETURN_NOT_OK(agg_mem.Charge(agg.ByteSize()));
  DL2SQL_ASSIGN_OR_RETURN(Table out, agg.Finish(node));
  groupby_seconds += finish_watch.ElapsedSeconds();

  // The join bucket gets the measured wall time outside the aggregate's
  // own measured work (key evaluation, grouping, accumulation, emission).
  const double join_seconds = watch.ElapsedSeconds() - groupby_seconds;
  const double inf = DrainEvalContext(ctx);
  ChargeOperator(costs_, "join", join_seconds, inf);
  ChargeOperator(costs_, "groupby", groupby_seconds, 0);
  static Counter* const fused_counter =
      MetricsRegistry::Global().counter("db.fused_join_aggs");
  fused_counter->Increment();
  if (QueryTally* tally = tls_tally_) tally->operator_rows += pairs;
  if (collect_node_stats_) {
    std::lock_guard<std::mutex> lock(node_stats_mu_);
    NodeRunStats& stats = node_stats_[&join];
    stats.fused = true;
    stats.rows += pairs;
    stats.cumulative_seconds += join_seconds;
    node_stats_[&node].dense_slots = dense_slots;
  }
  return std::optional<Table>(std::move(out));
}

Result<Table> Database::ExecJoinGrace(const PlanNode& node, Table left,
                                      Table right) {
  Stopwatch watch;
  EvalContext ctx = MakeEvalContext();
  // Long-lived grace state (the global pair buffer) bills against op.join;
  // the per-partition build tables are charged on their own scopes below.
  ScopedMemCharge scratch_mem(OpScratchTracker(PlanKind::kJoin));

  std::shared_ptr<storage::StorageEngine> engine =
      left.is_paged() ? left.paged()->shared_engine()
      : right.is_paged() ? right.paged()->shared_engine()
                         : storage_;
  if (engine == nullptr) {
    return Status::InternalError("grace join requires a storage engine");
  }
  const int64_t num_parts =
      std::max<int64_t>(1, engine->options().spill_partitions);

  // Phase 1: partition. Each side spills (global row id, canonical key
  // bytes) pairs into per-partition paged files keyed by hash(key) — the
  // canonical encoding is EncodeRowKey's, so cross-type matches (int vs
  // integral float) behave exactly like the in-memory join. NULL keys never
  // match and are dropped here.
  TableSchema spill_schema;
  spill_schema.AddField({"__row", DataType::kInt64});
  spill_schema.AddField({"__key", DataType::kBlob});

  int64_t spilled_bytes = 0;
  int64_t spilled_parts = 0;

  auto partition_side =
      [&](const Table& side, bool left_side)
      -> Result<std::vector<std::shared_ptr<storage::PagedTableData>>> {
    std::vector<std::unique_ptr<storage::PagedTableBuilder>> builders;
    builders.reserve(static_cast<size_t>(num_parts));
    for (int64_t p = 0; p < num_parts; ++p) {
      builders.push_back(
          std::make_unique<storage::PagedTableBuilder>(engine, spill_schema));
    }
    const std::unique_ptr<storage::ColumnSource> source =
        storage::MakeColumnSource(std::make_shared<Table>(side), 0);
    for (int64_t w = 0; w < source->num_windows(); ++w) {
      DL2SQL_ASSIGN_OR_RETURN(Table window, source->ReadWindow(w));
      const int64_t base = source->window_start(w);
      std::vector<ColumnHandle> keys;
      for (const auto& [lk, rk] : node.equi_keys) {
        DL2SQL_ASSIGN_OR_RETURN(
            ColumnHandle c, EvalExpr(left_side ? *lk : *rk, window, &ctx));
        keys.push_back(std::move(c));
      }
      std::vector<const Column*> kptrs;
      for (const auto& c : keys) kptrs.push_back(c.get());
      for (int64_t r = 0; r < window.num_rows(); ++r) {
        if (RowKeyHasNull(kptrs, r)) continue;
        std::string key;
        for (const Column* c : kptrs) AppendKeyPart(*c, r, &key);
        const int64_t p = static_cast<int64_t>(
            Hash64(key.data(), key.size()) % static_cast<uint64_t>(num_parts));
        DL2SQL_RETURN_NOT_OK(builders[static_cast<size_t>(p)]->AppendRow(
            {Value::Int(base + r), Value::Blob(key)}));
      }
    }
    std::vector<std::shared_ptr<storage::PagedTableData>> parts;
    parts.reserve(builders.size());
    for (auto& b : builders) {
      DL2SQL_ASSIGN_OR_RETURN(std::shared_ptr<storage::PagedTableData> d,
                              b->Finish());
      spilled_bytes += d->logical_bytes();
      if (d->num_rows() > 0) ++spilled_parts;
      parts.push_back(std::move(d));
    }
    return parts;
  };

  DL2SQL_ASSIGN_OR_RETURN(auto lparts, partition_side(left, true));
  DL2SQL_ASSIGN_OR_RETURN(auto rparts, partition_side(right, false));
  TallySpill(spilled_bytes, spilled_parts);
  static Counter* const grace_counter =
      MetricsRegistry::Global().counter("db.grace_joins");
  grace_counter->Increment();

  // Phase 2: per partition, build a join table on the optimizer's build side
  // and probe with the other. Only one partition's table is resident at a
  // time; its bytes are charged on a per-iteration scope.
  const bool build_left = node.join_build_left;
  const auto& bparts = build_left ? lparts : rparts;
  const auto& pparts = build_left ? rparts : lparts;

  std::vector<std::pair<int64_t, int64_t>> pb_pairs;  // (probe row, build row)
  for (int64_t part = 0; part < num_parts; ++part) {
    const auto& bp = bparts[static_cast<size_t>(part)];
    const auto& pp = pparts[static_cast<size_t>(part)];
    if (bp->num_rows() == 0 || pp->num_rows() == 0) continue;
    ScopedMemCharge part_mem(OpScratchTracker(PlanKind::kJoin));
    DL2SQL_ASSIGN_OR_RETURN(std::vector<Column> bcols, bp->Materialize());
    // The spilled canonical key bytes are the partition's one key column:
    // equal encodings are exactly equal keys.
    const auto& brows = bcols[0].ints();
    const std::vector<const Column*> bkey = {&bcols[1]};
    const int64_t bn = static_cast<int64_t>(brows.size());
    std::vector<uint64_t> bhash(static_cast<size_t>(bn));
    vec::HashKeyRange(bkey, 0, bn, bhash.data());
    const std::vector<uint8_t> no_nulls(static_cast<size_t>(bn), 0);
    const KeyHashTable build =
        KeyHashTable::ForJoin({bcols[1]}, bhash.data(), no_nulls.data());
    DL2SQL_RETURN_NOT_OK(part_mem.Charge(
        build.ByteSize() + static_cast<int64_t>(bcols[1].ByteSize()) +
        bn * static_cast<int64_t>(sizeof(uint64_t) + 1)));
    std::vector<uint64_t> phash;
    std::vector<KeyHashTable::KeyId> pids;
    for (int64_t c = 0; c < pp->num_chunks(); ++c) {
      DL2SQL_ASSIGN_OR_RETURN(std::vector<Column> pcols, pp->ReadChunk(c));
      const auto& prow_ids = pcols[0].ints();
      const std::vector<const Column*> pkey = {&pcols[1]};
      const int64_t pn = static_cast<int64_t>(prow_ids.size());
      phash.resize(static_cast<size_t>(pn));
      pids.resize(static_cast<size_t>(pn));
      vec::HashKeyRange(pkey, 0, pn, phash.data());
      build.FindRange(pkey, 0, pn, phash.data(), nullptr, pids.data());
      for (int64_t i = 0; i < pn; ++i) {
        const KeyHashTable::KeyId k = pids[static_cast<size_t>(i)];
        if (k == KeyHashTable::kAbsent) continue;
        for (const int64_t* b = build.rows_begin(k); b != build.rows_end(k);
             ++b) {
          pb_pairs.emplace_back(prow_ids[static_cast<size_t>(i)],
                                brows[static_cast<size_t>(*b)]);
        }
        if (static_cast<int64_t>(pb_pairs.size()) > kMaxJoinPairs) {
          return Status::ResourceExhausted("join produced more than ",
                                           kMaxJoinPairs, " pairs");
        }
      }
    }
  }
  DL2SQL_RETURN_NOT_OK(scratch_mem.Charge(static_cast<int64_t>(
      pb_pairs.size() * sizeof(std::pair<int64_t, int64_t>))));
  // Hash partitioning scattered the pairs; the in-memory join emits them
  // probe-ascending, then build-ascending within a probe row (the join
  // table's per-key row runs). Both spill files were written in
  // row order, so a global sort on (probe, build) restores exactly that
  // order — the bit-identity contract for join output.
  std::sort(pb_pairs.begin(), pb_pairs.end());

  // Phase 3: emit in bounded slices through paged output, applying the
  // residual condition per slice (it is row-local, so slice-local filtering
  // equals whole-table filtering).
  PagedResultWriter writer(engine, node.output_schema);
  constexpr int64_t kEmitRows = 16384;
  for (size_t start = 0; start < pb_pairs.size();
       start += static_cast<size_t>(kEmitRows)) {
    const size_t end =
        std::min(pb_pairs.size(), start + static_cast<size_t>(kEmitRows));
    std::vector<int64_t> lrows, rrows;
    lrows.reserve(end - start);
    rrows.reserve(end - start);
    for (size_t i = start; i < end; ++i) {
      const auto& [p, b] = pb_pairs[i];
      lrows.push_back(build_left ? b : p);
      rrows.push_back(build_left ? p : b);
    }
    Table ltaken = left.TakeRows(lrows);
    Table rtaken = right.TakeRows(rrows);
    std::vector<Column> cols;
    for (int i = 0; i < ltaken.num_columns(); ++i) {
      cols.push_back(ltaken.column(i));
    }
    for (int i = 0; i < rtaken.num_columns(); ++i) {
      cols.push_back(rtaken.column(i));
    }
    DL2SQL_ASSIGN_OR_RETURN(
        Table joined, Table::FromColumns(node.output_schema, std::move(cols)));
    if (node.join_condition != nullptr) {
      DL2SQL_ASSIGN_OR_RETURN(std::vector<int64_t> keep,
                              FilterRows(*node.join_condition, joined, &ctx));
      joined = joined.TakeRows(keep);
    }
    if (joined.num_rows() > 0) {
      DL2SQL_RETURN_NOT_OK(writer.Append(joined));
    }
  }
  DL2SQL_ASSIGN_OR_RETURN(Table out, writer.Finish());
  const double inf = DrainEvalContext(ctx);
  ChargeOperator(costs_, "join", watch.ElapsedSeconds(), inf);
  return out;
}

namespace {

/// Running state for one aggregate over one group.
struct AggState {
  int64_t count = 0;
  double sum = 0;
  double sumsq = 0;
  Value min;
  Value max;
};

/// Folds one argument value into an aggregate state. Shared by the in-memory
/// row path and the external (spilling) aggregation so both accumulate in
/// exactly the same order with exactly the same float operations — the
/// bit-identity contract between the two paths rests on this.
Status AccumulateAggValue(AggFunc f, const Value& v, AggState* st) {
  if (f == AggFunc::kCountStar) {
    ++st->count;
    return Status::OK();
  }
  if (v.is_null()) return Status::OK();
  switch (f) {
    case AggFunc::kCount:
      // COUNT over a boolean expression counts TRUE rows (the intent of
      // the paper's count(nUDF(...) = TRUE); ClickHouse would use
      // countIf). COUNT over other types counts non-NULL rows.
      if (v.type() == DataType::kBool) {
        if (v.bool_value()) ++st->count;
      } else {
        ++st->count;
      }
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
    case AggFunc::kStddevSamp: {
      DL2SQL_ASSIGN_OR_RETURN(double d, v.AsDouble());
      ++st->count;
      st->sum += d;
      st->sumsq += d * d;
      break;
    }
    case AggFunc::kMin:
      if (st->min.is_null() || v.Compare(st->min) < 0) st->min = v;
      break;
    case AggFunc::kMax:
      if (st->max.is_null() || v.Compare(st->max) > 0) st->max = v;
      break;
    case AggFunc::kCountStar:
      break;
  }
  return Status::OK();
}

/// Output column type of aggregate `f` over an argument of `arg_type`
/// (kNull when the aggregate takes no argument).
DataType AggOutputType(AggFunc f, DataType arg_type) {
  switch (f) {
    case AggFunc::kCount:
    case AggFunc::kCountStar:
      return DataType::kInt64;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return arg_type != DataType::kNull ? arg_type : DataType::kFloat64;
    default:
      return DataType::kFloat64;
  }
}

/// Final value of aggregate `f` from an accumulated state.
Value AggOutputValue(AggFunc f, const AggState& st) {
  switch (f) {
    case AggFunc::kCount:
    case AggFunc::kCountStar:
      return Value::Int(st.count);
    case AggFunc::kSum:
      return st.count == 0 ? Value::Null() : Value::Float(st.sum);
    case AggFunc::kAvg:
      return st.count == 0
                 ? Value::Null()
                 : Value::Float(st.sum / static_cast<double>(st.count));
    case AggFunc::kStddevSamp: {
      if (st.count < 2) return Value::Null();
      const double mean = st.sum / static_cast<double>(st.count);
      const double var =
          (st.sumsq - static_cast<double>(st.count) * mean * mean) /
          static_cast<double>(st.count - 1);
      return Value::Float(std::sqrt(std::max(0.0, var)));
    }
    case AggFunc::kMin:
      return st.min;
    case AggFunc::kMax:
      return st.max;
  }
  return Value::Null();
}

}  // namespace

Result<Table> Database::ExecAggregate(const PlanNode& node, Table input) {
  if (input.is_paged()) {
    DL2SQL_ASSIGN_OR_RETURN(bool fits,
                            TryEnsureResident(PlanKind::kAggregate, &input));
    if (!fits) return ExecAggregateExternal(node, input);
  }
  Stopwatch watch;
  EvalContext ctx = MakeEvalContext();

  // Evaluate group keys and aggregate arguments once, vectorized.
  std::vector<ColumnHandle> key_cols;
  for (const auto& k : node.group_keys) {
    DL2SQL_ASSIGN_OR_RETURN(ColumnHandle c, EvalExpr(*k, input, &ctx));
    key_cols.push_back(std::move(c));
  }
  std::vector<ColumnHandle> arg_cols(node.agg_calls.size());
  for (size_t i = 0; i < node.agg_calls.size(); ++i) {
    const Expr& call = *node.agg_calls[i];
    if (call.agg_func != AggFunc::kCountStar) {
      DL2SQL_ASSIGN_OR_RETURN(arg_cols[i],
                              EvalExpr(*call.children[0], input, &ctx));
    }
  }

  std::vector<const Column*> kptrs;
  for (const auto& c : key_cols) kptrs.push_back(c.get());

  if (ctx.vectorized) {
    // Batch-at-a-time path: typed per-group accumulators updated by tight
    // kernels (db/exec/vector_aggregate.h). Falls through to the row path
    // when any aggregate or argument shape is outside the kernel inventory.
    Table vout;
    DL2SQL_ASSIGN_OR_RETURN(
        bool done, vec::TryVectorAggregate(node, key_cols, arg_cols,
                                           input.num_rows(), &ctx, &vout));
    if (done) {
      const double inf = DrainEvalContext(ctx);
      ChargeOperator(costs_, "groupby", watch.ElapsedSeconds(), inf);
      return vout;
    }
  }

  struct Group {
    int64_t first_row;
    std::vector<AggState> aggs;
  };

  // Serial: groups in first-seen order, each accumulating in row order.
  // Grouping state is charged against op.aggregate once the group count is
  // known and released on return.
  ScopedMemCharge scratch_mem(OpScratchTracker(PlanKind::kAggregate));
  std::vector<Group> groups;
  const int64_t n = input.num_rows();
  std::vector<DataType> key_types;
  for (const Column* k : kptrs) key_types.push_back(k->type());
  KeyHashTable index = KeyHashTable::ForGroups(key_types);
  std::vector<uint64_t> hashes(static_cast<size_t>(n));
  std::vector<KeyHashTable::KeyId> gids(static_cast<size_t>(n));
  vec::HashKeyRange(kptrs, 0, n, hashes.data());
  index.FindOrInsertRange(kptrs, 0, n, hashes.data(), nullptr, gids.data());
  for (int64_t row = 0; row < n; ++row) {
    const size_t gid = static_cast<size_t>(gids[static_cast<size_t>(row)]);
    if (gid == groups.size()) {
      groups.push_back(Group{row, std::vector<AggState>(node.agg_calls.size())});
    }
    Group& g = groups[gid];
    for (size_t a = 0; a < node.agg_calls.size(); ++a) {
      const AggFunc f = node.agg_calls[a]->agg_func;
      DL2SQL_RETURN_NOT_OK(AccumulateAggValue(
          f,
          f == AggFunc::kCountStar ? Value::Null() : arg_cols[a]->GetValue(row),
          &g.aggs[a]));
    }
  }

  // Global aggregate over empty input still yields one row.
  if (kptrs.empty() && groups.empty()) {
    groups.push_back(Group{-1, std::vector<AggState>(node.agg_calls.size())});
  }
  DL2SQL_RETURN_NOT_OK(scratch_mem.Charge(static_cast<int64_t>(
      groups.size() *
      (sizeof(Group) + 16 +
       node.agg_calls.size() * sizeof(AggState)))));

  // Emit: key columns then aggregate columns.
  std::vector<Column> out_cols;
  TableSchema out_schema;
  for (size_t k = 0; k < key_cols.size(); ++k) {
    // The key table holds one row per group, in first-seen order.
    const Column& c = index.key_columns()[k];
    out_schema.AddField({node.group_names[k], c.type()});
    out_cols.push_back(c);
  }
  for (size_t a = 0; a < node.agg_calls.size(); ++a) {
    const AggFunc f = node.agg_calls[a]->agg_func;
    Column c(AggOutputType(
        f, arg_cols[a] != nullptr ? arg_cols[a]->type() : DataType::kNull));
    c.Reserve(static_cast<int64_t>(groups.size()));
    for (const Group& g : groups) {
      DL2SQL_RETURN_NOT_OK(c.Append(AggOutputValue(f, g.aggs[a])));
    }
    out_schema.AddField({node.agg_names[a], c.type()});
    out_cols.push_back(std::move(c));
  }

  const double inf = DrainEvalContext(ctx);
  DL2SQL_ASSIGN_OR_RETURN(
      Table out, Table::FromColumns(std::move(out_schema), std::move(out_cols)));
  ChargeOperator(costs_, "groupby", watch.ElapsedSeconds(), inf);
  return out;
}

Result<Table> Database::ExecAggregateExternal(const PlanNode& node,
                                              const Table& input) {
  Stopwatch watch;
  EvalContext ctx = MakeEvalContext();
  // Final group states live until emit and bill against op.aggregate; each
  // partition's hash index is charged on its own per-iteration scope.
  ScopedMemCharge scratch_mem(OpScratchTracker(PlanKind::kAggregate));
  const std::shared_ptr<storage::StorageEngine>& engine =
      input.paged()->shared_engine();

  const size_t num_keys = node.group_keys.size();
  const size_t num_aggs = node.agg_calls.size();
  // Aggregate arguments pack densely into the spill rows; COUNT(*) has none.
  std::vector<int> arg_slot(num_aggs, -1);
  int num_args = 0;
  for (size_t a = 0; a < num_aggs; ++a) {
    if (node.agg_calls[a]->agg_func != AggFunc::kCountStar) {
      arg_slot[a] = num_args++;
    }
  }
  const int64_t num_parts =
      num_keys == 0
          ? 1
          : std::max<int64_t>(1, engine->options().spill_partitions);

  // Phase 1: partition by key hash. Each spill row is
  // (global row id, key values..., argument values...); same-key rows land
  // in one partition in global row order, so per-group accumulation in
  // phase 2 replays exactly the serial order — float-identical results.
  std::vector<std::unique_ptr<storage::PagedTableBuilder>> builders;
  std::vector<DataType> key_types, arg_types;
  const std::unique_ptr<storage::ColumnSource> source =
      storage::MakeColumnSource(std::make_shared<Table>(input), 0);
  for (int64_t w = 0; w < source->num_windows(); ++w) {
    DL2SQL_ASSIGN_OR_RETURN(Table window, source->ReadWindow(w));
    const int64_t base = source->window_start(w);
    std::vector<ColumnHandle> key_cols;
    for (const auto& k : node.group_keys) {
      DL2SQL_ASSIGN_OR_RETURN(ColumnHandle c, EvalExpr(*k, window, &ctx));
      key_cols.push_back(std::move(c));
    }
    std::vector<ColumnHandle> arg_cols(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      if (arg_slot[a] < 0) continue;
      DL2SQL_ASSIGN_OR_RETURN(
          arg_cols[a], EvalExpr(*node.agg_calls[a]->children[0], window, &ctx));
    }
    if (builders.empty()) {
      // Spill layout discovered from the first window's expression types.
      TableSchema spill_schema;
      spill_schema.AddField({"__row", DataType::kInt64});
      for (size_t k = 0; k < num_keys; ++k) {
        key_types.push_back(key_cols[k]->type());
        spill_schema.AddField(
            {"__key" + std::to_string(k), key_cols[k]->type()});
      }
      for (size_t a = 0; a < num_aggs; ++a) {
        if (arg_slot[a] < 0) continue;
        arg_types.push_back(arg_cols[a]->type());
        spill_schema.AddField(
            {"__arg" + std::to_string(arg_slot[a]), arg_cols[a]->type()});
      }
      builders.reserve(static_cast<size_t>(num_parts));
      for (int64_t p = 0; p < num_parts; ++p) {
        builders.push_back(std::make_unique<storage::PagedTableBuilder>(
            engine, spill_schema));
      }
    }
    std::vector<const Column*> kptrs;
    for (const auto& c : key_cols) kptrs.push_back(c.get());
    std::vector<uint64_t> hashes(static_cast<size_t>(window.num_rows()));
    vec::HashKeyRange(kptrs, 0, window.num_rows(), hashes.data());
    for (int64_t r = 0; r < window.num_rows(); ++r) {
      const int64_t p = static_cast<int64_t>(
          hashes[static_cast<size_t>(r)] % static_cast<uint64_t>(num_parts));
      std::vector<Value> row;
      row.reserve(1 + num_keys + static_cast<size_t>(num_args));
      row.push_back(Value::Int(base + r));
      for (const Column* c : kptrs) row.push_back(c->GetValue(r));
      for (size_t a = 0; a < num_aggs; ++a) {
        if (arg_slot[a] >= 0) row.push_back(arg_cols[a]->GetValue(r));
      }
      DL2SQL_RETURN_NOT_OK(builders[static_cast<size_t>(p)]->AppendRow(row));
    }
  }
  if (builders.empty()) {
    return Status::InternalError("external aggregation over empty paged input");
  }

  // Phase 2: per partition, group and accumulate in spill order. The
  // partition's key table keeps its groups' keys across chunks; canonical
  // key equality survives the spill round trip, so grouping matches the
  // in-memory path.
  struct SpillGroup {
    int64_t first_row;
    std::vector<Value> keys;
    std::vector<AggState> aggs;
  };
  std::vector<SpillGroup> groups;
  int64_t spilled_bytes = 0;
  int64_t spilled_parts = 0;
  for (auto& b : builders) {
    DL2SQL_ASSIGN_OR_RETURN(std::shared_ptr<storage::PagedTableData> part,
                            b->Finish());
    if (part->num_rows() == 0) continue;
    spilled_bytes += part->logical_bytes();
    ++spilled_parts;
    ScopedMemCharge part_mem(OpScratchTracker(PlanKind::kAggregate));
    KeyHashTable index = KeyHashTable::ForGroups(key_types);
    const size_t part_first_group = groups.size();
    std::vector<uint64_t> hashes;
    std::vector<KeyHashTable::KeyId> gids;
    for (int64_t c = 0; c < part->num_chunks(); ++c) {
      DL2SQL_ASSIGN_OR_RETURN(std::vector<Column> cols, part->ReadChunk(c));
      std::vector<const Column*> kptrs;
      for (size_t k = 0; k < num_keys; ++k) kptrs.push_back(&cols[1 + k]);
      const int64_t rows = static_cast<int64_t>(cols[0].size());
      hashes.resize(static_cast<size_t>(rows));
      gids.resize(static_cast<size_t>(rows));
      vec::HashKeyRange(kptrs, 0, rows, hashes.data());
      index.FindOrInsertRange(kptrs, 0, rows, hashes.data(), nullptr,
                              gids.data());
      for (int64_t r = 0; r < rows; ++r) {
        const size_t gid =
            part_first_group + static_cast<size_t>(gids[static_cast<size_t>(r)]);
        if (gid == groups.size()) {
          SpillGroup g;
          g.first_row = cols[0].ints()[static_cast<size_t>(r)];
          for (size_t k = 0; k < num_keys; ++k) {
            g.keys.push_back(cols[1 + k].GetValue(r));
          }
          g.aggs.resize(num_aggs);
          groups.push_back(std::move(g));
        }
        SpillGroup& g = groups[gid];
        for (size_t a = 0; a < num_aggs; ++a) {
          DL2SQL_RETURN_NOT_OK(AccumulateAggValue(
              node.agg_calls[a]->agg_func,
              arg_slot[a] < 0
                  ? Value::Null()
                  : cols[1 + num_keys + static_cast<size_t>(arg_slot[a])]
                        .GetValue(r),
              &g.aggs[a]));
        }
      }
      DL2SQL_RETURN_NOT_OK(part_mem.Charge(
          index.ByteSize() +
          static_cast<int64_t>((groups.size() - part_first_group) * 48) -
          part_mem.charged()));
    }
  }
  TallySpill(spilled_bytes, spilled_parts);
  static Counter* const external_agg_counter =
      MetricsRegistry::Global().counter("db.external_aggs");
  external_agg_counter->Increment();

  // Partition order scattered the groups; serial emit order is first-seen,
  // i.e. ascending first_row.
  std::sort(groups.begin(), groups.end(),
            [](const SpillGroup& a, const SpillGroup& b) {
              return a.first_row < b.first_row;
            });
  // Global aggregate over empty input still yields one row.
  if (num_keys == 0 && groups.empty()) {
    groups.push_back(SpillGroup{-1, {}, std::vector<AggState>(num_aggs)});
  }
  DL2SQL_RETURN_NOT_OK(scratch_mem.Charge(static_cast<int64_t>(
      groups.size() * (sizeof(SpillGroup) + num_aggs * sizeof(AggState)))));

  std::vector<Column> out_cols;
  TableSchema out_schema;
  for (size_t k = 0; k < num_keys; ++k) {
    Column c(key_types[k]);
    c.Reserve(static_cast<int64_t>(groups.size()));
    for (const SpillGroup& g : groups) {
      DL2SQL_RETURN_NOT_OK(c.Append(g.keys[k]));
    }
    out_schema.AddField({node.group_names[k], c.type()});
    out_cols.push_back(std::move(c));
  }
  for (size_t a = 0; a < num_aggs; ++a) {
    const AggFunc f = node.agg_calls[a]->agg_func;
    Column c(AggOutputType(
        f, arg_slot[a] >= 0 ? arg_types[static_cast<size_t>(arg_slot[a])]
                            : DataType::kNull));
    c.Reserve(static_cast<int64_t>(groups.size()));
    for (const SpillGroup& g : groups) {
      DL2SQL_RETURN_NOT_OK(c.Append(AggOutputValue(f, g.aggs[a])));
    }
    out_schema.AddField({node.agg_names[a], c.type()});
    out_cols.push_back(std::move(c));
  }

  const double inf = DrainEvalContext(ctx);
  DL2SQL_ASSIGN_OR_RETURN(
      Table out, Table::FromColumns(std::move(out_schema), std::move(out_cols)));
  ChargeOperator(costs_, "groupby", watch.ElapsedSeconds(), inf);
  return out;
}

Result<Table> Database::ExecSort(const PlanNode& node, Table input) {
  if (input.is_paged()) {
    DL2SQL_ASSIGN_OR_RETURN(bool fits,
                            TryEnsureResident(PlanKind::kSort, &input));
    if (!fits) {
      return Status::ResourceExhausted(
          "ORDER BY input (", input.ByteSize(),
          " bytes) exceeds the query memory budget; spillable sort is not "
          "implemented yet (see ROADMAP)");
    }
  }
  Stopwatch watch;
  EvalContext ctx = MakeEvalContext();
  std::vector<ColumnHandle> keys;
  for (const auto& k : node.sort_keys) {
    DL2SQL_ASSIGN_OR_RETURN(ColumnHandle c, EvalExpr(*k, input, &ctx));
    keys.push_back(std::move(c));
  }
  std::vector<int64_t> idx(static_cast<size_t>(input.num_rows()));
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int64_t>(i);
  std::stable_sort(idx.begin(), idx.end(), [&](int64_t a, int64_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      const int c = keys[k]->GetValue(a).Compare(keys[k]->GetValue(b));
      if (c != 0) return node.sort_ascending[k] ? c < 0 : c > 0;
    }
    return false;
  });
  Table out = input.TakeRows(idx);
  const double inf = DrainEvalContext(ctx);
  ChargeOperator(costs_, "sort", watch.ElapsedSeconds(), inf);
  return out;
}

// ------------------------------------------------------------- statements ----

Result<Table> Database::ExecCreateTable(const CreateTableStmt& stmt) {
  if (stmt.is_view) {
    if (stmt.as_select == nullptr) {
      return Status::InvalidArgument("CREATE VIEW requires AS SELECT");
    }
    DL2SQL_RETURN_NOT_OK(
        catalog_.CreateView(stmt.name, stmt.as_select, stmt.or_replace));
    return Table{};
  }
  if (stmt.as_select != nullptr) {
    if (stmt.if_not_exists && catalog_.HasTable(stmt.name)) return Table{};
    DL2SQL_ASSIGN_OR_RETURN(Table result, ExecuteSelect(*stmt.as_select));
    DL2SQL_RETURN_NOT_OK(MaybePageOut(&result));
    DL2SQL_RETURN_NOT_OK(catalog_.CreateTable(
        stmt.name, std::make_shared<Table>(std::move(result)), stmt.temporary,
        stmt.if_not_exists));
    return Table{};
  }
  Table t{TableSchema(stmt.columns)};
  DL2SQL_RETURN_NOT_OK(catalog_.CreateTable(stmt.name,
                                            std::make_shared<Table>(std::move(t)),
                                            stmt.temporary, stmt.if_not_exists));
  return Table{};
}

namespace {

/// System tables are scan-only; DML/DDL against them gets a specific error
/// instead of GetTable's misleading NotFound.
Status CheckNotSystemTable(const Catalog& catalog, const std::string& name) {
  if (catalog.HasVirtualTable(name) || Catalog::IsSystemName(name)) {
    return Status::InvalidArgument("system tables are read-only: '", name,
                                   "'");
  }
  return Status::OK();
}

}  // namespace

Result<Table> Database::ExecInsert(const InsertStmt& stmt) {
  DL2SQL_RETURN_NOT_OK(CheckNotSystemTable(catalog_, stmt.table));
  DL2SQL_ASSIGN_OR_RETURN(TablePtr table, catalog_.GetTable(stmt.table));
  // Column mapping: explicit list or positional.
  std::vector<int> targets;
  if (stmt.columns.empty()) {
    for (int i = 0; i < table->num_columns(); ++i) targets.push_back(i);
  } else {
    for (const auto& c : stmt.columns) {
      DL2SQL_ASSIGN_OR_RETURN(int idx, table->schema().Find(c));
      targets.push_back(idx);
    }
  }

  auto append_row = [&](const std::vector<Value>& provided) -> Status {
    if (provided.size() != targets.size()) {
      return Status::InvalidArgument("INSERT arity mismatch: ", provided.size(),
                                     " values vs ", targets.size(), " columns");
    }
    std::vector<Value> row(static_cast<size_t>(table->num_columns()),
                           Value::Null());
    for (size_t i = 0; i < targets.size(); ++i) {
      row[static_cast<size_t>(targets[i])] = provided[i];
    }
    return table->AppendRow(row);
  };

  int64_t inserted = 0;
  if (stmt.select != nullptr) {
    DL2SQL_ASSIGN_OR_RETURN(Table src, ExecuteSelect(*stmt.select));
    for (int64_t r = 0; r < src.num_rows(); ++r) {
      DL2SQL_RETURN_NOT_OK(append_row(src.GetRow(r)));
      ++inserted;
    }
  } else {
    EvalContext ctx = MakeEvalContext();
    for (const auto& row_exprs : stmt.rows) {
      std::vector<Value> vals;
      vals.reserve(row_exprs.size());
      for (const auto& e : row_exprs) {
        DL2SQL_ASSIGN_OR_RETURN(Value v, EvalScalar(*e, &ctx));
        vals.push_back(std::move(v));
      }
      DL2SQL_RETURN_NOT_OK(append_row(vals));
      ++inserted;
    }
    DrainEvalContext(ctx);
  }
  DL2SQL_RETURN_NOT_OK(MaybePageOut(table.get()));
  catalog_.InvalidateStats(stmt.table);
  Table out;
  out.SetZeroColumnRows(inserted);
  return out;
}

Result<Table> Database::ExecUpdate(const UpdateStmt& stmt) {
  DL2SQL_RETURN_NOT_OK(CheckNotSystemTable(catalog_, stmt.table));
  DL2SQL_ASSIGN_OR_RETURN(TablePtr table, catalog_.GetTable(stmt.table));
  // In-place column writes need resident storage; big tables page back out
  // below once the mutation is done.
  DL2SQL_RETURN_NOT_OK(table->EnsureResident());
  EvalContext ctx = MakeEvalContext();

  std::vector<int64_t> rows;
  if (stmt.where != nullptr) {
    ExprPtr pred = stmt.where->Clone();
    DL2SQL_RETURN_NOT_OK(BindExpr(pred.get(), table->schema()));
    DL2SQL_ASSIGN_OR_RETURN(rows, FilterRows(*pred, *table, &ctx));
  } else {
    rows.resize(static_cast<size_t>(table->num_rows()));
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int64_t>(i);
  }

  for (const auto& [col_name, expr] : stmt.assignments) {
    DL2SQL_ASSIGN_OR_RETURN(int col_idx, table->schema().Find(col_name));
    ExprPtr bound = expr->Clone();
    DL2SQL_RETURN_NOT_OK(BindExpr(bound.get(), table->schema()));
    DL2SQL_ASSIGN_OR_RETURN(ColumnHandle values, EvalExpr(*bound, *table, &ctx));
    Column& target = table->mutable_column(col_idx);
    for (int64_t r : rows) {
      const Value v = values->GetValue(r);
      switch (target.type()) {
        case DataType::kInt64: {
          DL2SQL_ASSIGN_OR_RETURN(int64_t iv, v.AsInt());
          target.mutable_ints()[static_cast<size_t>(r)] = iv;
          break;
        }
        case DataType::kFloat64: {
          DL2SQL_ASSIGN_OR_RETURN(double dv, v.AsDouble());
          target.mutable_floats()[static_cast<size_t>(r)] = dv;
          break;
        }
        case DataType::kBool:
          if (v.type() != DataType::kBool) {
            return Status::TypeError("UPDATE: expected BOOL for ", col_name);
          }
          target.mutable_bools()[static_cast<size_t>(r)] =
              v.bool_value() ? 1 : 0;
          break;
        case DataType::kString:
        case DataType::kBlob:
          if (v.type() != DataType::kString && v.type() != DataType::kBlob) {
            return Status::TypeError("UPDATE: expected STRING for ", col_name);
          }
          target.mutable_strings()[static_cast<size_t>(r)] = v.string_value();
          break;
        case DataType::kNull:
          return Status::TypeError("UPDATE on null-typed column");
      }
    }
  }
  DrainEvalContext(ctx);
  DL2SQL_RETURN_NOT_OK(MaybePageOut(table.get()));
  catalog_.InvalidateStats(stmt.table);
  Table out;
  out.SetZeroColumnRows(static_cast<int64_t>(rows.size()));
  return out;
}

Result<Table> Database::ExecDelete(const DeleteStmt& stmt) {
  DL2SQL_RETURN_NOT_OK(CheckNotSystemTable(catalog_, stmt.table));
  DL2SQL_ASSIGN_OR_RETURN(TablePtr table, catalog_.GetTable(stmt.table));
  DL2SQL_RETURN_NOT_OK(table->EnsureResident());
  EvalContext ctx = MakeEvalContext();
  std::vector<int64_t> keep;
  int64_t deleted = 0;
  if (stmt.where == nullptr) {
    deleted = table->num_rows();
  } else {
    ExprPtr pred = stmt.where->Clone();
    DL2SQL_RETURN_NOT_OK(BindExpr(pred.get(), table->schema()));
    DL2SQL_ASSIGN_OR_RETURN(std::vector<int64_t> drop,
                            FilterRows(*pred, *table, &ctx));
    std::vector<uint8_t> dropped(static_cast<size_t>(table->num_rows()), 0);
    for (int64_t r : drop) dropped[static_cast<size_t>(r)] = 1;
    for (int64_t r = 0; r < table->num_rows(); ++r) {
      if (dropped[static_cast<size_t>(r)] == 0) keep.push_back(r);
    }
    deleted = static_cast<int64_t>(drop.size());
  }
  *table = table->TakeRows(keep);
  DrainEvalContext(ctx);
  DL2SQL_RETURN_NOT_OK(MaybePageOut(table.get()));
  catalog_.InvalidateStats(stmt.table);
  Table out;
  out.SetZeroColumnRows(deleted);
  return out;
}

Result<Table> Database::ExecDrop(const DropStmt& stmt) {
  DL2SQL_RETURN_NOT_OK(CheckNotSystemTable(catalog_, stmt.name));
  if (stmt.is_view) {
    DL2SQL_RETURN_NOT_OK(catalog_.DropView(stmt.name, stmt.if_exists));
  } else if (catalog_.HasView(stmt.name)) {
    // DROP TABLE on a view is tolerated (the DL2SQL pipelines recreate views
    // and tables interchangeably between layers).
    DL2SQL_RETURN_NOT_OK(catalog_.DropView(stmt.name, stmt.if_exists));
  } else {
    DL2SQL_RETURN_NOT_OK(catalog_.DropTable(stmt.name, stmt.if_exists));
  }
  return Table{};
}

}  // namespace dl2sql::db
