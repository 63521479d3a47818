#include "db/database.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <map>
#include <numeric>

#include <cstdlib>

#include "accel/device.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "db/exec/hash_table.h"
#include "db/exec/symmetric_hash_join.h"
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

thread_local Database::StatementStats* Database::tls_stats_ = nullptr;

namespace {

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

/// DL2SQL_QUERY_LOG_CAPACITY / DL2SQL_SLOW_QUERY_MS tune the query log.
IntrospectionOptions DefaultIntrospectionOptions() {
  IntrospectionOptions opts;
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

}  // namespace

struct Database::RunningStatement {
  explicit RunningStatement(CostAccumulator* costs) : prev(tls_stats_) {
    stats.costs = costs;
    tls_stats_ = &stats;
  }
  ~RunningStatement() { tls_stats_ = prev; }
  RunningStatement(const RunningStatement&) = delete;
  RunningStatement& operator=(const RunningStatement&) = delete;

  /// With resource accounting on: the query tracker `label` under `parent`
  /// (the process root when null) carrying the hard budget `limit`, and the
  /// CPU and pool-wait baselines.
  void Track(const std::string& label, MemTracker* parent, int64_t limit) {
    if (!MemTracker::Enabled()) return;
    mem = std::make_unique<MemTracker>(
        label, parent != nullptr ? parent : MemTracker::Process(), limit);
    stats.mem = mem.get();
    cpu0_ns = ThreadCpuNanos() + ThreadPool::credited_cpu_ns();
    pool_wait0_us = ThreadPool::credited_queue_wait_us();
  }
  /// CPU since Track(): this thread's plus the pool-morsel CPU the pool
  /// credited back to it; with parallel morsels the sum can legitimately
  /// exceed wall time (work done concurrently).
  int64_t CpuMicros() const {
    return (ThreadCpuNanos() + ThreadPool::credited_cpu_ns() - cpu0_ns) / 1000;
  }

  /// Declared before `stats` so its operator trackers — children of `mem` —
  /// are destroyed first, releasing their charges up the chain in order.
  std::unique_ptr<MemTracker> mem;
  StatementStats stats;
  int64_t cpu0_ns = 0;
  int64_t pool_wait0_us = 0;
  StatementStats* const prev;
};

void Database::ChargeOperator(const std::string& bucket, double seconds,
                              double inference_delta) {
  if (tls_stats_ == nullptr || tls_stats_->costs == nullptr) return;
  tls_stats_->costs->Add(bucket, std::max(0.0, seconds - inference_delta));
}

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
  query_log_ =
      std::make_unique<QueryLog>(introspection_options_.query_log_capacity);
  RegisterDatabaseSystemTables(this);
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
  if (StatementStats* stats = tls_stats_) {
    stats->spill_bytes += bytes;
    stats->spill_partitions += partitions;
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
  ctx.costs = tls_stats_ != nullptr ? tls_stats_->costs : nullptr;
  ctx.vectorized = vectorized_;
  ctx.nudf_cache = nudf_cache_.get();
  if (exec_options_.device != nullptr) {
    ctx.pool = exec_options_.device->pool();
    if (exec_options_.morsel_size > 0) {
      ctx.morsel_size = exec_options_.morsel_size;
    }
  }
  ctx.subquery_exec = [this](const SelectStmt& stmt) -> Result<Value> {
    DL2SQL_ASSIGN_OR_RETURN(Table t, RunSelect(stmt));
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
  // Contexts are drained on the statement's calling thread, so its stats
  // need no synchronization.
  if (StatementStats* stats = tls_stats_) {
    stats->neural_calls += ctx.neural_calls;
    stats->nudf_cache_hits += ctx.nudf_cache_hits;
    stats->vector_batches += ctx.vec_batches;
    if (stats->analyze) {
      // Parked until the enclosing ExecNode wrapper claims it for its
      // NodeRunStats; children consume their own drains first, so a parent
      // wrapper only ever sees its own operators' kernels.
      stats->pending_vec.batches += ctx.vec_batches;
      stats->pending_vec.rows_in += ctx.vec_rows_in;
      stats->pending_vec.rows_selected += ctx.vec_rows_selected;
    }
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
  }
  return ctx.inference_seconds;
}

Result<Table> Database::Execute(const std::string& sql,
                                CostAccumulator* costs) {
  DL2SQL_ASSIGN_OR_RETURN(Statement stmt, sql::ParseStatement(sql));
  return ExecuteStatementRecorded(stmt, sql, QueryRecordHints{}, costs);
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
                                                 const QueryRecordHints& hints,
                                                 CostAccumulator* costs) {
  RunningStatement run(costs);

  // Resource accounting: a per-query tracker parented under the session's
  // (serving) or the process root (embedded), carrying the optional hard
  // budget.
  run.Track("query-" + std::to_string(query_log_->total_recorded()),
            hints.session_mem, query_mem_limit_.load(std::memory_order_relaxed));
  const StatementStats& stats = run.stats;
  Stopwatch watch;
  auto result = RunStatement(stmt);
  const int64_t duration_us = static_cast<int64_t>(watch.ElapsedMicros());

  QueryLogRecord rec;
  rec.sql = sql;
  rec.kind = KindOfStatement(stmt);
  if (!result.ok()) rec.error = result.status().ToString();
  rec.duration_us = duration_us;
  rec.rows = result.ok() ? result->num_rows() : 0;
  rec.neural_calls = stats.neural_calls;
  rec.nudf_cache_hits = stats.nudf_cache_hits;
  rec.plan_cache_hit = stats.plan_cache_hit;
  rec.admission_wait_us = hints.admission_wait_us;
  rec.session_id = hints.session_id;
  rec.peak_operator_bytes = stats.peak_operator_bytes;
  rec.operator_rows = stats.operator_rows;
  rec.vector_batches = stats.vector_batches;
  rec.spill_bytes = stats.spill_bytes;
  rec.spill_partitions = stats.spill_partitions;
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
  const bool profile = run.mem != nullptr;
  if (profile) {
    rec.cpu_us = run.CpuMicros();
    rec.pool_queue_wait_us =
        ThreadPool::credited_queue_wait_us() - run.pool_wait0_us;
    rec.mem_peak_bytes = run.mem->peak();
    rec.mem_cumulative_bytes = run.mem->cumulative();
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
      if (stats.plan != nullptr) {
        plan_text = stats.plan->ToString();
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
  RunningStatement run(nullptr);
  return RunStatement(stmt);
}

Result<Table> Database::ExecuteSelect(const SelectStmt& stmt,
                                      CostAccumulator* costs) {
  RunningStatement run(costs);
  return RunSelect(stmt);
}

Result<Table> Database::ExecutePlan(const PlanNode& plan) {
  RunningStatement run(nullptr);
  return ExecRoot(plan);
}

Result<Table> Database::RunStatement(const Statement& stmt) {
  if (std::holds_alternative<std::shared_ptr<SelectStmt>>(stmt)) {
    return RunSelect(*std::get<std::shared_ptr<SelectStmt>>(stmt));
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

Result<Table> Database::RunSelect(const SelectStmt& stmt) {
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
    if (StatementStats* stats = tls_stats_) stats->plan_cache_hit = true;
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
  StatementStats* const stats = tls_stats_;
  if (stats == nullptr || stats->mem == nullptr) return nullptr;
  auto& slot = stats->op_trackers[static_cast<int>(kind)];
  if (slot == nullptr) {
    slot = std::make_unique<MemTracker>(OpTrackerLabel(kind), stats->mem);
  }
  return slot.get();
}

Status Database::ChargeOperatorOutput(StatementStats* stats,
                                      const PlanNode& node,
                                      int64_t out_bytes) {
  if (out_bytes <= 0) return Status::OK();
  auto& slot = stats->op_trackers[static_cast<int>(node.kind)];
  if (slot == nullptr) {
    slot = std::make_unique<MemTracker>(OpTrackerLabel(node.kind), stats->mem);
  }
  DL2SQL_RETURN_NOT_OK(slot->TryConsume(out_bytes));
  if (!stats->mem_frames.empty()) {
    // Parent operator holds this output as an input; released when it pops
    // its frame. The root output has no parent frame and stays charged until
    // the statement's trackers are destroyed.
    stats->mem_frames.back().emplace_back(slot.get(), out_bytes);
  }
  return Status::OK();
}

Result<bool> Database::TryEnsureResident(PlanKind kind, Table* t,
                                         int64_t scratch_bytes) {
  if (!t->is_paged()) return true;
  const int64_t bytes = static_cast<int64_t>(t->ByteSize());
  StatementStats* const stats = tls_stats_;
  if (stats != nullptr && stats->mem != nullptr) {
    MemTracker* const tracker = OpScratchTracker(kind);
    // Admission check: do the resident form and the operator's scratch fit
    // under the query budget? On admission the input's charge is parked in
    // the operator's own frame (popped when it finishes), billing the
    // materialized input for exactly as long as the operator holds it; the
    // operator charges its scratch itself.
    if (!tracker->TryConsume(bytes + scratch_bytes).ok()) return false;
    tracker->Release(scratch_bytes);
    if (!stats->mem_frames.empty()) {
      stats->mem_frames.back().emplace_back(tracker, bytes);
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
  // Per-operator accounting for the statement running on this thread
  // (system.queries / system.query_profiles, EXPLAIN ANALYZE): output rows
  // across all plan nodes, the peak single-operator materialized footprint,
  // and — with resource accounting enabled — charge-frame memory attribution.
  StatementStats* const stats = tls_stats_;
  if (stats == nullptr) return body();

  const bool track = stats->mem != nullptr;
  if (track) stats->mem_frames.emplace_back();
  auto result = stats->analyze ? ExecNodeCollect(stats, node, body) : body();
  if (track) {
    // Children's outputs — charged into this operator's frame when their own
    // wrappers finished — die with this operator, like their Tables do.
    for (const auto& [t, bytes] : stats->mem_frames.back()) t->Release(bytes);
    stats->mem_frames.pop_back();
  }
  if (result.ok()) {
    // Resident bytes, not logical: a paged output's payload lives in the
    // buffer pool (billed to storage.buffer_pool), not in this query.
    const int64_t out_bytes = static_cast<int64_t>(result->ResidentBytes());
    stats->operator_rows += result->num_rows();
    stats->peak_operator_bytes =
        std::max(stats->peak_operator_bytes, out_bytes);
    if (track) {
      DL2SQL_RETURN_NOT_OK(ChargeOperatorOutput(stats, node, out_bytes));
    }
  }
  return result;
}

Result<Table> Database::ExecNodeCollect(
    StatementStats* stats, const PlanNode& node,
    const std::function<Result<Table>()>& body) {
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
  // in the statement's stats. Child operators ran inside `body` through
  // their own ExecNode wrappers, which already claimed theirs.
  const vec::VectorOpStats vstats = stats->pending_vec;
  stats->pending_vec = vec::VectorOpStats{};

  NodeRunStats& ns = stats->nodes[&node];
  ns.cumulative_seconds += elapsed;
  ns.vec_batches += vstats.batches;
  ns.vec_rows_in += vstats.rows_in;
  ns.vec_rows_selected += vstats.rows_selected;
  if (result.ok()) {
    ns.rows += result->num_rows();
    ns.output_bytes = std::max(
        ns.output_bytes, static_cast<int64_t>(result->ResidentBytes()));
  }
  if (workers > 0) {
    if (static_cast<int>(ns.worker_busy_seconds.size()) < workers) {
      ns.worker_busy_seconds.resize(static_cast<size_t>(workers), 0.0);
    }
    // Busy-time delta while this subtree ran. The pool is shared, so
    // morsels of statements running beside this one are co-charged.
    for (int w = 0; w < workers; ++w) {
      ns.worker_busy_seconds[static_cast<size_t>(w)] +=
          pool->worker_busy_seconds(w) - busy_before[static_cast<size_t>(w)];
    }
  }
  return result;
}

Result<std::string> Database::ExplainAnalyze(const std::string& sql,
                                             MemTracker* session_mem) {
  DL2SQL_ASSIGN_OR_RETURN(Statement stmt, sql::ParseStatement(sql));
  if (!std::holds_alternative<std::shared_ptr<SelectStmt>>(stmt)) {
    return Status::InvalidArgument("EXPLAIN ANALYZE supports only SELECT");
  }
  RunningStatement run(nullptr);
  StatementStats& stats = run.stats;
  stats.analyze = true;
  DL2SQL_ASSIGN_OR_RETURN(
      PlanPtr plan, PlanQuery(*std::get<std::shared_ptr<SelectStmt>>(stmt)));
  SetLastPlan(plan);

  // Registry state before execution, captured as one consistent snapshot
  // (single lock acquisition): the footer reports the deltas this query
  // produced (nUDF invocations, cache hits, pool morsels, ...), plus those
  // of any statement running beside it.
  MetricsRegistry& registry = MetricsRegistry::Global();
  const MetricsSnapshot counters_before = registry.Snapshot();

  // The scratch tracker runs the charge frames exactly as they run for
  // recorded statements.
  run.Track("query-explain", session_mem,
            query_mem_limit_.load(std::memory_order_relaxed));
  DL2SQL_RETURN_NOT_OK(ExecNode(*plan).status());
  const int64_t cpu_us = run.CpuMicros();

  std::string out;
  std::function<void(const PlanNode&, int)> render = [&](const PlanNode& n,
                                                         int indent) {
    // First line of the subtree rendering = this node's own description.
    std::string line = n.ToString(indent);
    line = line.substr(0, line.find('\n'));
    out += line;
    auto it = stats.nodes.find(&n);
    if (it != stats.nodes.end()) {
      double children = 0;
      for (const auto& c : n.children) {
        auto ci = stats.nodes.find(c.get());
        if (ci != stats.nodes.end()) children += ci->second.cumulative_seconds;
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
  out += "Operators: rows=" + std::to_string(stats.operator_rows) +
         ", peak_bytes=" + std::to_string(stats.peak_operator_bytes) + "\n";

  // Resource-accounting footer: tracked memory per operator kind (peak bytes
  // charged to each "op.<kind>" tracker) and query-level totals. Omitted
  // with DL2SQL_MEM_TRACKER=OFF.
  if (run.mem != nullptr) {
    out += "Profile: cpu_us=" + std::to_string(cpu_us) +
           ", mem_peak_bytes=" + std::to_string(run.mem->peak()) +
           ", mem_cumulative_bytes=" + std::to_string(run.mem->cumulative()) +
           ", spill_bytes=" + std::to_string(stats.spill_bytes) +
           ", spill_partitions=" + std::to_string(stats.spill_partitions) +
           "\n";
    for (const auto& [kind, tracker] : stats.op_trackers) {
      (void)kind;
      out += "  " + tracker->label() +
             ": peak_bytes=" + std::to_string(tracker->peak()) +
             ", cumulative_bytes=" + std::to_string(tracker->cumulative()) +
             "\n";
    }
  }

  // Footer: registry counters incremented by this query (and any statement
  // beside it), computed as the delta of two snapshots.
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
      ChargeOperator("limit", watch.ElapsedSeconds(), 0);
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
  } else {
    DL2SQL_ASSIGN_OR_RETURN(table, catalog_.GetTable(node.table_name));
  }
  std::vector<int> columns = node.scan_columns;
  if (columns.empty()) {
    columns.resize(static_cast<size_t>(table->num_columns()));
    std::iota(columns.begin(), columns.end(), 0);
  }
  // Only the columns the plan reads, under the qualified schema assigned at
  // planning time: resident columns are shared copy-on-write; a paged table
  // gives a zero-copy view whose windows read only these columns' bytes.
  // Consumers either window over a paged view, spill, or materialize it
  // after an admission check (TryEnsureResident).
  auto out = table->SelectColumns(node.output_schema, columns);
  if (!out.ok()) {
    return Status::InternalError("scan of '", node.table_name, "' (",
                                 table->num_columns(), " columns): ",
                                 out.status().ToString());
  }
  ChargeOperator("scan", watch.ElapsedSeconds(), 0);
  return std::move(*out);
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

/// Runs `fn`, an operator local to the rows of `input` (a filter, a
/// projection, a hash join's probe of its built table), over `input` one
/// window at a time and concatenates the windows' outputs in window order.
/// A resident input is one window, the input itself, whose output is the
/// result; a paged input gives one window per storage chunk, and the outputs
/// stream back out through a PagedResultWriter (under the first output's
/// schema), so at most one window of input and of output is resident.
Result<Table> MapWindows(const Table& input,
                         const std::function<Result<Table>(const Table&)>& fn) {
  if (!input.is_paged()) return fn(input);
  const std::unique_ptr<storage::ColumnSource> source =
      storage::MakeColumnSource(std::make_shared<Table>(input), 0);
  std::unique_ptr<PagedResultWriter> writer;
  for (int64_t w = 0; w < source->num_windows(); ++w) {
    DL2SQL_ASSIGN_OR_RETURN(Table window, source->ReadWindow(w));
    DL2SQL_ASSIGN_OR_RETURN(Table piece, fn(window));
    if (writer == nullptr) {
      writer = std::make_unique<PagedResultWriter>(
          input.paged()->shared_engine(), piece.schema());
    }
    DL2SQL_RETURN_NOT_OK(writer->Append(piece));
  }
  DL2SQL_CHECK(writer != nullptr) << "paged table with zero windows";
  return writer->Finish();
}

/// The join probe step: per row of `keys`, the id of its key in `table`
/// (kAbsent: no match, or a NULL key part), with the transient arrays
/// charged to `scratch`.
Result<std::vector<KeyHashTable::KeyId>> ProbeJoinTable(
    const KeyHashTable& table, const std::vector<const Column*>& keys,
    EvalContext* ctx, ScopedMemCharge* scratch) {
  std::vector<uint64_t> hash;
  std::vector<uint8_t> nulls;
  std::vector<KeyHashTable::KeyId> ids;
  DL2SQL_RETURN_NOT_OK(HashJoinKeys(keys, &table, ctx, &hash, &nulls, &ids));
  DL2SQL_RETURN_NOT_OK(scratch->Charge(
      static_cast<int64_t>(ids.size()) *
      static_cast<int64_t>(sizeof(uint64_t) + 1 +
                           sizeof(KeyHashTable::KeyId))));
  return ids;
}

/// Join output for the pairs (lrows[i], rrows[i]): both inputs' rows
/// taken and set side by side under the join's output schema, then the
/// residual condition applied. The condition is row-local, so a slice of
/// the pairs materializes on its own.
Result<Table> MaterializeJoinPairs(const PlanNode& node, const Table& left,
                                   const Table& right,
                                   const std::vector<int64_t>& lrows,
                                   const std::vector<int64_t>& rrows,
                                   EvalContext* ctx) {
  Table ltaken = left.TakeRows(lrows);
  Table rtaken = right.TakeRows(rrows);
  std::vector<Column> cols;
  for (int i = 0; i < ltaken.num_columns(); ++i) cols.push_back(ltaken.column(i));
  for (int i = 0; i < rtaken.num_columns(); ++i) cols.push_back(rtaken.column(i));
  DL2SQL_ASSIGN_OR_RETURN(Table joined,
                          Table::FromColumns(node.output_schema, std::move(cols)));
  if (node.join_condition != nullptr) {
    DL2SQL_ASSIGN_OR_RETURN(std::vector<int64_t> keep,
                            FilterRows(*node.join_condition, joined, ctx));
    joined = joined.TakeRows(keep);
  }
  return joined;
}

Status TooManyJoinPairs() {
  return Status::ResourceExhausted("join produced more than ", kMaxJoinPairs,
                                   " pairs");
}

/// A column of a later window conforms to the type of the operator's first
/// window: an INT64 window widens to FLOAT64, as Column::Append coerces;
/// with `canonical` (join and group keys, which only hash and compare
/// canonically), an integral FLOAT64 window narrows to INT64, which keeps
/// every key. Any other change of type is a TypeError.
Result<Column> ConformSpillColumn(Column col, DataType type, bool canonical) {
  if (col.type() == type) return col;
  Column out(type);
  if (col.type() == DataType::kInt64 && type == DataType::kFloat64) {
    out = Column::Floats(
        std::vector<double>(col.ints().begin(), col.ints().end()));
  } else if (canonical && col.type() == DataType::kFloat64 &&
             type == DataType::kInt64) {
    std::vector<int64_t> ints(static_cast<size_t>(col.size()), 0);
    for (int64_t i = 0; i < col.size(); ++i) {
      const double d = col.floats()[static_cast<size_t>(i)];
      if (!col.IsValid(i)) continue;
      if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0) ||
          static_cast<double>(static_cast<int64_t>(d)) != d) {
        return Status::TypeError("spilled INT64 key column got ", d);
      }
      ints[static_cast<size_t>(i)] = static_cast<int64_t>(d);
    }
    out = Column::Ints(std::move(ints));
  } else {
    return Status::TypeError("spilled column changes type from ",
                             DataTypeToString(type), " to ",
                             DataTypeToString(col.type()));
  }
  out.SetValidity(col.validity());
  return out;
}

/// An input's rows hash-partitioned into paged spill runs.
struct SpillRun {
  /// Per partition, a paged table of (__row, key columns..., payload
  /// columns...); __row is the row's index in the input, and a partition
  /// holds its rows in input order.
  std::vector<std::shared_ptr<storage::PagedTableData>> parts;
  /// Per key and payload column: its type, and whether a NULL was spilled.
  std::vector<DataType> types;
  std::vector<uint8_t> nulls;
  int64_t bytes = 0;       ///< logical bytes spilled
  int64_t used_parts = 0;  ///< partitions holding at least one row
};

/// The spill operators' one partitioner. Each Append routes rows of key and
/// payload columns (the first `num_keys` are the keys) to partition
/// vec::HashKeyRange(keys) % spill_partitions and appends each partition's
/// rows as one typed slice. Columns conform to `types` (ConformSpillColumn);
/// with `join_keys`, rows with a NULL key part are dropped (NULL keys never
/// join) and key columns conform canonically.
class SpillPartitioner {
 public:
  SpillPartitioner(const std::shared_ptr<storage::StorageEngine>& engine,
                   std::vector<DataType> types, size_t num_keys,
                   bool join_keys)
      : num_keys_(num_keys),
        join_keys_(join_keys),
        rows_(static_cast<size_t>(
            std::max(1, engine->options().spill_partitions))) {
    schema_.AddField({"__row", DataType::kInt64});
    for (size_t c = 0; c < types.size(); ++c) {
      schema_.AddField({"__col" + std::to_string(c), types[c]});
    }
    run_.types = std::move(types);
    run_.nulls.assign(run_.types.size(), 0);
    for (size_t p = 0; p < rows_.size(); ++p) {
      builders_.push_back(
          std::make_unique<storage::PagedTableBuilder>(engine, schema_));
    }
  }

  /// Appends rows `sel` of `cols` (every row when null), row r numbered
  /// base + r. Rows must arrive in input order.
  Status Append(std::vector<Column> cols, const std::vector<int64_t>* sel,
                int64_t base) {
    const int64_t n = cols[0].size();
    for (size_t c = 0; c < cols.size(); ++c) {
      DL2SQL_ASSIGN_OR_RETURN(
          cols[c], ConformSpillColumn(std::move(cols[c]), run_.types[c],
                                      join_keys_ && c < num_keys_));
    }
    std::vector<const Column*> keys;
    for (size_t c = 0; c < num_keys_; ++c) keys.push_back(&cols[c]);
    hashes_.resize(static_cast<size_t>(n));
    vec::HashKeyRange(keys, 0, n, hashes_.data());
    if (join_keys_) {
      nulls_.resize(static_cast<size_t>(n));
      vec::KeyNullRange(keys, 0, n, nulls_.data());
    }
    for (auto& r : rows_) r.clear();
    auto route = [&](int64_t i) {
      if (join_keys_ && nulls_[static_cast<size_t>(i)] != 0) return;
      rows_[hashes_[static_cast<size_t>(i)] % rows_.size()].push_back(i);
    };
    if (sel == nullptr) {
      for (int64_t i = 0; i < n; ++i) route(i);
    } else {
      for (const int64_t i : *sel) route(i);
    }
    for (size_t p = 0; p < rows_.size(); ++p) {
      const std::vector<int64_t>& rows = rows_[p];
      if (rows.empty()) continue;
      std::vector<int64_t> ids(rows.size());
      for (size_t i = 0; i < rows.size(); ++i) ids[i] = base + rows[i];
      std::vector<Column> slice;
      slice.push_back(Column::Ints(std::move(ids)));
      const bool whole = static_cast<int64_t>(rows.size()) == n;
      for (size_t c = 0; c < cols.size(); ++c) {
        slice.push_back(whole ? cols[c] : cols[c].Take(rows));
        if (slice.back().HasNulls()) run_.nulls[c] = 1;
      }
      DL2SQL_ASSIGN_OR_RETURN(Table t,
                              Table::FromColumns(schema_, std::move(slice)));
      DL2SQL_RETURN_NOT_OK(builders_[p]->Append(t));
    }
    return Status::OK();
  }

  Result<SpillRun> Finish() {
    for (auto& b : builders_) {
      DL2SQL_ASSIGN_OR_RETURN(std::shared_ptr<storage::PagedTableData> part,
                              b->Finish());
      if (part->num_rows() > 0) {
        run_.bytes += part->logical_bytes();
        ++run_.used_parts;
      }
      run_.parts.push_back(std::move(part));
    }
    return std::move(run_);
  }

 private:
  const size_t num_keys_;
  const bool join_keys_;
  TableSchema schema_;
  std::vector<std::unique_ptr<storage::PagedTableBuilder>> builders_;
  std::vector<std::vector<int64_t>> rows_;  ///< per partition, one Append's
  std::vector<uint64_t> hashes_;
  std::vector<uint8_t> nulls_;
  SpillRun run_;
};

/// Evaluates `exprs` (the first `num_keys` are the keys, the rest payload)
/// over `input` window by window and partitions every row: the grace join's
/// spill of one side, typed by its first window.
Result<SpillRun> SpillPartitions(
    const Table& input, const std::vector<const Expr*>& exprs,
    size_t num_keys, bool join_keys,
    const std::shared_ptr<storage::StorageEngine>& engine, EvalContext* ctx) {
  std::unique_ptr<SpillPartitioner> spill;
  const std::unique_ptr<storage::ColumnSource> source =
      storage::MakeColumnSource(std::make_shared<Table>(input), 0);
  for (int64_t w = 0; w < source->num_windows(); ++w) {
    DL2SQL_ASSIGN_OR_RETURN(Table window, source->ReadWindow(w));
    std::vector<Column> cols;
    for (const Expr* e : exprs) {
      DL2SQL_ASSIGN_OR_RETURN(ColumnHandle c, EvalExpr(*e, window, ctx));
      cols.push_back(*c);
    }
    if (spill == nullptr) {
      std::vector<DataType> types;
      for (const Column& c : cols) types.push_back(c.type());
      spill = std::make_unique<SpillPartitioner>(engine, std::move(types),
                                                 num_keys, join_keys);
    }
    DL2SQL_RETURN_NOT_OK(
        spill->Append(std::move(cols), nullptr, source->window_start(w)));
  }
  return spill->Finish();
}

}  // namespace

Result<Table> Database::ExecFilter(const PlanNode& node, Table input) {
  Stopwatch watch;
  EvalContext ctx = MakeEvalContext();
  // The predicate is row-local, so filtering window by window is exactly
  // the whole-input result.
  auto filter = [&](const Table& window) -> Result<Table> {
    DL2SQL_ASSIGN_OR_RETURN(std::vector<int64_t> rows,
                            FilterRows(*node.predicate, window, &ctx));
    return window.TakeRows(rows);
  };
  DL2SQL_ASSIGN_OR_RETURN(Table out, MapWindows(input, filter));
  const double inf = DrainEvalContext(ctx);
  ChargeOperator("filter", watch.ElapsedSeconds(), inf);
  return out;
}

Result<Table> Database::ExecProject(const PlanNode& node, Table input) {
  Stopwatch watch;
  EvalContext ctx = MakeEvalContext();
  // Every expression is row-local, so projecting window by window is
  // exactly the whole-input result.
  auto project = [&](const Table& window) -> Result<Table> {
    std::vector<Column> cols;
    TableSchema schema;
    for (size_t i = 0; i < node.exprs.size(); ++i) {
      DL2SQL_ASSIGN_OR_RETURN(ColumnHandle col,
                              EvalExpr(*node.exprs[i], window, &ctx));
      cols.push_back(*col);  // cheap: shared payload
      schema.AddField({node.names[i], col->type()});
    }
    return Table::FromColumns(std::move(schema), std::move(cols));
  };
  Table out;
  if (node.exprs.empty()) {
    out.SetZeroColumnRows(input.num_rows());
  } else {
    DL2SQL_ASSIGN_OR_RETURN(out, MapWindows(input, project));
  }
  const double inf = DrainEvalContext(ctx);
  ChargeOperator("project", watch.ElapsedSeconds(), inf);
  return out;
}

struct Database::HashJoinSides {
  bool build_left = false;
  /// Per probe row, the id of its key in the build table (kAbsent: no
  /// match, or a NULL key part).
  std::vector<KeyHashTable::KeyId> probe_ids;
  /// A reused prebuilt index, else the table built for this join.
  std::shared_ptr<HashIndex> index;
  KeyHashTable built;

  const KeyHashTable& table() const {
    return index != nullptr ? index->table() : built;
  }

  int64_t probe_rows() const { return static_cast<int64_t>(probe_ids.size()); }

  /// The probe step: evaluates `node`'s probe-side keys over `probe` (the
  /// probe input, or one window of it) and sets probe_ids, with the
  /// transient arrays charged to `scratch`.
  Status Probe(const PlanNode& node, const Table& probe, EvalContext* ctx,
               ScopedMemCharge* scratch) {
    std::vector<ColumnHandle> cols;
    std::vector<const Column*> keys;
    for (const auto& [lk, rk] : node.equi_keys) {
      DL2SQL_ASSIGN_OR_RETURN(ColumnHandle c,
                              EvalExpr(build_left ? *rk : *lk, probe, ctx));
      keys.push_back(c.get());
      cols.push_back(std::move(c));
    }
    DL2SQL_ASSIGN_OR_RETURN(probe_ids,
                            ProbeJoinTable(table(), keys, ctx, scratch));
    return Status::OK();
  }

  /// Build rows matching probe row `p`, ascending (empty when none).
  std::pair<const int64_t*, const int64_t*> Matches(int64_t p) const {
    const KeyHashTable::KeyId k = probe_ids[static_cast<size_t>(p)];
    if (k == KeyHashTable::kAbsent) return {nullptr, nullptr};
    return {table().rows_begin(k), table().rows_end(k)};
  }

  /// Appends the (left, right) row pairs of probe rows p, p + 1, ... before
  /// `end` to `lrows` and `rrows`, each probe row's in build-row order, and
  /// stops after the probe row that brings them to `limit` pairs. Returns
  /// the next probe row.
  int64_t AppendPairs(int64_t p, int64_t end, size_t limit,
                      std::vector<int64_t>* lrows,
                      std::vector<int64_t>* rrows) const {
    std::vector<int64_t>* build_rows = build_left ? lrows : rrows;
    std::vector<int64_t>* probe_rows = build_left ? rrows : lrows;
    for (; p < end && build_rows->size() < limit; ++p) {
      const auto [b, e] = Matches(p);
      build_rows->insert(build_rows->end(), b, e);
      probe_rows->insert(probe_rows->end(), static_cast<size_t>(e - b), p);
    }
    return p;
  }

  /// Every probe row's pairs, as AppendPairs emits them, into the empty
  /// `lrows` and `rrows`; TooManyJoinPairs past `max_pairs`. With a pool the
  /// probe is morsel-parallel: the table is immutable once built, so any
  /// number of workers may probe it; each probe morsel collects its pairs
  /// into its own row-id vectors and these are concatenated in morsel
  /// order, which reproduces the serial pair order for every thread count.
  Status AllPairs(const EvalContext& ctx, int64_t max_pairs,
                  std::vector<int64_t>* lrows,
                  std::vector<int64_t>* rrows) const {
    const size_t limit = static_cast<size_t>(max_pairs) + 1;
    const int64_t pn = probe_rows();
    const int64_t m = ctx.morsel_size;
    if (ctx.pool == nullptr || ctx.pool->num_threads() <= 1 || pn <= m) {
      AppendPairs(0, pn, limit, lrows, rrows);
      return lrows->size() >= limit ? TooManyJoinPairs() : Status::OK();
    }
    std::vector<std::pair<std::vector<int64_t>, std::vector<int64_t>>> parts(
        static_cast<size_t>((pn + m - 1) / m));
    std::atomic<int64_t> total_pairs{0};
    DL2SQL_RETURN_NOT_OK(ctx.pool->ParallelForMorsel(
        pn, m, [&](int64_t bgn, int64_t end, int) -> Status {
          auto& [l, r] = parts[static_cast<size_t>(bgn / m)];
          AppendPairs(bgn, end, limit, &l, &r);
          const int64_t sz = static_cast<int64_t>(l.size());
          if (total_pairs.fetch_add(sz) + sz > max_pairs) {
            return TooManyJoinPairs();
          }
          return Status::OK();
        }));
    lrows->reserve(static_cast<size_t>(total_pairs.load()));
    rrows->reserve(static_cast<size_t>(total_pairs.load()));
    for (const auto& [l, r] : parts) {
      lrows->insert(lrows->end(), l.begin(), l.end());
      rrows->insert(rrows->end(), r.begin(), r.end());
    }
    return Status::OK();
  }
};

Result<Database::HashJoinSides> Database::BuildHashJoin(
    const PlanNode& node, const Table& build, EvalContext* ctx,
    ScopedMemCharge* scratch) {
  HashJoinSides s;
  s.build_left = node.join_build_left;
  std::vector<Column> keys;
  for (const auto& [lk, rk] : node.equi_keys) {
    DL2SQL_ASSIGN_OR_RETURN(ColumnHandle c,
                            EvalExpr(s.build_left ? *lk : *rk, build, ctx));
    keys.push_back(*c);
  }

  // Reuse a prebuilt base-table index when the build side is an unfiltered
  // scan keyed on an indexed column (the shape of the generated
  // neural-operator joins: static kernel/mapping tables on the build side).
  // The index is the same table this join would build.
  const PlanNode& build_plan = *node.children[s.build_left ? 0 : 1];
  const Expr& build_key_expr = s.build_left ? *node.equi_keys[0].first
                                            : *node.equi_keys[0].second;
  if (node.equi_keys.size() == 1 && build_plan.kind == PlanKind::kScan &&
      build_key_expr.kind == ExprKind::kColumnRef &&
      build_key_expr.bound_index >= 0) {
    const std::string& qualified =
        build_plan.output_schema.field(build_key_expr.bound_index).name;
    const size_t dot = qualified.rfind('.');
    s.index = catalog_.GetIndex(
        build_plan.table_name,
        dot == std::string::npos ? qualified : qualified.substr(dot + 1));
    if (s.index != nullptr && s.index->indexed_rows() != build.num_rows()) {
      s.index = nullptr;  // stale snapshot guard
    }
  }
  if (s.index != nullptr) {
    ++index_joins_;
    static Counter* const index_counter =
        MetricsRegistry::Global().counter("db.index_joins");
    index_counter->Increment();
  } else {
    DL2SQL_ASSIGN_OR_RETURN(s.built,
                            BuildJoinTable(std::move(keys), ctx, scratch));
  }
  return s;
}

Result<Table> Database::ExecJoin(const PlanNode& node, Table left, Table right) {
  Table& build = node.join_build_left ? left : right;
  Table& probe = node.join_build_left ? right : left;
  const bool hash = !node.equi_keys.empty() && !node.use_symmetric_hash;
  if (hash) {
    // The hybrid hash join's admission: the optimizer's build side must be
    // resident beside the table built over it, so one whose bytes and
    // table bound are over the query budget takes the grace (partitioned,
    // spilling) join. A paged probe side streams through the built table,
    // one window per storage chunk.
    DL2SQL_ASSIGN_OR_RETURN(
        bool build_fits,
        TryEnsureResident(PlanKind::kJoin, &build,
                          BuildJoinTableBound(build.num_rows())));
    if (!build_fits) {
      return ExecJoinGrace(node, std::move(left), std::move(right));
    }
  } else if (left.is_paged() || right.is_paged()) {
    // Cross and symmetric-hash joins read both inputs whole and have no
    // spill path — surface the budget refusal instead of silently thrashing.
    DL2SQL_ASSIGN_OR_RETURN(bool left_fits,
                            TryEnsureResident(PlanKind::kJoin, &left));
    DL2SQL_ASSIGN_OR_RETURN(bool right_fits,
                            TryEnsureResident(PlanKind::kJoin, &right));
    if (!left_fits || !right_fits) {
      return Status::ResourceExhausted(
          "join input (", left.ByteSize() + right.ByteSize(),
          " bytes) exceeds the query memory budget and this join shape "
          "(cross or symmetric-hash) has no spill path");
    }
  }
  Stopwatch watch;
  EvalContext ctx = MakeEvalContext();
  // Transient join state — build-side hash table, probe hashes and the pair
  // row ids — is charged against op.join while live. Estimates, not
  // malloc-exact: the accounting answers "which operator holds the memory",
  // not "what does malloc say".
  ScopedMemCharge scratch_mem(OpScratchTracker(PlanKind::kJoin));
  // Join pair i is row lrows[i] of `l` and row rrows[i] of `r`; the row ids
  // are charged to `mem` while the pairs materialize.
  auto materialize = [&](const Table& l, const Table& r,
                         const std::vector<int64_t>& lrows,
                         const std::vector<int64_t>& rrows,
                         ScopedMemCharge* mem) -> Result<Table> {
    DL2SQL_RETURN_NOT_OK(mem->Charge(
        static_cast<int64_t>(2 * lrows.size() * sizeof(int64_t))));
    return MaterializeJoinPairs(node, l, r, lrows, rrows, &ctx);
  };
  Table joined;
  std::vector<int64_t> lrows, rrows;

  if (node.use_symmetric_hash && node.equi_keys.size() == 1) {
    const size_t limit = static_cast<size_t>(kMaxJoinPairs) + 1;
    DL2SQL_RETURN_NOT_OK(SymmetricHashJoinPairs(
        left, right, *node.equi_keys[0].first, *node.equi_keys[0].second,
        &ctx, SymmetricHashJoinOptions{}, &scratch_mem, limit, &lrows,
        &rrows));
    if (lrows.size() >= limit) return TooManyJoinPairs();
    ++symmetric_joins_;
    static Counter* const symmetric_counter =
        MetricsRegistry::Global().counter("db.symmetric_joins");
    symmetric_counter->Increment();
    DL2SQL_ASSIGN_OR_RETURN(
        joined, materialize(left, right, lrows, rrows, &scratch_mem));
  } else if (!node.equi_keys.empty()) {
    // The build step runs once, the probe step once per probe window, and
    // windows run in order, so pairs come out probe-ascending as in one
    // window; the pair cap counts across windows. The table is charged on
    // the join's scope, a window's probe arrays and row ids on its own.
    DL2SQL_ASSIGN_OR_RETURN(HashJoinSides sides,
                            BuildHashJoin(node, build, &ctx, &scratch_mem));
    int64_t pairs = 0;
    auto join_window = [&](const Table& window) -> Result<Table> {
      ScopedMemCharge window_mem(OpScratchTracker(PlanKind::kJoin));
      DL2SQL_RETURN_NOT_OK(sides.Probe(node, window, &ctx, &window_mem));
      lrows.clear();
      rrows.clear();
      DL2SQL_RETURN_NOT_OK(
          sides.AllPairs(ctx, kMaxJoinPairs - pairs, &lrows, &rrows));
      pairs += static_cast<int64_t>(lrows.size());
      return sides.build_left
                 ? materialize(build, window, lrows, rrows, &window_mem)
                 : materialize(window, build, lrows, rrows, &window_mem);
    };
    DL2SQL_ASSIGN_OR_RETURN(joined, MapWindows(probe, join_window));
  } else {
    // Cross product (the residual condition applies as the pairs
    // materialize).
    const int64_t total = left.num_rows() * right.num_rows();
    if (total > kMaxJoinPairs) {
      return Status::ResourceExhausted("cross join of ", left.num_rows(), " x ",
                                       right.num_rows(), " rows is too large");
    }
    lrows.reserve(static_cast<size_t>(total));
    rrows.reserve(static_cast<size_t>(total));
    for (int64_t l = 0; l < left.num_rows(); ++l) {
      for (int64_t r = 0; r < right.num_rows(); ++r) {
        lrows.push_back(l);
        rrows.push_back(r);
      }
    }
    DL2SQL_ASSIGN_OR_RETURN(
        joined, materialize(left, right, lrows, rrows, &scratch_mem));
  }
  const double inf = DrainEvalContext(ctx);
  ChargeOperator("join", watch.ElapsedSeconds(), inf);
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
  // result FLOAT64), so a compiled program reads NULL-free columns only;
  // bare columns (group keys, and arguments the generic state reads
  // through the row ids) may hold NULLs.
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
  // two bare columns (BatchAggregator::Compile checks their shapes).
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
  std::vector<DataType> key_types;
  for (const Operand& k : keys) key_types.push_back(k.col->type());
  std::vector<vec::ColumnRead> kreads(num_keys);
  std::vector<vec::ArgRead> areads(num_aggs);
  std::vector<vec::ArgShape> shapes(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    areads[a] = {read(args[a]), read(factors[a])};
    shapes[a] = vec::ShapeOf(areads[a]);
  }
  vec::BatchAggregator agg;
  if (!agg.Compile(node, key_types, shapes, /*vectorized=*/true)) {
    return std::optional<Table>();
  }

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

  DL2SQL_ASSIGN_OR_RETURN(
      HashJoinSides sides,
      BuildHashJoin(join, join.join_build_left ? left : right, &ctx,
                    &join_mem));
  DL2SQL_RETURN_NOT_OK(sides.Probe(join, join.join_build_left ? right : left,
                                   &ctx, &join_mem));

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
  const size_t batch_pairs = 1024;
  DL2SQL_RETURN_NOT_OK(join_mem.Charge(
      static_cast<int64_t>(batch_pairs * 2 * sizeof(int64_t))));
  lrows.reserve(batch_pairs);
  rrows.reserve(batch_pairs);
  vec::BatchArena arena;
  double groupby_seconds = 0;
  int64_t pairs = 0;
  // Gathers the buffered pairs' program and hashed-key columns (join work),
  // then evaluates the programs and folds the pairs into the group states
  // (groupby).
  auto flush = [&]() -> Status {
    const int64_t n = static_cast<int64_t>(lrows.size());
    pairs += n;
    if (pairs > kMaxJoinPairs) return TooManyJoinPairs();
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
    DL2SQL_RETURN_NOT_OK(
        agg.Consume(kreads, areads, 0, n, pairs - n, key_hashes));
    ++ctx.vec_batches;
    ctx.vec_rows_in += n;
    ctx.vec_rows_selected += n;
    lrows.clear();
    rrows.clear();
    groupby_seconds += group_watch.ElapsedSeconds();
    return Status::OK();
  };
  for (int64_t p = 0; p < sides.probe_rows();) {
    p = sides.AppendPairs(p, sides.probe_rows(), batch_pairs, &lrows, &rrows);
    if (lrows.size() >= batch_pairs) DL2SQL_RETURN_NOT_OK(flush());
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
  ChargeOperator("join", join_seconds, inf);
  ChargeOperator("groupby", groupby_seconds, 0);
  static Counter* const fused_counter =
      MetricsRegistry::Global().counter("db.fused_join_aggs");
  fused_counter->Increment();
  if (StatementStats* stats = tls_stats_) {
    stats->operator_rows += pairs;
    if (stats->analyze) {
      NodeRunStats& js = stats->nodes[&join];
      js.fused = true;
      js.rows += pairs;
      js.cumulative_seconds += join_seconds;
      stats->nodes[&node].dense_slots = dense_slots;
    }
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

  // Phase 1: partition. Each side spills (global row id, key columns in
  // their own types) into per-partition paged runs by the keys' canonical
  // hash, so keys that join in memory (an INT64 3 and a FLOAT64 3.0) share
  // a partition. NULL keys never match and are dropped here.
  std::vector<const Expr*> lkeys, rkeys;
  for (const auto& [lk, rk] : node.equi_keys) {
    lkeys.push_back(lk.get());
    rkeys.push_back(rk.get());
  }
  DL2SQL_ASSIGN_OR_RETURN(
      const SpillRun lrun,
      SpillPartitions(left, lkeys, lkeys.size(), /*join_keys=*/true, engine,
                      &ctx));
  DL2SQL_ASSIGN_OR_RETURN(
      const SpillRun rrun,
      SpillPartitions(right, rkeys, rkeys.size(), /*join_keys=*/true, engine,
                      &ctx));
  TallySpill(lrun.bytes + rrun.bytes, lrun.used_parts + rrun.used_parts);
  static Counter* const grace_counter =
      MetricsRegistry::Global().counter("db.grace_joins");
  grace_counter->Increment();

  // Phase 2: per partition, the in-memory join's build step over the
  // optimizer's build side and its probe step over each chunk of the other
  // side. Only one partition's table is resident at a time; its bytes are
  // charged on a per-iteration scope.
  const bool build_left = node.join_build_left;
  const SpillRun& brun = build_left ? lrun : rrun;
  const SpillRun& prun = build_left ? rrun : lrun;
  std::vector<std::pair<int64_t, int64_t>> pb_pairs;  // (probe row, build row)
  for (size_t part = 0; part < brun.parts.size(); ++part) {
    const auto& bp = brun.parts[part];
    const auto& pp = prun.parts[part];
    if (bp->num_rows() == 0 || pp->num_rows() == 0) continue;
    ScopedMemCharge part_mem(OpScratchTracker(PlanKind::kJoin));
    DL2SQL_ASSIGN_OR_RETURN(const std::vector<Column> bcols, bp->Materialize());
    for (const Column& c : bcols) {
      DL2SQL_RETURN_NOT_OK(part_mem.Charge(static_cast<int64_t>(c.ByteSize())));
    }
    // Spilled columns are (__row, key columns...).
    HashJoinSides sides;
    DL2SQL_ASSIGN_OR_RETURN(
        sides.built,
        BuildJoinTable(std::vector<Column>(bcols.begin() + 1, bcols.end()),
                       &ctx, &part_mem));
    const std::vector<int64_t>& brows = bcols[0].ints();
    for (int64_t c = 0; c < pp->num_chunks(); ++c) {
      DL2SQL_ASSIGN_OR_RETURN(const std::vector<Column> pcols, pp->ReadChunk(c));
      std::vector<const Column*> pkeys;
      for (size_t k = 1; k < pcols.size(); ++k) pkeys.push_back(&pcols[k]);
      ScopedMemCharge probe_mem(OpScratchTracker(PlanKind::kJoin));
      DL2SQL_ASSIGN_OR_RETURN(
          sides.probe_ids,
          ProbeJoinTable(sides.table(), pkeys, &ctx, &probe_mem));
      const std::vector<int64_t>& prows = pcols[0].ints();
      for (int64_t p = 0; p < sides.probe_rows(); ++p) {
        const auto [b, e] = sides.Matches(p);
        for (const int64_t* r = b; r != e; ++r) {
          pb_pairs.emplace_back(prows[static_cast<size_t>(p)],
                                brows[static_cast<size_t>(*r)]);
        }
      }
      if (static_cast<int64_t>(pb_pairs.size()) > kMaxJoinPairs) {
        return TooManyJoinPairs();
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

  // Phase 3: materialize bounded slices of the pairs as the in-memory join
  // does and stream them out through paged output.
  PagedResultWriter writer(engine, node.output_schema);
  constexpr size_t kEmitRows = 16384;
  std::vector<int64_t> lrows, rrows;
  for (size_t start = 0; start < pb_pairs.size(); start += kEmitRows) {
    const size_t end = std::min(pb_pairs.size(), start + kEmitRows);
    lrows.clear();
    rrows.clear();
    for (size_t i = start; i < end; ++i) {
      const auto& [p, b] = pb_pairs[i];
      lrows.push_back(build_left ? b : p);
      rrows.push_back(build_left ? p : b);
    }
    DL2SQL_ASSIGN_OR_RETURN(
        Table joined,
        MaterializeJoinPairs(node, left, right, lrows, rrows, &ctx));
    if (joined.num_rows() > 0) {
      DL2SQL_RETURN_NOT_OK(writer.Append(joined));
    }
  }
  DL2SQL_ASSIGN_OR_RETURN(Table out, writer.Finish());
  const double inf = DrainEvalContext(ctx);
  ChargeOperator("join", watch.ElapsedSeconds(), inf);
  return out;
}

Result<Table> Database::ExecAggregate(const PlanNode& node, Table input) {
  Stopwatch watch;
  EvalContext ctx = MakeEvalContext();
  const size_t num_keys = node.group_keys.size();
  const size_t num_aggs = node.agg_calls.size();
  // Each window evaluates the group keys, then the aggregate arguments
  // packed densely (COUNT(*) has none). Aggregates over the same bare column
  // share its slot; a computed argument keeps its own, so an nUDF in it runs
  // once per row, as over the whole input.
  std::vector<const Expr*> exprs;
  for (const auto& k : node.group_keys) exprs.push_back(k.get());
  std::vector<int> arg_slot(num_aggs, -1);
  std::map<int, int> column_slot;  // bound_index -> slot
  for (size_t a = 0; a < num_aggs; ++a) {
    const Expr& call = *node.agg_calls[a];
    if (call.agg_func == AggFunc::kCountStar) continue;
    const Expr& arg = *call.children[0];
    arg_slot[a] = static_cast<int>(exprs.size() - num_keys);
    if (arg.kind == ExprKind::kColumnRef && arg.bound_index >= 0) {
      const auto [it, added] =
          column_slot.emplace(arg.bound_index, arg_slot[a]);
      if (!added) {
        arg_slot[a] = it->second;
        continue;
      }
    }
    exprs.push_back(&arg);
  }
  // A resident input is one window; a paged one gives a window per storage
  // chunk, so it is never materialized.
  const std::shared_ptr<storage::StorageEngine> engine =
      input.is_paged() ? input.paged()->shared_engine() : storage_;
  const std::unique_ptr<storage::ColumnSource> source =
      storage::MakeColumnSource(std::make_shared<Table>(std::move(input)), 0);

  Table out;
  std::vector<int64_t> first_rows;
  SpillRun run;
  {
    // The grouping state is charged against op.aggregate after every
    // morsel. Once a charge is refused, the groups already resident keep
    // folding in place and rows of new groups spill by key hash, so a
    // group's rows are all resident or all in one partition, in row order.
    ScopedMemCharge agg_mem(OpScratchTracker(PlanKind::kAggregate));
    vec::BatchAggregator agg;
    std::vector<DataType> types;  // per expression, its first window's type
    std::unique_ptr<SpillPartitioner> spill;
    std::vector<int64_t> absent;
    int64_t morsels = 0;
    for (int64_t w = 0; w < source->num_windows(); ++w) {
      DL2SQL_ASSIGN_OR_RETURN(Table window, source->ReadWindow(w));
      const int64_t n = window.num_rows();
      const int64_t base = source->window_start(w);
      std::vector<Column> cols;
      for (size_t e = 0; e < exprs.size(); ++e) {
        DL2SQL_ASSIGN_OR_RETURN(ColumnHandle c,
                                EvalExpr(*exprs[e], window, &ctx));
        if (w == 0) types.push_back(c->type());
        DL2SQL_ASSIGN_OR_RETURN(
            Column col,
            ConformSpillColumn(*c, types[e], /*canonical=*/e < num_keys));
        cols.push_back(std::move(col));
      }
      std::vector<vec::ColumnRead> kreads(num_keys);
      for (size_t k = 0; k < num_keys; ++k) kreads[k].col = &cols[k];
      std::vector<vec::ArgRead> areads(num_aggs);
      std::vector<vec::ArgShape> shapes(num_aggs);
      for (size_t a = 0; a < num_aggs; ++a) {
        if (arg_slot[a] < 0) continue;
        areads[a].x.col = &cols[num_keys + static_cast<size_t>(arg_slot[a])];
        shapes[a] = vec::ShapeOf(areads[a]);
      }
      if (w == 0) {
        // Shapes compile from the first window; a later window's first NULL
        // turns the aggregates it reaches generic.
        if (!agg.Compile(node,
                         std::vector<DataType>(types.begin(),
                                               types.begin() + num_keys),
                         shapes, ctx.vectorized)) {
          return Status::InternalError("aggregate refused without a product");
        }
      } else {
        agg.AdmitNulls(shapes);
      }
      absent.clear();
      for (int64_t bgn = 0; bgn < n; bgn += ctx.morsel_size) {
        const int64_t end = std::min(n, bgn + ctx.morsel_size);
        if (spill == nullptr) {
          DL2SQL_RETURN_NOT_OK(agg.Consume(kreads, areads, bgn, end, base));
        } else {
          DL2SQL_RETURN_NOT_OK(
              agg.ConsumeResident(kreads, areads, bgn, end, &absent));
        }
        ++morsels;
        const int64_t growth = agg.ByteSize() - agg_mem.charged();
        if (spill == nullptr) {
          const Status charged = agg_mem.Charge(growth);
          if (charged.ok()) continue;
          if (engine == nullptr) return charged;
          spill = std::make_unique<SpillPartitioner>(engine, types, num_keys,
                                                     /*join_keys=*/false);
        }
        // Past the budget the growth (the refused morsel's new groups, or
        // states turning generic) is charged over the limit.
        agg_mem.Add(growth);
      }
      if (!absent.empty()) {
        DL2SQL_RETURN_NOT_OK(spill->Append(std::move(cols), &absent, base));
      }
    }
    if (ctx.vectorized) {
      ctx.vec_batches += morsels;
      ctx.vec_rows_in += source->num_rows();
      ctx.vec_rows_selected += source->num_rows();
    }
    DL2SQL_ASSIGN_OR_RETURN(out, agg.Finish(node));
    if (spill == nullptr) {
      const double inf = DrainEvalContext(ctx);
      ChargeOperator("groupby", watch.ElapsedSeconds(), inf);
      return out;
    }
    first_rows = agg.first_rows();
    DL2SQL_ASSIGN_OR_RETURN(run, spill->Finish());
  }

  // The overflow tail. The resident groups' state is released; their
  // result and each partition's stay charged until the merge below has
  // emitted them, and each partition's grouping state is charged on its own
  // per-iteration scope.
  ScopedMemCharge scratch_mem(OpScratchTracker(PlanKind::kAggregate));
  DL2SQL_RETURN_NOT_OK(
      scratch_mem.Charge(static_cast<int64_t>(out.ByteSize())));
  TallySpill(run.bytes, run.used_parts);
  static Counter* const external_agg_counter =
      MetricsRegistry::Global().counter("db.external_aggs");
  external_agg_counter->Increment();
  const std::vector<DataType> key_types(run.types.begin(),
                                        run.types.begin() + num_keys);
  std::vector<vec::ArgShape> shapes(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    if (arg_slot[a] < 0) continue;
    const size_t c = num_keys + static_cast<size_t>(arg_slot[a]);
    shapes[a].type = run.types[c];
    shapes[a].nulls = run.nulls[c] != 0;
  }

  // Per partition, fold its chunks one at a time, in spill order, through
  // its own aggregator; a group's number is its first row's spilled id.
  // Canonical key equality survives the spill round trip, so grouping
  // matches the resident groups'. A global aggregate's one group is
  // resident, so its partition stays empty and is skipped.
  std::vector<Table> results;
  std::vector<std::vector<int64_t>> results_first_rows;
  results.push_back(std::move(out));
  results_first_rows.push_back(std::move(first_rows));
  for (const auto& part : run.parts) {
    if (part->num_rows() == 0) continue;
    ScopedMemCharge part_mem(OpScratchTracker(PlanKind::kAggregate));
    vec::BatchAggregator agg;
    if (!agg.Compile(node, key_types, shapes, ctx.vectorized)) {
      return Status::InternalError("aggregate refused without a product");
    }
    std::vector<vec::ColumnRead> kreads(num_keys);
    std::vector<vec::ArgRead> areads(num_aggs);
    for (int64_t c = 0; c < part->num_chunks(); ++c) {
      DL2SQL_ASSIGN_OR_RETURN(std::vector<Column> cols, part->ReadChunk(c));
      for (size_t k = 0; k < num_keys; ++k) kreads[k].col = &cols[1 + k];
      for (size_t a = 0; a < num_aggs; ++a) {
        if (arg_slot[a] < 0) continue;
        areads[a].x.col =
            &cols[1 + num_keys + static_cast<size_t>(arg_slot[a])];
      }
      DL2SQL_RETURN_NOT_OK(agg.Consume(kreads, areads, 0, cols[0].size(), 0,
                                       nullptr, cols[0].ints().data()));
      DL2SQL_RETURN_NOT_OK(
          part_mem.Charge(agg.ByteSize() - part_mem.charged()));
    }
    DL2SQL_ASSIGN_OR_RETURN(Table result, agg.Finish(node));
    DL2SQL_RETURN_NOT_OK(
        scratch_mem.Charge(static_cast<int64_t>(result.ByteSize())));
    for (int c = 0; c < result.num_columns(); ++c) {
      if (result.column(c).type() != results[0].column(c).type()) {
        return Status::TypeError("aggregate column ", c,
                                 " changes type across spill partitions");
      }
    }
    results_first_rows.push_back(agg.first_rows());
    results.push_back(std::move(result));
  }

  // The resident groups and each partition's are disjoint runs, each in
  // ascending first-row order, and the emit order is ascending first row
  // across all: merge them straight into the output columns, charged as
  // they grow.
  out = Table(results[0].schema());
  constexpr int64_t kChargeRows = 16384;
  int64_t out_bytes = 0;
  std::vector<size_t> next(results.size(), 0);  // per run, its next group
  for (int64_t emitted = 0;; ++emitted) {
    size_t from = results.size();  // the run whose next group came first
    for (size_t r = 0; r < results.size(); ++r) {
      const std::vector<int64_t>& firsts = results_first_rows[r];
      if (next[r] < firsts.size() &&
          (from == results.size() ||
           firsts[next[r]] < results_first_rows[from][next[from]])) {
        from = r;
      }
    }
    const bool done = from == results.size();
    if (done || emitted % kChargeRows == kChargeRows - 1) {
      const int64_t bytes = static_cast<int64_t>(out.ByteSize());
      DL2SQL_RETURN_NOT_OK(scratch_mem.Charge(bytes - out_bytes));
      out_bytes = bytes;
    }
    if (done) break;
    const int64_t row = static_cast<int64_t>(next[from]++);
    for (int c = 0; c < out.num_columns(); ++c) {
      out.mutable_column(c).AppendFrom(results[from].column(c), row);
    }
  }

  const double inf = DrainEvalContext(ctx);
  ChargeOperator("groupby", watch.ElapsedSeconds(), inf);
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
  ChargeOperator("sort", watch.ElapsedSeconds(), inf);
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
    DL2SQL_ASSIGN_OR_RETURN(Table result, RunSelect(*stmt.as_select));
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
    DL2SQL_ASSIGN_OR_RETURN(Table src, RunSelect(*stmt.select));
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
