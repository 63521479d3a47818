/// \file database.h
/// \brief Database: the embedded lindb engine facade — parse, plan, optimize,
/// execute, with per-operator cost accounting.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/cache.h"
#include "common/mem_tracker.h"
#include "common/timer.h"
#include "db/catalog.h"
#include "db/eval.h"
#include "db/exec/symmetric_hash_join.h"
#include "db/optimizer.h"
#include "db/planner.h"
#include "db/query_log.h"
#include "db/sql/parser.h"

namespace dl2sql {
class Device;
}

namespace dl2sql::db {

namespace storage {
class StorageEngine;
struct StorageOptions;
}  // namespace storage

/// \brief Table residency policy (see DESIGN.md, "Out-of-core storage").
///
/// kInMemory (the default) keeps every table fully resident — the exact
/// pre-storage-engine behavior. kPaged pages base tables at least
/// page_min_bytes large out to the engine's block file behind the pinning
/// buffer pool, and arms the executor's spill paths (grace hash join,
/// external aggregation) for inputs that exceed the query memory budget.
/// Results are bit-identical in both modes; the environment variable
/// DL2SQL_STORAGE=paged selects kPaged at Database construction.
enum class StorageMode {
  kInMemory = 0,
  kPaged,
};

/// \brief Intra-query parallelism knobs threaded through plan execution.
///
/// When `device` is set, relational hot loops (predicate evaluation,
/// FilterRows, hash-join probe, hash aggregation, batched nUDFs) run as
/// morsels on the device's thread pool. A null device — or a 1-thread device
/// such as kEdgeCpu — degenerates every loop to the original serial path.
struct ExecOptions {
  /// Compute substrate whose ThreadPool executes morsels. Not owned; must
  /// outlive the Database (engines own both).
  Device* device = nullptr;
  /// Rows per morsel pulled off the atomic cursor.
  int64_t morsel_size = 4096;
};

/// \brief Cross-query caching knobs (see DESIGN.md, "Caching").
///
/// Two independent caches, both owned by the Database and both LRU with a
/// byte budget: the nUDF result cache memoizes per-row model outputs keyed by
/// (model fingerprint, serialized argument row); the plan cache memoizes
/// optimized SELECT plans keyed by normalized SQL + optimizer configuration,
/// validated against per-relation catalog versions on every hit. Defaults are
/// ON; the environment variable DL2SQL_CACHE=OFF (or "off"/"0") disables both
/// at Database construction.
struct CacheOptions {
  bool enable_nudf_cache = true;
  bool enable_plan_cache = true;
  size_t nudf_cache_bytes = 64ull << 20;
  size_t plan_cache_bytes = 8ull << 20;
};

/// \brief Introspection knobs: the system.* virtual tables, the query-log
/// ring behind system.queries, and the slow-query log.
///
/// Defaults are ON; DL2SQL_INTROSPECTION=OFF (or "off"/"0") disables the
/// whole layer at Database construction — no providers are registered and
/// query recording short-circuits to a null check, so the serving hot path
/// pays nothing. DL2SQL_QUERY_LOG_CAPACITY and DL2SQL_SLOW_QUERY_MS override
/// the other two knobs.
struct IntrospectionOptions {
  bool enabled = true;
  /// Ring slots behind system.queries; oldest records are overwritten.
  size_t query_log_capacity = 512;
  /// Statements at least this slow also emit a WARN line with the plan
  /// snapshot. <= 0 disables the slow-query log (recording continues).
  double slow_query_ms = 250.0;
};

/// \brief Serving-layer context attached to a recorded query (admission wait
/// measured by QueryService, the session the statement ran on). Zeros for
/// direct embedded use.
struct QueryRecordHints {
  int64_t session_id = 0;
  int64_t admission_wait_us = 0;
  /// Statement RW-lock acquisition delay measured by QueryService.
  int64_t lock_wait_us = 0;
  /// The session's memory tracker; the per-query tracker parents under it
  /// (falls back to MemTracker::Process() when null). Not owned; must stay
  /// alive for the duration of the call.
  MemTracker* session_mem = nullptr;
  /// Distributed trace context propagated from the coordinator (".trace"
  /// wire header); zeros for untraced statements.
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  /// When non-null, receives a copy of the query-log record for this
  /// statement (so a shard server can ship the profile back in the wire
  /// trailer without re-scanning the ring). Untouched when introspection is
  /// off or the statement fails before recording.
  QueryLogRecord* record_out = nullptr;
};

/// \brief An embedded, in-memory, columnar SQL engine.
///
/// This plays the role of the paper's in-memory ClickHouse build: columnar
/// storage, vectorized expression evaluation, hash joins and hash
/// aggregation, a cost-based optimizer with pluggable cost models, scalar
/// UDFs (including neural UDFs), and views/temp tables used heavily by the
/// DL2SQL pipelines.
class Database {
 public:
  Database();

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  UdfRegistry& udfs() { return udfs_; }
  const UdfRegistry& udfs() const { return udfs_; }

  /// Optimizer configuration (pushdown, nUDF hint rules, cost model).
  OptimizerOptions& optimizer_options() { return opt_options_; }

  /// Symmetric-hash-join tuning (hint rule 3).
  SymmetricHashJoinOptions& symmetric_join_options() { return shj_options_; }

  /// Intra-query parallelism: wires a Device's thread pool into plan
  /// execution. Engines call this once at construction.
  void set_exec_options(ExecOptions opts) { exec_options_ = opts; }
  const ExecOptions& exec_options() const { return exec_options_; }

  /// Switches the table-residency policy (DL2SQL_STORAGE=paged selects
  /// kPaged at construction). Entering kPaged creates the storage engine —
  /// StorageOptions::FromEnv() for the one-argument form — if none exists
  /// yet; returning to kInMemory keeps the engine alive so already-paged
  /// tables stay readable (they heal to resident on next mutation). Takes
  /// effect for tables registered/mutated after the call.
  Status set_storage_mode(StorageMode mode);
  Status set_storage_mode(StorageMode mode,
                          const storage::StorageOptions& options);
  StorageMode storage_mode() const { return storage_mode_; }
  /// The out-of-core engine, or nullptr before the first kPaged switch.
  const std::shared_ptr<storage::StorageEngine>& storage_engine() const {
    return storage_;
  }

  /// Batch-at-a-time vectorized execution (see DESIGN.md, "Vectorized
  /// execution"). Default ON; the environment variable DL2SQL_VECTOR=OFF
  /// (or "off"/"0") disables it at Database construction, and tests flip it
  /// per-instance for the off-vs-on bit-identity suite. Off runs the exact
  /// pre-vectorization row paths.
  void set_vectorized(bool on) { vectorized_ = on; }
  bool vectorized() const { return vectorized_; }

  /// Reconfigures the cross-query caches. Rebuilds (and therefore clears)
  /// both; disabled caches are destroyed so the engine runs the exact
  /// pre-cache code paths, which is how the ablation bench and the
  /// off-vs-on bit-identity tests get their baselines.
  void set_cache_options(CacheOptions opts);
  const CacheOptions& cache_options() const { return cache_options_; }

  /// The nUDF result cache, or nullptr when disabled (test introspection).
  ShardedLruCache* nudf_cache() { return nudf_cache_.get(); }
  /// The prepared-plan cache, or nullptr when disabled.
  ShardedLruCache* plan_cache() { return plan_cache_.get(); }

  /// When set, operator wall time is charged into this accumulator under
  /// buckets: "scan", "filter", "join", "groupby", "project", "sort",
  /// "limit", and nUDF time separately under "inference".
  void set_cost_accumulator(CostAccumulator* acc) { costs_ = acc; }
  CostAccumulator* cost_accumulator() const { return costs_; }

  /// Total nUDF invocations since construction (hint-pruning assertions).
  /// Atomic: nUDF bodies may finish on pool workers under morsel parallelism.
  int64_t neural_calls() const {
    return neural_calls_.load(std::memory_order_relaxed);
  }
  void reset_neural_calls() {
    neural_calls_.store(0, std::memory_order_relaxed);
  }

  /// Executes one SQL statement; SELECTs return their result set, DML/DDL
  /// return an empty result (row count in the zero-column table).
  Result<Table> Execute(const std::string& sql);

  /// Executes a ';'-separated script, discarding intermediate results.
  Status ExecuteScript(const std::string& script);

  Result<Table> ExecuteStatement(const Statement& stmt);
  Result<Table> ExecuteSelect(const SelectStmt& stmt);

  /// ExecuteStatement plus query-log recording: duration, result rows,
  /// per-query neural/cache tallies, error status, and the serving-layer
  /// hints. Execute()/ExecuteScript() route through this; the serving layer
  /// calls it directly (it parses before admission, so it holds the
  /// Statement and the raw SQL separately). With introspection disabled this
  /// is exactly ExecuteStatement.
  Result<Table> ExecuteStatementRecorded(const Statement& stmt,
                                         const std::string& sql,
                                         const QueryRecordHints& hints);

  /// The query-log ring, or nullptr when introspection is disabled.
  QueryLog* query_log() { return query_log_.get(); }

  const IntrospectionOptions& introspection_options() const {
    return introspection_options_;
  }
  /// Runtime-adjustable slow-query threshold. Atomic: tests and tooling may
  /// lower it while serving threads are recording.
  void set_slow_query_ms(double ms) {
    slow_query_ms_.store(ms, std::memory_order_relaxed);
  }
  double slow_query_ms() const {
    return slow_query_ms_.load(std::memory_order_relaxed);
  }

  /// Per-query hard memory budget in bytes (0 = unlimited, the default; the
  /// environment variable DL2SQL_QUERY_MEM_LIMIT seeds it at construction).
  /// A recorded statement whose operator charges would exceed the budget
  /// fails with ResourceExhausted naming the offending operator — it never
  /// aborts. Takes effect for statements starting after the call.
  void set_query_mem_limit(int64_t bytes) {
    query_mem_limit_.store(bytes, std::memory_order_relaxed);
  }
  int64_t query_mem_limit() const {
    return query_mem_limit_.load(std::memory_order_relaxed);
  }

  /// Plans and optimizes without executing (EXPLAIN). When `referenced` is
  /// non-null it receives every catalog relation the planner resolved — the
  /// dependency set the plan cache validates against catalog versions.
  Result<PlanPtr> PlanQuery(const SelectStmt& stmt,
                            std::vector<std::string>* referenced = nullptr);
  Result<std::string> Explain(const std::string& sql);

  /// Executes the SELECT and renders the plan annotated with actual row
  /// counts and per-operator wall time (cumulative and self).
  Result<std::string> ExplainAnalyze(const std::string& sql);

  /// Runs an already-optimized plan.
  Result<Table> ExecutePlan(const PlanNode& plan);

  /// Convenience: create (or replace) a base table.
  Status RegisterTable(const std::string& name, Table table,
                       bool temporary = false);

  /// The optimized plan of the most recent SELECT (test introspection).
  /// Returned by value: concurrent sessions race on "most recent", so the
  /// snapshot is taken under a lock.
  PlanPtr last_plan() const {
    std::lock_guard<std::mutex> lock(last_run_mu_);
    return last_plan_;
  }

  /// Stats of the most recent symmetric hash join, if any ran.
  SymmetricHashJoinStats last_symmetric_stats() const {
    std::lock_guard<std::mutex> lock(last_run_mu_);
    return last_shj_stats_;
  }

  /// Count of symmetric hash joins executed since construction.
  int64_t symmetric_joins_executed() const {
    return symmetric_joins_.load(std::memory_order_relaxed);
  }

  /// Count of hash joins that reused a prebuilt base-table index.
  int64_t index_joins_executed() const {
    return index_joins_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-node runtime profile collected when ExplainAnalyze drives a query.
  struct NodeRunStats {
    int64_t rows = 0;
    double cumulative_seconds = 0;
    /// Bytes of this node's output table (peak materialized footprint of the
    /// operator; columnar payload, not allocator overhead).
    int64_t output_bytes = 0;
    /// Seconds each pool worker spent inside morsel bodies while this node
    /// (or its subtree) executed; empty when no pool is wired.
    std::vector<double> worker_busy_seconds;
    /// \name Vectorized-kernel profile (zero when the node ran the row path)
    /// @{
    int64_t vec_batches = 0;
    int64_t vec_rows_in = 0;
    int64_t vec_rows_selected = 0;
    /// @}
    /// Join node whose probe matches fed its parent aggregate directly (the
    /// fused join→aggregate pass): `rows` counts pairs, none materialized.
    bool fused = false;
    /// Aggregate node of a fused pass that grouped through dense slots
    /// (vec::BatchAggregator::UseDenseSlots): the slot count; 0 if hashed.
    int64_t dense_slots = 0;
  };

  /// Per-query tallies accumulated while a recorded statement executes,
  /// reached through a thread_local pointer (set/cleared by
  /// ExecuteStatementRecorded on the query's calling thread; operators and
  /// DrainEvalContext fold into it from that same thread).
  struct QueryTally {
    int64_t neural_calls = 0;
    int64_t nudf_cache_hits = 0;
    bool plan_cache_hit = false;
    /// The plan this statement ran: set by the first SELECT executed under
    /// this tally. Scalar subqueries run after it, and nested recorded
    /// statements have tallies of their own, so neither overwrites it.
    PlanPtr plan;
    int64_t operator_rows = 0;
    int64_t peak_operator_bytes = 0;
    /// Vectorized batches processed across all operators of the statement.
    int64_t vector_batches = 0;
    /// \name Resource accounting (null/zero when MemTracker is disabled)
    /// @{
    /// The per-query tracker (owned by ExecuteStatementRecorded's stack
    /// frame); operator charges and limit checks go through it.
    MemTracker* mem = nullptr;
    /// Lazily created per-PlanKind operator trackers, children of `mem`
    /// (labels "op.<kind>"; the map key is the PlanKind value).
    std::map<int, std::unique_ptr<MemTracker>> op_trackers;
    /// Operator output-charge frames: each ExecNode wrapper pushes a frame,
    /// children's output charges land in their parent's (then-innermost)
    /// frame, and popping the frame releases them — so the tracker holds a
    /// node's inputs and output simultaneously, like execution does. Charges
    /// left at depth 0 (the root output) are released at end of statement.
    std::vector<std::vector<std::pair<MemTracker*, int64_t>>> mem_frames;
    /// @}
    /// \name Out-of-core spill accounting (grace join / external aggregation)
    /// @{
    /// Logical bytes written to spill partitions in the block file.
    int64_t spill_bytes = 0;
    /// Spill partitions produced (non-empty partition runs).
    int64_t spill_partitions = 0;
    /// @}
  };

  Result<Table> ExecNode(const PlanNode& node);
  /// ExecNode's per-operator accounting (trace span, memory frames, rows,
  /// EXPLAIN ANALYZE stats) around `body`, which produces `node`'s output.
  Result<Table> ExecNodeWith(const PlanNode& node,
                             const std::function<Result<Table>()>& body);
  /// `body` plus NodeRunStats collection (ExplainAnalyze runs).
  Result<Table> ExecNodeCollect(const PlanNode& node,
                                const std::function<Result<Table>()>& body);
  Result<Table> ExecNodeImpl(const PlanNode& node);
  /// Lazily created "op.<kind>" child of the running recorded statement's
  /// query tracker; null when no tracked statement is active on this thread.
  /// Operators charge transient state (join build sides, aggregation groups)
  /// against it via ScopedMemCharge.
  MemTracker* OpScratchTracker(PlanKind kind);
  /// Charges `out_bytes` of operator output against the per-PlanKind tracker
  /// of the running recorded statement; parks the charge in the parent's
  /// frame (released when the parent operator finishes). ResourceExhausted
  /// when the charge would exceed a tracker limit up the chain.
  Status ChargeOperatorOutput(QueryTally* tally, const PlanNode& node,
                              int64_t out_bytes);
  Result<Table> ExecScan(const PlanNode& node);
  Result<Table> ExecFilter(const PlanNode& node, Table input);
  Result<Table> ExecProject(const PlanNode& node, Table input);
  Result<Table> ExecJoin(const PlanNode& node, Table left, Table right);
  Result<Table> ExecAggregate(const PlanNode& node, Table input);
  Result<Table> ExecSort(const PlanNode& node, Table input);

  /// \name Hash join and fused join→aggregate
  /// @{
  /// Build/probe state of an equi hash join (defined in database.cc).
  struct HashJoinSides;
  /// Evaluates both inputs' equi keys, takes the optimizer's build side's
  /// table — a prebuilt HashIndex when the build side is an unfiltered scan
  /// of an indexed column, else a KeyHashTable built here and charged to
  /// `scratch` — and hashes the probe keys.
  Result<HashJoinSides> PrepareHashJoin(const PlanNode& node,
                                        const Table& left, const Table& right,
                                        EvalContext* ctx,
                                        ScopedMemCharge* scratch);
  /// Aggregate `agg` over inner equi-join `join` of resident inputs in one
  /// pass: probe matches are collected batch by batch as two row-id
  /// vectors; bare column keys and arguments, and SUM/AVG/STDDEV products
  /// of two bare columns, read the inputs through those row ids, while other
  /// keys and arguments run as compiled numeric programs over gathered
  /// columns. The pairs fold straight into the group states (through dense
  /// slots when the INT64 keys' bounds allow), with no join output. nullopt,
  /// with nothing accumulated, when the aggregate does not fit the programs
  /// and kernels; the caller then runs the two operators unfused.
  Result<std::optional<Table>> ExecJoinAggregate(const PlanNode& agg,
                                                 const PlanNode& join,
                                                 const Table& left,
                                                 const Table& right);
  /// @}

  /// \name Out-of-core execution (paged storage mode)
  /// @{
  /// ExecNode plus root materialization: SELECT results hand resident
  /// columns to callers, so a paged root output is decoded here.
  Result<Table> ExecRoot(const PlanNode& plan);
  /// Pages `table` out through the storage engine when paged mode is on and
  /// the table's logical size reaches page_min_bytes; no-op otherwise.
  Status MaybePageOut(Table* table);
  /// Admission probe + materialization for a paged operator input: true if
  /// `t` is (now) resident, false if its resident form would not fit under
  /// the query memory budget (the caller must take a spill path or fail).
  Result<bool> TryEnsureResident(PlanKind kind, Table* t);
  /// Windowed filter/project over a paged input: evaluates row-local
  /// expressions one storage chunk at a time and streams the output back out
  /// through the engine, bounding residency to one window.
  Result<Table> ExecFilterPaged(const PlanNode& node, const Table& input);
  Result<Table> ExecProjectPaged(const PlanNode& node, const Table& input);
  /// Grace hash join: partitions both sides by key hash into block-file
  /// spill runs, joins partition pairs, restores the classic pair order.
  Result<Table> ExecJoinGrace(const PlanNode& node, Table left, Table right);
  /// External aggregation: partitions rows (key + argument values) into
  /// block-file spill runs, aggregates each partition in-core, and merges
  /// groups back into first-seen order.
  Result<Table> ExecAggregateExternal(const PlanNode& node,
                                      const Table& input);
  /// Folds spilled bytes/partitions into the running query tally and the
  /// db.spill.* metrics counters.
  void TallySpill(int64_t bytes, int64_t partitions);
  /// @}

  Result<Table> ExecCreateTable(const CreateTableStmt& stmt);
  Result<Table> ExecInsert(const InsertStmt& stmt);
  Result<Table> ExecUpdate(const UpdateStmt& stmt);
  Result<Table> ExecDelete(const DeleteStmt& stmt);
  Result<Table> ExecDrop(const DropStmt& stmt);

  /// (Re)creates the caches from cache_options_; disabled ones become null.
  void RebuildCaches();
  /// Plan-cache key: normalized SQL x optimizer config x parallelism x UDF
  /// registry version.
  uint64_t PlanCacheKey(const SelectStmt& stmt) const;

  void SetLastPlan(PlanPtr plan) {
    QueryTally* const tally = tls_tally_;
    if (tally != nullptr && tally->plan == nullptr) tally->plan = plan;
    std::lock_guard<std::mutex> lock(last_run_mu_);
    last_plan_ = std::move(plan);
  }

  /// Builds an EvalContext wired to this database (UDFs, subqueries, costs).
  EvalContext MakeEvalContext();
  /// Folds a finished context's counters into the database totals and
  /// returns the inference seconds consumed inside it.
  double DrainEvalContext(const EvalContext& ctx);

  Catalog catalog_;
  UdfRegistry udfs_;
  OptimizerOptions opt_options_;
  SymmetricHashJoinOptions shj_options_;
  ExecOptions exec_options_;
  CacheOptions cache_options_;
  /// Cross-query nUDF result memoization; null when disabled.
  std::unique_ptr<ShardedLruCache> nudf_cache_;
  /// Prepared-plan cache; null when disabled.
  std::unique_ptr<ShardedLruCache> plan_cache_;
  CostAccumulator* costs_ = nullptr;
  /// Batch-at-a-time vectorized execution toggle (DL2SQL_VECTOR).
  bool vectorized_ = true;
  IntrospectionOptions introspection_options_;
  /// Table residency policy (DL2SQL_STORAGE). The engine outlives a switch
  /// back to kInMemory: paged tables hold shared_ptrs into it.
  StorageMode storage_mode_ = StorageMode::kInMemory;
  std::shared_ptr<storage::StorageEngine> storage_;
  std::atomic<double> slow_query_ms_{250.0};
  /// Per-query memory budget (0 = unlimited; DL2SQL_QUERY_MEM_LIMIT).
  std::atomic<int64_t> query_mem_limit_{0};
  /// Ring behind system.queries; null when introspection is disabled.
  std::unique_ptr<QueryLog> query_log_;
  std::atomic<int64_t> neural_calls_{0};
  /// Guards the "most recent run" introspection snapshots below, which
  /// concurrent sessions would otherwise race on.
  mutable std::mutex last_run_mu_;
  PlanPtr last_plan_;
  SymmetricHashJoinStats last_shj_stats_;
  std::atomic<int64_t> symmetric_joins_{0};
  std::atomic<int64_t> index_joins_{0};
  /// Tally of the recorded statement currently executing on this thread;
  /// null outside ExecuteStatementRecorded (and always null with
  /// introspection disabled, keeping the hot path a single TLS load).
  static thread_local QueryTally* tls_tally_;
  bool collect_node_stats_ = false;
  /// Guards node_stats_: nUDF bodies can re-enter the executor while an
  /// ExplainAnalyze run is collecting (generated DL2SQL pipelines).
  std::mutex node_stats_mu_;
  std::map<const PlanNode*, NodeRunStats> node_stats_;
};

}  // namespace dl2sql::db
