#include "db/system_tables.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cache.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "db/database.h"
#include "db/virtual_table.h"

namespace dl2sql::db {

namespace {

// ---------------------------------------------------------- system.metrics

Result<TablePtr> MaterializeMetrics(const TableSchema& schema) {
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  auto t = std::make_shared<Table>(Table{schema});
  for (const auto& [name, value] : snap.counters) {
    DL2SQL_RETURN_NOT_OK(
        t->AppendRow({Value::String(name), Value::String("counter"),
                      Value::Float(static_cast<double>(value))}));
  }
  for (const auto& [name, value] : snap.gauges) {
    DL2SQL_RETURN_NOT_OK(t->AppendRow(
        {Value::String(name), Value::String("gauge"), Value::Float(value)}));
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::pair<const char*, double> expansions[] = {
        {".count", static_cast<double>(h.count)},
        {".sum_us", static_cast<double>(h.sum_micros)},
        {".p50_us", static_cast<double>(h.Quantile(0.5))},
        {".p95_us", static_cast<double>(h.Quantile(0.95))},
        {".p99_us", static_cast<double>(h.Quantile(0.99))},
    };
    for (const auto& [suffix, value] : expansions) {
      DL2SQL_RETURN_NOT_OK(
          t->AppendRow({Value::String(name + suffix),
                        Value::String("histogram"), Value::Float(value)}));
    }
  }
  return t;
}

// ---------------------------------------------------------- system.queries

/// 16-digit lower-case hex of a distributed trace/span id; "" for 0 so
/// untraced rows stay visibly blank.
std::string TraceIdHex(uint64_t id) {
  if (id == 0) return std::string();
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

Result<TablePtr> MaterializeQueries(Database* db, const TableSchema& schema) {
  auto t = std::make_shared<Table>(Table{schema});
  for (const QueryLogRecord& r : db->query_log()->Snapshot()) {
    DL2SQL_RETURN_NOT_OK(t->AppendRow({
        Value::Int(r.id),
        Value::String(r.sql),
        Value::String(QueryKindName(r.kind)),
        Value::String(r.error),
        Value::Float(static_cast<double>(r.duration_us) / 1000.0),
        Value::Int(r.rows),
        Value::Int(r.neural_calls),
        Value::Int(r.nudf_cache_hits),
        Value::Bool(r.plan_cache_hit),
        Value::Float(static_cast<double>(r.admission_wait_us) / 1000.0),
        Value::Int(r.session_id),
        Value::Int(r.peak_operator_bytes),
        Value::Int(r.operator_rows),
        Value::Int(r.vector_batches),
        Value::Int(r.end_micros),
        Value::String(TraceIdHex(r.trace_id)),
        Value::String(DistStrategyLabel(r.dist_strategy)),
        Value::Int(r.dist_shards),
        Value::Int(r.dist_slowest_shard),
        Value::Float(static_cast<double>(r.dist_slowest_us) / 1000.0),
        Value::Float(static_cast<double>(r.dist_merge_us) / 1000.0),
    }));
  }
  return t;
}

// --------------------------------------------------- system.query_profiles

/// The resource-accounting view over the same seqlock ring as
/// system.queries: one row per finished query with its CPU / wait-state /
/// tracked-memory breakdown. Columns are all zeros when the query ran with
/// DL2SQL_MEM_TRACKER=OFF.
Result<TablePtr> MaterializeQueryProfiles(Database* db,
                                          const TableSchema& schema) {
  auto t = std::make_shared<Table>(Table{schema});
  for (const QueryLogRecord& r : db->query_log()->Snapshot()) {
    DL2SQL_RETURN_NOT_OK(t->AppendRow({
        Value::Int(r.id),
        Value::String(r.sql),
        Value::String(QueryKindName(r.kind)),
        Value::Int(r.session_id),
        Value::Float(static_cast<double>(r.duration_us) / 1000.0),
        Value::Float(static_cast<double>(r.cpu_us) / 1000.0),
        Value::Float(static_cast<double>(r.admission_wait_us) / 1000.0),
        Value::Float(static_cast<double>(r.lock_wait_us) / 1000.0),
        Value::Float(static_cast<double>(r.pool_queue_wait_us) / 1000.0),
        Value::Int(r.mem_peak_bytes),
        Value::Int(r.mem_cumulative_bytes),
        Value::Int(r.end_micros),
        Value::Int(r.spill_bytes),
        Value::Int(r.spill_partitions),
    }));
  }
  return t;
}

// ------------------------------------------------------------ system.spans

Result<TablePtr> MaterializeSpans(const TableSchema& schema) {
  auto t = std::make_shared<Table>(Table{schema});
  for (const auto& s : TraceCollector::Global().Summary()) {
    const double avg_us =
        s.count == 0 ? 0.0
                     : static_cast<double>(s.total_us) /
                           static_cast<double>(s.count);
    DL2SQL_RETURN_NOT_OK(t->AppendRow({Value::String(s.name),
                                       Value::Int(s.count),
                                       Value::Int(s.total_us),
                                       Value::Float(avg_us),
                                       Value::Int(s.max_us)}));
  }
  return t;
}

// ----------------------------------------------------------- system.caches

Result<TablePtr> MaterializeCaches(Database* db, const TableSchema& schema) {
  auto t = std::make_shared<Table>(Table{schema});
  auto append = [&](const ShardedLruCache* cache) -> Status {
    if (cache == nullptr) return Status::OK();
    const CacheStats s = cache->stats();
    return t->AppendRow(
        {Value::String(cache->name()), Value::Int(s.entries),
         Value::Int(s.bytes),
         Value::Int(static_cast<int64_t>(cache->capacity_bytes())),
         Value::Int(s.hits), Value::Int(s.misses), Value::Int(s.insertions),
         Value::Int(s.evictions)});
  };
  DL2SQL_RETURN_NOT_OK(append(db->nudf_cache()));
  DL2SQL_RETURN_NOT_OK(append(db->plan_cache()));
  return t;
}

// ----------------------------------------------------------- system.tables

Result<TablePtr> MaterializeTables(Database* db, const TableSchema& schema) {
  auto t = std::make_shared<Table>(Table{schema});
  const Catalog& catalog = db->catalog();
  for (const std::string& name : catalog.TableNames()) {
    auto table = catalog.GetTable(name);
    // Dropped between listing and lookup (concurrent DDL): skip.
    if (!table.ok()) continue;
    DL2SQL_RETURN_NOT_OK(t->AppendRow(
        {Value::String(name), Value::String("table"),
         Value::Int((*table)->num_rows()),
         Value::Int(static_cast<int64_t>((*table)->ByteSize())),
         Value::Int(catalog.TrackedBytes(name)),
         Value::Bool(catalog.IsTemporary(name))}));
  }
  for (const std::string& name : catalog.ViewNames()) {
    DL2SQL_RETURN_NOT_OK(t->AppendRow(
        {Value::String(name), Value::String("view"), Value::Int(0),
         Value::Int(0), Value::Int(0), Value::Bool(false)}));
  }
  for (const std::string& name : catalog.VirtualTableNames()) {
    DL2SQL_RETURN_NOT_OK(t->AppendRow(
        {Value::String(name), Value::String("virtual"), Value::Int(0),
         Value::Int(0), Value::Int(0), Value::Bool(false)}));
  }
  return t;
}

}  // namespace

void RegisterDatabaseSystemTables(Database* db) {
  Catalog& catalog = db->catalog();

  TableSchema metrics_schema({{"name", DataType::kString},
                              {"kind", DataType::kString},
                              {"value", DataType::kFloat64}});
  DL2SQL_CHECK(catalog
                   .RegisterVirtualTable(std::make_shared<CallbackVirtualTable>(
                       "system.metrics", std::move(metrics_schema),
                       [](const TableSchema& s) { return MaterializeMetrics(s); }))
                   .ok());

  TableSchema queries_schema({{"id", DataType::kInt64},
                              {"sql", DataType::kString},
                              {"kind", DataType::kString},
                              {"error", DataType::kString},
                              {"duration_ms", DataType::kFloat64},
                              {"rows", DataType::kInt64},
                              {"neural_calls", DataType::kInt64},
                              {"nudf_cache_hits", DataType::kInt64},
                              {"plan_cache_hit", DataType::kBool},
                              {"admission_wait_ms", DataType::kFloat64},
                              {"session_id", DataType::kInt64},
                              {"peak_operator_bytes", DataType::kInt64},
                              {"operator_rows", DataType::kInt64},
                              {"vector_batches", DataType::kInt64},
                              {"end_micros", DataType::kInt64},
                              {"trace_id", DataType::kString},
                              {"dist_strategy", DataType::kString},
                              {"dist_shards", DataType::kInt64},
                              {"dist_slowest_shard", DataType::kInt64},
                              {"dist_slowest_ms", DataType::kFloat64},
                              {"dist_merge_ms", DataType::kFloat64}});
  DL2SQL_CHECK(catalog
                   .RegisterVirtualTable(std::make_shared<CallbackVirtualTable>(
                       "system.queries", std::move(queries_schema),
                       [db](const TableSchema& s) {
                         return MaterializeQueries(db, s);
                       }))
                   .ok());

  TableSchema profiles_schema({{"id", DataType::kInt64},
                               {"sql", DataType::kString},
                               {"kind", DataType::kString},
                               {"session_id", DataType::kInt64},
                               {"duration_ms", DataType::kFloat64},
                               {"cpu_ms", DataType::kFloat64},
                               {"admission_wait_ms", DataType::kFloat64},
                               {"lock_wait_ms", DataType::kFloat64},
                               {"pool_queue_wait_ms", DataType::kFloat64},
                               {"mem_peak_bytes", DataType::kInt64},
                               {"mem_cumulative_bytes", DataType::kInt64},
                               {"end_micros", DataType::kInt64},
                               {"spill_bytes", DataType::kInt64},
                               {"spill_partitions", DataType::kInt64}});
  DL2SQL_CHECK(catalog
                   .RegisterVirtualTable(std::make_shared<CallbackVirtualTable>(
                       "system.query_profiles", std::move(profiles_schema),
                       [db](const TableSchema& s) {
                         return MaterializeQueryProfiles(db, s);
                       }))
                   .ok());

  TableSchema spans_schema({{"name", DataType::kString},
                            {"count", DataType::kInt64},
                            {"total_us", DataType::kInt64},
                            {"avg_us", DataType::kFloat64},
                            {"max_us", DataType::kInt64}});
  DL2SQL_CHECK(catalog
                   .RegisterVirtualTable(std::make_shared<CallbackVirtualTable>(
                       "system.spans", std::move(spans_schema),
                       [](const TableSchema& s) { return MaterializeSpans(s); }))
                   .ok());

  TableSchema caches_schema({{"name", DataType::kString},
                             {"entries", DataType::kInt64},
                             {"bytes", DataType::kInt64},
                             {"capacity_bytes", DataType::kInt64},
                             {"hits", DataType::kInt64},
                             {"misses", DataType::kInt64},
                             {"insertions", DataType::kInt64},
                             {"evictions", DataType::kInt64}});
  DL2SQL_CHECK(catalog
                   .RegisterVirtualTable(std::make_shared<CallbackVirtualTable>(
                       "system.caches", std::move(caches_schema),
                       [db](const TableSchema& s) {
                         return MaterializeCaches(db, s);
                       }))
                   .ok());

  TableSchema tables_schema({{"name", DataType::kString},
                             {"kind", DataType::kString},
                             {"rows", DataType::kInt64},
                             {"bytes", DataType::kInt64},
                             {"tracked_bytes", DataType::kInt64},
                             {"temporary", DataType::kBool}});
  DL2SQL_CHECK(catalog
                   .RegisterVirtualTable(std::make_shared<CallbackVirtualTable>(
                       "system.tables", std::move(tables_schema),
                       [db](const TableSchema& s) {
                         return MaterializeTables(db, s);
                       }))
                   .ok());
}

}  // namespace dl2sql::db
