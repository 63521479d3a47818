/// \file spill_exec_test.cc
/// \brief Bit-identity of the out-of-core executor paths (the hash join's
/// streamed probe, the grace hash join, the streamed aggregation and its
/// overflow into spill partitions, windowed filter/project) against the
/// in-memory executor, across several pool/query-memory budgets.
///
/// The contract is bit-identity with the serial in-memory execution; every
/// database here runs without a device pool but one, which checks that
/// contract for a morsel-parallel streamed probe.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "accel/device.h"
#include "common/logging.h"
#include "common/mem_tracker.h"
#include "db/database.h"
#include "db/storage/storage_engine.h"

namespace dl2sql::db {
namespace {

constexpr int64_t kRows = 30000;
constexpr int64_t kDimRows = 96;
constexpr int64_t kWideRows = 20000;

class ScopedTrackingEnabled {
 public:
  ScopedTrackingEnabled() : prior_(MemTracker::Enabled()) {
    MemTracker::SetEnabled(true);
  }
  ~ScopedTrackingEnabled() { MemTracker::SetEnabled(prior_); }

 private:
  const bool prior_;
};

void FillTables(Database* db) {
  // ~2.8 MB fact table: big enough that a ~1 MB query budget refuses to
  // materialize it, small enough that the test stays fast.
  TableSchema fact_schema({{"id", DataType::kInt64},
                           {"grp", DataType::kInt64},
                           {"val", DataType::kFloat64},
                           {"payload", DataType::kString}});
  Table fact{fact_schema};
  const std::string payload(48, 'p');
  for (int64_t i = 0; i < kRows; ++i) {
    DL2SQL_CHECK(
        fact.AppendRow({Value::Int(i), Value::Int((i * 7919) % kDimRows),
                        Value::Float(static_cast<double>((i * 104729 + 13) %
                                                         100000) /
                                     7.0),
                        Value::String(payload)})
            .ok());
  }
  DL2SQL_CHECK(db->RegisterTable("fact", std::move(fact)).ok());

  TableSchema dim_schema({{"id", DataType::kInt64}, {"w", DataType::kInt64}});
  Table dim{dim_schema};
  for (int64_t i = 0; i < kDimRows; ++i) {
    DL2SQL_CHECK(dim.AppendRow({Value::Int(i), Value::Int(i * i)}).ok());
  }
  DL2SQL_CHECK(db->RegisterTable("dim", std::move(dim)).ok());

  // The aggregate shapes the typed kernels do not take: a string column and
  // an INT64 one with NULLs, beside a bool and a float one. `lead` holds
  // NULLs in the first storage chunk only and `trail` in the last one only,
  // so a streamed aggregate over them meets its first NULL in its first or
  // its last window. The payload keeps the table over the query budgets
  // below.
  TableSchema shapes_schema({{"grp", DataType::kInt64},
                             {"val", DataType::kFloat64},
                             {"flag", DataType::kBool},
                             {"name", DataType::kString},
                             {"nv", DataType::kInt64},
                             {"lead", DataType::kInt64},
                             {"trail", DataType::kInt64},
                             {"payload", DataType::kString}});
  Table shapes{shapes_schema};
  for (int64_t i = 0; i < kRows; ++i) {
    const int64_t v = (i * 104729 + 13) % 1000;
    const bool sparse_null = i % 7 == 0;
    DL2SQL_CHECK(
        shapes
            .AppendRow({Value::Int((i * 7919) % kDimRows),
                        Value::Float(static_cast<double>(v) / 7.0),
                        Value::Bool(i % 3 == 0),
                        Value::String("n" + std::to_string(v % 97)),
                        i % 5 == 0 ? Value::Null() : Value::Int(v % 17),
                        sparse_null && i < 1000 ? Value::Null()
                                                : Value::Int(v % 23),
                        sparse_null && i >= kRows - 1000 ? Value::Null()
                                                         : Value::Int(v % 23),
                        Value::String(payload)})
            .ok());
  }
  DL2SQL_CHECK(db->RegisterTable("shapes", std::move(shapes)).ok());

  // A small STRING-keyed build side: every name it holds appears twice, so
  // a matching probe row emits two pairs in build-row order; shapes' names
  // n60..n96 find no match.
  TableSchema names_schema({{"name", DataType::kString},
                            {"k", DataType::kInt64}});
  Table names{names_schema};
  for (int64_t i = 0; i < 120; ++i) {
    DL2SQL_CHECK(
        names.AppendRow({Value::String("n" + std::to_string(i % 60)),
                         Value::Int(i)})
            .ok());
  }
  DL2SQL_CHECK(db->RegisterTable("names", std::move(names)).ok());

  // A build side over every query budget below (~2.8 MB): fewer rows than
  // shapes, so the optimizer builds on it, each with a unique id, its name
  // "n" + id (shapes' names n0..n96 each match one) and a payload.
  TableSchema wide_schema({{"id", DataType::kInt64},
                           {"w", DataType::kInt64},
                           {"name", DataType::kString},
                           {"payload", DataType::kString}});
  Table wide{wide_schema};
  const std::string wide_payload(112, 'q');
  for (int64_t i = 0; i < kWideRows; ++i) {
    DL2SQL_CHECK(wide.AppendRow({Value::Int(i), Value::Int((i * 37) % 1000),
                                 Value::String("n" + std::to_string(i)),
                                 Value::String(wide_payload)})
                     .ok());
  }
  DL2SQL_CHECK(db->RegisterTable("wide", std::move(wide)).ok());
}

// dim fits, so its table is built once and fact, the paged probe side,
// streams through it a storage chunk at a time (a paged probe side always
// streams, whatever its size).
const char* const kJoinSql =
    "SELECT F.id, F.grp, D.w FROM fact F INNER JOIN dim D ON F.grp = D.id";
// The residual references both sides, so it must survive as a join_condition
// applied after pair emission (per probe window when streamed, per slice in
// the grace path).
const char* const kJoinResidualSql =
    "SELECT F.id, D.w FROM fact F INNER JOIN dim D "
    "ON F.grp = D.id AND F.id % 7 < D.id";
// Aggregations whose groups fit every budget below: each streams its paged
// input through one aggregator and spills nothing.
const char* const kAggSql =
    "SELECT grp, count(*) AS c, sum(val) AS s, avg(val) AS a, "
    "min(val) AS lo, max(val) AS hi, stddev_samp(val) AS sd "
    "FROM fact GROUP BY grp";
const char* const kNoArgAggSql =
    "SELECT grp, count(*) AS c FROM fact GROUP BY grp";
const char* const kGlobalAggSql =
    "SELECT count(*) AS c, sum(val) AS s, avg(val) AS a FROM fact";
const char* const kFilterProjectSql =
    "SELECT id * 2 AS d, val + 1.0 AS v FROM fact WHERE grp < 7";
// MIN/MAX over a string and a NULL-bearing column, AVG/STDDEV over the
// latter, and one operator mixing typed and generic aggregates.
const char* const kGenericAggSqls[] = {
    "SELECT grp, min(name) AS mn, max(name) AS mx, min(nv) AS lo, "
    "max(nv) AS hi FROM shapes GROUP BY grp",
    "SELECT grp, avg(nv) AS a, stddev_samp(nv) AS sd FROM shapes GROUP BY grp",
    "SELECT grp, count(flag) AS cf, sum(val) AS s, min(name) AS mn, "
    "avg(nv) AS a FROM shapes GROUP BY grp",
};
// Every aggregate over `trail`, whose first NULL arrives in the last window:
// the typed states compiled from the first window turn generic there.
const char* const kLateNullAggSql =
    "SELECT grp, sum(trail) AS s, avg(trail) AS a, stddev_samp(trail) AS sd, "
    "min(trail) AS lo, max(trail) AS hi, count(trail) AS c FROM shapes "
    "GROUP BY grp";
// Integer arithmetic over a column with NULLs stays INT64 in every window,
// as a key and as an argument.
const char* const kIntArithAggSqls[] = {
    "SELECT grp, min(trail + 1) AS lo FROM shapes GROUP BY grp",
    "SELECT trail + 1 AS k, count(*) AS c FROM shapes GROUP BY trail + 1",
    "SELECT grp, min(-trail) AS lo, sum(-trail) AS s FROM shapes GROUP BY grp",
};

// The over-budget shapes table streamed through a small build side over
// every key shape: a FLOAT64 key of integral values against INT64 dim.id,
// the NULL-bearing nv (its NULL rows never join), a two-column key, and a
// STRING key.
const char* const kKeyJoinSqls[] = {
    "SELECT S.grp, S.name, D.w FROM shapes S INNER JOIN dim D "
    "ON S.grp * 1.0 = D.id",
    "SELECT S.nv, S.name, D.w FROM shapes S INNER JOIN dim D ON S.nv = D.id",
    "SELECT S.grp, S.nv, D.w FROM shapes S INNER JOIN dim D "
    "ON S.grp = D.id AND S.nv = D.w % 17",
    "SELECT S.grp, S.name, N.k FROM shapes S INNER JOIN names N "
    "ON S.name = N.name",
};
// Integer arithmetic over the columns whose NULLs sit in one chunk: lead + 1
// as an aggregate argument with NULLs in the first window, trail + 1 as a
// join key with NULLs in the last one.
const char* const kTypeDriftAggSql =
    "SELECT grp, sum(lead + 1) AS s, max(lead + 1) AS hi FROM shapes "
    "GROUP BY grp";
const char* const kTypeDriftJoinSql =
    "SELECT S.grp, S.trail, D.w FROM shapes S INNER JOIN dim D "
    "ON S.trail + 1 = D.id";
// Grace joins: the build side, wide, is over every budget, so both sides
// spill. The same key shapes, the type-drifting key and a residual. Each
// reads W.payload: a scan reads only the columns its query names, and
// wide's other columns fit the larger budgets.
const char* const kFloatKeyGraceSql =
    "SELECT S.grp, S.name, W.w, length(W.payload) AS pl FROM shapes S "
    "INNER JOIN wide W ON S.grp * 1.0 = W.id";
const char* const kNullKeyGraceSql =
    "SELECT S.nv, S.name, W.w, length(W.payload) AS pl FROM shapes S "
    "INNER JOIN wide W ON S.nv = W.id";
const char* const kGraceJoinSqls[] = {
    kFloatKeyGraceSql,
    kNullKeyGraceSql,
    "SELECT S.grp, S.nv, W.w, length(W.payload) AS pl FROM shapes S "
    "INNER JOIN wide W ON S.grp = W.id AND S.nv = W.w % 17",
    "SELECT S.grp, S.name, W.id, length(W.payload) AS pl FROM shapes S "
    "INNER JOIN wide W ON S.name = W.name",
    "SELECT S.grp, S.trail, W.w, length(W.payload) AS pl FROM shapes S "
    "INNER JOIN wide W ON S.trail + 1 = W.id",
    "SELECT S.grp, S.val, W.w, length(W.payload) AS pl FROM shapes S "
    "INNER JOIN wide W ON S.grp = W.id AND S.val < W.w % 150",
};

// The same joins over wide's key and read columns only (no payload): those
// fit every budget below, but beside the table built over them they fit
// only the 2 MB one. At 1 MB the build side's admission counts the table,
// so they take the grace join; at 2 MB they build in memory.
const char* const kPrunedBuildSqls[] = {
    "SELECT S.grp, S.name, W.w FROM shapes S INNER JOIN wide W "
    "ON S.grp * 1.0 = W.id",
    "SELECT S.nv, S.name, W.w FROM shapes S INNER JOIN wide W ON S.nv = W.id",
    "SELECT S.grp, S.name, W.id FROM shapes S INNER JOIN wide W "
    "ON S.name = W.name",
    "SELECT S.grp, S.val, W.w FROM shapes S INNER JOIN wide W "
    "ON S.grp = W.id AND S.val < W.w % 150",
};

std::vector<std::string> RunAll(Database* db,
                                const std::vector<std::string>& queries) {
  std::vector<std::string> renders;
  for (const std::string& sql : queries) {
    auto r = db->Execute(sql);
    DL2SQL_CHECK(r.ok()) << sql << ": " << r.status().ToString();
    renders.push_back(r->ToString(r->num_rows()));
  }
  return renders;
}

/// Reference renders from a serial in-memory database.
std::vector<std::string> ReferenceRenders(
    const std::vector<std::string>& queries) {
  Database ref;
  DL2SQL_CHECK(ref.set_storage_mode(StorageMode::kInMemory).ok());
  FillTables(&ref);
  return RunAll(&ref, queries);
}

/// Largest spill_bytes recorded for `sql` in system.query_profiles.
int64_t SpillBytesFor(Database* db, const std::string& sql) {
  auto profiles = db->Execute(
      "SELECT sql, spill_bytes FROM system.query_profiles");
  DL2SQL_CHECK(profiles.ok()) << profiles.status().ToString();
  int64_t spill = -1;
  for (int64_t i = 0; i < profiles->num_rows(); ++i) {
    if (profiles->column(0).GetValue(i).string_value() != sql) continue;
    spill = std::max(spill, profiles->column(1).GetValue(i).int_value());
  }
  return spill;
}

struct PagedConfig {
  size_t pool_bytes;
  size_t block_bytes;
  int shards;
  int spill_partitions;
  int64_t query_mem_limit;
  /// Groups of the overflowing aggregations (fact by id % fact_groups,
  /// wide's first name_groups rows by name): more than the budget holds,
  /// few enough that each spill partition's groups fit it.
  int64_t fact_groups;
  int64_t name_groups;
};

/// `fact` grouped by id % `groups`, with `aggs` as the select list's tail.
std::string FactOverflowSql(int64_t groups, const char* aggs) {
  const std::string key = "id % " + std::to_string(groups);
  return "SELECT " + key + " AS k, " + aggs + " FROM fact GROUP BY " + key;
}

/// A paged database over FillTables' data: every non-trivial table paged,
/// the storage options of `cfg`, and its query memory limit.
void OpenPaged(const PagedConfig& cfg, Database* db) {
  storage::StorageOptions opts;
  opts.pool_bytes = cfg.pool_bytes;
  opts.block_bytes = cfg.block_bytes;
  opts.shards = cfg.shards;
  opts.spill_partitions = cfg.spill_partitions;
  opts.page_min_bytes = 4096;  // page everything non-trivial
  DL2SQL_CHECK(db->set_storage_mode(StorageMode::kPaged, opts).ok());
  FillTables(db);
  db->set_query_mem_limit(cfg.query_mem_limit);
}

void ExpectBitIdentical(const PagedConfig& cfg) {
  std::vector<std::string> streamed = {kAggSql, kNoArgAggSql, kGlobalAggSql,
                                       kTypeDriftAggSql, kLateNullAggSql};
  streamed.insert(streamed.end(), std::begin(kGenericAggSqls),
                  std::end(kGenericAggSqls));
  streamed.insert(streamed.end(), std::begin(kIntArithAggSqls),
                  std::end(kIntArithAggSqls));
  // The overflowing aggregations. The three slot-sharing variants keep
  // resident states of one size (three typed aggregates), so the same rows
  // spill in each.
  const std::vector<std::string> shared_slots = {
      FactOverflowSql(cfg.fact_groups,
                      "sum(val) AS s, min(val) AS lo, max(val) AS hi"),
      FactOverflowSql(cfg.fact_groups,
                      "sum(val) AS s, min(val + 0.0) AS lo, max(val) AS hi"),
      FactOverflowSql(
          cfg.fact_groups,
          "sum(val) AS s, min(val + 0.0) AS lo, max(val + 1.0) AS hi"),
  };
  std::vector<std::string> overflowing = {
      FactOverflowSql(cfg.fact_groups,
                      "count(*) AS c, avg(val) AS a, stddev_samp(val) AS sd"),
      "SELECT name, count(*) AS c, min(name) AS lo, max(name) AS hi "
      "FROM wide WHERE id < " +
          std::to_string(cfg.name_groups) + " GROUP BY name",
  };
  overflowing.insert(overflowing.end(), shared_slots.begin(),
                     shared_slots.end());
  std::vector<std::string> queries = {kJoinSql, kJoinResidualSql,
                                      kFilterProjectSql, kTypeDriftJoinSql};
  queries.insert(queries.end(), std::begin(kKeyJoinSqls),
                 std::end(kKeyJoinSqls));
  queries.insert(queries.end(), std::begin(kGraceJoinSqls),
                 std::end(kGraceJoinSqls));
  queries.insert(queries.end(), std::begin(kPrunedBuildSqls),
                 std::end(kPrunedBuildSqls));
  queries.insert(queries.end(), streamed.begin(), streamed.end());
  queries.insert(queries.end(), overflowing.begin(), overflowing.end());
  const std::vector<std::string> expected = ReferenceRenders(queries);

  Database db;
  OpenPaged(cfg, &db);
  for (size_t q = 0; q < queries.size(); ++q) {
    auto r = db.Execute(queries[q]);
    ASSERT_TRUE(r.ok()) << queries[q] << ": " << r.status().ToString();
    EXPECT_EQ(r->ToString(r->num_rows()), expected[q]) << queries[q];
  }

  // The fact and shapes tables (~2.8 MB each) are over the query budget,
  // but these aggregations' groups fit it: they stream and spill nothing.
  for (const std::string& sql : streamed) {
    EXPECT_EQ(SpillBytesFor(&db, sql), 0) << sql;
  }
  // Groups over the budget: those arriving after it fills spill.
  for (const std::string& sql : overflowing) {
    EXPECT_GT(SpillBytesFor(&db, sql), 0) << sql;
  }
  // Aggregates over one bare column spill it once; each computed argument
  // spills a column of its own, as many bytes each time.
  const int64_t one_slot = SpillBytesFor(&db, shared_slots[0]);
  const int64_t two_slots = SpillBytesFor(&db, shared_slots[1]);
  EXPECT_GT(two_slots, one_slot);
  EXPECT_EQ(SpillBytesFor(&db, shared_slots[2]) - two_slots,
            two_slots - one_slot);
  // A build side that fits is built once and the probe side streams
  // through it: nothing spills.
  for (const char* sql : {kJoinSql, kJoinResidualSql, kTypeDriftJoinSql}) {
    EXPECT_EQ(SpillBytesFor(&db, sql), 0) << sql;
  }
  for (const char* sql : kKeyJoinSqls) {
    EXPECT_EQ(SpillBytesFor(&db, sql), 0) << sql;
  }
  // A build side over the budget takes the grace join.
  for (const char* sql : kGraceJoinSqls) {
    EXPECT_GT(SpillBytesFor(&db, sql), 0) << sql;
  }
  // NULL keys never join, so the grace join spills none of the fifth of
  // shapes rows whose nv is NULL: less than the same join on a NULL-free
  // key of every row.
  EXPECT_LT(SpillBytesFor(&db, kNullKeyGraceSql),
            SpillBytesFor(&db, kFloatKeyGraceSql));
  // A build side that fits only without its table takes the grace join.
  for (const char* sql : kPrunedBuildSqls) {
    if (cfg.query_mem_limit <= (1 << 20)) {
      EXPECT_GT(SpillBytesFor(&db, sql), 0) << sql;
    } else {
      EXPECT_EQ(SpillBytesFor(&db, sql), 0) << sql;
    }
  }
}

TEST(SpillExecTest, GraceJoinAndExternalAggMatchInMemory) {
  ScopedTrackingEnabled guard;
  // Comfortable pool, a query budget below the fact table's footprint.
  ExpectBitIdentical({/*pool_bytes=*/4u << 20, /*block_bytes=*/64 * 1024,
                      /*shards=*/4, /*spill_partitions=*/4,
                      /*query_mem_limit=*/1 << 20, /*fact_groups=*/12000,
                      /*name_groups=*/12000});
}

TEST(SpillExecTest, TinyPoolForcesAllPartitionsThroughDisk) {
  ScopedTrackingEnabled guard;
  // Pool far below the data size (floor: shards * block_bytes = 32 KB), so
  // every spill partition round-trips through the block file; more
  // partitions than the pool can hold frames for.
  ExpectBitIdentical({/*pool_bytes=*/64 * 1024, /*block_bytes=*/16 * 1024,
                      /*shards=*/2, /*spill_partitions=*/8,
                      /*query_mem_limit=*/1 << 20, /*fact_groups=*/12000,
                      /*name_groups=*/12000});
}

TEST(SpillExecTest, LargerBudgetStillSpillsIdentically) {
  ScopedTrackingEnabled guard;
  ExpectBitIdentical({/*pool_bytes=*/1u << 20, /*block_bytes=*/32 * 1024,
                      /*shards=*/4, /*spill_partitions=*/16,
                      /*query_mem_limit=*/2 << 20, /*fact_groups=*/20000,
                      /*name_groups=*/20000});
}

TEST(SpillExecTest, StreamedProbeUnderDevicePoolMatchesSerial) {
  ScopedTrackingEnabled guard;
  // The probe side streams window by window; each window's probe and pair
  // collection run morsel-parallel on four workers.
  const std::vector<std::string> queries = {kJoinResidualSql};
  const std::vector<std::string> expected = ReferenceRenders(queries);
  DeviceProfile profile = Device::ServerCpuProfile();
  profile.num_threads = 4;
  Device device(profile);
  Database db;
  OpenPaged({/*pool_bytes=*/1u << 20, /*block_bytes=*/32 * 1024,
             /*shards=*/4, /*spill_partitions=*/4,
             /*query_mem_limit=*/1 << 20, /*fact_groups=*/0,
             /*name_groups=*/0},
            &db);
  db.set_exec_options({&device, /*morsel_size=*/256});
  EXPECT_EQ(RunAll(&db, queries), expected);
  EXPECT_EQ(SpillBytesFor(&db, kJoinResidualSql), 0);
}

TEST(SpillExecTest, JoinWhoseReadColumnsFitRunsInMemory) {
  ScopedTrackingEnabled guard;
  // t and u are each over the 1 MB budget at full width, but the join reads
  // only their keys: t's 3000 keys and the table built over them fit, so
  // the join builds on t in memory and streams u through it, a storage
  // chunk at a time. Over every column t would not fit, and the grace join
  // would hold all 90000 pairs (16 bytes each) at once, over the budget.
  auto fill = [](Database* db) {
    const std::string pad(400, 't');
    Table t{TableSchema({{"a", DataType::kInt64}, {"pad", DataType::kString}})};
    for (int64_t i = 0; i < 3000; ++i) {
      DL2SQL_CHECK(t.AppendRow({Value::Int(i), Value::String(pad)}).ok());
    }
    DL2SQL_CHECK(db->RegisterTable("t", std::move(t)).ok());
    Table u{TableSchema({{"x", DataType::kInt64}, {"pad", DataType::kString}})};
    for (int64_t i = 0; i < 90000; ++i) {
      DL2SQL_CHECK(
          u.AppendRow({Value::Int(i % 3000), Value::String("u")}).ok());
    }
    DL2SQL_CHECK(db->RegisterTable("u", std::move(u)).ok());
  };
  const char* const sql = "SELECT count(*) AS c FROM t, u WHERE t.a = u.x";
  Database ref;
  ASSERT_TRUE(ref.set_storage_mode(StorageMode::kInMemory).ok());
  fill(&ref);
  const std::vector<std::string> expected = RunAll(&ref, {sql});
  Database db;
  storage::StorageOptions opts;
  opts.pool_bytes = 2u << 20;
  opts.page_min_bytes = 4096;
  ASSERT_TRUE(db.set_storage_mode(StorageMode::kPaged, opts).ok());
  fill(&db);
  db.set_query_mem_limit(1 << 20);
  auto r = db.Execute(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(std::vector<std::string>{r->ToString(r->num_rows())}, expected);
  EXPECT_EQ(SpillBytesFor(&db, sql), 0);
}

TEST(SpillExecTest, PagedModeWithoutPressureIsStillBitIdentical) {
  // No query memory limit: the join builds on resident dim and streams its
  // paged probe side, and the aggregation and the filter stream theirs,
  // window by window; each must reproduce the in-memory results exactly.
  const std::vector<std::string> queries = {kJoinSql, kAggSql,
                                            kFilterProjectSql};
  const std::vector<std::string> expected = ReferenceRenders(queries);
  Database db;
  storage::StorageOptions opts;
  opts.pool_bytes = 2u << 20;
  opts.page_min_bytes = 4096;
  ASSERT_TRUE(db.set_storage_mode(StorageMode::kPaged, opts).ok());
  FillTables(&db);
  const std::vector<std::string> got = RunAll(&db, queries);
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(got[q], expected[q]) << queries[q];
  }
}

TEST(SpillExecTest, OrderByOverBudgetReportsMissingSpillSort) {
  ScopedTrackingEnabled guard;
  Database db;
  storage::StorageOptions opts;
  opts.pool_bytes = 2u << 20;
  opts.page_min_bytes = 4096;
  ASSERT_TRUE(db.set_storage_mode(StorageMode::kPaged, opts).ok());
  FillTables(&db);
  db.set_query_mem_limit(1 << 20);
  auto r = db.Execute("SELECT id, payload FROM fact ORDER BY id DESC");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("spillable sort"), std::string::npos)
      << r.status().ToString();
}

TEST(SpillExecTest, DmlHealsAndRepagesTables) {
  Database db;
  storage::StorageOptions opts;
  opts.pool_bytes = 2u << 20;
  opts.page_min_bytes = 4096;
  ASSERT_TRUE(db.set_storage_mode(StorageMode::kPaged, opts).ok());
  FillTables(&db);
  ASSERT_TRUE(
      db.Execute("UPDATE fact SET val = val + 1.0 WHERE id % 2 = 0").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM fact WHERE id % 3 = 0").ok());
  ASSERT_TRUE(
      db.Execute("INSERT INTO fact VALUES (1000000, 5, 2.5, 'x')").ok());
  auto count = db.Execute("SELECT count(*) AS c FROM fact");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  // 30000 rows minus the 10000 multiples of 3, plus the inserted row.
  EXPECT_EQ(count->column(0).GetValue(0).int_value(), kRows - kRows / 3 + 1);

  // The same DML against an in-memory database yields the same table.
  Database ref;
  DL2SQL_CHECK(ref.set_storage_mode(StorageMode::kInMemory).ok());
  FillTables(&ref);
  ASSERT_TRUE(
      ref.Execute("UPDATE fact SET val = val + 1.0 WHERE id % 2 = 0").ok());
  ASSERT_TRUE(ref.Execute("DELETE FROM fact WHERE id % 3 = 0").ok());
  ASSERT_TRUE(
      ref.Execute("INSERT INTO fact VALUES (1000000, 5, 2.5, 'x')").ok());
  const char* const all = "SELECT * FROM fact WHERE id % 11 = 0";
  auto got = db.Execute(all);
  auto want = ref.Execute(all);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got->ToString(got->num_rows()), want->ToString(want->num_rows()));
}

}  // namespace
}  // namespace dl2sql::db
