/// \file oocore_join.cc
/// \brief oocore_join: paged storage with a fact table about 14x the buffer
/// pool, under a query memory limit below the fact table, running the
/// statement shapes of bench/oocore_scale.cc serially: a grace hash join, an
/// external grouped aggregation, and a windowed filter plus project. Every
/// result's row-key checksum is compared against a serial in-memory
/// reference computed during set-up in a forked child, so the reference's
/// memory never counts in this process's peak RSS.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/cache.h"
#include "common/mem_tracker.h"
#include "common/random.h"
#include "common/timer.h"
#include "db/database.h"
#include "db/exec/row_key.h"
#include "db/sql/parser.h"
#include "db/storage/paged_table.h"
#include "db/storage/storage_engine.h"
#include "perfbench/harness.h"

namespace dl2sql::perfbench {

namespace {

constexpr int64_t kFactRows = 400000;
constexpr int64_t kDimRows = 96;
constexpr int64_t kSliceRows = 8192;
constexpr size_t kPoolBytes = 2u << 20;
constexpr int64_t kQueryMemLimit = 12 << 20;
constexpr int kSetupRepetitions = 3;

struct Statement {
  const char* cls;
  const char* sql;
};

const Statement kMix[] = {
    {"join",
     "SELECT F.id, F.grp, D.w FROM fact F INNER JOIN dim D ON F.grp = D.id"},
    {"groupby",
     "SELECT grp, count(*) AS c, sum(val) AS s, avg(val) AS a, min(val) AS lo, "
     "max(val) AS hi FROM fact GROUP BY grp"},
    {"filter", "SELECT id * 2 AS d, val + 1.0 AS v FROM fact WHERE grp < 7"},
};
constexpr size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);

db::TableSchema FactSchema() {
  return db::TableSchema({{"id", db::DataType::kInt64},
                          {"grp", db::DataType::kInt64},
                          {"val", db::DataType::kFloat64},
                          {"payload", db::DataType::kString}});
}

/// Generates the fact table slice by slice from the workload seed; the
/// paged and the in-memory loaders consume the same sequence.
class FactGenerator {
 public:
  explicit FactGenerator(uint64_t seed) : rng_(seed), payload_(48, 'p') {}

  db::Table NextSlice(int64_t base) {
    db::Table slice{FactSchema()};
    const int64_t end = std::min(kFactRows, base + kSliceRows);
    for (int64_t i = base; i < end; ++i) {
      const int64_t grp = rng_.UniformInt(0, kDimRows - 1);
      const double val = rng_.UniformReal(0, 1e4);
      DL2SQL_CHECK(slice
                       .AppendRow({db::Value::Int(i), db::Value::Int(grp),
                                   db::Value::Float(val),
                                   db::Value::String(payload_)})
                       .ok());
    }
    return slice;
  }

 private:
  Rng rng_;
  std::string payload_;
};

void FillDim(db::Database* db) {
  db::Table dim{db::TableSchema(
      {{"id", db::DataType::kInt64}, {"w", db::DataType::kInt64}})};
  for (int64_t i = 0; i < kDimRows; ++i) {
    DL2SQL_CHECK(
        dim.AppendRow({db::Value::Int(i), db::Value::Int(i * i)}).ok());
  }
  DL2SQL_CHECK(db->RegisterTable("dim", std::move(dim)).ok());
}

/// Streams the fact table into paged storage; returns its logical bytes.
int64_t FillFactPaged(db::Database* db, uint64_t seed) {
  FactGenerator gen(seed);
  db::storage::PagedTableBuilder builder(db->storage_engine(), FactSchema());
  int64_t bytes = 0;
  for (int64_t base = 0; base < kFactRows; base += kSliceRows) {
    db::Table slice = gen.NextSlice(base);
    bytes += static_cast<int64_t>(slice.ByteSize());
    DL2SQL_CHECK(builder.Append(slice).ok());
  }
  auto data = builder.Finish();
  DL2SQL_CHECK(data.ok()) << data.status().ToString();
  DL2SQL_CHECK(db->RegisterTable("fact", db::Table::FromPaged(
                                             FactSchema(), std::move(*data)))
                   .ok());
  return bytes;
}

/// Order-sensitive checksum over every row, via the executor's canonical
/// key encoding (as bench/oocore_scale.cc computes it).
uint64_t TableChecksum(const db::Table& t) {
  std::vector<const db::Column*> cols;
  for (int c = 0; c < t.num_columns(); ++c) cols.push_back(&t.column(c));
  uint64_t h = 0xec0eca11u;
  std::string key;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    key.clear();
    for (const db::Column* col : cols) db::AppendKeyPart(*col, r, &key);
    h = Hash64(key.data(), key.size(), h);
  }
  return h ^ (static_cast<uint64_t>(t.num_rows()) << 32);
}

/// Serial in-memory reference checksums, computed in a forked child.
std::vector<uint64_t> ReferenceChecksums(uint64_t seed) {
  int fds[2];
  DL2SQL_CHECK(pipe(fds) == 0);
  const pid_t pid = fork();
  DL2SQL_CHECK(pid >= 0);
  if (pid == 0) {
    close(fds[0]);
    db::Database ref;
    FillDim(&ref);
    FactGenerator gen(seed);
    db::Table fact{FactSchema()};
    for (int64_t base = 0; base < kFactRows; base += kSliceRows) {
      DL2SQL_CHECK(fact.AppendTable(gen.NextSlice(base)).ok());
    }
    DL2SQL_CHECK(ref.RegisterTable("fact", std::move(fact)).ok());
    uint64_t sums[kMixSize];
    for (size_t i = 0; i < kMixSize; ++i) {
      auto r = ref.Execute(kMix[i].sql);
      sums[i] = r.ok() ? TableChecksum(*r) : 0;
    }
    const ssize_t n = write(fds[1], sums, sizeof(sums));
    _exit(n == static_cast<ssize_t>(sizeof(sums)) ? 0 : 1);
  }
  close(fds[1]);
  std::vector<uint64_t> sums(kMixSize);
  const ssize_t n = read(fds[0], sums.data(), sizeof(uint64_t) * kMixSize);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  DL2SQL_CHECK(n == static_cast<ssize_t>(sizeof(uint64_t) * kMixSize) &&
               WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "reference child failed";
  return sums;
}

struct Env {
  std::unique_ptr<db::Database> db = std::make_unique<db::Database>();
  int64_t data_bytes = 0;
};

std::unique_ptr<Env> MakeEnv(const Args& args) {
  auto env = std::make_unique<Env>();
  db::storage::StorageOptions opts;
  opts.pool_bytes = kPoolBytes;
  opts.page_min_bytes = 64 * 1024;
  opts.dir = args.scratch_dir;
  DL2SQL_CHECK(env->db->set_storage_mode(db::StorageMode::kPaged, opts).ok());
  FillDim(env->db.get());
  env->data_bytes = FillFactPaged(env->db.get(), args.seed);
  env->db->set_query_mem_limit(kQueryMemLimit);
  return env;
}

MetricsSnapshot StorageSnapshot(Env* env) {
  env->db->storage_engine()->UpdateMetrics();
  return MetricsRegistry::Global().Snapshot();
}

}  // namespace

int RunOocoreJoin(const Args& args) {
  MemTracker::SetEnabled(true);
  if (!MemTracker::Enabled()) {
    std::fprintf(stderr, "resource accounting is compiled out; the spill "
                         "paths this workload measures cannot trigger\n");
    return 1;
  }
  std::unique_ptr<Env> env;
  std::vector<uint64_t> reference;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    env.reset();
    Stopwatch setup;
    reference = ReferenceChecksums(args.seed);
    env = MakeEnv(args);
    EmitSetup(setup.ElapsedSeconds());
  }
  char note[160];
  std::snprintf(note, sizeof(note),
                "fact %lld rows, %.1f MB against a %.1f MB pool (%.1fx), "
                "query memory limit %.1f MB",
                static_cast<long long>(kFactRows), env->data_bytes / 1048576.0,
                kPoolBytes / 1048576.0,
                static_cast<double>(env->data_bytes) / kPoolBytes,
                kQueryMemLimit / 1048576.0);
  EmitNote(note);

  std::vector<Op> pass;
  for (size_t i = 0; i < kMixSize; ++i) {
    pass.push_back({kMix[i].cls, [&, i](double* seconds) {
                      Stopwatch watch;
                      auto r = env->db->Execute(kMix[i].sql);
                      *seconds = watch.ElapsedSeconds();
                      if (!r.ok()) {
                        std::fprintf(stderr, "%s failed: %s\n", kMix[i].cls,
                                     r.status().ToString().c_str());
                        return false;
                      }
                      uint64_t sum = TableChecksum(*r);
                      if (ShouldPlantWrong(args, kMix[i].cls)) ++sum;
                      return sum == reference[i];
                    }});
  }

  if (!args.trace) {
    RunWindow("e2e", args.seconds, pass);
    EmitValue("peak_rss_mb", PeakRssMb());
    return 0;
  }

  const MetricsSnapshot before = StorageSnapshot(env.get());
  const double passes = RunAlternating(
      args.seconds, [&](const std::string& phase, double seconds) {
        return RunWindow(phase, seconds, pass);
      });
  const MetricsSnapshot after = StorageSnapshot(env.get());

  for (const Statement& st : kMix) {
    LayerSpan span("db.parse");
    DL2SQL_CHECK(db::sql::ParseStatement(st.sql).ok());
  }
  for (int i = 0; i < 200; ++i) {
    LayerSpan span("db.stmt_floor");
    DL2SQL_CHECK(env->db->Execute("SELECT 1 AS one").ok());
  }
  EmitSpanLayers(SummarizeBenchSpans());
  EmitSharedLayers(before, after, passes, /*infer_ops=*/0);
  WriteChromeTrace(args);
  return 0;
}

}  // namespace dl2sql::perfbench
