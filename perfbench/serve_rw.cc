/// \file serve_rw.cc
/// \brief serve_rw: two closed-loop QueryService sessions on one Database,
/// configured as `lindb_server --demo-model` ships it (serial execution,
/// default admission and coalescer, nUDF and plan caches on). Each session
/// cycles a fixed statement list whose reads follow the fig8-analog serving
/// mix of bench/serving_load.cc, three nUDF reads to one relational read:
/// `infer` is one of the Type 1-3 analogs over the frames table, `lookup`
/// reads four rows by id. One statement in ten is a `write` that adds kShift
/// to `seed` (the model's input) or to `tag` on an eight-row id range. The
/// shifts commute, so the final table does not depend on how the sessions
/// interleave, and they keep every prediction, so each infer has one exact
/// answer.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "db/sql/parser.h"
#include "examples/demo_model.h"
#include "perfbench/harness.h"
#include "server/session.h"

namespace dl2sql::perfbench {

namespace {

constexpr int64_t kFrames = 2000;
/// Every write adds kShift to `seed` or `tag`. The demo model sees a seed only
/// through (seed * 131) % 211 (examples/demo_model.h), so a multiple of 211
/// keeps each row's prediction while giving the nUDF cache a new key; and as
/// kShift > kFrames, each row keeps `seed % kShift == id` and
/// `tag % kShift == id`, which lookups check.
constexpr int64_t kShift = 10 * 211;
constexpr int64_t kLookupRows = 4;
constexpr int64_t kWriteRows = 8;
constexpr int kSessions = 2;
constexpr int kSetupRepetitions = 7;
/// Statement classes of one cycle: 1, 2 and 3 are the infer analogs of
/// query Types 1-3 as bench/serving_load.cc phrases them, L a lookup, S a
/// write of `seed` and W one of `tag`. 27 infer to 9 lookup is that mix's
/// 3 : 1 split of nUDF and relational reads, and 4 writes in 40 statements
/// the one in ten of the workload's definition. One write in four changes
/// the model's input: the infers after it miss the nUDF cache on its rows
/// and wait in the coalescer. With every write doing so, about 30% of infers
/// waited out the coalescer's 2 ms window and the write latency of ten
/// seeds spread 0.45-0.62 (IQR over median) on a 4-vCPU VM.
constexpr char kPattern[] = "123L231L3S12L123L23W1L312L123WL231L312LW";
constexpr int kCycle = sizeof(kPattern) - 1;
/// Each cycle runs the pattern from a seeded offset, one of this many per
/// session. In one fixed order the two sessions can keep one relative phase
/// for a whole run, and some runs settled in a phase with writes 2.5-3x
/// slower.
constexpr int kOffsets = 64;

struct Statement {
  std::string cls;  ///< "infer", "lookup" or "write"
  std::string sql;
  int64_t first_id = 0;  ///< lookup / write range start
  /// infer: the exact result, row by row.
  std::vector<std::vector<int64_t>> expected;
};

/// One session's cycle in pattern order; the seed picks each statement's
/// rows and label. `preds` holds the model's prediction for each row.
std::vector<Statement> MakeCycle(Rng* rng, const std::vector<int64_t>& preds) {
  std::vector<Statement> cycle;
  for (int i = 0; i < kCycle; ++i) {
    Statement s;
    s.cls = "infer";
    switch (const char kind = kPattern[i]) {
      case '1': {  // retrieval plus inference projection
        const int64_t r = rng->UniformInt(0, 4);
        s.sql = "SELECT id, nudf_student(seed) AS cls FROM frames WHERE "
                "id % 5 = " + std::to_string(r) + " ORDER BY id";
        for (int64_t id = r; id < kFrames; id += 5) {
          s.expected.push_back({id, preds[static_cast<size_t>(id)]});
        }
        break;
      }
      case '2': {  // inference predicate
        const int64_t label = rng->UniformInt(0, 3);
        s.sql = "SELECT count(*) AS hits FROM frames WHERE "
                "nudf_student(seed) = " + std::to_string(label);
        s.expected = {{std::count(preds.begin(), preds.end(), label)}};
        break;
      }
      case '3': {  // inference aggregation
        const int64_t lo = rng->UniformInt(0, 128);
        s.sql = "SELECT sum(nudf_student(seed)) AS s, count(*) AS n FROM "
                "frames WHERE id >= " + std::to_string(lo);
        s.expected = {{std::accumulate(preds.begin() + lo, preds.end(),
                                       int64_t{0}),
                       kFrames - lo}};
        break;
      }
      case 'L':
        s.cls = "lookup";
        s.first_id = rng->UniformInt(0, kFrames - kLookupRows);
        s.sql = "SELECT id, seed, tag FROM frames WHERE id >= " +
                std::to_string(s.first_id) + " AND id < " +
                std::to_string(s.first_id + kLookupRows) + " ORDER BY id";
        break;
      default: {
        s.cls = "write";
        s.first_id = rng->UniformInt(0, kFrames - kWriteRows);
        const std::string column = kind == 'S' ? "seed" : "tag";
        s.sql = "UPDATE frames SET " + column + " = " + column + " + " +
                std::to_string(kShift) + " WHERE id >= " +
                std::to_string(s.first_id) + " AND id < " +
                std::to_string(s.first_id + kWriteRows);
      }
    }
    cycle.push_back(s);
  }
  return cycle;
}

Status MakeFrames(db::Database* db) {
  db::Table t{db::TableSchema({{"id", db::DataType::kInt64},
                               {"seed", db::DataType::kInt64},
                               {"tag", db::DataType::kInt64}})};
  for (int64_t i = 0; i < kFrames; ++i) {
    DL2SQL_RETURN_NOT_OK(t.AppendRow(
        {db::Value::Int(i), db::Value::Int(i), db::Value::Int(i)}));
  }
  return db->RegisterTable("frames", std::move(t));
}

/// True iff a read's result is right under any interleaving of writes: an
/// infer's exactly, a lookup's ids and the invariants of `seed` and `tag`.
bool CheckRead(const Statement& s, const db::Table& t) {
  auto int_at = [&t](int c, int64_t r) {
    return t.column(c).GetValue(r).AsInt().ValueOr(-1);
  };
  if (s.cls == "lookup") {
    if (t.num_rows() != kLookupRows || t.num_columns() != 3) return false;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      const int64_t id = int_at(0, r);
      if (id != s.first_id + r) return false;
      for (int c = 1; c <= 2; ++c) {
        const int64_t v = int_at(c, r);
        if (v < id || v % kShift != id) return false;
      }
    }
    return true;
  }
  if (t.num_rows() != static_cast<int64_t>(s.expected.size())) return false;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    const std::vector<int64_t>& row = s.expected[static_cast<size_t>(r)];
    if (t.num_columns() != static_cast<int>(row.size())) return false;
    for (int c = 0; c < t.num_columns(); ++c) {
      if (int_at(c, r) != row[static_cast<size_t>(c)]) return false;
    }
  }
  return true;
}

/// The self-check's planted fault: `t` with its first row's last value
/// increased by one.
db::Table PlantWrong(const db::Table& t) {
  db::Table out{t.schema()};
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::vector<db::Value> row;
    for (int c = 0; c < t.num_columns(); ++c) {
      row.push_back(t.column(c).GetValue(r));
    }
    if (r == 0) row.back() = db::Value::Int(row.back().AsInt().ValueOr(0) + 1);
    DL2SQL_CHECK(out.AppendRow(row).ok());
  }
  return out;
}

/// One serving environment: the database with its model, the service, and
/// the sessions.
struct Env {
  std::unique_ptr<db::Database> db = std::make_unique<db::Database>();
  std::shared_ptr<demo::ServedModel> served;
  std::unique_ptr<server::QueryService> service;
  std::vector<std::shared_ptr<server::Session>> sessions;
};

std::unique_ptr<Env> MakeEnv() {
  auto env = std::make_unique<Env>();
  env->served = demo::RegisterDemoModel(env->db.get());
  DL2SQL_CHECK(MakeFrames(env->db.get()).ok());
  env->service = std::make_unique<server::QueryService>(
      env->db.get(), server::ServiceOptions{});
  for (int s = 0; s < kSessions; ++s) {
    env->sessions.push_back(env->service->CreateSession());
  }
  return env;
}

/// The model's prediction for every row, straight from nn::Model::Predict.
std::vector<int64_t> Predictions(demo::ServedModel* served) {
  std::vector<int64_t> preds;
  for (int64_t id = 0; id < kFrames; ++id) {
    Result<int64_t> p = served->PredictSeed(id);
    DL2SQL_CHECK(p.ok()) << p.status().ToString();
    preds.push_back(*p);
  }
  return preds;
}

struct Sample {
  const Statement* stmt;
  bool ok;
};

struct WindowResult {
  std::vector<std::vector<Sample>> samples;  // per session
  int64_t infers = 0;
  /// Cycles run, summed over the sessions.
  double cycles = 0;
};

/// A session's statement order: kOffsets cycles, each the pattern from a
/// seeded offset.
using Schedule = std::vector<const Statement*>;

Schedule MakeSchedule(Rng* rng, const std::vector<Statement>& cycle) {
  Schedule schedule;
  for (int c = 0; c < kOffsets; ++c) {
    const int64_t offset = rng->UniformInt(0, kCycle - 1);
    for (int i = 0; i < kCycle; ++i) {
      schedule.push_back(&cycle[static_cast<size_t>((i + offset) % kCycle)]);
    }
  }
  return schedule;
}

/// Both sessions run their schedules in a closed loop until the deadline.
/// Each session emits its `op` records (the pass field is the session) once
/// per cycle; then the window record follows.
WindowResult RunSessions(Env* env, const std::vector<Schedule>& schedules,
                         const std::string& phase, double seconds,
                         const Args& args) {
  WindowResult out;
  out.samples.resize(kSessions);
  Stopwatch window;
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      server::Session* session = env->sessions[static_cast<size_t>(s)].get();
      const Schedule& schedule = schedules[static_cast<size_t>(s)];
      std::vector<Sample>& samples = out.samples[static_cast<size_t>(s)];
      samples.reserve(1 << 16);
      std::string records;
      for (size_t k = 0; window.ElapsedSeconds() < seconds; ++k) {
        const Statement& st = *schedule[k % schedule.size()];
        ScopedTraceContext ctx({NextTraceId(), 0});
        LayerSpan span("op." + st.cls);
        Stopwatch watch;
        Result<db::Table> r = session->Execute(st.sql);
        const double secs = watch.ElapsedSeconds();
        bool ok = r.ok();
        if (ok && st.cls == "write") {
          ok = r->num_rows() == kWriteRows;
        } else if (ok) {
          ok = ShouldPlantWrong(args, st.cls) ? CheckRead(st, PlantWrong(*r))
                                              : CheckRead(st, *r);
        }
        if (!r.ok()) {
          std::fprintf(stderr, "%s failed: %s\n", st.cls.c_str(),
                       r.status().ToString().c_str());
        }
        samples.push_back({&st, ok});
        char buf[128];
        std::snprintf(buf, sizeof(buf), "op %s %d %s %.9g %d\n",
                      phase.c_str(), s, st.cls.c_str(), secs, ok ? 1 : 0);
        records += buf;
        if ((k + 1) % kCycle == 0) {
          records.pop_back();
          Emit(records);
          records.clear();
        }
      }
      if (!records.empty()) {
        records.pop_back();
        Emit(records);
      }
    });
  }
  for (auto& t : threads) t.join();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "window %s %.9g", phase.c_str(),
                window.ElapsedSeconds());
  Emit(buf);
  for (const auto& per_session : out.samples) {
    out.cycles += static_cast<double>(per_session.size()) / kCycle;
    for (const Sample& x : per_session) out.infers += x.stmt->cls == "infer";
  }
  return out;
}

/// Renders the whole table with each row's prediction.
std::string FinalState(server::Session* session) {
  auto r = session->Execute(
      "SELECT id, seed, tag, nudf_student(seed) AS c FROM frames ORDER BY "
      "id");
  return r.ok() ? server::RenderTable(*r, server::OutputFormat::kTsv)
                : "error: " + r.status().ToString();
}

/// Replays every successful write, serially, on a fresh database without
/// caches, and compares the final state exactly.
bool CheckFinalState(Env* env, const std::vector<WindowResult>& windows,
                     const Args& args) {
  auto ref = MakeEnv();
  db::CacheOptions off;
  off.enable_nudf_cache = false;
  off.enable_plan_cache = false;
  ref->db->set_cache_options(off);
  int64_t writes = 0;
  for (const WindowResult& w : windows) {
    for (const auto& per_session : w.samples) {
      for (const Sample& x : per_session) {
        if (x.stmt->cls != "write" || !x.ok) continue;
        DL2SQL_CHECK(ref->db->Execute(x.stmt->sql).ok());
        ++writes;
      }
    }
  }
  std::string got = FinalState(env->sessions[0].get());
  if (ShouldPlantWrong(args, "check")) got += "x";
  const bool same = got == FinalState(ref->sessions[0].get());
  EmitNote("final state after " + std::to_string(writes) +
           " writes: " + (same ? "matches" : "DIFFERS FROM") +
           " the serial replay");
  return same;
}

/// The final-state comparison, recorded as one more operation.
void RunFinalCheck(Env* env, const std::vector<WindowResult>& windows,
                   const Args& args) {
  Stopwatch watch;
  const bool ok = CheckFinalState(env, windows, args);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "op check -1 check %.9g %d",
                watch.ElapsedSeconds(), ok ? 1 : 0);
  Emit(buf);
}

}  // namespace

int RunServeRw(const Args& args) {
  std::unique_ptr<Env> env;
  std::vector<std::vector<Statement>> cycles;
  std::vector<Schedule> schedules;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    env.reset();
    Stopwatch setup;
    env = MakeEnv();
    const std::vector<int64_t> preds = Predictions(env->served.get());
    Rng rng(args.seed);
    cycles.clear();
    schedules.clear();
    for (int s = 0; s < kSessions; ++s) {
      cycles.push_back(MakeCycle(&rng, preds));
    }
    for (const auto& cycle : cycles) {
      schedules.push_back(MakeSchedule(&rng, cycle));
    }
    // Warm-up: every read of both cycles once (fills the plan and nUDF
    // caches). Writes stay out so the final state counts only timed ones.
    for (const auto& cycle : cycles) {
      for (const Statement& st : cycle) {
        if (st.cls == "write") continue;
        DL2SQL_CHECK(env->sessions[0]->Execute(st.sql).ok()) << st.sql;
      }
    }
    EmitSetup(setup.ElapsedSeconds());
  }
  EmitNote("frames " + std::to_string(kFrames) + " rows; " +
           std::to_string(kSessions) +
           " sessions; cycle per session: 27 infer (9 each of Types 1-3), "
           "9 lookup, 4 write (1 of seed, 3 of tag)");

  std::vector<WindowResult> windows;
  auto window = [&](const std::string& phase, double seconds) {
    windows.push_back(
        RunSessions(env.get(), schedules, phase, seconds, args));
    return windows.back().cycles;
  };
  if (!args.trace) {
    window("e2e", args.seconds);
    RunFinalCheck(env.get(), windows, args);
    EmitValue("peak_rss_mb", PeakRssMb());
    return 0;
  }

  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  const double passes = RunAlternating(args.seconds, window);
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  RunFinalCheck(env.get(), windows, args);

  // Probes.
  for (const auto& cycle : cycles) {
    for (const Statement& st : cycle) {
      LayerSpan span("db.parse");
      DL2SQL_CHECK(db::sql::ParseStatement(st.sql).ok());
    }
  }
  const std::string lookup = std::find_if(
      cycles[0].begin(), cycles[0].end(),
      [](const Statement& s) { return s.cls == "lookup"; })->sql;
  for (int i = 0; i < 200; ++i) {
    {
      LayerSpan span("db.stmt_floor");
      DL2SQL_CHECK(env->db->Execute("SELECT 1 AS one").ok());
    }
    {
      LayerSpan span("server.session_execute");
      DL2SQL_CHECK(env->sessions[0]->Execute(lookup).ok());
    }
    LayerSpan span("server.db_execute");
    DL2SQL_CHECK(env->db->Execute(lookup).ok());
  }
  for (int64_t seed = 0; seed < 64; ++seed) {
    LayerSpan span("nn.predict");
    DL2SQL_CHECK(env->served->model
                     .Predict(env->served->MakeInput(seed),
                              env->served->device.get())
                     .ok());
  }
  int64_t infers = 0;
  for (const WindowResult& w : windows) infers += w.infers;
  EmitSpanLayers(SummarizeBenchSpans());
  EmitSharedLayers(before, after, passes, infers);
  WriteChromeTrace(args);
  return 0;
}

}  // namespace dl2sql::perfbench
