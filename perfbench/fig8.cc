/// \file fig8.cc
/// \brief fig8_edge / fig8_server: the paper's Fig. 8 mix (Types 1-4 in equal
/// counts, a random task of the 20-model repository per query) run through
/// DL2SQL-OP, DB-UDF and DB-PyTorch on one device profile.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "db/sql/parser.h"
#include "dl2sql/converter.h"
#include "dl2sql/pipeline.h"
#include "perfbench/harness.h"
#include "workload/testbed.h"

namespace dl2sql::perfbench {

namespace {

constexpr int kQueriesPerType = 2;
constexpr int kSetupRepetitions = 3;
/// Keyframes each traced probe runs through a model.
constexpr int kProbeKeyframes = 2;

/// The data of bench/fig8_overall.cc at its default ("small") scale.
workload::TestbedOptions Fig8Options(bool server_profile) {
  workload::TestbedOptions options;
  options.dataset.video_rows = 1500;
  options.dataset.keyframe_size = 16;
  options.dataset.keyframe_channels = 3;
  options.model_base_channels = 4;
  options.histogram_samples = 32;
  options.device =
      server_profile ? DeviceKind::kServerCpu : DeviceKind::kEdgeCpu;
  options.full_repository = true;
  return options;
}

struct Query {
  std::string sql;
  /// The nUDF the query calls (a repository task).
  std::string udf;
  /// The query without its nUDF term: the relational core.
  std::string relational_core;
  std::vector<std::string> reference;
};

/// Canonical multiset rendering (row order-insensitive; floats to 6
/// significant digits), as tests/engines/engines_test.cc compares engines.
std::vector<std::string> Canonical(const db::Table& t) {
  std::vector<std::string> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string row;
    for (int c = 0; c < t.num_columns(); ++c) {
      const db::Value v = t.column(c).GetValue(r);
      if (v.type() == db::DataType::kFloat64) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v.float_value());
        row += buf;
      } else {
        row += v.ToString();
      }
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Drops the nUDF term from a generated Type 1-4 query: the conjunct that
/// calls `udf`, or (Type 2) the nUDF inside count().
std::string RelationalCore(const std::string& sql, const std::string& udf) {
  const std::string call = udf + "(V.keyframe)";
  const std::string counted = "count(" + call + " = TRUE)";
  std::string out = sql;
  if (size_t at = out.find(counted); at != std::string::npos) {
    return out.replace(at, counted.size(), "count(*)");
  }
  const size_t at = out.find(call);
  const size_t begin = out.rfind(" and ", at);
  size_t end = out.find(" GROUP BY", at);
  if (end == std::string::npos) end = out.size();
  return out.erase(begin, end - begin);
}

/// The fixed query list of one seed: kQueriesPerType of each type, types
/// interleaved, each drawing a random repository task of the right kind.
std::vector<Query> MakeQueries(const workload::Testbed& tb, double selectivity,
                               uint64_t seed) {
  std::vector<std::string> detect, classify, recog;
  for (const auto& t : tb.repository()) {
    if (t.task_kind == "defect_detection") detect.push_back(t.udf_name);
    if (t.task_kind == "clothes_classification") classify.push_back(t.udf_name);
    if (t.task_kind == "pattern_recognition") recog.push_back(t.udf_name);
  }
  Rng rng(seed);
  auto pick = [&rng](const std::vector<std::string>& v) {
    return v[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(v.size()) - 1))];
  };
  std::vector<Query> out;
  for (int i = 0; i < kQueriesPerType; ++i) {
    for (int type = 1; type <= 4; ++type) {
      workload::QueryParams params;
      params.selectivity = selectivity;
      params.detect_udf = pick(detect);
      params.classify_udf = pick(classify);
      params.recog_udf = pick(recog);
      Query q;
      q.sql = workload::MakeQueryOfType(type, params, &rng);
      q.udf = type == 1   ? params.classify_udf
              : type == 4 ? params.recog_udf
                          : params.detect_udf;
      q.relational_core = RelationalCore(q.sql, q.udf);
      out.push_back(std::move(q));
    }
  }
  return out;
}

const nn::Model* FindModel(const workload::Testbed& tb,
                           const std::string& udf) {
  for (const auto& t : tb.repository()) {
    if (t.udf_name == udf) return &t.model;
  }
  return nullptr;
}

struct Approach {
  const char* cls;
  engines::CollaborativeEngine* engine;
};

/// Per-approach sums over the operations of one phase.
struct ApproachTally {
  int64_t queries = 0;
  engines::QueryCost modeled;
  /// DL2SQL-OP only: the pipeline splits and nUDF invocations.
  std::map<std::string, double> pipeline_seconds;
  int64_t nudf_calls = 0;
};

std::string PipelineKey(nn::LayerKind kind) {
  switch (kind) {
    case nn::LayerKind::kConv2d:
      return "op.conv";
    case nn::LayerKind::kBatchNorm:
      return "op.bn";
    case nn::LayerKind::kRelu:
      return "op.relu";
    case nn::LayerKind::kMaxPool:
    case nn::LayerKind::kAvgPool:
    case nn::LayerKind::kGlobalAvgPool:
      return "op.pool";
    case nn::LayerKind::kLinear:
      return "op.fc";
    default:
      return "op.other";
  }
}

}  // namespace

int RunFig8(const Args& args, bool server_profile) {
  const workload::TestbedOptions options = Fig8Options(server_profile);
  const workload::DatasetSizes sizes = workload::ComputeSizes(options.dataset);
  // Scale-adapted selectivity, as bench/fig8_overall.cc picks it.
  const double selectivity =
      std::min(0.05, 8.0 / static_cast<double>(sizes.fabric));

  // Set-up: testbed (data, models, deployment), cache configuration, and a
  // warm-up that computes each query's reference result through DB-PyTorch.
  std::unique_ptr<workload::Testbed> tb;
  std::vector<Query> queries;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    tb.reset();
    Stopwatch setup;
    {
      LayerSpan span("workload.testbed");
      auto created = workload::Testbed::Create(options);
      if (!created.ok()) {
        std::fprintf(stderr, "testbed: %s\n",
                     created.status().ToString().c_str());
        return 1;
      }
      tb = std::move(created).ValueOrDie();
    }
    for (engines::CollaborativeEngine* e : tb->AllEngines()) {
      db::CacheOptions cache;
      cache.enable_nudf_cache = false;
      cache.enable_plan_cache = true;
      e->database().set_cache_options(cache);
    }
    queries = MakeQueries(*tb, selectivity, args.seed);
    for (Query& q : queries) {
      engines::QueryCost cost;
      auto r = tb->independent()->ExecuteCollaborative(q.sql, &cost);
      if (!r.ok()) {
        std::fprintf(stderr, "reference: %s\n  %s\n",
                     r.status().ToString().c_str(), q.sql.c_str());
        return 1;
      }
      q.reference = Canonical(*r);
    }
    EmitSetup(setup.ElapsedSeconds());
  }
  EmitNote("data: video " + std::to_string(sizes.video) + " rows, fabric " +
           std::to_string(sizes.fabric) + " rows, keyframes 3x16x16; " +
           std::to_string(queries.size()) + " queries per pass; workers " +
           std::to_string(tb->device()->pool()->num_threads()));

  const std::vector<Approach> approaches = {
      {"dl2sql_op", tb->dl2sql_op()},
      {"db_udf", tb->udf()},
      {"db_pytorch", tb->independent()},
  };
  Counter* nudf_invocations =
      MetricsRegistry::Global().counter("nudf.invocations");
  std::map<std::string, ApproachTally>* tallies = nullptr;

  std::vector<Op> pass;
  for (const Query& q : queries) {
    for (const Approach& a : approaches) {
      pass.push_back({a.cls, [&, a, qp = &q](double*) {
                        engines::QueryCost cost;
                        const int64_t calls0 = nudf_invocations->value();
                        auto r = a.engine->ExecuteCollaborative(qp->sql, &cost);
                        if (!r.ok()) {
                          std::fprintf(stderr, "%s failed: %s\n", a.cls,
                                       r.status().ToString().c_str());
                          return false;
                        }
                        ApproachTally& t = (*tallies)[a.cls];
                        ++t.queries;
                        t.modeled += cost;
                        if (a.engine == tb->dl2sql_op()) {
                          t.nudf_calls += nudf_invocations->value() - calls0;
                          const core::PipelineRunStats& ps =
                              tb->dl2sql_op()->last_pipeline_stats();
                          for (const char* clause :
                               {"join", "groupby", "project"}) {
                            t.pipeline_seconds[std::string("clause.") +
                                               clause] +=
                                ps.clause_costs.Get(clause);
                          }
                          for (const auto& op : ps.per_op) {
                            t.pipeline_seconds[PipelineKey(op.kind)] +=
                                op.seconds;
                          }
                        }
                        std::vector<std::string> rows = Canonical(*r);
                        if (ShouldPlantWrong(args, a.cls)) rows.push_back("x|");
                        if (rows != qp->reference) {
                          std::fprintf(stderr,
                                       "%s result differs from the "
                                       "reference on:\n  %s\n",
                                       a.cls, qp->sql.c_str());
                          return false;
                        }
                        return true;
                      }});
    }
  }

  std::map<std::string, ApproachTally> tally;
  tallies = &tally;
  if (!args.trace) {
    RunWindow("e2e", args.seconds, pass);
    EmitValue("peak_rss_mb", PeakRssMb());
    for (const Approach& a : approaches) {
      const ApproachTally& t = tally[a.cls];
      const double n = static_cast<double>(std::max<int64_t>(1, t.queries));
      EmitValue(std::string("modeled.") + a.cls + ".loading_ms",
                t.modeled.loading_seconds * 1e3 / n);
      EmitValue(std::string("modeled.") + a.cls + ".inference_ms",
                t.modeled.inference_seconds * 1e3 / n);
      EmitValue(std::string("modeled.") + a.cls + ".relational_ms",
                t.modeled.relational_seconds * 1e3 / n);
    }
    return 0;
  }

  ThreadPool* pool = tb->device()->pool();
  std::vector<double> busy0;
  for (int w = 0; w < pool->num_threads(); ++w) {
    busy0.push_back(pool->worker_busy_seconds(w));
  }
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  Stopwatch wall_watch;
  const double passes = RunAlternating(
      args.seconds, [&](const std::string& phase, double seconds) {
        return RunWindow(phase, seconds, pass);
      });
  const double wall = wall_watch.ElapsedSeconds();
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();
  double busy = 0;
  for (int w = 0; w < pool->num_threads(); ++w) {
    busy += pool->worker_busy_seconds(w) - busy0[static_cast<size_t>(w)];
  }

  // Probes: the benchmark's own calls into module functions, each spanned.
  db::Database scratch;
  {
    LayerSpan span("workload.populate");
    DL2SQL_CHECK(workload::PopulateDatabase(&scratch, options.dataset).ok());
  }
  Rng rng(args.seed ^ 0x6b657966);
  std::vector<Tensor> keyframes;
  for (int i = 0; i < kProbeKeyframes; ++i) {
    keyframes.push_back(workload::MakeKeyframe(options.dataset, &rng));
  }
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Query& q = queries[qi];
    const nn::Model* model = FindModel(*tb, q.udf);
    DL2SQL_CHECK(model != nullptr) << q.udf;
    {
      LayerSpan span("db.parse");
      DL2SQL_CHECK(db::sql::ParseStatement(q.sql).ok());
    }
    {
      LayerSpan span("db.relational");
      DL2SQL_CHECK(tb->udf()->database().Execute(q.relational_core).ok())
          << q.relational_core;
    }
    core::ConvertOptions convert;
    convert.table_prefix = "probe" + std::to_string(qi);
    Result<core::ConvertedModel> converted = [&] {
      LayerSpan span("dl2sql.convert");
      return core::ConvertModel(*model, convert, &scratch);
    }();
    DL2SQL_CHECK(converted.ok()) << converted.status().ToString();
    core::Dl2SqlRunner runner(&scratch, std::move(converted).ValueOrDie());
    for (const Tensor& k : keyframes) {
      {
        LayerSpan span("dl2sql.infer");
        DL2SQL_CHECK(runner.Infer(k).ok());
      }
      LayerSpan span("nn.predict");
      DL2SQL_CHECK(model->Predict(k, tb->device()).ok());
    }
  }
  for (int i = 0; i < 200; ++i) {
    LayerSpan span("db.stmt_floor");
    DL2SQL_CHECK(tb->dl2sql_op()->database().Execute("SELECT 1 AS one").ok());
  }

  const auto spans = SummarizeBenchSpans();
  EmitSpanLayers(spans);
  EmitSharedLayers(before, after, passes, /*infer_ops=*/0);
  EmitLayer("accel.pool_busy_share",
            busy / (wall * static_cast<double>(pool->num_threads())));
  for (const Approach& a : approaches) {
    const ApproachTally& t = tally[a.cls];
    const double n = static_cast<double>(std::max<int64_t>(1, t.queries));
    const std::string p = std::string("engines.") + a.cls + ".modeled_";
    EmitLayer(p + "loading_ms", t.modeled.loading_seconds * 1e3 / n);
    EmitLayer(p + "inference_ms", t.modeled.inference_seconds * 1e3 / n);
    EmitLayer(p + "relational_ms", t.modeled.relational_seconds * 1e3 / n);
  }
  const ApproachTally& op = tally["dl2sql_op"];
  const double n = static_cast<double>(std::max<int64_t>(1, op.queries));
  EmitLayer("dl2sql.nudf_calls", static_cast<double>(op.nudf_calls) / n);
  for (const char* key : {"clause.join", "clause.groupby", "clause.project",
                          "op.conv", "op.bn", "op.relu", "op.pool", "op.fc"}) {
    auto it = op.pipeline_seconds.find(key);
    const double secs = it == op.pipeline_seconds.end() ? 0 : it->second;
    EmitLayer(std::string("dl2sql.") + key + "_ms", secs * 1e3 / n);
  }
  WriteChromeTrace(args);
  return 0;
}

}  // namespace dl2sql::perfbench
