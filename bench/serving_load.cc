/// \file serving_load.cc
/// \brief Closed-loop multi-client serving benchmark over a fig8-style mixed
/// workload (inference predicates, retrieval + inference projection,
/// inference aggregation, pure relational), driven through QueryService
/// sessions. Sweeps 1/4/16 clients and reports QPS, p50/p95/p99 statement
/// latency and model calls. Writes BENCH_serving.json (consumed by
/// scripts/check_bench_regression.py).
///
/// Hard checks (exit 1): every request must succeed (the admission queue is
/// sized so nothing is rejected, and nothing may hang), and every result must
/// be bit-identical to the single-threaded reference.
///
/// A second sweep drives the same fig8 mix through a cluster coordinator
/// over 1/2/4 in-process shards (real TcpServer instances speaking the wire
/// protocol, each with its own database and model replica) and writes
/// BENCH_shard.json. Every scatter-gather render must be byte-identical to
/// the single-node reference; the mix_<N>shard_sec keys are gated on core
/// count by check_bench_regression.py, since shard scaling on a 1-core box
/// measures nothing.
///
/// --quick shrinks the table and iteration counts for CI smoke use; the
/// committed BENCH_serving.json / BENCH_shard.json snapshots are generated
/// with --quick so the regression guard compares like against like.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/coordinator.h"
#include "common/timer.h"
#include "examples/demo_model.h"
#include "server/session.h"
#include "server/tcp_server.h"

using namespace dl2sql;         // NOLINT
using namespace dl2sql::bench;  // NOLINT

namespace {

std::shared_ptr<Device> MakeCpuDevice(const std::string& name, int threads) {
  DeviceProfile profile = Device::ServerCpuProfile();
  profile.name = name;
  profile.num_threads = threads;
  return std::make_shared<Device>(profile);
}

void MakeFramesTable(db::Database* db, int64_t rows) {
  db::TableSchema schema(
      {{"id", db::DataType::kInt64}, {"seed", db::DataType::kInt64}});
  db::Table t{schema};
  for (int64_t i = 0; i < rows; ++i) {
    BENCH_CHECK_OK(t.AppendRow({db::Value::Int(i), db::Value::Int(i)}));
  }
  BENCH_CHECK_OK(db->RegisterTable("frames", std::move(t)));
}

/// The fig8 query-type mix, phrased over the frames table. Every query is
/// deterministic (ordered or aggregated) so renders compare bit-for-bit.
const std::vector<std::string>& Queries() {
  static const std::vector<std::string> kQueries = {
      // Type 2 analog: inference predicate.
      "SELECT count(*) AS hits FROM frames WHERE nudf_student(seed) = 1",
      // Type 1 analog: retrieval + inference projection.
      "SELECT id, nudf_student(seed) AS cls FROM frames WHERE id % 5 = 2 "
      "ORDER BY id",
      // Type 3 analog: inference aggregation.
      "SELECT sum(nudf_student(seed)) AS s, count(*) AS n FROM frames "
      "WHERE id >= 64",
      // Type 4 analog: pure relational.
      "SELECT count(*) AS n FROM frames WHERE id % 3 = 0",
  };
  return kQueries;
}

/// One self-contained serving environment: model, devices, database, data.
/// The model is the demo student CNN (examples/demo_model.h): one instance
/// per environment, run under a mutex like a single exclusive accelerator.
struct Env {
  std::shared_ptr<Device> db_device;
  std::unique_ptr<db::Database> db = std::make_unique<db::Database>();
  std::shared_ptr<demo::ServedModel> served;
};

Env BuildEnv(const std::string& tag, int64_t rows) {
  Env env;
  env.db_device = MakeCpuDevice("serving-db-cpu-" + tag, 4);
  // Small morsels split each query's nUDF rows into many model calls, so
  // concurrent queries interleave on the model mutex.
  env.db->set_exec_options({env.db_device.get(), /*morsel_size=*/64});
  // The nUDF result cache would answer repeats without running the model;
  // serving load is about the miss path, so measure with it off.
  db::CacheOptions cache;
  cache.enable_nudf_cache = false;
  env.db->set_cache_options(cache);
  // rows == 0: cluster node — the frames table arrives via coordinator DDL
  // and routed INSERTs instead of being pre-registered.
  if (rows > 0) MakeFramesTable(env.db.get(), rows);
  env.served = demo::RegisterDemoModel(env.db.get());
  return env;
}

int64_t Percentile(const std::vector<int64_t>& sorted_us, double pct) {
  if (sorted_us.empty()) return 0;
  const double rank = pct / 100.0 * static_cast<double>(sorted_us.size() - 1);
  return sorted_us[static_cast<size_t>(rank + 0.5)];
}

struct ConfigResult {
  std::string name;
  int clients = 0;
  int64_t statements = 0;
  int64_t failures = 0;
  int64_t mismatches = 0;
  double wall_seconds = 0;
  double qps = 0;
  int64_t min_us = 0;
  int64_t p50_us = 0;
  int64_t p95_us = 0;
  int64_t p99_us = 0;
  int64_t nudf_batches = 0;
};

ConfigResult RunConfig(int clients, int64_t rows, int iters_per_client) {
  Env env = BuildEnv(std::to_string(clients), rows);
  db::Database& db = *env.db;

  // Single-threaded reference renders: the correctness baseline every
  // served result must match byte for byte.
  std::vector<std::string> reference;
  for (const std::string& q : Queries()) {
    auto r = db.Execute(q);
    BENCH_CHECK_OK(r.status());
    reference.push_back(server::RenderTable(*r, server::OutputFormat::kTsv));
  }

  server::ServiceOptions opts;
  opts.admission.max_concurrent = 4;
  opts.admission.max_queue_depth = 64;
  // Never-reject sizing: the queue outlasts the longest closed-loop burst,
  // so any failure below is a real bug, not an overload response.
  opts.admission.queue_timeout_ms = 120000.0;
  server::QueryService service(&db, opts);

  Counter* batches = MetricsRegistry::Global().counter("nudf.batches");
  const int64_t batches_before = batches->value();

  ConfigResult result;
  result.name = "c" + std::to_string(clients);
  result.clients = clients;

  std::vector<std::vector<int64_t>> latencies(
      static_cast<size_t>(clients));
  std::vector<int64_t> failures(static_cast<size_t>(clients), 0);
  std::vector<int64_t> mismatches(static_cast<size_t>(clients), 0);

  Stopwatch wall;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto session = service.CreateSession();
      const auto& queries = Queries();
      const int total = iters_per_client * static_cast<int>(queries.size());
      for (int k = 0; k < total; ++k) {
        const size_t qi = static_cast<size_t>(c + k) % queries.size();
        Stopwatch watch;
        auto r = session->Execute(queries[qi]);
        latencies[static_cast<size_t>(c)].push_back(watch.ElapsedMicros());
        if (!r.ok()) {
          ++failures[static_cast<size_t>(c)];
          continue;
        }
        if (server::RenderTable(*r, server::OutputFormat::kTsv) !=
            reference[qi]) {
          ++mismatches[static_cast<size_t>(c)];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  result.wall_seconds = wall.ElapsedSeconds();

  std::vector<int64_t> all;
  for (int c = 0; c < clients; ++c) {
    const size_t ci = static_cast<size_t>(c);
    all.insert(all.end(), latencies[ci].begin(), latencies[ci].end());
    result.failures += failures[ci];
    result.mismatches += mismatches[ci];
  }
  std::sort(all.begin(), all.end());
  result.statements = static_cast<int64_t>(all.size());
  result.qps = static_cast<double>(all.size()) / result.wall_seconds;
  result.min_us = all.empty() ? 0 : all.front();
  result.p50_us = Percentile(all, 50);
  result.p95_us = Percentile(all, 95);
  result.p99_us = Percentile(all, 99);
  result.nudf_batches = batches->value() - batches_before;
  return result;
}

// ---------------------------------------------------------------------------
// Multi-shard scatter-gather sweep (BENCH_shard.json).
// ---------------------------------------------------------------------------

/// One in-process shard: its own database, model replica, service, and TCP
/// listener — a faithful stand-in for a `lindb_server` shard process, wire
/// protocol included (the coordinator talks to it over a real socket).
struct ShardNode {
  Env env;
  std::unique_ptr<server::QueryService> service;
  std::unique_ptr<server::TcpServer> tcp;
};

struct ShardConfigResult {
  int shards = 0;
  double mix_seconds = 0;  // best-of-reps wall time for the whole fig8 mix
  double qps = 0;
  int64_t statements = 0;
};

/// Boots `num_shards` shards + a coordinator, loads `rows` frames through
/// coordinator DDL/routed INSERTs, gates every mix render byte-identical
/// against the single-node `reference`, then times the mix best-of-`reps`.
ShardConfigResult RunShardConfig(int num_shards, int64_t rows, int reps,
                                 const std::vector<std::string>& reference) {
  std::vector<std::unique_ptr<ShardNode>> nodes;
  std::vector<cluster::ShardEndpoint> endpoints;
  for (int s = 0; s < num_shards; ++s) {
    auto node = std::make_unique<ShardNode>();
    // Every shard builds the model from the same fixed seed, so all replicas
    // agree with the coordinator and the single-node reference.
    node->env = BuildEnv("shard" + std::to_string(num_shards) + "_" +
                             std::to_string(s),
                         /*rows=*/0);
    node->service = std::make_unique<server::QueryService>(
        node->env.db.get(), server::ServiceOptions{});
    node->tcp = std::make_unique<server::TcpServer>(
        node->service.get(), server::TcpServerOptions{});
    BENCH_CHECK_OK(node->tcp->Start());
    endpoints.push_back({"127.0.0.1", node->tcp->port()});
    nodes.push_back(std::move(node));
  }

  Env co_env = BuildEnv("coord" + std::to_string(num_shards), /*rows=*/0);
  server::QueryService service(co_env.db.get(), server::ServiceOptions{});
  auto coordinator = std::make_unique<cluster::Coordinator>(
      co_env.db.get(), std::move(endpoints), cluster::ShardClientOptions{});
  service.set_distributed_executor(coordinator.get());

  auto session = service.CreateSession();
  BENCH_CHECK_OK(session
                     ->Execute("CREATE TABLE frames (id int64, seed int64) "
                               "PARTITION BY HASH (id)")
                     .status());
  for (int64_t lo = 0; lo < rows; lo += 64) {
    std::string insert = "INSERT INTO frames VALUES ";
    const int64_t hi = std::min(rows, lo + 64);
    for (int64_t i = lo; i < hi; ++i) {
      if (i != lo) insert += ", ";
      insert += "(" + std::to_string(i) + ", " + std::to_string(i) + ")";
    }
    BENCH_CHECK_OK(session->Execute(insert).status());
  }

  // Byte-identity gate: scatter-gather must render exactly like one node.
  const auto& queries = Queries();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto r = session->Execute(queries[qi]);
    BENCH_CHECK_OK(r.status());
    if (server::RenderTable(*r, server::OutputFormat::kTsv) !=
        reference[qi]) {
      std::fprintf(stderr,
                   "FATAL: %d-shard result differs from single node for: %s\n",
                   num_shards, queries[qi].c_str());
      std::exit(1);
    }
  }

  ShardConfigResult result;
  result.shards = num_shards;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch watch;
    for (const std::string& q : queries) {
      BENCH_CHECK_OK(session->Execute(q).status());
    }
    const double s = watch.ElapsedSeconds();
    if (rep == 0 || s < result.mix_seconds) result.mix_seconds = s;
  }
  result.statements = static_cast<int64_t>(queries.size());
  result.qps = static_cast<double>(queries.size()) / result.mix_seconds;

  // Detach before teardown: the coordinator's destructor restores the
  // system-table providers it decorated on the coordinator database.
  service.set_distributed_executor(nullptr);
  coordinator.reset();
  for (auto& node : nodes) node->tcp->Stop();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int64_t rows = quick ? 300 : 600;
  const int iters_per_client = quick ? 3 : (FullScale() ? 24 : 8);

  // Uncontended single-threaded floor for the regression gate: best-of-reps
  // for the whole query mix on the evaluator's direct path. Deterministic
  // compute at the ~milliseconds scale, so run-to-run noise stays far below
  // the gate threshold (the contended serving numbers below do not).
  double reference_mix_seconds = 0;
  {
    Env env = BuildEnv("reference", rows);
    const int kReps = 7;
    for (const std::string& q : Queries()) {
      double best = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        Stopwatch watch;
        BENCH_CHECK_OK(env.db->Execute(q).status());
        const double s = watch.ElapsedSeconds();
        if (rep == 0 || s < best) best = s;
      }
      reference_mix_seconds += best;
    }
    std::printf("uncontended reference mix floor: %.3f ms\n",
                reference_mix_seconds * 1e3);
  }

  PrintHeader("Serving load: closed-loop clients over the fig8 query mix",
              {"Config", "QPS", "p50_us", "p95_us", "p99_us", "Batches"});

  std::vector<ConfigResult> results;
  for (int clients : {1, 4, 16}) {
    ConfigResult r = RunConfig(clients, rows, iters_per_client);
    PrintCell(r.name);
    PrintCell(r.qps);
    PrintCell(r.p50_us);
    PrintCell(r.p95_us);
    PrintCell(r.p99_us);
    PrintCell(r.nudf_batches);
    EndRow();
    results.push_back(r);
  }

  // Hard acceptance checks.
  bool ok = true;
  for (const ConfigResult& r : results) {
    if (r.failures != 0 || r.mismatches != 0) {
      std::fprintf(stderr, "FATAL: config %s had %lld failures, %lld result "
                           "mismatches (want 0/0)\n",
                   r.name.c_str(), (long long)r.failures,
                   (long long)r.mismatches);
      ok = false;
    }
  }
  if (!ok) return 1;

  std::FILE* out = std::fopen("BENCH_serving.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open BENCH_serving.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"serving_load\",\n");
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"quick\": %s,\n  \"rows\": %lld,\n"
                    "  \"iters_per_client\": %d,\n",
               quick ? "true" : "false", (long long)rows, iters_per_client);
  std::fprintf(out, "  \"reference_mix_seconds\": %.6f,\n",
               reference_mix_seconds);
  std::fprintf(out, "  \"configs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    // Key naming is deliberate: per-config numbers use _us / _s names that
    // check_bench_regression.py reports but does not compare — contended
    // wall clock and latency percentiles are too noisy at this scale for a
    // regression gate. The gated seconds-like key is the uncontended
    // reference floor emitted at the top level below.
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"clients\": %d, "
                 "\"statements\": %lld, \"failures\": %lld, "
                 "\"mismatches\": %lld, \"wall_s\": %.6f, \"qps\": %.2f, "
                 "\"min_us\": %lld, \"p50_us\": %lld, \"p95_us\": %lld, "
                 "\"p99_us\": %lld, \"nudf_batches\": %lld}%s\n",
                 r.name.c_str(), r.clients, (long long)r.statements,
                 (long long)r.failures, (long long)r.mismatches,
                 r.wall_seconds, r.qps, (long long)r.min_us,
                 (long long)r.p50_us, (long long)r.p95_us,
                 (long long)r.p99_us, (long long)r.nudf_batches,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"metrics_snapshot\": %s\n",
               MetricsSnapshotJson().c_str());
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_serving.json\n");

  // ----- multi-shard scatter-gather sweep -----
  // Single-node reference renders: the correctness baseline every shard
  // count must match byte for byte.
  std::vector<std::string> shard_reference;
  {
    Env env = BuildEnv("shardref", rows);
    for (const std::string& q : Queries()) {
      auto r = env.db->Execute(q);
      BENCH_CHECK_OK(r.status());
      shard_reference.push_back(
          server::RenderTable(*r, server::OutputFormat::kTsv));
    }
  }

  const int shard_reps = quick ? 3 : 7;
  PrintHeader("Scatter-gather: fig8 mix through a coordinator over N shards",
              {"Shards", "mix_ms", "QPS"});
  std::vector<ShardConfigResult> shard_results;
  for (int shards : {1, 2, 4}) {
    ShardConfigResult r =
        RunShardConfig(shards, rows, shard_reps, shard_reference);
    PrintCell(static_cast<int64_t>(r.shards));
    PrintCell(r.mix_seconds * 1e3);
    PrintCell(r.qps);
    EndRow();
    shard_results.push_back(r);
  }
  const double scaling_1_to_4 =
      shard_results.front().mix_seconds / shard_results.back().mix_seconds;
  std::printf("\n1 -> 4 shard mix speedup: %.2fx (hardware_concurrency=%u; "
              "meaningful only with >= 4 cores)\n",
              scaling_1_to_4, std::thread::hardware_concurrency());

  out = std::fopen("BENCH_shard.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FATAL: cannot open BENCH_shard.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"shard_scatter\",\n");
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"quick\": %s,\n  \"rows\": %lld,\n  \"reps\": %d,\n",
               quick ? "true" : "false", (long long)rows, shard_reps);
  // The gated keys: mix_1shard_sec is always comparable (no fan-out
  // parallelism to speak of); the N>1 keys are shard-scaling keys that
  // check_bench_regression.py only compares across machines with matching
  // hardware_concurrency >= 4.
  for (const ShardConfigResult& r : shard_results) {
    std::fprintf(out, "  \"mix_%dshard_sec\": %.6f,\n", r.shards,
                 r.mix_seconds);
  }
  std::fprintf(out, "  \"scaling_1_to_4\": %.3f,\n", scaling_1_to_4);
  std::fprintf(out, "  \"configs\": [\n");
  for (size_t i = 0; i < shard_results.size(); ++i) {
    const ShardConfigResult& r = shard_results[i];
    // Per-config keys use _s / qps names on purpose: reported by the
    // regression script but not compared (the gated top-level keys above are
    // the contract).
    std::fprintf(out,
                 "    {\"name\": \"s%d\", \"shards\": %d, \"mix_s\": %.6f, "
                 "\"qps\": %.2f, \"statements\": %lld}%s\n",
                 r.shards, r.shards, r.mix_seconds, r.qps,
                 (long long)r.statements,
                 i + 1 < shard_results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_shard.json\n");
  return 0;
}
