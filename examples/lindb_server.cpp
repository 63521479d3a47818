/// \file lindb_server.cpp
/// \brief Standalone lindb TCP server: newline-delimited SQL in, framed
/// TSV/JSON out (see src/server/wire.h for the protocol). With --shard flags
/// it becomes a cluster coordinator scatter-gathering over shard processes
/// (see src/cluster/coordinator.h).
///
/// Usage:
///   ./build/examples/lindb_server [--port N] [--init script.sql]
///                                 [--max-concurrent N]
///                                 [--shard host:port]... [--demo-model]
///
/// --port 0 (the default) picks a free port; the server prints
/// "PORT <n>" on stdout once it is listening, so scripts can capture it.
/// --init runs a SQL script before serving (schema + seed data). In
/// coordinator mode the script executes statement by statement through a
/// service session, so PARTITION BY HASH DDL and sharded-table DML route
/// through the coordinator like client traffic would.
/// --shard (repeatable, in shard-index order) names one shard's SQL port;
/// any --shard flag turns this process into the cluster coordinator.
/// --demo-model registers the deterministic demo student CNN as
/// nudf_student — run it on the coordinator AND every shard so the model is
/// replicated, the cluster analog of deploying one model to all replicas.
/// Shuts down cleanly on SIGINT/SIGTERM.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "common/trace.h"
#include "demo_model.h"
#include "server/session.h"
#include "server/tcp_server.h"

using namespace dl2sql;  // NOLINT

int main(int argc, char** argv) {
  server::TcpServerOptions tcp_opts;
  server::ServiceOptions service_opts;
  std::string init_path;
  std::vector<cluster::ShardEndpoint> shards;
  bool demo_model = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "--port needs a value\n");
        return 2;
      }
      tcp_opts.port = std::atoi(v);
    } else if (arg == "--init") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "--init needs a path\n");
        return 2;
      }
      init_path = v;
    } else if (arg == "--max-concurrent") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "--max-concurrent needs a value\n");
        return 2;
      }
      service_opts.admission.max_concurrent = std::atoi(v);
    } else if (arg == "--shard") {
      const char* v = next();
      if (v == nullptr) {
        std::fprintf(stderr, "--shard needs host:port\n");
        return 2;
      }
      auto endpoint = cluster::ParseShardEndpoint(v);
      if (!endpoint.ok()) {
        std::fprintf(stderr, "%s\n", endpoint.status().ToString().c_str());
        return 2;
      }
      shards.push_back(std::move(*endpoint));
    } else if (arg == "--demo-model") {
      demo_model = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  // DL2SQL_TRACE=on|1|true enables runtime span collection. Traced spans
  // feed system.spans, the .ctrace export, and — in coordinator mode — the
  // cross-node trailer shipping.
  if (const char* env = std::getenv("DL2SQL_TRACE")) {
    const std::string v = env;
    if (v == "on" || v == "1" || v == "true") {
      TraceCollector::Global().SetEnabled(true);
    }
  }

  db::Database db;
  std::shared_ptr<demo::ServedModel> served;
  if (demo_model) served = demo::RegisterDemoModel(&db);

  server::QueryService service(&db, service_opts);
  std::unique_ptr<cluster::Coordinator> coordinator;
  if (!shards.empty()) {
    coordinator = std::make_unique<cluster::Coordinator>(
        &db, std::move(shards), cluster::ShardClientOptions::FromEnv());
    service.set_distributed_executor(coordinator.get());
  }

  if (!init_path.empty()) {
    std::ifstream in(init_path);
    if (!in) {
      std::fprintf(stderr, "cannot read init script %s\n", init_path.c_str());
      return 1;
    }
    std::ostringstream script;
    script << in.rdbuf();
    if (coordinator != nullptr) {
      // Statement by statement through a session, so sharded DDL/DML routes
      // through the coordinator exactly like client traffic.
      auto session = service.CreateSession();
      for (const std::string& stmt :
           db::sql::SplitStatements(script.str())) {
        auto result = session->Execute(stmt);
        if (!result.ok()) {
          std::fprintf(stderr, "init script failed: %s\n",
                       result.status().ToString().c_str());
          return 1;
        }
      }
    } else {
      auto st = db.ExecuteScript(script.str());
      if (!st.ok()) {
        std::fprintf(stderr, "init script failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
    }
  }

  server::TcpServer tcp(&service, tcp_opts);

  // Block the shutdown signals before serving threads spawn so they inherit
  // the mask and sigwait below is the only consumer.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  auto st = tcp.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("PORT %d\n", tcp.port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&signals, &sig);
  std::printf("signal %d: shutting down\n", sig);
  tcp.Stop();
  // The coordinator must detach from the service before it restores the
  // system-table providers it decorated.
  service.set_distributed_executor(nullptr);
  coordinator.reset();
  return 0;
}
