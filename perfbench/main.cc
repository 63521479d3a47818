/// \file main.cc
/// \brief lindb_perfbench: runs one benchmark workload and prints the line
/// protocol described in harness.h. run.py builds and drives it.
///
///   lindb_perfbench --workload <fig8_edge|fig8_server|serve_rw|oocore_join>
///                   --seed <n> --seconds <s> --trace <0|1>
///                   [--scratch <dir>] [--plant-wrong <class>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/harness.h"

using dl2sql::perfbench::Args;

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--scratch") {
      args.scratch_dir = value;
    } else if (flag == "--plant-wrong") {
      args.plant_wrong_class = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  if (args.trace) dl2sql::TraceCollector::Global().SetEnabled(true);
  int rc;
  if (args.workload == "fig8_edge") {
    rc = dl2sql::perfbench::RunFig8(args, /*server_profile=*/false);
  } else if (args.workload == "fig8_server") {
    rc = dl2sql::perfbench::RunFig8(args, /*server_profile=*/true);
  } else if (args.workload == "serve_rw") {
    rc = dl2sql::perfbench::RunServeRw(args);
  } else if (args.workload == "oocore_join") {
    rc = dl2sql::perfbench::RunOocoreJoin(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (rc == 0) dl2sql::perfbench::Emit("done");
  return rc;
}
