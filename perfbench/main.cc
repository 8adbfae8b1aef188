// ErbiumDB end-to-end benchmark. One process starts an in-process
// server::Server and drives a named workload over TCP through
// server::Client, checking every result against a serial M1 oracle.
//
//   erbium_perfbench --workload point_lookup|analytic|ingest_durable
//                    --seed N --seconds S --trace 0|1 --workdir DIR
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// pass instead and prints the per-layer metrics (see traced.cc). Lines
// starting with '#' are diagnostics; the last stdout line is the JSON
// result {"correct", "attempted", "failed", "metrics"}.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "perfbench/common.h"

namespace erbium {
namespace perfbench {
namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: erbium_perfbench --workload "
               "point_lookup|analytic|ingest_durable --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Usage();
    }
  }
  if (args.workload != "point_lookup" && args.workload != "analytic" &&
      args.workload != "ingest_durable") {
    Usage();
  }
  if (args.seconds < 1 || args.workdir.empty()) Usage();
  return args;
}

/// Morsel-parallel queries run at ERBIUM_THREADS = nproc at most: the
/// benchmark's busy threads must not oversubscribe the cores.
void EnforceThreadBudget() {
  int hw = std::max(1u, std::thread::hardware_concurrency());
  const char* env = std::getenv("ERBIUM_THREADS");
  if (env == nullptr || std::atoi(env) < 1 || std::atoi(env) > hw) {
    setenv("ERBIUM_THREADS", std::to_string(hw).c_str(), 1);
  }
}

void PrintResult(const RunResult& result) {
  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : result.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + obs::JsonEscaped(m.name) + "\": {\"value\": " +
            obs::JsonDouble(m.value) + ", \"unit\": \"" + obs::JsonEscaped(m.unit) +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench
}  // namespace erbium

int main(int argc, char** argv) {
  using namespace erbium::perfbench;
  Args args = ParseArgs(argc, argv);
  EnforceThreadBudget();
  std::filesystem::create_directories(args.workdir);
  PrintBudget(args.workload);
  RunResult result;
  if (args.trace) {
    result = RunTraced(args);
  } else if (args.workload == "point_lookup") {
    result = RunPointLookup(args);
  } else if (args.workload == "analytic") {
    result = RunAnalytic(args);
  } else {
    result = RunIngest(args);
  }
  PrintResult(result);
  return 0;
}
