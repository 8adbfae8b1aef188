// Shared pieces of the end-to-end benchmark: run arguments, the seeded
// statement generators, host sampling (CPU time, steal, RSS), and the
// metric list printed as the run's final JSON line.

#ifndef ERBIUM_PERFBENCH_COMMON_H_
#define ERBIUM_PERFBENCH_COMMON_H_

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "server/client.h"
#include "server/server.h"
#include "workload/figure4.h"

namespace erbium {
namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir;  // scratch space for attached databases and WALs
};

/// One reported number. The final JSON line carries every metric of the
/// run's mode; `info` lines before it carry diagnostics.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// `correct` in the JSON line is `failed == 0`: every check that fails
/// counts one failed operation.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// ---- Data and thread budget ------------------------------------------------

/// Figure 4 at bench scale: the dataset is fixed (generator seed 42) so
/// every run compares against the same oracle; --seed only drives the
/// statement streams.
constexpr int kNumR = 20000;
constexpr int kNumS = 6000;
Figure4Config BenchFigure4();

/// Client connections per workload. Fixed, not configurable: busy threads
/// (clients + workers + morsel threads) must stay within nproc.
constexpr int kPointLookupConnections = 2;
constexpr int kAnalyticConnections = 1;
constexpr int kIngestConnections = 4;
int ConnectionsFor(const std::string& workload);
/// Whether the workload's server and clients share one CPU (see CpuPin):
/// point_lookup, whose closed loop is all cross-thread handoffs.
bool PinnedToOneCpu(const std::string& workload);

/// Server options for a read workload: default ServerOptions with the
/// Figure 4 preload (notably the default plan-cache capacity).
server::ServerOptions ReadServerOptions();
/// Server options for ingest: a fresh attached directory, fdatasync per
/// WAL append, and no checkpoint at shutdown so reopening replays the WAL.
server::ServerOptions IngestServerOptions(const std::string& dir);
/// Runner options for the Figure 4 schema without data, attached to
/// `dir` with fdatasync per WAL append (not attached when `dir` is empty).
api::StatementRunner::Options SchemaRunnerOptions(const std::string& dir);

/// Starts a server and aborts the run with a message on failure.
std::unique_ptr<server::Server> StartServer(server::ServerOptions options);
std::vector<std::unique_ptr<server::Client>> Connect(server::Server* server,
                                                     int n,
                                                     const std::string& name);

/// Prints the per-run budget line: nproc, ERBIUM_THREADS, connections,
/// server workers.
void PrintBudget(const std::string& workload);

// ---- Statement streams -------------------------------------------------------

/// point_lookup: keys uniform over all r_ids; half the statements read a
/// scalar, half the E3 form (one entity's multi-valued attribute).
struct PointStatement {
  int64_t key = 0;
  int form = 0;  // 0: r_a1, 1: r_mv1 (E3)
  std::string text;
};
class PointStream {
 public:
  PointStream(uint64_t seed, int stream) : rng_(seed * 1000003 + stream) {}
  PointStatement Next();
  static std::string Text(int64_t key, int form);

 private:
  std::mt19937_64 rng_;
};

/// analytic: the paper's E-queries, cycled in a fixed order starting at a
/// seed-chosen offset.
struct AnalyticQuery {
  const char* name;
  const char* text;
};
const std::vector<AnalyticQuery>& AnalyticQueries();

/// ingest_durable: entity inserts spread over the R hierarchy and S. Keys
/// are unique across streams (stream + k * streams).
struct IngestStatement {
  std::string cls;  // R, R1, R2, R3, R4 or S
  int64_t key = 0;
  int64_t a1 = 0;   // r_a1 / s_a1, read back by the recovery check
  std::string text;
};
class IngestStream {
 public:
  IngestStream(uint64_t seed, int stream, int streams)
      : rng_(seed * 7919 + stream), stream_(stream), streams_(streams) {}
  IngestStatement Next();

 private:
  std::mt19937_64 rng_;
  int stream_;
  int streams_;
  int64_t produced_ = 0;
};
/// The read-back statement for one acknowledged insert.
std::string ReadBackText(const IngestStatement& insert);

// ---- Host sampling -------------------------------------------------------------

uint64_t NowNs();
/// Process user+sys CPU time.
uint64_t ProcessCpuNs();
/// Peak resident set (VmHWM) in MiB.
double PeakRssMb();

/// Confines every thread of the process, and every thread started while
/// it lives, to one CPU (the last the process may run on); the destructor
/// restores the previous mask. A closed loop of cross-thread handoffs
/// spread over several vCPUs keeps waking halted ones, and on a busy host
/// each such wakeup waits for the hypervisor: throughput then falls
/// several times faster than the host's steal grows. On one CPU that
/// stays busy, a handoff is a context switch and steal costs its share.
class CpuPin {
 public:
  explicit CpuPin(bool enabled);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  bool pinned_ = false;
};

/// /proc/stat counters of the pinned CPU while a CpuPin is active, of all
/// CPUs otherwise; steal share between two samples.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
double StealPct(const CpuTicks& begin, const CpuTicks& end);

double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
/// Stable 64-bit digest of a canonical result string (FNV-1a).
uint64_t Digest(const std::string& s);
/// Total bytes of regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

void Info(const std::string& line);
[[noreturn]] void Die(const std::string& message);

// ---- Entry points ---------------------------------------------------------------

RunResult RunPointLookup(const Args& args);
RunResult RunAnalytic(const Args& args);
RunResult RunIngest(const Args& args);
RunResult RunTraced(const Args& args);

}  // namespace perfbench
}  // namespace erbium

#endif  // ERBIUM_PERFBENCH_COMMON_H_
