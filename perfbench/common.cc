#include "perfbench/common.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "server/client.h"

namespace erbium {
namespace perfbench {

Figure4Config BenchFigure4() {
  Figure4Config config;
  config.num_r = kNumR;
  config.num_s = kNumS;
  return config;
}

int ConnectionsFor(const std::string& workload) {
  if (workload == "point_lookup") return kPointLookupConnections;
  if (workload == "analytic") return kAnalyticConnections;
  return kIngestConnections;
}

bool PinnedToOneCpu(const std::string& workload) {
  return workload == "point_lookup";
}

server::ServerOptions ReadServerOptions() {
  server::ServerOptions options;
  options.runner.figure4 = true;
  options.runner.figure4_num_r = kNumR;
  options.runner.figure4_num_s = kNumS;
  return options;
}

api::StatementRunner::Options SchemaRunnerOptions(const std::string& dir) {
  api::StatementRunner::Options options;
  options.figure4 = true;  // the Figure 4 schema; the data comes from disk
  options.figure4_num_r = 0;
  options.figure4_num_s = 0;
  options.attach_dir = dir;
  options.sync = durability::WalWriter::SyncMode::kFsync;
  return options;
}

server::ServerOptions IngestServerOptions(const std::string& dir) {
  server::ServerOptions options;
  options.runner = SchemaRunnerOptions(dir);
  options.checkpoint_on_shutdown = false;
  return options;
}

std::unique_ptr<server::Server> StartServer(server::ServerOptions options) {
  auto started = server::Server::Start(std::move(options));
  if (!started.ok()) Die("server start failed: " + started.status().ToString());
  return std::move(started).value();
}

std::vector<std::unique_ptr<server::Client>> Connect(server::Server* server,
                                                     int n,
                                                     const std::string& name) {
  std::vector<std::unique_ptr<server::Client>> clients;
  for (int i = 0; i < n; ++i) {
    server::Client::Options options;
    options.port = server->port();
    options.name = name + "-" + std::to_string(i);
    options.connect_retries = 10;
    auto client = server::Client::Connect(std::move(options));
    if (!client.ok()) Die("connect failed: " + client.status().ToString());
    clients.push_back(std::move(client).value());
  }
  return clients;
}

void PrintBudget(const std::string& workload) {
  const char* threads = std::getenv("ERBIUM_THREADS");
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  Info("budget nproc=" + std::to_string(hw) +
       " ERBIUM_THREADS=" + (threads ? threads : "unset") +
       " connections=" + std::to_string(ConnectionsFor(workload)) +
       " server_workers=" + std::to_string(std::max(2, hw)) +
       " pinned=" + (PinnedToOneCpu(workload) ? "1cpu" : "no"));
}

// ---- Statement streams ---------------------------------------------------------

std::string PointStream::Text(int64_t key, int form) {
  return form == 0
             ? "SELECT r_a1 FROM R WHERE r_id = " + std::to_string(key)
             : "SELECT r_id, r_mv1 FROM R WHERE r_id = " + std::to_string(key);
}

PointStatement PointStream::Next() {
  PointStatement s;
  s.key = static_cast<int64_t>(rng_() % kNumR) + 1;
  s.form = static_cast<int>(rng_() % 2);
  s.text = Text(s.key, s.form);
  return s;
}

const std::vector<AnalyticQuery>& AnalyticQueries() {
  static const std::vector<AnalyticQuery> queries = {
      {"E1", "SELECT r_id, r_mv1, r_mv2, r_mv3 FROM R"},
      {"E2", "SELECT r_id, unnest(r_mv1) AS v FROM R"},
      {"E4", "SELECT r_id, array_intersect(r_mv1, r_mv2) AS common FROM R"},
      {"E5",
       "SELECT r_id, r_a1, r_a2, r_a3, r_a4, r1_a1, r1_a2, r3_a1, r3_a2 "
       "FROM R3"},
      {"E6",
       "SELECT r.r_id, s.s_id FROM R r JOIN S s ON RS "
       "WHERE r.r_a4 < 50 AND s.s_a1 < 5000"},
      {"E6b",
       "SELECT r.r_a4, count(*) AS n, avg(r.r3_a1) AS m "
       "FROM R3 r JOIN S s ON RS WHERE r.r1_a1 < 900"},
      {"E8", "SELECT r.r_id, r.r2_a1, s1.s1_a1 FROM R2 r JOIN S1 s1 ON R2S1"},
      {"E9c",
       "SELECT r.r_id, count(*) AS partners FROM R2 r JOIN S1 s1 ON R2S1"},
  };
  return queries;
}

namespace {

/// A FLOAT literal with two decimals (always carries a '.', so the lexer
/// never reads it as an INT).
std::string Fixed2(uint64_t hundredths) {
  std::string cents = std::to_string(hundredths % 100);
  if (cents.size() < 2) cents.insert(0, "0");
  return std::to_string(hundredths / 100) + "." + cents;
}

}  // namespace

IngestStatement IngestStream::Next() {
  static const char* kClasses[] = {"R", "R1", "R2", "R3", "R4", "S"};
  IngestStatement s;
  s.cls = kClasses[rng_() % 6];
  s.key = 1 + stream_ + produced_++ * streams_;
  s.a1 = static_cast<int64_t>(rng_() % 10000);
  const std::string tag = std::to_string(rng_() % 5000);
  std::ostringstream out;
  if (s.cls == "S") {
    out << "INSERT S (s_id = " << s.key << ", s_a1 = " << s.a1
        << ", s_a2 = 's" << tag << "')";
  } else {
    out << "INSERT " << s.cls << " (r_id = " << s.key << ", r_a1 = " << s.a1
        << ", r_a2 = " << Fixed2(rng_() % 100000) << ", r_a3 = 'r" << tag
        << "', r_a4 = " << rng_() % 100;
    if (s.cls == "R1" || s.cls == "R3" || s.cls == "R4") {
      out << ", r1_a1 = " << rng_() % 1000 << ", r1_a2 = 'r1_" << tag << "'";
    }
    if (s.cls == "R2") {
      out << ", r2_a1 = " << rng_() % 1000 << ", r2_a2 = 'r2_" << tag << "'";
    }
    if (s.cls == "R3") {
      out << ", r3_a1 = " << rng_() % 1000
          << ", r3_a2 = " << Fixed2(rng_() % 1000);
    }
    if (s.cls == "R4") out << ", r4_a1 = " << rng_() % 1000;
    out << ")";
  }
  s.text = out.str();
  return s;
}

std::string ReadBackText(const IngestStatement& insert) {
  return insert.cls == "S"
             ? "SELECT s_id, s_a1 FROM S WHERE s_id = " +
                   std::to_string(insert.key)
             : "SELECT r_id, r_a1 FROM R WHERE r_id = " +
                   std::to_string(insert.key);
}

// ---- Host sampling -------------------------------------------------------------

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ProcessCpuNs() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<uint64_t>(tv.tv_usec) * 1000ULL;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

/// The CPU an active CpuPin holds, or -1.
std::atomic<int> pinned_cpu{-1};
cpu_set_t saved_mask;

/// Applies `mask` to every thread of the process.
void SetProcessAffinity(const cpu_set_t& mask) {
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    sched_setaffinity(tid, sizeof(mask), &mask);
  }
}

}  // namespace

CpuPin::CpuPin(bool enabled) {
  if (!enabled) return;
  if (sched_getaffinity(0, sizeof(saved_mask), &saved_mask) != 0) return;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_mask)) cpu = c;
  }
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  SetProcessAffinity(one);
  pinned_cpu.store(cpu);
  pinned_ = true;
}

CpuPin::~CpuPin() {
  if (!pinned_) return;
  SetProcessAffinity(saved_mask);
  pinned_cpu.store(-1);
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  const int pinned = pinned_cpu.load();
  const std::string want =
      pinned < 0 ? "cpu" : "cpu" + std::to_string(pinned);
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string cpu;
    fields >> cpu;
    if (cpu != want) continue;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    for (int field = 0; field < 8; ++field) {
      uint64_t v = 0;
      if (!(fields >> v)) break;
      ticks.total += v;
      if (field == 7) ticks.steal = v;
    }
    break;
  }
  return ticks;
}

double StealPct(const CpuTicks& begin, const CpuTicks& end) {
  if (end.total <= begin.total) return 0;
  return 100.0 * static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

uint64_t Digest(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

void Info(const std::string& line) {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

void Die(const std::string& message) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::_Exit(1);
}

}  // namespace perfbench
}  // namespace erbium
