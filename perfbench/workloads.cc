// The timed workloads (tracing off).
//
// Host steal (CPU time the hypervisor gives to other guests) is the main
// source of run-to-run spread on a shared host, and a closed loop of
// cross-thread wakeups amplifies it: one point of steal costs several
// points of throughput. So point_lookup's sub-runs run inside a CpuPin,
// and the high-rate closed loops (point_lookup, ingest_durable) sample
// the host every kSliceNs and take their latency, throughput and CPU
// figures over the slices in which nothing was stolen. analytic, whose
// statements outlast a slice, and the reopen timings report the lower
// quartile over their repetitions.
//
// Read workloads split the window over kSubRuns freshly started servers,
// each start one setup_s sample; before each, a checkpointed copy of the
// served dataset is reopened kReopensPerSubRun times (recovery_s), so the
// reopens sample the whole run rather than its first seconds.
// ingest_durable repeats a fixed-work round until the window ends.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <map>
#include <thread>

#include "erql/query_engine.h"
#include "perfbench/common.h"

namespace erbium {
namespace perfbench {
namespace {

constexpr int kSubRuns = 8;
/// Read workloads: timed reopens of the dataset copy before each sub-run.
constexpr int kReopensPerSubRun = 2;
constexpr uint64_t kWarmupNs = 300'000'000;
constexpr uint64_t kSliceNs = 100'000'000;
/// Fewest slices the figures rest on: when fewer are steal-free, the
/// least-stolen slices make up the number.
constexpr size_t kMinQuietSlices = 20;
/// Repeated fixed work (a reopen, an analytic sub-run) reports its lower
/// quartile: interference only ever adds time to it.
constexpr double kLowerQuartile = 0.25;
/// ingest_durable: inserts per connection per round.
constexpr int kIngestPerConnection = 1000;
/// ingest_durable: acknowledged keys read back after each recovery.
constexpr int kReadBackSample = 64;

/// Members destroy in reverse order: clients close before the server.
struct ServerWithClients {
  std::unique_ptr<server::Server> server;
  std::vector<std::unique_ptr<server::Client>> clients;
};

uint64_t ResultDigest(const api::StatementOutcome& outcome) {
  return Digest(outcome.result.ToCanonicalString());
}

/// The serial, uncached M1 oracle over the same Figure 4 data.
struct Oracle {
  std::shared_ptr<ERSchema> schema;
  std::unique_ptr<MappedDatabase> db;

  Oracle() {
    auto built = MakeFigure4Database(Figure4M1(), BenchFigure4(), &schema);
    if (!built.ok()) Die("oracle build failed: " + built.status().ToString());
    db = std::move(built).value();
  }
  /// Digest of `text` run serially without a plan cache.
  uint64_t Run(const std::string& text) {
    auto result = erql::QueryEngine::Execute(db.get(), text,
                                             ExecOptions::Serial());
    if (!result.ok()) Die("oracle query failed: " + result.status().ToString());
    return Digest(result->ToCanonicalString());
  }
};

// ---- Steal-free slices -------------------------------------------------------------

/// One slice of a closed loop's window.
struct Slice {
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  uint64_t ops = 0;     // statements completed in the slice
  uint64_t cpu_ns = 0;  // process CPU time
  uint64_t steal = 0;   // host steal ticks
};

/// A completed statement's client-observed latency and end time.
struct Timed {
  uint64_t end_ns;
  float latency_us;
};

/// Samples the window in kSliceNs slices on the calling thread until
/// `done()`; `completed` counts the statements the clients finished.
/// A trailing slice shorter than half a slice is dropped.
template <typename Done>
void SampleSlices(const std::atomic<uint64_t>& completed, Done done,
                  std::vector<Slice>* out) {
  uint64_t begin = NowNs(), ops = completed.load(), cpu = ProcessCpuNs();
  CpuTicks ticks = ReadCpuTicks();
  for (bool finished = false; !finished;) {
    const uint64_t boundary = begin + kSliceNs;
    while (!(finished = done()) && NowNs() < boundary) {
      uint64_t left = boundary - std::min(boundary, NowNs());
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<uint64_t>(left, 5'000'000)));
    }
    Slice s;
    s.begin_ns = begin;
    s.end_ns = NowNs();
    uint64_t ops_now = completed.load(), cpu_now = ProcessCpuNs();
    CpuTicks ticks_now = ReadCpuTicks();
    s.ops = ops_now - ops;
    s.cpu_ns = cpu_now - cpu;
    s.steal = ticks_now.steal - ticks.steal;
    if (s.end_ns - s.begin_ns >= kSliceNs / 2) out->push_back(s);
    begin = s.end_ns;
    ops = ops_now;
    cpu = cpu_now;
    ticks = ticks_now;
  }
}

/// Adds latency_p50_us, throughput_ops and cpu_us_per_op over the
/// steal-free slices (at least kMinQuietSlices, least-stolen first).
void AddQuietSliceMetrics(const std::vector<Slice>& slices,
                          const std::vector<Timed>& latencies,
                          RunResult* out) {
  std::vector<size_t> order(slices.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return slices[a].steal < slices[b].steal;
  });
  size_t quiet = 0;
  while (quiet < order.size() &&
         (slices[order[quiet]].steal == 0 || quiet < kMinQuietSlices)) {
    ++quiet;
  }
  std::vector<std::pair<uint64_t, uint64_t>> spans;  // quiet [begin, end)
  std::vector<double> throughput;
  uint64_t ops = 0, cpu_ns = 0;
  for (size_t i = 0; i < quiet; ++i) {
    const Slice& s = slices[order[i]];
    spans.emplace_back(s.begin_ns, s.end_ns);
    throughput.push_back(static_cast<double>(s.ops) * 1e9 /
                         static_cast<double>(s.end_ns - s.begin_ns));
    ops += s.ops;
    cpu_ns += s.cpu_ns;
  }
  std::sort(spans.begin(), spans.end());
  std::vector<double> quiet_latency;
  for (const Timed& t : latencies) {
    auto it = std::upper_bound(
        spans.begin(), spans.end(),
        std::make_pair(t.end_ns, std::numeric_limits<uint64_t>::max()));
    if (it != spans.begin() && t.end_ns < std::prev(it)->second) {
      quiet_latency.push_back(t.latency_us);
    }
  }
  size_t steal_free = 0;
  for (const Slice& s : slices) steal_free += s.steal == 0;
  Info("slices: " + std::to_string(steal_free) + " of " +
       std::to_string(slices.size()) + " steal-free; figures from " +
       std::to_string(quiet) + " slices, " +
       std::to_string(quiet_latency.size()) + " statements");
  out->Add("latency_p50_us", Percentile(quiet_latency, 0.5), "us");
  out->Add("throughput_ops", Median(throughput), "1/s");
  out->Add("cpu_us_per_op",
           static_cast<double>(cpu_ns) / 1e3 /
               static_cast<double>(std::max<uint64_t>(1, ops)),
           "us");
}

// ---- Read workloads ----------------------------------------------------------------

/// A checkpointed copy of the read workloads' dataset: the restart cost
/// of the database they serve.
class DatasetCopy {
 public:
  explicit DatasetCopy(const Args& args)
      : dir_(args.workdir + "/dataset-" + std::to_string(getpid())) {
    std::filesystem::remove_all(dir_);
    options_ = SchemaRunnerOptions(dir_);
    options_.sync = durability::WalWriter::SyncMode::kNone;
    auto runner = api::StatementRunner::Create(options_);
    if (!runner.ok()) Die("attach failed: " + runner.status().ToString());
    MappedDatabase* db = (*runner)->durable()->db();
    Figure4Sinks sinks;
    sinks.insert_entity = [&](const std::string& cls, Value fields) {
      ++rows_;
      return db->InsertEntity(cls, std::move(fields));
    };
    sinks.insert_relationship = [&](const std::string& rel, IndexKey left,
                                    IndexKey right, Value attrs) {
      ++rows_;
      return db->InsertRelationship(rel, std::move(left), std::move(right),
                                    std::move(attrs));
    };
    Status st = PopulateFigure4(sinks, BenchFigure4());
    if (st.ok()) st = (*runner)->FinalCheckpoint();
    if (!st.ok()) Die("dataset snapshot failed: " + st.ToString());
  }
  ~DatasetCopy() { std::filesystem::remove_all(dir_); }

  double BytesPerRow() const {
    return static_cast<double>(DirectoryBytes(dir_)) /
           static_cast<double>(rows_);
  }
  /// Reopens the copy; returns the wall time. A lost row is a failure.
  double Reopen(RunResult* out) {
    uint64_t t0 = NowNs();
    auto runner = api::StatementRunner::Create(options_);
    double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    if (!runner.ok()) Die("reopen failed: " + runner.status().ToString());
    auto counted = (*runner)->Execute("SELECT count(*) AS n FROM R");
    ++out->attempted;
    if (!counted.ok() || counted->result.rows.size() != 1 ||
        counted->result.rows[0][0].as_int64() != kNumR) {
      ++out->failed;
      Info("reopened dataset lost rows");
    }
    return seconds;
  }

 private:
  std::string dir_;
  api::StatementRunner::Options options_;
  uint64_t rows_ = 0;
};

/// Runs kSubRuns sub-runs of `measure(sub_run, sut, window_ns)`, each on
/// a freshly started server (inside a CpuPin when the workload is pinned),
/// and adds setup_s, rss_mb, disk_bytes_per_row and recovery_s.
template <typename Measure>
void RunReadWorkload(const Args& args, int connections, RunResult* out,
                     Measure measure) {
  DatasetCopy dataset(args);
  const uint64_t window_ns =
      static_cast<uint64_t>(args.seconds) * 1'000'000'000ULL / kSubRuns;
  std::vector<double> recovery, setup;
  double rss_mb = 0;
  for (int k = 0; k < kSubRuns; ++k) {
    for (int r = 0; r < kReopensPerSubRun; ++r) {
      recovery.push_back(dataset.Reopen(out));
    }
    ServerWithClients sut;
    uint64_t t0 = NowNs();
    sut.server = StartServer(ReadServerOptions());
    sut.clients = Connect(sut.server.get(), connections, "perfbench");
    setup.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    CpuPin cpu_pin(PinnedToOneCpu(args.workload));
    const CpuTicks ticks = ReadCpuTicks();
    measure(k, &sut, window_ns);
    rss_mb = std::max(rss_mb, PeakRssMb());
    Info("sub-run " + std::to_string(k) + " host.steal_pct=" +
         std::to_string(StealPct(ticks, ReadCpuTicks())));
  }
  out->Add("setup_s", Median(setup), "s");
  out->Add("rss_mb", rss_mb, "MiB");
  out->Add("disk_bytes_per_row", dataset.BytesPerRow(), "B");
  out->Add("recovery_s", Percentile(recovery, kLowerQuartile), "s");
}

}  // namespace

// ---- point_lookup ----------------------------------------------------------------

RunResult RunPointLookup(const Args& args) {
  struct Answer {
    int32_t key;
    int8_t form;
    bool ok;
    uint64_t digest;
  };
  std::vector<Answer> answers;  // every in-window statement
  std::vector<Slice> slices;
  std::vector<Timed> latencies;
  RunResult out;
  RunReadWorkload(args, kPointLookupConnections, &out,
                  [&](int k, ServerWithClients* sut, uint64_t window_ns) {
    const int conns = static_cast<int>(sut->clients.size());
    std::vector<std::vector<Timed>> latency(conns);
    std::vector<std::vector<Answer>> per_conn(conns);
    std::atomic<int> phase{0};  // 0 warmup, 1 window, 2 stop
    std::atomic<uint64_t> completed{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        PointStream stream(args.seed, k * conns + c);
        while (true) {
          int before = phase.load(std::memory_order_relaxed);
          if (before == 2) break;
          PointStatement s = stream.Next();
          uint64_t t0 = NowNs();
          auto outcome = sut->clients[c]->Execute(s.text);
          uint64_t t1 = NowNs();
          // Only statements that started and ended inside the window count.
          if (before != 1 || phase.load(std::memory_order_relaxed) != 1) {
            continue;
          }
          latency[c].push_back({t1, static_cast<float>((t1 - t0) / 1e3)});
          per_conn[c].push_back({static_cast<int32_t>(s.key),
                                 static_cast<int8_t>(s.form), outcome.ok(),
                                 outcome.ok() ? ResultDigest(*outcome) : 0});
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(kWarmupNs));
    phase.store(1);
    const uint64_t end = NowNs() + window_ns;
    SampleSlices(completed, [&] { return NowNs() >= end; }, &slices);
    phase.store(2);
    for (auto& t : threads) t.join();
    for (int c = 0; c < conns; ++c) {
      latencies.insert(latencies.end(), latency[c].begin(), latency[c].end());
      answers.insert(answers.end(), per_conn[c].begin(), per_conn[c].end());
    }
  });
  AddQuietSliceMetrics(slices, latencies, &out);

  // Every answer must equal the serial M1 oracle's for its statement.
  Oracle oracle;
  std::map<std::pair<int32_t, int8_t>, uint64_t> expected;
  for (const Answer& a : answers) {
    ++out.attempted;
    if (!a.ok) {
      ++out.failed;
      continue;
    }
    auto key = std::make_pair(a.key, a.form);
    auto it = expected.find(key);
    if (it == expected.end()) {
      it = expected.emplace(key, oracle.Run(PointStream::Text(a.key, a.form)))
               .first;
    }
    if (it->second != a.digest) ++out.failed;
  }
  Info("checked " + std::to_string(answers.size()) + " answers (" +
       std::to_string(expected.size()) +
       " distinct statements) against the serial M1 oracle");
  return out;
}

// ---- analytic ------------------------------------------------------------------

RunResult RunAnalytic(const Args& args) {
  const auto& queries = AnalyticQueries();
  const size_t n = queries.size();
  std::vector<double> p50, throughput, cpu;  // one value per sub-run
  // Each sub-run warms up with one cycle whose canonical digests are
  // checked against the oracle; inside the window every response's row
  // count must match that cycle's.
  std::vector<std::vector<uint64_t>> digests(n);
  RunResult out;
  RunReadWorkload(args, kAnalyticConnections, &out,
                  [&](int k, ServerWithClients* sut, uint64_t window_ns) {
    server::Client* client = sut->clients[0].get();
    std::vector<size_t> rows(n, 0);
    for (size_t i = 0; i < n; ++i) {
      auto outcome = client->Execute(queries[i].text);
      ++out.attempted;
      if (!outcome.ok()) {
        ++out.failed;
        Info(std::string("query ") + queries[i].name + " failed: " +
             outcome.status().ToString());
        continue;
      }
      digests[i].push_back(ResultDigest(*outcome));
      rows[i] = outcome->result.rows.size();
    }
    std::vector<double> latency;
    uint64_t cpu0 = ProcessCpuNs();
    uint64_t start = NowNs();
    // Whole cycles, starting at a seed-chosen query.
    for (size_t cycle = 0; cycle == 0 || NowNs() - start < window_ns;
         ++cycle) {
      for (size_t j = 0; j < n; ++j) {
        size_t i = (args.seed + k + j) % n;
        uint64_t t0 = NowNs();
        auto outcome = client->Execute(queries[i].text);
        uint64_t t1 = NowNs();
        ++out.attempted;
        if (!outcome.ok() || outcome->result.rows.size() != rows[i]) {
          ++out.failed;
          continue;
        }
        latency.push_back(static_cast<double>(t1 - t0) / 1e3);
      }
    }
    double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
    double cpu_us = static_cast<double>(ProcessCpuNs() - cpu0) / 1e3;
    double ops = static_cast<double>(std::max<size_t>(1, latency.size()));
    p50.push_back(Percentile(latency, 0.5));
    throughput.push_back(ops / elapsed_s);
    cpu.push_back(cpu_us / ops);
  });
  out.Add("latency_p50_us", Percentile(p50, kLowerQuartile), "us");
  out.Add("throughput_ops", Percentile(throughput, 1 - kLowerQuartile), "1/s");
  out.Add("cpu_us_per_op", Percentile(cpu, kLowerQuartile), "us");

  Oracle oracle;
  for (size_t i = 0; i < n; ++i) {
    uint64_t want = oracle.Run(queries[i].text);
    size_t wrong = std::count_if(digests[i].begin(), digests[i].end(),
                                 [&](uint64_t d) { return d != want; });
    out.failed += wrong;
    Info(std::string("oracle ") + queries[i].name + ": " +
         std::to_string(digests[i].size() - wrong) + "/" +
         std::to_string(digests[i].size()) + " digests match");
  }
  return out;
}

// ---- ingest_durable --------------------------------------------------------------

RunResult RunIngest(const Args& args) {
  const int conns = kIngestConnections;
  RunResult out;
  std::vector<Slice> slices;
  std::vector<Timed> latencies;
  std::vector<double> setup, recovery, bytes_per_row;
  const CpuTicks ticks0 = ReadCpuTicks();
  const uint64_t deadline =
      NowNs() + static_cast<uint64_t>(args.seconds) * 1'000'000'000ULL;
  for (int round = 0; round == 0 || NowNs() < deadline; ++round) {
    const std::string dir = args.workdir + "/ingest-" +
                            std::to_string(getpid()) + "-" +
                            std::to_string(round);
    std::filesystem::remove_all(dir);

    uint64_t t0 = NowNs();
    ServerWithClients sut;
    sut.server = StartServer(IngestServerOptions(dir));
    sut.clients = Connect(sut.server.get(), conns, "perfbench-ingest");
    setup.push_back(static_cast<double>(NowNs() - t0) / 1e9);

    // Fixed work: every connection inserts kIngestPerConnection entities.
    std::vector<std::vector<Timed>> latency(conns);
    std::vector<std::vector<IngestStatement>> acked(conns);
    std::atomic<uint64_t> completed{0}, failed{0};
    std::atomic<int> running{conns};
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        IngestStream stream(args.seed * 1000 + round, c, conns);
        latency[c].reserve(kIngestPerConnection);
        for (int i = 0; i < kIngestPerConnection; ++i) {
          IngestStatement s = stream.Next();
          uint64_t a = NowNs();
          auto outcome = sut.clients[c]->Execute(s.text);
          uint64_t b = NowNs();
          if (!outcome.ok()) {
            if (failed.fetch_add(1) == 0) {
              Info("insert failed: " + outcome.status().ToString() + " (" +
                   s.text + ")");
            }
            continue;
          }
          latency[c].push_back({b, static_cast<float>((b - a) / 1e3)});
          acked[c].push_back(std::move(s));
          completed.fetch_add(1, std::memory_order_relaxed);
        }
        running.fetch_sub(1);
      });
    }
    SampleSlices(completed, [&] { return running.load() == 0; }, &slices);
    for (auto& t : threads) t.join();
    sut.clients.clear();
    Status stopped = sut.server->Stop();
    if (!stopped.ok()) Die("server stop failed: " + stopped.ToString());
    sut.server.reset();

    out.attempted += static_cast<uint64_t>(conns) * kIngestPerConnection;
    out.failed += failed.load();
    std::vector<IngestStatement> all_acked;
    for (int c = 0; c < conns; ++c) {
      latencies.insert(latencies.end(), latency[c].begin(), latency[c].end());
      all_acked.insert(all_acked.end(), acked[c].begin(), acked[c].end());
    }
    bytes_per_row.push_back(static_cast<double>(DirectoryBytes(dir)) /
                            static_cast<double>(all_acked.size()));

    // Recovery: reopen the directory, replaying the whole WAL.
    uint64_t r0 = NowNs();
    auto reopened = api::StatementRunner::Create(SchemaRunnerOptions(dir));
    recovery.push_back(static_cast<double>(NowNs() - r0) / 1e9);
    if (!reopened.ok()) Die("reopen failed: " + reopened.status().ToString());
    api::StatementRunner* runner = reopened->get();

    // Row counts equal the acknowledged inserts, per extent.
    int64_t want_r = 0, want_s = 0;
    for (const auto& s : all_acked) (s.cls == "S" ? want_s : want_r)++;
    for (auto [extent, want] : {std::pair<const char*, int64_t>{"R", want_r},
                                {"S", want_s}}) {
      auto counted = runner->Execute(std::string("SELECT count(*) AS n FROM ") +
                                     extent);
      ++out.attempted;
      if (!counted.ok() || counted->result.rows.size() != 1 ||
          counted->result.rows[0][0].as_int64() != want) {
        ++out.failed;
        Info(std::string("recovered ") + extent + " count differs from " +
             std::to_string(want) + " acknowledged inserts");
      }
    }
    // A seeded sample of acknowledged keys reads back with its values.
    std::mt19937_64 pick(args.seed * 31 + round);
    for (int k = 0; k < kReadBackSample && !all_acked.empty(); ++k) {
      const IngestStatement& s = all_acked[pick() % all_acked.size()];
      auto row = runner->Execute(ReadBackText(s));
      ++out.attempted;
      if (!row.ok() || row->result.rows.size() != 1 ||
          row->result.rows[0][1].as_int64() != s.a1) {
        ++out.failed;
        Info("read-back of " + s.cls + " key " + std::to_string(s.key) +
             " failed");
      }
    }
    reopened->reset();
    std::filesystem::remove_all(dir);
  }
  Info("host.steal_pct=" + std::to_string(StealPct(ticks0, ReadCpuTicks())) +
       " rounds=" + std::to_string(setup.size()));

  AddQuietSliceMetrics(slices, latencies, &out);
  out.Add("setup_s", Median(setup), "s");
  out.Add("rss_mb", PeakRssMb(), "MiB");
  out.Add("disk_bytes_per_row", Median(bytes_per_row), "B");
  out.Add("recovery_s", Percentile(recovery, kLowerQuartile), "s");
  return out;
}

}  // namespace perfbench
}  // namespace erbium
