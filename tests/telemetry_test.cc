// Tests for the always-on query telemetry (obs/telemetry.h) and the
// exporters (obs/export.h): ring-buffer capacity and ordering, slow-query
// capture, concurrent recording under load, Prometheus text-format
// conformance, Chrome trace structure, and the SHOW METRICS / SHOW
// QUERIES / TRACE statements end-to-end through the query engine.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "erql/query_engine.h"
#include "mini_json.h"
#include "obs/export.h"
#include "prom_testlib.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "workload/figure4.h"

namespace erbium {
namespace obs {
namespace {

QueryRecord MakeRecord(const std::string& text, uint64_t wall_ns = 1000) {
  QueryRecord record;
  record.text = text;
  record.kind = "select";
  record.mapping = "m1";
  record.wall_ns = wall_ns;
  record.cpu_ns = wall_ns;
  record.rows_out = 1;
  return record;
}

TEST(TelemetryTest, RecordsComeBackNewestFirst) {
  MetricsRegistry registry;
  QueryTelemetry telemetry(/*capacity=*/64, /*slow_capacity=*/8, &registry);
  for (int i = 0; i < 10; ++i) {
    telemetry.Record(MakeRecord("q" + std::to_string(i)));
  }
  std::vector<QueryRecord> recent = telemetry.Recent();
  ASSERT_EQ(recent.size(), 10u);
  EXPECT_EQ(recent.front().text, "q9");
  EXPECT_EQ(recent.back().text, "q0");
  for (size_t i = 1; i < recent.size(); ++i) {
    EXPECT_LT(recent[i].seq, recent[i - 1].seq);
  }
  EXPECT_EQ(telemetry.Recent(3).size(), 3u);
  EXPECT_EQ(telemetry.Recent(3).front().text, "q9");
}

TEST(TelemetryTest, RingEvictsOldestOnceFull) {
  MetricsRegistry registry;
  QueryTelemetry telemetry(/*capacity=*/16, /*slow_capacity=*/4, &registry);
  ASSERT_EQ(telemetry.capacity(), 16u);
  for (int i = 0; i < 100; ++i) {
    telemetry.Record(MakeRecord("q" + std::to_string(i)));
  }
  std::vector<QueryRecord> recent = telemetry.Recent();
  ASSERT_EQ(recent.size(), 16u);  // capped at capacity
  EXPECT_EQ(telemetry.total_recorded(), 100u);  // but everything counted
  // The survivors are exactly the 16 newest.
  EXPECT_EQ(recent.front().text, "q99");
  EXPECT_EQ(recent.back().text, "q84");
}

TEST(TelemetryTest, RecordNormalizesAndTruncates) {
  MetricsRegistry registry;
  QueryTelemetry telemetry(16, 4, &registry);
  QueryRecord record;
  record.text = std::string(QueryTelemetry::kMaxTextBytes + 500, 'x');
  telemetry.Record(std::move(record));
  QueryRecord stored = telemetry.Recent(1).front();
  EXPECT_EQ(stored.text.size(), QueryTelemetry::kMaxTextBytes + 3);  // "..."
  EXPECT_EQ(stored.mapping, "none");
  EXPECT_EQ(stored.kind, "unknown");
}

TEST(TelemetryTest, SlowQueriesCaptureSpanTrees) {
  MetricsRegistry registry;
  QueryTelemetry telemetry(64, /*slow_capacity=*/2, &registry);
  telemetry.set_slow_threshold_ns(1'000'000);  // 1 ms

  telemetry.Record(MakeRecord("fast", /*wall_ns=*/500));
  EXPECT_TRUE(telemetry.RecentSlow().empty());

  QueryStats stats;
  SpanRecord span;
  span.name = "Scan";
  span.stats.rows_out = 42;
  stats.spans.push_back(span);
  telemetry.Record(MakeRecord("slow1", 2'000'000), &stats);
  telemetry.Record(MakeRecord("slow2", 3'000'000), nullptr);
  telemetry.Record(MakeRecord("slow3", 4'000'000), &stats);

  std::vector<SlowQueryRecord> slow = telemetry.RecentSlow();
  ASSERT_EQ(slow.size(), 2u);  // slow ring capacity evicted slow1
  EXPECT_EQ(slow[0].record.text, "slow3");
  EXPECT_EQ(slow[1].record.text, "slow2");
  EXPECT_EQ(slow[0].stats.spans.size(), 1u);
  EXPECT_EQ(slow[0].stats.spans[0].stats.rows_out, 42u);
  EXPECT_TRUE(slow[1].stats.spans.empty());  // recorded without stats
  EXPECT_EQ(registry.CounterValue("erql.slow_queries"), 3u);
}

TEST(TelemetryTest, RecordFeedsRegistryMetrics) {
  MetricsRegistry registry;
  QueryTelemetry telemetry(64, 8, &registry);
  telemetry.set_slow_threshold_ns(UINT64_MAX);
  telemetry.Record(MakeRecord("ok"));
  QueryRecord failed = MakeRecord("bad");
  failed.ok = false;
  failed.error = "parse error";
  failed.kind = "invalid";
  telemetry.Record(std::move(failed));

  EXPECT_EQ(registry.CounterValue("erql.queries"), 2u);
  EXPECT_EQ(registry.CounterValue("erql.query_errors"), 1u);
  RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.histograms.at("erql.query.latency_ms.mapping.m1").count, 2u);
  EXPECT_EQ(snap.histograms.at("erql.query.latency_ms.kind.select").count, 1u);
  EXPECT_EQ(snap.histograms.at("erql.query.latency_ms.kind.invalid").count,
            1u);
}

TEST(TelemetryTest, LifecycleScopeStampsQueueWaitAndReportsSeq) {
  MetricsRegistry registry;
  QueryTelemetry telemetry(16, 4, &registry);
  telemetry.set_slow_threshold_ns(UINT64_MAX);

  // Without a scope the record carries no transport lifecycle.
  telemetry.Record(MakeRecord("local"));
  EXPECT_EQ(telemetry.Recent(1).front().queue_wait_ns, 0u);

  uint64_t seq = 0;
  {
    ScopedStatementLifecycle lifecycle(/*queue_wait_ns=*/12'345);
    telemetry.Record(MakeRecord("remote"));
    seq = lifecycle.recorded_seq();
  }
  ASSERT_NE(seq, 0u);
  QueryRecord stored = telemetry.Recent(1).front();
  EXPECT_EQ(stored.seq, seq);
  EXPECT_EQ(stored.queue_wait_ns, 12'345u);
  EXPECT_EQ(stored.write_stall_ns, 0u);  // not annotated yet

  telemetry.AnnotateWriteStall(seq, /*write_stall_ns=*/777,
                               /*server_total_ns=*/99'999);
  stored = telemetry.Recent(1).front();
  EXPECT_EQ(stored.write_stall_ns, 777u);
  EXPECT_EQ(stored.server_total_ns, 99'999u);
  // Unknown (evicted) seqs are ignored, not invented.
  telemetry.AnnotateWriteStall(seq + 1000, 1, 1);
}

TEST(TelemetryTest, SlowCaptureGrowsServerSpans) {
  MetricsRegistry registry;
  QueryTelemetry telemetry(16, 4, &registry);
  telemetry.set_slow_threshold_ns(0);  // everything is slow

  uint64_t seq = 0;
  QueryStats stats;
  SpanRecord scan;
  scan.name = "Scan";
  stats.spans.push_back(scan);
  {
    ScopedStatementLifecycle lifecycle(5'000);
    telemetry.Record(MakeRecord("remote slow"), &stats);
    seq = lifecycle.recorded_seq();
  }
  telemetry.AnnotateWriteStall(seq, 2'000, 50'000);

  std::vector<SlowQueryRecord> slow = telemetry.RecentSlow(1);
  ASSERT_EQ(slow.size(), 1u);
  // queue-wait span prepended at capture, write-stall appended by the
  // annotation — the capture renders as a transport-to-engine timeline.
  ASSERT_EQ(slow[0].stats.spans.size(), 3u);
  EXPECT_EQ(slow[0].stats.spans.front().name, "server.queue_wait");
  EXPECT_EQ(slow[0].stats.spans.front().stats.wall_ns, 5'000u);
  EXPECT_EQ(slow[0].stats.spans[1].name, "Scan");
  EXPECT_EQ(slow[0].stats.spans.back().name, "server.write_stall");
  EXPECT_EQ(slow[0].stats.spans.back().stats.wall_ns, 2'000u);
}

TEST(TelemetryTest, ClearEmptiesRingsButKeepsNumbering) {
  MetricsRegistry registry;
  QueryTelemetry telemetry(16, 4, &registry);
  telemetry.set_slow_threshold_ns(0);  // everything is slow
  telemetry.Record(MakeRecord("a"));
  uint64_t seq_before = telemetry.Record(MakeRecord("b"));
  telemetry.Clear();
  EXPECT_TRUE(telemetry.Recent().empty());
  EXPECT_TRUE(telemetry.RecentSlow().empty());
  EXPECT_GT(telemetry.Record(MakeRecord("c")), seq_before);
}

// The concurrency contract, exercised hard enough for TSan to have
// something to chew on: 8 writers hammering Record() while a reader
// polls Recent(). Sequence ids must stay unique, the ring must never
// exceed capacity, and the histograms must account for every record.
TEST(TelemetryTest, ConcurrentRecordingKeepsInvariants) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  MetricsRegistry registry;
  QueryTelemetry telemetry(/*capacity=*/128, /*slow_capacity=*/16, &registry);
  telemetry.set_slow_threshold_ns(UINT64_MAX);

  std::vector<std::set<uint64_t>> seqs(kThreads);
  std::atomic<bool> done{false};
  std::thread reader([&telemetry, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      std::vector<QueryRecord> recent = telemetry.Recent();
      EXPECT_LE(recent.size(), telemetry.capacity());
      for (size_t i = 1; i < recent.size(); ++i) {
        EXPECT_LT(recent[i].seq, recent[i - 1].seq);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&telemetry, &seqs, t] {
      for (int i = 0; i < kPerThread; ++i) {
        QueryRecord record = MakeRecord("t" + std::to_string(t));
        record.mapping = "m" + std::to_string(t % 3);
        seqs[t].insert(telemetry.Record(std::move(record)));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  constexpr uint64_t kTotal = uint64_t{kThreads} * kPerThread;
  std::set<uint64_t> all;
  for (const std::set<uint64_t>& s : seqs) all.insert(s.begin(), s.end());
  EXPECT_EQ(all.size(), kTotal);  // no seq handed out twice
  EXPECT_EQ(telemetry.total_recorded(), kTotal);
  EXPECT_EQ(telemetry.Recent().size(), telemetry.capacity());
  EXPECT_EQ(registry.CounterValue("erql.queries"), kTotal);
  // Histogram counts across the three mappings account for every record.
  RegistrySnapshot snap = registry.Snapshot();
  uint64_t histogram_total = 0;
  for (int m = 0; m < 3; ++m) {
    histogram_total +=
        snap.histograms.at("erql.query.latency_ms.mapping.m" + std::to_string(m))
            .count;
  }
  EXPECT_EQ(histogram_total, kTotal);
}

// ---------------------------------------------------------------------
// Prometheus exporter.

// ValidatePrometheusText lives in prom_testlib.h so the live-scrape
// tests (server_metrics_test.cc) run the exact same validator.

TEST(PrometheusExportTest, NameSanitization) {
  EXPECT_EQ(PrometheusName("erql.queries"), "erbium_erql_queries");
  EXPECT_EQ(PrometheusName("weird-name with spaces"),
            "erbium_weird_name_with_spaces");
  EXPECT_EQ(PrometheusName("a:b_c9"), "erbium_a:b_c9");
}

TEST(PrometheusExportTest, FormatConformance) {
  MetricsRegistry registry;
  registry.counter("erql.queries").Increment(7);
  registry.gauge("pool.threads").Set(4);
  Histogram hist =
      registry.histogram("erql.query.latency_ms.mapping.m1", {1.0, 10.0});
  hist.Observe(0.5);
  hist.Observe(5.0);
  hist.Observe(500.0);
  std::string text = ExportPrometheusText(registry);
  ValidatePrometheusText(text);

  EXPECT_NE(text.find("# TYPE erbium_erql_queries counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("erbium_erql_queries 7"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE erbium_pool_threads gauge"), std::string::npos);
  EXPECT_NE(text.find("erbium_pool_threads 4"), std::string::npos);

  const std::string h = "erbium_erql_query_latency_ms_mapping_m1";
  EXPECT_NE(text.find("# TYPE " + h + " histogram"), std::string::npos);
  // Buckets are cumulative; +Inf equals the count.
  EXPECT_NE(text.find(h + "_bucket{le=\"1\"} 1"), std::string::npos) << text;
  EXPECT_NE(text.find(h + "_bucket{le=\"10\"} 2"), std::string::npos) << text;
  EXPECT_NE(text.find(h + "_bucket{le=\"+Inf\"} 3"), std::string::npos)
      << text;
  EXPECT_NE(text.find(h + "_count 3"), std::string::npos) << text;
  EXPECT_NE(text.find(h + "_sum 505.5"), std::string::npos) << text;
}

TEST(PrometheusExportTest, GlobalOverloadCoversLiveRegistry) {
  MetricsRegistry::Global().counter("telemetry_test.prom").Increment();
  ValidatePrometheusText(ExportPrometheusText());
}

// ---------------------------------------------------------------------
// Chrome trace exporter.

TEST(ChromeTraceTest, StructurallyValidAndNested) {
  QueryStats stats;
  auto add = [&stats](const char* name, int depth, uint64_t wall_us) {
    SpanRecord span;
    span.name = name;
    span.depth = depth;
    span.stats.wall_ns = wall_us * 1000;
    span.stats.rows_out = wall_us;
    stats.spans.push_back(std::move(span));
  };
  add("Root", 0, 100);
  add("ChildA", 1, 60);
  add("Grandchild", 2, 50);
  add("ChildB", 1, 30);
  stats.total_wall_ns = 100 * 1000;

  std::string json = ExportChromeTrace(stats, "SELECT \"quoted\" query");
  testjson::Node root;
  std::string error;
  ASSERT_TRUE(testjson::ParseJson(json, &root, &error)) << error << "\n"
                                                        << json;
  const testjson::Node* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->elements.size(), stats.spans.size());

  struct Placed {
    double ts, dur;
    int tid;
  };
  std::vector<Placed> placed;
  for (size_t i = 0; i < events->elements.size(); ++i) {
    const testjson::Node& e = events->elements[i];
    EXPECT_EQ(e.Find("ph")->str, "X");
    EXPECT_EQ(e.Find("name")->str, stats.spans[i].name);
    EXPECT_EQ(e.Find("tid")->number, stats.spans[i].depth);
    placed.push_back(Placed{e.Find("ts")->number, e.Find("dur")->number,
                            static_cast<int>(e.Find("tid")->number)});
  }
  // Children nest inside their parent; the sibling follows its sibling.
  EXPECT_EQ(placed[0].ts, 0.0);
  EXPECT_EQ(placed[0].dur, 100.0);
  EXPECT_EQ(placed[1].ts, 0.0);   // ChildA starts with Root
  EXPECT_EQ(placed[2].ts, 0.0);   // Grandchild starts with ChildA
  EXPECT_EQ(placed[3].ts, 60.0);  // ChildB after ChildA
  EXPECT_LE(placed[3].ts + placed[3].dur, placed[0].ts + placed[0].dur);

  const testjson::Node* other = root.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->Find("query")->str, "SELECT \"quoted\" query");
}

TEST(ChromeTraceTest, ServerLifecycleSpansRenderAsSiblings) {
  // A slow capture carries server.queue_wait (prepended at Record) and
  // server.write_stall (appended by AnnotateWriteStall) as depth-0
  // siblings around the plan spans. The Chrome-trace export must keep
  // all three on the same track, laid out sequentially — the capture
  // reads as a transport-to-engine-to-transport timeline.
  MetricsRegistry registry;
  QueryTelemetry telemetry(16, 4, &registry);
  telemetry.set_slow_threshold_ns(0);  // everything is slow

  QueryStats stats;
  SpanRecord scan;
  scan.name = "Scan";
  scan.stats.wall_ns = 40'000;
  stats.spans.push_back(scan);
  stats.total_wall_ns = 40'000;
  uint64_t seq = 0;
  {
    ScopedStatementLifecycle lifecycle(5'000);
    telemetry.Record(MakeRecord("lifecycle trace"), &stats);
    seq = lifecycle.recorded_seq();
  }
  telemetry.AnnotateWriteStall(seq, /*write_stall_ns=*/2'000,
                               /*server_total_ns=*/50'000);

  std::vector<SlowQueryRecord> slow = telemetry.RecentSlow(1);
  ASSERT_EQ(slow.size(), 1u);
  std::string json = ExportChromeTrace(slow[0].stats, slow[0].record.text);

  testjson::Node root;
  std::string error;
  ASSERT_TRUE(testjson::ParseJson(json, &root, &error)) << error << "\n"
                                                        << json;
  const testjson::Node* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->elements.size(), 3u);

  const testjson::Node& wait = events->elements[0];
  const testjson::Node& scan_event = events->elements[1];
  const testjson::Node& stall = events->elements[2];
  EXPECT_EQ(wait.Find("name")->str, "server.queue_wait");
  EXPECT_EQ(scan_event.Find("name")->str, "Scan");
  EXPECT_EQ(stall.Find("name")->str, "server.write_stall");
  // Siblings: all three render on the depth-0 track.
  EXPECT_EQ(wait.Find("tid")->number, 0.0);
  EXPECT_EQ(scan_event.Find("tid")->number, 0.0);
  EXPECT_EQ(stall.Find("tid")->number, 0.0);
  // Sequential layout in microseconds: wait [0,5), scan [5,45),
  // stall starting where the scan ends.
  EXPECT_EQ(wait.Find("ts")->number, 0.0);
  EXPECT_EQ(wait.Find("dur")->number, 5.0);
  EXPECT_EQ(scan_event.Find("ts")->number,
            wait.Find("ts")->number + wait.Find("dur")->number);
  EXPECT_EQ(stall.Find("ts")->number,
            scan_event.Find("ts")->number + scan_event.Find("dur")->number);
  EXPECT_EQ(stall.Find("dur")->number, 2.0);
  EXPECT_EQ(root.Find("otherData")->Find("query")->str, "lifecycle trace");
}

TEST(ChromeTraceTest, ZeroDurationSpansStillValid) {
  // Outside an analyze window all wall times are zero; the trace must
  // still parse and keep one event per span.
  QueryStats stats;
  for (int depth : {0, 1, 1}) {
    SpanRecord span;
    span.name = "Op";
    span.depth = depth;
    stats.spans.push_back(std::move(span));
  }
  std::string json = ExportChromeTrace(stats);
  testjson::Node root;
  std::string error;
  ASSERT_TRUE(testjson::ParseJson(json, &root, &error)) << error;
  EXPECT_EQ(root.Find("traceEvents")->elements.size(), 3u);
}

// ---------------------------------------------------------------------
// End-to-end: the SHOW / TRACE statements through the query engine on a
// small figure-4 database. These share the process-wide telemetry ring,
// so assertions are phrased against records this test inserted.

class TelemetryE2ETest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Figure4Config config;
    config.num_r = 200;
    config.num_s = 60;
    auto db = MakeFigure4Database(erbium::Figure4M2(), config, &schema_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = db->release();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
    schema_.reset();
  }

  erql::QueryResult Run(const std::string& text) {
    auto result = erql::QueryEngine::Execute(db_, text);
    EXPECT_TRUE(result.ok()) << text << ": " << result.status().ToString();
    return result.ok() ? std::move(result).value() : erql::QueryResult{};
  }

  static std::shared_ptr<ERSchema> schema_;
  static MappedDatabase* db_;
};

std::shared_ptr<ERSchema> TelemetryE2ETest::schema_;
MappedDatabase* TelemetryE2ETest::db_ = nullptr;

TEST_F(TelemetryE2ETest, StatementKindsLandInQueryLog) {
  Run("SELECT r_id, r_a1 FROM R");
  Run("EXPLAIN ANALYZE SELECT r_id FROM R");
  auto bad = erql::QueryEngine::Execute(db_, "SELECT FROM WHERE");
  EXPECT_FALSE(bad.ok());

  std::vector<QueryRecord> recent = QueryTelemetry::Global().Recent(10);
  auto find = [&recent](const std::string& text) -> const QueryRecord* {
    for (const QueryRecord& r : recent) {
      if (r.text == text) return &r;
    }
    return nullptr;
  };
  const QueryRecord* select = find("SELECT r_id, r_a1 FROM R");
  ASSERT_NE(select, nullptr);
  EXPECT_EQ(select->kind, "select");
  EXPECT_EQ(select->mapping, "M2");
  EXPECT_TRUE(select->ok);
  EXPECT_EQ(select->rows_out, 200u);
  EXPECT_GT(select->wall_ns, 0u);

  const QueryRecord* analyze = find("EXPLAIN ANALYZE SELECT r_id FROM R");
  ASSERT_NE(analyze, nullptr);
  EXPECT_EQ(analyze->kind, "explain_analyze");

  const QueryRecord* invalid = find("SELECT FROM WHERE");
  ASSERT_NE(invalid, nullptr);
  EXPECT_EQ(invalid->kind, "invalid");
  EXPECT_FALSE(invalid->ok);
  EXPECT_FALSE(invalid->error.empty());
}

TEST_F(TelemetryE2ETest, ShowQueriesListsTheLog) {
  Run("SELECT r_id FROM R WHERE r_id = 7");
  erql::QueryResult log = Run("SHOW QUERIES LIMIT 5");
  ASSERT_EQ(log.columns.size(), 12u);
  EXPECT_EQ(log.columns[0], "seq");
  EXPECT_EQ(log.columns[5], "queue_wait");
  EXPECT_EQ(log.columns[6], "write_stall");
  EXPECT_EQ(log.columns[10], "session");
  EXPECT_EQ(log.columns[11], "query");
  ASSERT_FALSE(log.rows.empty());
  EXPECT_LE(log.rows.size(), 5u);
  // Newest first: row 0 is the SHOW QUERIES statement itself? No — the
  // SHOW statement is recorded after it materializes its result, so row
  // 0 is the SELECT above.
  EXPECT_EQ(log.rows[0][11].as_string(), "SELECT r_id FROM R WHERE r_id = 7");
  EXPECT_EQ(log.rows[0][1].as_string(), "select");
  EXPECT_EQ(log.rows[0][9].as_string(), "ok");
  // A local statement never crossed the wire, so the transport columns
  // show the placeholder.
  EXPECT_EQ(log.rows[0][5].as_string(), "-");
  EXPECT_EQ(log.rows[0][6].as_string(), "-");
  // No session tag was installed, so attribution shows the placeholder.
  EXPECT_EQ(log.rows[0][10].as_string(), "-");
  // And the SHOW statement itself lands in the log for the next reader.
  erql::QueryResult next = Run("SHOW QUERIES LIMIT 1");
  EXPECT_EQ(next.rows[0][11].as_string(), "SHOW QUERIES LIMIT 5");
  EXPECT_EQ(next.rows[0][1].as_string(), "show");
}

TEST_F(TelemetryE2ETest, ShowQueriesSlowCapturesSpans) {
  QueryTelemetry& telemetry = QueryTelemetry::Global();
  uint64_t saved = telemetry.slow_threshold_ns();
  telemetry.set_slow_threshold_ns(0);  // everything is slow
  Run("SELECT r_id FROM R");
  telemetry.set_slow_threshold_ns(saved);

  erql::QueryResult slow = Run("SHOW QUERIES SLOW LIMIT 3");
  ASSERT_EQ(slow.columns.size(), 13u);
  EXPECT_EQ(slow.columns[7], "spans");
  ASSERT_FALSE(slow.rows.empty());
  bool found = false;
  for (const Row& row : slow.rows) {
    if (row[12].as_string() != "SELECT r_id FROM R") continue;
    found = true;
    EXPECT_GT(row[7].as_int64(), 0) << "slow select kept no span tree";
  }
  EXPECT_TRUE(found);
}

TEST_F(TelemetryE2ETest, ShowMetricsFiltersWithGlob) {
  Run("SELECT r_id FROM R");  // ensures erql.* metrics exist
  erql::QueryResult all = Run("SHOW METRICS");
  ASSERT_EQ(all.columns,
            (std::vector<std::string>{"metric", "kind", "value"}));
  EXPECT_GT(all.rows.size(), 3u);

  erql::QueryResult filtered = Run("SHOW METRICS LIKE 'erql.queries'");
  ASSERT_EQ(filtered.rows.size(), 1u);
  EXPECT_EQ(filtered.rows[0][0].as_string(), "erql.queries");
  EXPECT_EQ(filtered.rows[0][1].as_string(), "counter");
  EXPECT_GT(filtered.rows[0][2].as_int64(), 0);

  erql::QueryResult globbed = Run("SHOW METRICS LIKE 'erql.query.latency*'");
  ASSERT_FALSE(globbed.rows.empty());
  for (const Row& row : globbed.rows) {
    EXPECT_EQ(row[0].as_string().rfind("erql.query.latency", 0), 0u);
    EXPECT_EQ(row[1].as_string(), "histogram");
    EXPECT_NE(row[2].as_string().find("count="), std::string::npos);
  }
}

TEST_F(TelemetryE2ETest, TraceReturnsLoadableJson) {
  erql::QueryResult traced =
      Run("TRACE SELECT r.r_id, s.s_id FROM R r JOIN S s ON RS WHERE s.s_a1 < 100");
  ASSERT_EQ(traced.columns, (std::vector<std::string>{"trace"}));
  ASSERT_EQ(traced.rows.size(), 1u);
  testjson::Node root;
  std::string error;
  ASSERT_TRUE(testjson::ParseJson(std::string(traced.rows[0][0].as_string()),
                                  &root, &error))
      << error;
  const testjson::Node* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->elements.size(), 1u);  // a join plan has several spans
  // The analyze window was open, so spans carry real durations.
  double total_dur = 0;
  for (const testjson::Node& e : events->elements) {
    total_dur += e.Find("dur")->number;
  }
  EXPECT_GT(total_dur, 0.0);

  // The traced statement's record reports the inner query's cardinality,
  // not the 1-row trace result.
  QueryRecord record = QueryTelemetry::Global().Recent(1).front();
  EXPECT_EQ(record.kind, "trace");
  EXPECT_GT(record.rows_out, 0u);
}

TEST_F(TelemetryE2ETest, TraceIntoWritesFile) {
  std::string path = ::testing::TempDir() + "/erbium_trace_test.json";
  erql::QueryResult result =
      Run("TRACE INTO '" + path + "' SELECT r_id FROM R");
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_NE(result.rows[0][0].as_string().find("wrote " + path),
            std::string::npos);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  testjson::Node root;
  std::string error;
  ASSERT_TRUE(testjson::ParseJson(contents, &root, &error)) << error;
  EXPECT_NE(root.Find("traceEvents"), nullptr);
}

TEST_F(TelemetryE2ETest, CompileRejectsShowAndTrace) {
  for (const char* text : {"SHOW METRICS", "SHOW QUERIES",
                           "TRACE SELECT r_id FROM R"}) {
    auto compiled = erql::QueryEngine::Compile(db_, text);
    EXPECT_FALSE(compiled.ok()) << text;
  }
}

TEST_F(TelemetryE2ETest, TraceCannotWrapExplain) {
  auto result =
      erql::QueryEngine::Execute(db_, "TRACE EXPLAIN SELECT r_id FROM R");
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace obs
}  // namespace erbium
