#ifndef ERBIUM_OBS_TELEMETRY_H_
#define ERBIUM_OBS_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace erbium {
namespace obs {

/// One completed statement as seen by the query engine: what ran, under
/// which mapping, how long it took, and how it ended. Produced for every
/// statement — successes and failures alike — so the query log is a
/// faithful record of traffic, not just of happy paths.
struct QueryRecord {
  uint64_t seq = 0;       // monotonic, process-wide, assigned by Record()
  std::string text;       // statement text (truncated to kMaxTextBytes)
  std::string kind;       // select / explain / explain_analyze / show /
                          // trace / invalid
  std::string mapping;    // active mapping name (e.g. "m1")
  std::string session;    // session tag of the issuing connection; filled
                          // from obs::CurrentSessionTag() when empty
                          // ("-" when the thread has no session)
  uint64_t wall_ns = 0;   // end-to-end wall time incl. parse + translate
  uint64_t cpu_ns = 0;    // calling thread's CPU time over the same window
  uint64_t rows_out = 0;  // materialized result rows
  int threads = 1;        // ExecOptions::num_threads the statement ran with
  bool ok = true;
  std::string error;      // status message when !ok

  // Server transport lifecycle, zero for statements that never crossed
  // the wire (local shell, embedded API). queue_wait is stamped by
  // Record() from the ScopedStatementLifecycle of the executing worker;
  // write_stall / server_total arrive later via AnnotateWriteStall()
  // once the reactor has flushed the response to the socket.
  uint64_t queue_wait_ns = 0;    // frame decode -> worker picked it up
  uint64_t write_stall_ns = 0;   // response queued -> last byte written
  uint64_t server_total_ns = 0;  // frame decode -> last byte written
};

/// A slow query keeps its full span tree (per-operator rows, and wall/cpu
/// when the statement ran inside an analyze window) next to the record.
struct SlowQueryRecord {
  QueryRecord record;
  QueryStats stats;
};

/// Always-on, low-overhead query log: a lock-sharded fixed-capacity ring
/// buffer of QueryRecords plus a dedicated ring for slow queries.
///
/// Recording is per-statement (never per-row), so the cost budget is a
/// couple of clock reads in the engine, one uncontended shard mutex, and
/// a handful of histogram observes. Shards are chosen round-robin by
/// sequence id: concurrent sessions hit different mutexes, and a reader
/// merging all shards still reconstructs global recency order from seq.
///
/// Record() also feeds the process-wide MetricsRegistry:
///   erql.queries / erql.query_errors / erql.slow_queries     (counters)
///   erql.query.latency_ms.mapping.<name>                     (histogram)
///   erql.query.latency_ms.kind.<kind>                        (histogram)
class QueryTelemetry {
 public:
  static constexpr size_t kDefaultCapacity = 512;
  static constexpr size_t kDefaultSlowCapacity = 64;
  static constexpr size_t kMaxTextBytes = 1024;
  static constexpr uint64_t kDefaultSlowThresholdNs = 50'000'000;  // 50 ms

  /// The process-wide log used by QueryEngine. Slow threshold comes from
  /// ERBIUM_SLOW_QUERY_MS (default 50); records feed
  /// MetricsRegistry::Global(). Intentionally leaked, like the registry.
  static QueryTelemetry& Global();

  /// `registry == nullptr` means MetricsRegistry::Global(). Tests pass
  /// their own registry so histogram counts can be asserted in isolation.
  explicit QueryTelemetry(size_t capacity = kDefaultCapacity,
                          size_t slow_capacity = kDefaultSlowCapacity,
                          MetricsRegistry* registry = nullptr);

  QueryTelemetry(const QueryTelemetry&) = delete;
  QueryTelemetry& operator=(const QueryTelemetry&) = delete;

  /// Stores the record (assigning record.seq), updates the metrics, and
  /// — when record.wall_ns >= slow_threshold_ns() — captures it into the
  /// slow ring together with `stats` (may be null: the slow entry then
  /// has an empty span tree). Returns the assigned sequence id.
  uint64_t Record(QueryRecord record, const QueryStats* stats = nullptr);

  /// Back-fills the transport tail of an already-recorded statement:
  /// the reactor only learns the write-stall once the response's last
  /// byte leaves the socket, which is after Record() ran on the worker.
  /// Locates seq in its shard ring (and the slow ring, where it also
  /// appends a "server.write_stall" span) and stamps both durations.
  /// A seq that has already been overwritten is silently ignored.
  void AnnotateWriteStall(uint64_t seq, uint64_t write_stall_ns,
                          uint64_t server_total_ns);

  /// Most recent records, newest first, at most `limit`.
  std::vector<QueryRecord> Recent(
      size_t limit = std::numeric_limits<size_t>::max()) const;
  std::vector<SlowQueryRecord> RecentSlow(
      size_t limit = std::numeric_limits<size_t>::max()) const;

  /// Total records ever passed to Record() (not capped by capacity).
  uint64_t total_recorded() const {
    return seq_.load(std::memory_order_relaxed);
  }

  /// Maximum records retained across all shards.
  size_t capacity() const { return shard_capacity_ * kShards; }
  size_t slow_capacity() const { return slow_capacity_; }

  uint64_t slow_threshold_ns() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed);
  }
  void set_slow_threshold_ns(uint64_t ns) {
    slow_threshold_ns_.store(ns, std::memory_order_relaxed);
  }

  /// Empties both rings (sequence numbering continues).
  void Clear();

 private:
  static constexpr size_t kShards = 8;

  struct Shard {
    mutable std::mutex mu;
    std::vector<QueryRecord> ring;  // grows to shard_capacity_, then wraps
    size_t next = 0;                // overwrite position once full
    // Metric handles resolved on this shard's first use of each name, so
    // Record() does no registry lookup or name concatenation per
    // statement. Resolving lazily keeps a scrape from showing series
    // that no statement has touched yet.
    std::optional<Counter> queries;
    std::optional<Counter> errors;
    std::map<std::string, Histogram> by_mapping;
    std::map<std::string, Histogram> by_kind;
  };

  MetricsRegistry* registry_;
  size_t shard_capacity_;
  size_t slow_capacity_;
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> slow_threshold_ns_{kDefaultSlowThresholdNs};
  Shard shards_[kShards];
  mutable std::mutex slow_mu_;
  std::vector<SlowQueryRecord> slow_ring_;
  size_t slow_next_ = 0;
};

/// Carries the server-side lifecycle of one statement from the reactor
/// into QueryTelemetry::Record() without widening every Execute()
/// signature in between. The worker thread opens a scope around the
/// statement (with the queue wait it measured); Record() — called deep
/// inside the engine — stamps that wait into the QueryRecord and leaves
/// the assigned seq behind, which the worker forwards to the reactor so
/// the flush path can AnnotateWriteStall() the same entry. Thread-local
/// and re-entrant (nested scopes shadow, then restore).
class ScopedStatementLifecycle {
 public:
  explicit ScopedStatementLifecycle(uint64_t queue_wait_ns);
  ~ScopedStatementLifecycle();
  ScopedStatementLifecycle(const ScopedStatementLifecycle&) = delete;
  ScopedStatementLifecycle& operator=(const ScopedStatementLifecycle&) = delete;

  /// Seq assigned by the (last) Record() that ran inside this scope;
  /// 0 when the statement never reached the telemetry log.
  uint64_t recorded_seq() const { return recorded_seq_; }

  uint64_t queue_wait_ns() const { return queue_wait_ns_; }

 private:
  friend class QueryTelemetry;
  uint64_t queue_wait_ns_;
  uint64_t recorded_seq_ = 0;
  ScopedStatementLifecycle* prev_;
};

}  // namespace obs
}  // namespace erbium

#endif  // ERBIUM_OBS_TELEMETRY_H_
