#include "obs/telemetry.h"

#include <algorithm>
#include <cstdlib>

#include "obs/session.h"

namespace erbium {
namespace obs {
namespace {

/// Latency bucket edges in milliseconds, shared by the per-mapping and
/// per-kind histograms: sub-ms resolution at the fast end (point lookups)
/// through multi-second analytics at the slow end.
const std::vector<double>& LatencyBoundsMs() {
  static const std::vector<double>* bounds = new std::vector<double>{
      0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
      1000, 2500, 5000, 10000};
  return *bounds;
}

/// The latency histogram `prefix + name`, resolved once per cache.
Histogram LatencyHistogram(MetricsRegistry* registry,
                           std::map<std::string, Histogram>* cache,
                           const char* prefix, const std::string& name) {
  auto it = cache->find(name);
  if (it == cache->end()) {
    it = cache->emplace(name, registry->histogram(prefix + name,
                                                  LatencyBoundsMs()))
             .first;
  }
  return it->second;
}

/// Active lifecycle scope of the executing thread, nullptr when the
/// statement did not come through the network server.
thread_local ScopedStatementLifecycle* t_lifecycle = nullptr;

uint64_t SlowThresholdFromEnv() {
  const char* ms = std::getenv("ERBIUM_SLOW_QUERY_MS");
  if (ms == nullptr || *ms == '\0') {
    return QueryTelemetry::kDefaultSlowThresholdNs;
  }
  char* end = nullptr;
  double parsed = std::strtod(ms, &end);
  if (end == ms || parsed < 0) return QueryTelemetry::kDefaultSlowThresholdNs;
  return static_cast<uint64_t>(parsed * 1e6);
}

}  // namespace

ScopedStatementLifecycle::ScopedStatementLifecycle(uint64_t queue_wait_ns)
    : queue_wait_ns_(queue_wait_ns), prev_(t_lifecycle) {
  t_lifecycle = this;
}

ScopedStatementLifecycle::~ScopedStatementLifecycle() { t_lifecycle = prev_; }

QueryTelemetry& QueryTelemetry::Global() {
  static QueryTelemetry* global = [] {
    auto* t = new QueryTelemetry();
    t->set_slow_threshold_ns(SlowThresholdFromEnv());
    return t;
  }();
  return *global;
}

QueryTelemetry::QueryTelemetry(size_t capacity, size_t slow_capacity,
                               MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry : &MetricsRegistry::Global()),
      shard_capacity_(std::max<size_t>(1, (capacity + kShards - 1) / kShards)),
      slow_capacity_(std::max<size_t>(1, slow_capacity)) {}

uint64_t QueryTelemetry::Record(QueryRecord record, const QueryStats* stats) {
  uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  record.seq = seq;
  if (t_lifecycle != nullptr) {
    record.queue_wait_ns = t_lifecycle->queue_wait_ns_;
    t_lifecycle->recorded_seq_ = seq;
  }
  if (record.text.size() > kMaxTextBytes) {
    record.text.resize(kMaxTextBytes);
    record.text += "...";
  }
  if (record.mapping.empty()) record.mapping = "none";
  if (record.kind.empty()) record.kind = "unknown";
  if (record.session.empty()) record.session = CurrentSessionTag();
  if (record.session.empty()) record.session = "-";

  bool slow = record.wall_ns >= slow_threshold_ns();
  if (slow) {
    registry_->counter("erql.slow_queries").Increment();
    SlowQueryRecord entry;
    entry.record = record;
    if (stats != nullptr) entry.stats = *stats;
    if (entry.record.queue_wait_ns > 0) {
      // Depth-0 siblings render sequentially in the Chrome-trace
      // exporter, so a leading span turns the slow capture into a
      // queue-wait -> execution timeline.
      SpanRecord wait;
      wait.name = "server.queue_wait";
      wait.detail = "reactor";
      wait.stats.wall_ns = entry.record.queue_wait_ns;
      entry.stats.spans.insert(entry.stats.spans.begin(), wait);
    }
    std::lock_guard<std::mutex> lock(slow_mu_);
    if (slow_ring_.size() < slow_capacity_) {
      slow_ring_.push_back(std::move(entry));
    } else {
      slow_ring_[slow_next_] = std::move(entry);
      slow_next_ = (slow_next_ + 1) % slow_capacity_;
    }
  }

  Shard& shard = shards_[seq % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (!shard.queries) shard.queries = registry_->counter("erql.queries");
  shard.queries->Increment();
  if (!record.ok) {
    if (!shard.errors) shard.errors = registry_->counter("erql.query_errors");
    shard.errors->Increment();
  }
  double ms = static_cast<double>(record.wall_ns) / 1e6;
  LatencyHistogram(registry_, &shard.by_mapping,
                   "erql.query.latency_ms.mapping.", record.mapping)
      .Observe(ms);
  LatencyHistogram(registry_, &shard.by_kind, "erql.query.latency_ms.kind.",
                   record.kind)
      .Observe(ms);
  if (shard.ring.size() < shard_capacity_) {
    shard.ring.push_back(std::move(record));
  } else {
    shard.ring[shard.next] = std::move(record);
    shard.next = (shard.next + 1) % shard_capacity_;
  }
  return seq;
}

void QueryTelemetry::AnnotateWriteStall(uint64_t seq, uint64_t write_stall_ns,
                                        uint64_t server_total_ns) {
  if (seq == 0) return;
  Shard& shard = shards_[seq % kShards];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (QueryRecord& record : shard.ring) {
      if (record.seq != seq) continue;
      record.write_stall_ns = write_stall_ns;
      record.server_total_ns = server_total_ns;
      break;
    }
  }
  std::lock_guard<std::mutex> lock(slow_mu_);
  for (SlowQueryRecord& entry : slow_ring_) {
    if (entry.record.seq != seq) continue;
    entry.record.write_stall_ns = write_stall_ns;
    entry.record.server_total_ns = server_total_ns;
    SpanRecord stall;
    stall.name = "server.write_stall";
    stall.detail = "reactor";
    stall.stats.wall_ns = write_stall_ns;
    entry.stats.spans.push_back(stall);
    break;
  }
}

std::vector<QueryRecord> QueryTelemetry::Recent(size_t limit) const {
  std::vector<QueryRecord> out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.insert(out.end(), shard.ring.begin(), shard.ring.end());
  }
  std::sort(out.begin(), out.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.seq > b.seq;
            });
  if (out.size() > limit) out.resize(limit);
  return out;
}

std::vector<SlowQueryRecord> QueryTelemetry::RecentSlow(size_t limit) const {
  std::vector<SlowQueryRecord> out;
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    out = slow_ring_;
  }
  std::sort(out.begin(), out.end(),
            [](const SlowQueryRecord& a, const SlowQueryRecord& b) {
              return a.record.seq > b.record.seq;
            });
  if (out.size() > limit) out.resize(limit);
  return out;
}

void QueryTelemetry::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.ring.clear();
    shard.next = 0;
  }
  std::lock_guard<std::mutex> lock(slow_mu_);
  slow_ring_.clear();
  slow_next_ = 0;
}

}  // namespace obs
}  // namespace erbium
