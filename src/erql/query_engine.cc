#include "erql/query_engine.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/string_util.h"
#include "erql/parser.h"
#include "exec/explain.h"
#include "exec/snapshot.h"
#include "obs/export.h"
#include "obs/session.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/workload_profile.h"

namespace erbium {
namespace erql {

namespace {

Value SortArraysDeep(const Value& v) {
  if (v.kind() == TypeKind::kArray) {
    Value::ArrayData elements;
    elements.reserve(v.array().size());
    for (const Value& e : v.array()) elements.push_back(SortArraysDeep(e));
    std::sort(elements.begin(), elements.end());
    return Value::Array(std::move(elements));
  }
  if (v.kind() == TypeKind::kStruct) {
    Value::StructData fields;
    for (const auto& [name, value] : v.struct_fields()) {
      fields.emplace_back(name, SortArraysDeep(value));
    }
    return Value::Struct(std::move(fields));
  }
  return v;
}

}  // namespace

std::string QueryResult::ToTable(size_t max_rows) const {
  std::vector<size_t> widths(columns.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t i = 0; i < columns.size(); ++i) {
    widths[i] = columns[i].size();
  }
  size_t shown = std::min(rows.size(), max_rows);
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> row_cells;
    for (size_t i = 0; i < columns.size(); ++i) {
      std::string cell = rows[r][i].ToString();
      if (cell.size() > 40) cell = cell.substr(0, 37) + "...";
      widths[i] = std::max(widths[i], cell.size());
      row_cells.push_back(std::move(cell));
    }
    cells.push_back(std::move(row_cells));
  }
  std::string out;
  auto emit_row = [&](const std::vector<std::string>& row_cells) {
    out += "|";
    for (size_t i = 0; i < columns.size(); ++i) {
      out += " " + row_cells[i] +
             std::string(widths[i] - row_cells[i].size(), ' ') + " |";
    }
    out += "\n";
  };
  std::vector<std::string> header(columns.begin(), columns.end());
  emit_row(header);
  out += "|";
  for (size_t i = 0; i < columns.size(); ++i) {
    out += std::string(widths[i] + 2, '-') + "|";
  }
  out += "\n";
  for (const auto& row_cells : cells) emit_row(row_cells);
  if (rows.size() > shown) {
    out += "... (" + std::to_string(rows.size()) + " rows total)\n";
  }
  return out;
}

std::string QueryResult::ToCanonicalString() const {
  std::vector<std::string> rendered;
  rendered.reserve(rows.size());
  for (const Row& row : rows) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += " | ";
      line += SortArraysDeep(row[i]).ToString();
    }
    rendered.push_back(std::move(line));
  }
  std::sort(rendered.begin(), rendered.end());
  std::string out;
  for (const std::string& line : rendered) {
    out += line;
    out += "\n";
  }
  return out;
}

Result<CompiledQuery> QueryEngine::Compile(MappedDatabase* db,
                                           const std::string& text,
                                           const ExecOptions& opts) {
  ERBIUM_ASSIGN_OR_RETURN(Query query, Parser::Parse(text));
  if (query.statement != StatementKind::kSelect) {
    return Status::InvalidArgument(
        "only SELECT statements compile to plans; run SHOW/TRACE/CHECKPOINT "
        "through QueryEngine::Execute");
  }
  return Translator::Translate(db, query, opts);
}

namespace {

/// Query-log kind tag for a parsed statement.
std::string StatementKindName(const Query& query) {
  switch (query.statement) {
    case StatementKind::kShowMetrics:
    case StatementKind::kShowQueries:
    case StatementKind::kShowSessions:
    case StatementKind::kShowWorkload:
      return "show";
    case StatementKind::kTrace:
      return "trace";
    case StatementKind::kCheckpoint:
      return "checkpoint";
    case StatementKind::kAttach:
      return "attach";
    case StatementKind::kExportWorkload:
      return "export";
    case StatementKind::kLoadWorkload:
      return "load";
    case StatementKind::kAdvise:
      return "advise";
    case StatementKind::kSelect:
      break;
  }
  switch (query.explain) {
    case ExplainMode::kPlan:
      return "explain";
    case ExplainMode::kAnalyze:
      return "explain_analyze";
    case ExplainMode::kNone:
      break;
  }
  return "select";
}

/// EXPLAIN [ANALYZE] output as a one-column result, one line per row:
/// mapping summary, the (annotated) plan tree, then the mapping notes.
/// For ANALYZE the collected span tree is also exported through
/// `stats_out` so the engine can hand it to the slow-query ring.
Result<QueryResult> ExplainQuery(CompiledQuery* compiled,
                                 obs::QueryStats* stats_out,
                                 bool* have_stats) {
  QueryResult result;
  result.columns = {"plan"};
  auto add = [&result](std::string line) {
    result.rows.push_back(Row{Value::String(std::move(line))});
  };
  add("mapping: " + compiled->mapping_summary);
  std::string tree;
  if (compiled->explain == ExplainMode::kAnalyze) {
    // Execute under an analyze window so the operator wrappers record
    // wall/CPU time; the result rows themselves are discarded — their
    // cardinality shows up as the root span's rows.
    obs::ScopedAnalyze analyze_window;
    uint64_t start = obs::MonotonicNowNs();
    ERBIUM_ASSIGN_OR_RETURN(std::vector<Row> rows,
                            CollectRows(compiled->plan.get()));
    uint64_t total_wall = obs::MonotonicNowNs() - start;
    obs::QueryStats stats = CollectQueryStats(*compiled->plan);
    stats.total_wall_ns = total_wall;
    tree = stats.ToString();
    *stats_out = std::move(stats);
    *have_stats = true;
  } else {
    tree = RenderPlanTree(*compiled->plan);
  }
  std::istringstream lines(tree);
  for (std::string line; std::getline(lines, line);) add(std::move(line));
  if (!compiled->mapping_notes.empty()) {
    add("mapping notes:");
    for (const std::string& note : compiled->mapping_notes) add("  " + note);
  }
  return result;
}

/// Bucket-edge quantile estimate: the smallest bound whose cumulative
/// count reaches q * count, rendered as "p50<=2.5"; observations in the
/// overflow bucket report the last bound as a lower bound (">100").
std::string QuantileEstimate(const obs::HistogramSnapshot& snap, double q,
                             const char* label) {
  uint64_t target = static_cast<uint64_t>(q * static_cast<double>(snap.count));
  if (target == 0) target = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < snap.bounds.size() && i < snap.buckets.size(); ++i) {
    cumulative += snap.buckets[i];
    if (cumulative >= target) {
      return std::string(label) + "<=" + obs::JsonDouble(snap.bounds[i]);
    }
  }
  if (snap.bounds.empty()) return std::string(label) + "=?";
  return std::string(label) + ">" + obs::JsonDouble(snap.bounds.back());
}

/// SHOW METRICS [LIKE '<glob>']: one row per metric, histograms
/// summarized as count/sum plus p50/p99 bucket-edge estimates.
QueryResult ShowMetrics(const Query& query) {
  obs::RegistrySnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  auto matches = [&query](const std::string& name) {
    return query.show_like.empty() || GlobMatch(query.show_like, name);
  };
  QueryResult result;
  result.columns = {"metric", "kind", "value"};
  for (const auto& [name, value] : snap.counters) {
    if (!matches(name)) continue;
    result.rows.push_back(Row{Value::String(name), Value::String("counter"),
                              Value::Int64(static_cast<int64_t>(value))});
  }
  for (const auto& [name, value] : snap.gauges) {
    if (!matches(name)) continue;
    result.rows.push_back(
        Row{Value::String(name), Value::String("gauge"), Value::Int64(value)});
  }
  for (const auto& [name, hist] : snap.histograms) {
    if (!matches(name)) continue;
    std::string summary = "count=" + std::to_string(hist.count) +
                          " sum=" + obs::JsonDouble(hist.sum);
    if (hist.count > 0) {
      summary += " " + QuantileEstimate(hist, 0.5, "p50") + " " +
                 QuantileEstimate(hist, 0.99, "p99");
    }
    result.rows.push_back(Row{Value::String(name), Value::String("histogram"),
                              Value::String(std::move(summary))});
  }
  return result;
}

/// SHOW QUERIES [SLOW] [LIMIT n]: the query log (or slow-query ring),
/// newest first. Slow entries add a spans column (size of the captured
/// span tree). The session column attributes each statement to the
/// connection (or shell) that issued it.
QueryResult ShowQueries(const Query& query) {
  obs::QueryTelemetry& telemetry = obs::QueryTelemetry::Global();
  size_t limit = query.show_limit >= 0
                     ? static_cast<size_t>(query.show_limit)
                     : std::numeric_limits<size_t>::max();
  QueryResult result;
  result.columns = {"seq",        "kind",    "mapping",     "wall",
                    "cpu",        "queue_wait", "write_stall", "rows",
                    "threads",    "status",  "session",     "query"};
  // Transport columns render "-" for statements that never crossed the
  // wire (shell, embedded API) so local logs stay uncluttered.
  auto server_ns = [](uint64_t ns, bool remote) {
    return Value::String(remote ? obs::FormatNs(ns) : "-");
  };
  auto record_row = [&](const obs::QueryRecord& r) {
    bool remote = r.queue_wait_ns > 0 || r.server_total_ns > 0;
    return Row{Value::Int64(static_cast<int64_t>(r.seq)),
               Value::String(r.kind),
               Value::String(r.mapping),
               Value::String(obs::FormatNs(r.wall_ns)),
               Value::String(obs::FormatNs(r.cpu_ns)),
               server_ns(r.queue_wait_ns, remote),
               server_ns(r.write_stall_ns, remote),
               Value::Int64(static_cast<int64_t>(r.rows_out)),
               Value::Int64(r.threads),
               Value::String(r.ok ? "ok" : r.error),
               Value::String(r.session.empty() ? "-" : r.session),
               Value::String(r.text)};
  };
  if (query.show_slow) {
    result.columns.insert(result.columns.begin() + 7, "spans");
    for (const obs::SlowQueryRecord& slow : telemetry.RecentSlow(limit)) {
      Row row = record_row(slow.record);
      row.insert(row.begin() + 7,
                 Value::Int64(static_cast<int64_t>(slow.stats.spans.size())));
      result.rows.push_back(std::move(row));
    }
  } else {
    for (const obs::QueryRecord& record : telemetry.Recent(limit)) {
      result.rows.push_back(record_row(record));
    }
  }
  return result;
}

/// SHOW SESSIONS: every live session from the process-wide registry,
/// ordered by id — the shell's own session locally, one row per client
/// connection on a server.
QueryResult ShowSessions() {
  uint64_t now = obs::MonotonicNowNs();
  QueryResult result;
  result.columns = {"id",       "session",  "peer",     "state",
                    "statements", "errors", "bytes_in", "bytes_out",
                    "pipeline", "peak_out", "age",      "idle",
                    "last_statement"};
  for (const obs::SessionInfo& info : obs::SessionRegistry::Global().List()) {
    result.rows.push_back(Row{
        Value::Int64(static_cast<int64_t>(info.id)),
        Value::String(info.name),
        Value::String(info.peer),
        Value::String(info.state),
        Value::Int64(static_cast<int64_t>(info.statements)),
        Value::Int64(static_cast<int64_t>(info.errors)),
        Value::Int64(static_cast<int64_t>(info.bytes_in)),
        Value::Int64(static_cast<int64_t>(info.bytes_out)),
        Value::Int64(static_cast<int64_t>(info.pipeline_depth)),
        Value::Int64(static_cast<int64_t>(info.peak_write_buffer)),
        Value::String(obs::FormatNs(now - info.connected_ns)),
        Value::String(obs::FormatNs(now - info.last_active_ns)),
        Value::String(info.last_statement)});
  }
  return result;
}

/// SHOW WORKLOAD [LIMIT n]: the captured E/R access profile — one row
/// per entity set, relationship set, and touched attribute with their
/// access-path counters, then the query shapes ordered by weight
/// (accumulated wall time). LIMIT bounds the shape rows only; the
/// counter sections are bounded by the schema itself.
QueryResult ShowWorkload(const Query& query) {
  obs::WorkloadSnapshot snap = obs::WorkloadProfile::Global().Snapshot();
  size_t limit = query.show_limit >= 0
                     ? static_cast<size_t>(query.show_limit)
                     : std::numeric_limits<size_t>::max();
  QueryResult result;
  result.columns = {"section", "name", "detail"};
  auto add = [&](const char* section, std::string name, std::string detail) {
    result.rows.push_back(Row{Value::String(section),
                              Value::String(std::move(name)),
                              Value::String(std::move(detail))});
  };
  std::string summary = "profiled=" + std::to_string(snap.statements) +
                        " shapes=" + std::to_string(snap.shapes.size());
  if (!obs::WorkloadProfile::Global().enabled()) summary += " (disabled)";
  add("profile", "statements", std::move(summary));
  for (const auto& [name, e] : snap.entities) {
    add("entity", name,
        "scans=" + std::to_string(e.scans) +
            " probes=" + std::to_string(e.probes) +
            " join_sides=" + std::to_string(e.join_sides) +
            " inserts=" + std::to_string(e.inserts) +
            " deletes=" + std::to_string(e.deletes) +
            " updates=" + std::to_string(e.updates));
  }
  for (const auto& [name, r] : snap.relationships) {
    add("relationship", name,
        "joins=" + std::to_string(r.joins) +
            " fused_scans=" + std::to_string(r.fused_scans) +
            " inserts=" + std::to_string(r.inserts) +
            " deletes=" + std::to_string(r.deletes));
  }
  for (const auto& [name, a] : snap.attributes) {
    add("attribute", name,
        "predicates=" + std::to_string(a.predicates) +
            " projections=" + std::to_string(a.projections));
  }
  size_t shown = 0;
  for (const obs::WorkloadSnapshot::Shape& shape : snap.shapes) {
    if (shown++ >= limit) break;
    uint64_t mean = shape.count > 0 ? shape.total_wall_ns / shape.count : 0;
    add("shape", shape.shape,
        "count=" + std::to_string(shape.count) + " mean=" +
            obs::FormatNs(mean) + " total=" +
            obs::FormatNs(shape.total_wall_ns) + " kind=" + shape.kind);
  }
  return result;
}

/// TRACE [INTO '<file>'] SELECT …: compiles the inner query, runs it to
/// completion under an analyze window, and renders the collected span
/// tree as Chrome trace_event JSON — returned as a one-row result, or
/// written to the file with a confirmation row. The span tree is also
/// exported so the engine can feed the slow-query ring, and the traced
/// query's output cardinality lands in record->rows_out.
Result<QueryResult> TraceQuery(
    MappedDatabase* db, const Query& query, const std::string& text,
    const ExecOptions& opts, obs::QueryRecord* record,
    obs::QueryStats* stats_out, bool* have_stats,
    std::shared_ptr<obs::StatementFootprint>* footprint_out) {
  ERBIUM_ASSIGN_OR_RETURN(CompiledQuery compiled,
                          Translator::Translate(db, query, opts));
  if (compiled.footprint != nullptr) {
    if (compiled.footprint->shape.empty()) {
      compiled.footprint->shape = obs::NormalizeShape(text);
    }
    *footprint_out = compiled.footprint;
  }
  obs::ScopedAnalyze analyze_window;
  uint64_t start = obs::MonotonicNowNs();
  ERBIUM_ASSIGN_OR_RETURN(std::vector<Row> rows,
                          CollectRows(compiled.plan.get()));
  uint64_t total_wall = obs::MonotonicNowNs() - start;
  obs::QueryStats stats = CollectQueryStats(*compiled.plan);
  stats.total_wall_ns = total_wall;
  record->rows_out = rows.size();
  std::string json = obs::ExportChromeTrace(stats, text);
  size_t span_count = stats.spans.size();
  *stats_out = std::move(stats);
  *have_stats = true;
  QueryResult result;
  result.columns = {"trace"};
  if (query.trace_into.empty()) {
    result.rows.push_back(Row{Value::String(std::move(json))});
    return result;
  }
  std::ofstream file(query.trace_into, std::ios::binary | std::ios::trunc);
  if (!file) {
    return Status::InvalidArgument("cannot write trace file " +
                                   query.trace_into);
  }
  file << json << '\n';
  if (!file.good()) {
    return Status::Internal("failed writing trace file " + query.trace_into);
  }
  result.rows.push_back(Row{Value::String(
      "wrote " + query.trace_into + " (" + std::to_string(span_count) +
      " spans, wall=" + obs::FormatNs(total_wall) + ")")});
  return result;
}

/// Statement dispatch after parsing. `record` arrives with text/mapping/
/// threads filled; kind is set here, rows_out only by TRACE (the engine
/// fills it from the result for everything else). Statements that run a
/// plan under an analyze window export the span tree via `stats_out`.
/// A plain SELECT compiled here is checked into `cache` (when non-null)
/// under `query.cache_key`/`generation` after a successful run.
Result<QueryResult> ExecuteParsed(
    MappedDatabase* db, const Query& query, const std::string& text,
    const ExecOptions& opts, uint64_t start_wall_ns, obs::QueryRecord* record,
    obs::QueryStats* stats_out, bool* have_stats, PlanCache* cache,
    uint64_t generation,
    std::shared_ptr<obs::StatementFootprint>* footprint_out) {
  record->kind = StatementKindName(query);
  switch (query.statement) {
    case StatementKind::kShowMetrics:
      return ShowMetrics(query);
    case StatementKind::kShowQueries:
      return ShowQueries(query);
    case StatementKind::kShowSessions:
      return ShowSessions();
    case StatementKind::kShowWorkload:
      return ShowWorkload(query);
    case StatementKind::kExportWorkload: {
      std::string json = obs::WorkloadProfile::Global().ToJson();
      std::ofstream file(query.workload_path,
                         std::ios::binary | std::ios::trunc);
      if (!file) {
        return Status::InvalidArgument("cannot write workload snapshot " +
                                       query.workload_path);
      }
      file << json;
      if (!file.good()) {
        return Status::Internal("failed writing workload snapshot " +
                                query.workload_path);
      }
      QueryResult result;
      result.columns = {"export"};
      result.rows.push_back(Row{Value::String(
          "wrote " + query.workload_path + " (" +
          std::to_string(json.size()) + " bytes)")});
      return result;
    }
    case StatementKind::kLoadWorkload: {
      std::ifstream file(query.workload_path, std::ios::binary);
      if (!file) {
        return Status::InvalidArgument("cannot read workload snapshot " +
                                       query.workload_path);
      }
      std::ostringstream buffer;
      buffer << file.rdbuf();
      ERBIUM_RETURN_NOT_OK(
          obs::WorkloadProfile::Global().LoadJson(buffer.str()));
      obs::WorkloadSnapshot snap = obs::WorkloadProfile::Global().Snapshot();
      QueryResult result;
      result.columns = {"load"};
      result.rows.push_back(Row{Value::String(
          "loaded " + query.workload_path + " (" +
          std::to_string(snap.shapes.size()) + " shapes, " +
          std::to_string(snap.statements) + " statements)")});
      return result;
    }
    case StatementKind::kAdvise:
      // Costing candidate mappings needs the advisor (a layer above this
      // library) and the live database's owner.
      return Status::InvalidArgument(
          "ADVISE is handled by the host application (api::StatementRunner), "
          "not the query engine");
    case StatementKind::kTrace:
      return TraceQuery(db, query, text, opts, record, stats_out, have_stats,
                        footprint_out);
    case StatementKind::kCheckpoint: {
      DurabilityHook* hook = db->durability_hook();
      if (hook == nullptr) {
        return Status::InvalidArgument(
            "CHECKPOINT requires a durable database — ATTACH DATABASE "
            "'<dir>' first");
      }
      ERBIUM_ASSIGN_OR_RETURN(std::string summary, hook->Checkpoint());
      QueryResult result;
      result.columns = {"checkpoint"};
      result.rows.push_back(Row{Value::String(std::move(summary))});
      return result;
    }
    case StatementKind::kAttach:
      // Attaching replaces the whole database instance, which only the
      // owner of the MappedDatabase can do.
      return Status::InvalidArgument(
          "ATTACH DATABASE is handled by the host application (the shell), "
          "not the query engine");
    case StatementKind::kSelect:
      break;
  }
  ERBIUM_ASSIGN_OR_RETURN(CompiledQuery compiled,
                          Translator::Translate(db, query, opts));
  if (compiled.footprint != nullptr) {
    // Stamp the normalized shape once; the footprint (shape included) is
    // immutable from here on and rides along with cached plans.
    if (compiled.footprint->shape.empty()) {
      compiled.footprint->shape = obs::NormalizeShape(text);
    }
    *footprint_out = compiled.footprint;
  }
  if (compiled.explain != ExplainMode::kNone) {
    return ExplainQuery(&compiled, stats_out, have_stats);
  }
  ERBIUM_ASSIGN_OR_RETURN(std::vector<Row> rows,
                          CollectRows(compiled.plan.get()));
  // Slow-query capture: when the statement has already blown past the
  // slow threshold, walk the plan for its span tree while the plan is
  // still alive. Row counts are always populated; wall/cpu columns stay
  // zero unless an analyze window happened to be open. One extra clock
  // read per statement, never per row.
  uint64_t threshold = obs::QueryTelemetry::Global().slow_threshold_ns();
  if (obs::MonotonicNowNs() - start_wall_ns >= threshold) {
    *stats_out = CollectQueryStats(*compiled.plan);
    *have_stats = true;
  }
  QueryResult result;
  result.rows = std::move(rows);
  if (cache != nullptr) {
    // Keep the plan for the next execution of this statement; columns
    // are copied because the plan outlives this result.
    result.columns = compiled.columns;
    cache->CheckIn(query.cache_key, generation,
                   std::make_unique<CompiledQuery>(std::move(compiled)));
  } else {
    result.columns = std::move(compiled.columns);
  }
  return result;
}

/// QueryEngine::Execute and TryExecuteShort. With `short_only`, a
/// statement that is not a plain SELECT with a short plan in `cache`
/// (a parse error included) returns nullopt before anything is recorded.
std::optional<Result<QueryResult>> RunStatement(
    MappedDatabase* db, const std::string& text, const ExecOptions& opts,
    PlanCache* cache, uint64_t generation, bool short_only) {
  // Per-statement read snapshot: every operator Open below this frame
  // resolves its table/pair to one pinned version, so the whole
  // statement sees a single consistent database state no matter what
  // writers publish meanwhile.
  exec::ReadSnapshot snapshot_scope;
  uint64_t start_wall = obs::MonotonicNowNs();
  uint64_t start_cpu = obs::ThreadCpuNowNs();
  Result<Query> parsed = Parser::Parse(text);
  // Prepared-statement fast path: plain SELECTs are cached by their
  // literal-free key, so a hit binds this statement's WHERE literals
  // into the plan's parameter slots and skips translation.
  std::unique_ptr<CompiledQuery> cached;
  if (parsed.ok() && cache != nullptr &&
      parsed->statement == StatementKind::kSelect &&
      parsed->explain == ExplainMode::kNone) {
    cached = short_only
                 ? cache->CheckoutShort(parsed->cache_key, generation,
                                        opts.parallel_row_threshold)
                 : cache->Checkout(parsed->cache_key, generation);
  }
  if (short_only && cached == nullptr) return std::nullopt;

  obs::QueryRecord record;
  record.text = text;
  record.mapping = db->mapping().spec().name;
  record.threads = opts.num_threads;
  record.kind = "invalid";  // overwritten once the statement parses

  obs::QueryStats stats;
  bool have_stats = false;
  std::shared_ptr<obs::StatementFootprint> footprint;
  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    ERBIUM_RETURN_NOT_OK(parsed.status());
    Query& query = *parsed;
    if (cached == nullptr) {
      return ExecuteParsed(db, query, text, opts, start_wall, &record, &stats,
                           &have_stats, cache, generation, &footprint);
    }
    record.kind = "select";
    // The footprint was derived when this plan was first compiled; a
    // cache hit replays it into the workload profile for free.
    footprint = cached->footprint;
    // Equal keys carry equal slot markers, so the counts match.
    *cached->params = std::move(query.params);
    // A failed run drops the plan (`cached` dies on early return) —
    // only healthy plans go back in the pool.
    ERBIUM_ASSIGN_OR_RETURN(std::vector<Row> rows,
                            CollectRows(cached->plan.get()));
    uint64_t threshold = obs::QueryTelemetry::Global().slow_threshold_ns();
    if (obs::MonotonicNowNs() - start_wall >= threshold) {
      stats = CollectQueryStats(*cached->plan);
      have_stats = true;
    }
    QueryResult reused;
    reused.columns = cached->columns;
    reused.rows = std::move(rows);
    cache->CheckIn(query.cache_key, generation, std::move(cached));
    return reused;
  }();

  record.wall_ns = obs::MonotonicNowNs() - start_wall;
  record.cpu_ns = obs::ThreadCpuNowNs() - start_cpu;
  record.ok = result.ok();
  if (result.ok()) {
    if (record.rows_out == 0) record.rows_out = result->rows.size();
  } else {
    record.error = result.status().ToString();
  }
  if (have_stats && stats.total_wall_ns == 0) {
    stats.total_wall_ns = record.wall_ns;
  }
  // Feed the workload profiler with the E/R footprint + shape. Reuses
  // the wall time measured above — the profiler itself reads no clocks.
  if (result.ok()) {
    obs::WorkloadProfile::Global().RecordStatement(footprint.get(),
                                                   record.kind, text,
                                                   record.wall_ns);
  }
  obs::QueryTelemetry::Global().Record(std::move(record),
                                       have_stats ? &stats : nullptr);
  return result;
}

}  // namespace

Result<QueryResult> QueryEngine::Execute(MappedDatabase* db,
                                         const std::string& text,
                                         const ExecOptions& opts,
                                         PlanCache* cache,
                                         uint64_t generation) {
  return *RunStatement(db, text, opts, cache, generation,
                       /*short_only=*/false);
}

std::optional<Result<QueryResult>> QueryEngine::TryExecuteShort(
    MappedDatabase* db, const std::string& text, const ExecOptions& opts,
    PlanCache* cache, uint64_t generation) {
  if (cache == nullptr) return std::nullopt;
  return RunStatement(db, text, opts, cache, generation, /*short_only=*/true);
}

}  // namespace erql
}  // namespace erbium
