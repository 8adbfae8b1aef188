#ifndef ERBIUM_ERQL_QUERY_ENGINE_H_
#define ERBIUM_ERQL_QUERY_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "erql/plan_cache.h"
#include "erql/translator.h"
#include "mapping/database.h"

namespace erbium {
namespace erql {

/// Materialized query output.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;

  /// Pretty-prints as a bordered text table (examples / debugging).
  std::string ToTable(size_t max_rows = 20) const;

  /// Deterministic rendering for equivalence checks: rows sorted, arrays
  /// within cells sorted.
  std::string ToCanonicalString() const;
};

/// Facade over parse + translate + execute.
///
/// Both entry points take ExecOptions, defaulting to ExecOptions::Default()
/// (num_threads from ERBIUM_THREADS or the hardware concurrency). Pass
/// ExecOptions::Serial() — or set num_threads = 1 — for exactly the
/// classic single-threaded plans; either way, plans below the parallel
/// row threshold stay serial (see exec/parallel.h).
///
/// Every Execute() call — SELECT, EXPLAIN, SHOW, TRACE, and failures —
/// records a QueryRecord into obs::QueryTelemetry::Global() (query text,
/// kind, mapping, wall/cpu time, rows, status) and feeds the per-mapping
/// and per-kind latency histograms; statements slower than the telemetry
/// slow threshold additionally capture their span tree into the
/// slow-query ring. Introspection is reachable from the dialect itself:
/// SHOW METRICS [LIKE '<glob>'], SHOW QUERIES [SLOW] [LIMIT n], and
/// TRACE [INTO '<file>'] SELECT … (runs under an analyze window and
/// emits Chrome trace_event JSON, see obs/export.h).
class QueryEngine {
 public:
  /// Compiles a query without running it (plan inspection, benchmarks
  /// that amortize compilation). The plan comes bound to the statement's
  /// own literals, ready to Open(). Only SELECT statements compile to
  /// plans; SHOW/TRACE statements are rejected here — Execute() them.
  /// Does not touch the query log.
  static Result<CompiledQuery> Compile(
      MappedDatabase* db, const std::string& text,
      const ExecOptions& opts = ExecOptions::Default());

  /// Parses, compiles, executes, and materializes.
  ///
  /// With a non-null `cache`, plain SELECTs (no EXPLAIN/TRACE) first try
  /// to check a compiled plan out of the cache under their literal-free
  /// key (Query::cache_key) and `generation` — a hit binds the
  /// statement's WHERE literals into the plan's parameter slots and
  /// skips translation — and check the plan back in after a successful
  /// run (a failed run drops it). A miss compiles the already-parsed
  /// statement. The caller owns the generation counter and must bump it
  /// whenever the database the plans are bound to is rebuilt
  /// (DDL/REMAP/ATTACH); it must also ensure no
  /// writer mutates the database while a checked-out plan executes (the
  /// statement lock in api::StatementRunner provides both). All cached
  /// executions must share one ExecOptions value: plan shape depends on
  /// it, and the cache key does not include it.
  static Result<QueryResult> Execute(
      MappedDatabase* db, const std::string& text,
      const ExecOptions& opts = ExecOptions::Default(),
      PlanCache* cache = nullptr, uint64_t generation = 0);

  /// Execute() restricted to plain SELECTs whose plan `cache` already
  /// holds and that is short (IsShortPlan, exec/parallel.h, against
  /// opts.parallel_row_threshold, on the tables' sizes now): for a host
  /// thread that must not stall on a long statement. Any other
  /// statement, a parse error included, returns nullopt having recorded
  /// nothing (no telemetry, no plan-cache hit or miss), so the host can
  /// hand it to Execute() elsewhere and have it counted once.
  static std::optional<Result<QueryResult>> TryExecuteShort(
      MappedDatabase* db, const std::string& text, const ExecOptions& opts,
      PlanCache* cache, uint64_t generation);
};

}  // namespace erql
}  // namespace erbium

#endif  // ERBIUM_ERQL_QUERY_ENGINE_H_
