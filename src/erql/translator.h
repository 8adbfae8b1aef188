#ifndef ERBIUM_ERQL_TRANSLATOR_H_
#define ERBIUM_ERQL_TRANSLATOR_H_

#include <string>
#include <vector>

#include <memory>

#include "common/status.h"
#include "erql/ast.h"
#include "exec/operator.h"
#include "exec/parallel.h"
#include "mapping/database.h"
#include "obs/workload_profile.h"

namespace erbium {
namespace erql {

/// A bound, executable query: the physical plan plus output column names.
struct CompiledQuery {
  OperatorPtr plan;
  std::vector<std::string> columns;

  /// The statement parameters (WHERE literals, see Query::params) the
  /// plan's ParamExprs read. Heap-stable so the plan survives moves of
  /// this struct; Translate binds it to the query's own literals, and
  /// the engine overwrites it before each run of a cached plan.
  std::shared_ptr<std::vector<Value>> params;

  /// EXPLAIN support, filled by the translator when the query carried an
  /// EXPLAIN prefix and consumed by QueryEngine::Execute: the mapping's
  /// one-line summary plus one note per logical construct saying which
  /// physical structure it resolved to under the active mapping.
  ExplainMode explain = ExplainMode::kNone;
  std::string mapping_summary;
  std::vector<std::string> mapping_notes;

  /// E/R access footprint for the workload profiler, derived while
  /// planning (which entity/relationship sets the plan reaches and how).
  /// Shared so plan-cache hits replay it without copying; the engine
  /// stamps `footprint->shape` once after translation and treats it as
  /// immutable from then on.
  std::shared_ptr<obs::StatementFootprint> footprint;
};

/// Compiles a parsed ERQL query against a database's E/R schema and its
/// chosen physical mapping. This is the logical-data-independence layer:
/// the same Query compiles into different operator trees under different
/// mappings (index lookups vs. scans, extra joins vs. array reads,
/// unions over subclass tables vs. discriminator filters) while always
/// producing the same logical result.
///
/// Supported shapes (see Parser for the grammar):
///   - entity scans with attribute access (inherited attributes resolve
///     through the hierarchy; multi-valued attributes evaluate as arrays)
///   - relationship joins (`JOIN x ON <relationship>`), including weak
///     entities' identifying relationships, plus theta joins on
///     expressions (hash join when the predicate is an equi-conjunction)
///   - WHERE with per-alias predicate pushdown and full-key point
///     lookups through indexes
///   - aggregates (count/sum/avg/min/max/array_agg, DISTINCT) with
///     explicit or inferred GROUP BY; array_agg(struct(...)) builds
///     hierarchical outputs
///   - unnest(<array expr>) in the select list
///   - DISTINCT, ORDER BY over output columns, LIMIT
/// With opts.num_threads > 1, plans whose base-table scan volume crosses
/// opts.parallel_row_threshold get morsel-parallel operators (GatherOp /
/// ParallelHashAggregateOp from exec/parallel.h) above the per-alias scan
/// pipelines; smaller plans — and everything at num_threads == 1, the
/// default — compile to exactly the classic serial operator tree.
class Translator {
 public:
  static Result<CompiledQuery> Translate(
      MappedDatabase* db, const Query& query,
      const ExecOptions& opts = ExecOptions::Serial());
};

}  // namespace erql
}  // namespace erbium

#endif  // ERBIUM_ERQL_TRANSLATOR_H_
