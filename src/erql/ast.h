#ifndef ERBIUM_ERQL_AST_H_
#define ERBIUM_ERQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "common/value.h"

namespace erbium {
namespace erql {

/// Untyped expression AST produced by the parser; the translator binds it
/// against the E/R schema and the chosen mapping.
struct ExprAst;
using ExprAstPtr = std::shared_ptr<ExprAst>;

struct ExprAst {
  enum class Kind {
    kIdent,      // [qualifier.]name
    kLiteral,    // literal
    kBinary,     // op in {=,!=,<,<=,>,>=,+,-,*,/,%,and,or}
    kNot,        // NOT child
    kIsNull,     // child IS [NOT] NULL (negated)
    kInList,     // child IN (literals...) (negated for NOT IN)
    kFunction,   // name(children...) — scalar builtin or aggregate
    kStar,       // * (only inside count(*))
    kStruct,     // struct(name: expr, ...) for nested outputs
  };

  Kind kind;
  std::string qualifier;            // kIdent
  std::string name;                 // kIdent / kFunction
  Value literal;                    // kLiteral
  /// kLiteral read inside WHERE: its index in Query::params, else -1.
  int slot = -1;
  std::string op;                   // kBinary
  std::vector<ExprAstPtr> children;
  std::vector<std::string> field_names;  // kStruct
  std::vector<Value> in_values;     // kInList
  bool negated = false;             // kIsNull / kInList
  bool distinct = false;            // kFunction aggregates

  std::string ToString() const;
};

struct SelectItem {
  ExprAstPtr expr;
  std::string alias;  // empty -> derived name
};

struct FromItem {
  std::string entity;
  std::string alias;  // defaults to entity name
};

struct JoinClause {
  FromItem item;
  /// Exactly one of relationship / on_expr is set: `JOIN x ON <name>`
  /// joins through the named relationship set (or a weak entity's
  /// identifying relationship); `JOIN x ON <expr>` is a theta join.
  std::string relationship;
  ExprAstPtr on_expr;
};

struct OrderItem {
  ExprAstPtr expr;
  bool ascending = true;
};

/// EXPLAIN prefix: kPlan prints the physical plan plus the active
/// mapping's choices without executing; kAnalyze also runs the query and
/// annotates every operator with collected row counts and timings.
enum class ExplainMode { kNone, kPlan, kAnalyze };

/// What a parsed statement is. Beyond SELECT the dialect carries the
/// telemetry introspection statements:
///   SHOW METRICS [LIKE '<glob>']   — the process metrics registry
///   SHOW QUERIES [SLOW] [LIMIT n]  — the query log / slow-query ring
///   SHOW SESSIONS                  — live client sessions (shell, server
///                                    connections) from the session registry
///   TRACE [INTO '<file>'] SELECT … — run under analyze, emit Chrome trace
/// the durability statements:
///   CHECKPOINT                     — snapshot + WAL truncate (needs a
///                                    durable database attached)
///   ATTACH DATABASE '<dir>'        — bind the session to an on-disk
///                                    directory (handled by the host
///                                    application, not the engine)
/// and the workload-profiler statements:
///   SHOW WORKLOAD [LIMIT n]        — captured E/R access profile (LIMIT
///                                    bounds the query-shape rows)
///   EXPORT WORKLOAD INTO '<file>'  — write the profile as a JSON snapshot
///   LOAD WORKLOAD FROM '<file>'    — replace the profile from a snapshot
///   ADVISE [LIMIT n]               — cost candidate mappings against the
///                                    captured workload (handled by the
///                                    host application, like ATTACH)
enum class StatementKind {
  kSelect,
  kShowMetrics,
  kShowQueries,
  kShowSessions,
  kShowWorkload,
  kTrace,
  kCheckpoint,
  kAttach,
  kExportWorkload,
  kLoadWorkload,
  kAdvise,
};

/// One parsed ERQL SELECT query (paper Figure 1(iii) dialect): SQL with
/// relationship joins, nested outputs via struct()/array_agg, unnest in
/// the select list, and GROUP BY inference.
struct Query {
  StatementKind statement = StatementKind::kSelect;
  /// SHOW METRICS LIKE glob; empty matches everything.
  std::string show_like;
  /// SHOW QUERIES SLOW reads the slow-query ring instead of the log.
  bool show_slow = false;
  /// SHOW QUERIES LIMIT n; -1 -> no limit.
  int64_t show_limit = -1;
  /// TRACE INTO '<file>': where to write the Chrome trace JSON; empty
  /// returns it as result rows. For kTrace the SELECT fields below
  /// describe the traced query.
  std::string trace_into;
  /// ATTACH DATABASE '<dir>': the database directory.
  std::string attach_path;
  /// EXPORT WORKLOAD INTO / LOAD WORKLOAD FROM: the snapshot file path.
  std::string workload_path;

  ExplainMode explain = ExplainMode::kNone;
  bool distinct = false;
  std::vector<SelectItem> select;
  FromItem from;
  std::vector<JoinClause> joins;
  ExprAstPtr where;                   // may be null
  std::vector<ExprAstPtr> group_by;   // empty -> inferred
  bool explicit_group_by = false;
  std::vector<OrderItem> order_by;
  int64_t limit = -1;                 // -1 -> none

  /// Plan-cache key: the consumed tokens, one space apart and without a
  /// trailing ';', with every integer, float or string literal read
  /// inside WHERE replaced by a typed marker (?i, ?f, ?s). Everything
  /// else — identifiers in their original case, select list, JOIN ON,
  /// GROUP BY, ORDER BY, LIMIT, IN lists, array literals, true/false/
  /// null — stays verbatim, and verbatim strings are re-quoted, so a
  /// marker never collides with literal text.
  std::string cache_key;
  /// The replaced WHERE literals in order; ExprAst::slot indexes them.
  std::vector<Value> params;
};

}  // namespace erql
}  // namespace erbium

#endif  // ERBIUM_ERQL_AST_H_
