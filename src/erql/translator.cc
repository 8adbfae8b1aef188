#include "erql/translator.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "common/string_util.h"
#include "exec/aggregate.h"
#include "exec/join.h"
#include "exec/sort.h"

namespace erbium {
namespace erql {

namespace {

bool IsAggregateName(const std::string& name) {
  return name == "count" || name == "sum" || name == "avg" ||
         name == "min" || name == "max" || name == "array_agg";
}

/// One visible source of columns during translation: an entity alias or
/// the pseudo-alias of a joined relationship's attribute columns.
struct AliasInfo {
  std::string alias;
  std::string entity;  // empty for relationship pseudo-aliases
  std::vector<std::string> key_names;
  // Attribute/column name -> absolute position in the current plan row.
  std::map<std::string, int> columns;
};

struct Scope {
  std::vector<AliasInfo> aliases;
  int width = 0;

  AliasInfo* Find(const std::string& alias) {
    for (AliasInfo& info : aliases) {
      if (EqualsIgnoreCase(info.alias, alias)) return &info;
    }
    return nullptr;
  }

  /// Resolves an identifier to a position. Unqualified names must be
  /// unambiguous across aliases.
  Result<int> Resolve(const ExprAst& ident) {
    if (!ident.qualifier.empty()) {
      AliasInfo* info = Find(ident.qualifier);
      if (info == nullptr) {
        return Status::AnalysisError("unknown alias " + ident.qualifier);
      }
      auto it = info->columns.find(ident.name);
      if (it == info->columns.end()) {
        return Status::AnalysisError("alias " + ident.qualifier +
                                     " has no attribute " + ident.name);
      }
      return it->second;
    }
    int found = -1;
    for (AliasInfo& info : aliases) {
      auto it = info.columns.find(ident.name);
      if (it != info.columns.end()) {
        if (found >= 0 && it->second != found) {
          return Status::AnalysisError("ambiguous column " + ident.name);
        }
        found = it->second;
      }
    }
    if (found < 0) {
      return Status::AnalysisError("unknown column " + ident.name);
    }
    return found;
  }
};

/// Collects alias references of an expression (empty qualifier entries
/// resolved against `scope_entities`: alias -> set of visible names).
struct NeededAttrs {
  // alias -> attrs referenced
  std::map<std::string, std::set<std::string>> by_alias;
};

/// Splits a predicate into top-level AND conjuncts.
void SplitConjuncts(const ExprAstPtr& ast, std::vector<ExprAstPtr>* out) {
  if (ast == nullptr) return;
  if (ast->kind == ExprAst::Kind::kBinary && ast->op == "and") {
    SplitConjuncts(ast->children[0], out);
    SplitConjuncts(ast->children[1], out);
    return;
  }
  out->push_back(ast);
}

std::string DeriveName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprAst::Kind::kIdent) return item.expr->name;
  if (item.expr->kind == ExprAst::Kind::kFunction) return item.expr->name;
  return std::string("col") + std::to_string(index + 1);
}

/// The final projection over an aggregate's output: one position + name
/// per select item.
struct AggProjection {
  std::vector<int> positions;
  std::vector<std::string> names;
};

Result<AggProjection> ComputeAggProjection(
    const Query& query, const std::vector<ExprAstPtr>& group_asts) {
  AggProjection out;
  size_t group_index = 0;
  size_t agg_index = group_asts.size();
  // Map non-aggregate items to their group column. With explicit GROUP
  // BY, match by printed form.
  for (size_t i = 0; i < query.select.size(); ++i) {
    const SelectItem& item = query.select[i];
    std::string name = DeriveName(item, i);
    bool aggregate = item.expr->kind == ExprAst::Kind::kFunction &&
                     IsAggregateName(item.expr->name);
    int position;
    if (aggregate) {
      position = static_cast<int>(agg_index++);
    } else if (!query.explicit_group_by) {
      position = static_cast<int>(group_index++);
    } else {
      position = -1;
      for (size_t g = 0; g < group_asts.size(); ++g) {
        if (group_asts[g]->ToString() == item.expr->ToString()) {
          position = static_cast<int>(g);
          break;
        }
      }
      if (position < 0) {
        return Status::AnalysisError(
            "select item '" + item.expr->ToString() +
            "' is neither aggregated nor in GROUP BY");
      }
    }
    out.positions.push_back(position);
    out.names.push_back(std::move(name));
  }
  return out;
}

/// Distinct / ORDER BY / LIMIT above the projected stream.
Result<OperatorPtr> FinishQueryTail(OperatorPtr plan,
                                    const std::vector<std::string>& output_names,
                                    const Query& query) {
  if (query.distinct) {
    plan = std::make_unique<DistinctOp>(std::move(plan));
  }
  if (!query.order_by.empty()) {
    // ORDER BY binds against the output columns (by name) only.
    std::vector<SortKey> keys;
    for (const OrderItem& item : query.order_by) {
      if (item.expr->kind != ExprAst::Kind::kIdent ||
          !item.expr->qualifier.empty()) {
        return Status::AnalysisError(
            "ORDER BY supports output column names only");
      }
      int position = -1;
      for (size_t i = 0; i < output_names.size(); ++i) {
        if (EqualsIgnoreCase(output_names[i], item.expr->name)) {
          position = static_cast<int>(i);
        }
      }
      if (position < 0) {
        return Status::AnalysisError("ORDER BY references unknown column " +
                                     item.expr->name);
      }
      keys.push_back(
          SortKey{MakeColumnRef(position, item.expr->name), item.ascending});
    }
    plan = std::make_unique<SortOp>(std::move(plan), std::move(keys));
  }
  if (query.limit >= 0) {
    plan = std::make_unique<LimitOp>(std::move(plan),
                                     static_cast<size_t>(query.limit));
  }
  return plan;
}

class TranslatorImpl {
 public:
  TranslatorImpl(MappedDatabase* db, const Query& query,
                 const ExecOptions& opts)
      : db_(db),
        query_(query),
        opts_(opts),
        params_(std::make_shared<std::vector<Value>>(query.params)) {}

  Result<CompiledQuery> Run();

  /// The plan's parameter block, bound to the query's own literals.
  std::shared_ptr<std::vector<Value>> params() const { return params_; }

 private:
  struct AliasDecl {
    std::string alias;
    std::string entity;
    std::vector<std::string> key_names;
    std::set<std::string> visible;  // attrs + key names
    std::vector<std::string> needed;  // non-key attrs used by the query
  };

  Status CollectAliases();
  Status CollectIdent(const ExprAst& ast);
  Status CollectNeeded(const ExprAst& ast);
  Result<AliasDecl*> ResolveAlias(const std::string& qualifier,
                                  const std::string& attr);

  // Workload-profile footprint assembly: which entity/relationship sets
  // the plan reaches (and how), plus per-attribute predicate/projection
  // touches. Derived while planning so plan-cache hits replay it free.
  void TouchEntity(const std::string& entity, obs::EntityPath path);
  void TouchRelationship(const std::string& relationship, bool fused);
  Status CollectAttrTouches(const ExprAst& ast, bool predicate);
  Status CollectFootprintAttrs();

  /// Builds the base plan for one alias, applying its pushed-down
  /// conjuncts (and a key lookup when they pin the full key).
  /// `join_side` marks aliases brought in by a JOIN for the footprint.
  Result<OperatorPtr> BuildAliasPlan(AliasDecl* decl,
                                     std::vector<ExprAstPtr> conjuncts,
                                     AliasInfo* info_out, bool join_side);

  Result<ExprPtr> Bind(const ExprAst& ast, Scope* scope);

  /// A literal AST node as an expression: a WHERE slot reads the
  /// parameter block, any other literal is a constant.
  ExprPtr BindLiteral(const ExprAst& literal) const;

  /// Aliases referenced by an expression (resolved).
  Status ReferencedAliases(const ExprAst& ast, std::set<std::string>* out);

  MappedDatabase* db_;
  const Query& query_;
  ExecOptions opts_;
  std::shared_ptr<std::vector<Value>> params_;
  std::vector<AliasDecl> decls_;
  obs::StatementFootprint footprint_;
  std::set<std::string> attr_touches_seen_;
};

Status TranslatorImpl::CollectAliases() {
  auto add = [&](const FromItem& item) -> Status {
    const EntitySetDef* def = db_->schema().FindEntitySet(item.entity);
    if (def == nullptr) {
      return Status::AnalysisError("unknown entity set " + item.entity);
    }
    for (const AliasDecl& decl : decls_) {
      if (EqualsIgnoreCase(decl.alias, item.alias)) {
        return Status::AnalysisError("duplicate alias " + item.alias);
      }
    }
    AliasDecl decl;
    decl.alias = item.alias;
    decl.entity = item.entity;
    ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> key,
                            db_->schema().FullKey(item.entity));
    // Weak entities: full key includes owner key columns.
    {
      const EntitySetDef* e = db_->schema().FindEntitySet(item.entity);
      if (e->weak) {
        // FullKey already includes owner's key + partial key.
      }
    }
    decl.key_names = key;
    for (const std::string& k : key) decl.visible.insert(k);
    ERBIUM_ASSIGN_OR_RETURN(std::vector<AttributeDef> attrs,
                            db_->schema().AllAttributes(item.entity));
    for (const AttributeDef& attr : attrs) decl.visible.insert(attr.name);
    decls_.push_back(std::move(decl));
    return Status::OK();
  };
  ERBIUM_RETURN_NOT_OK(add(query_.from));
  for (const JoinClause& join : query_.joins) {
    ERBIUM_RETURN_NOT_OK(add(join.item));
  }
  return Status::OK();
}

Result<TranslatorImpl::AliasDecl*> TranslatorImpl::ResolveAlias(
    const std::string& qualifier, const std::string& attr) {
  if (!qualifier.empty()) {
    for (AliasDecl& decl : decls_) {
      if (EqualsIgnoreCase(decl.alias, qualifier)) return &decl;
    }
    // Relationship attribute qualifiers are resolved at bind time.
    return static_cast<AliasDecl*>(nullptr);
  }
  AliasDecl* found = nullptr;
  for (AliasDecl& decl : decls_) {
    if (decl.visible.count(attr) > 0) {
      if (found != nullptr) {
        return Status::AnalysisError("ambiguous column " + attr);
      }
      found = &decl;
    }
  }
  return found;  // may be null: relationship attrs resolve later
}

Status TranslatorImpl::CollectIdent(const ExprAst& ast) {
  ERBIUM_ASSIGN_OR_RETURN(AliasDecl * decl,
                          ResolveAlias(ast.qualifier, ast.name));
  if (decl == nullptr) return Status::OK();
  bool is_key = std::find(decl->key_names.begin(), decl->key_names.end(),
                          ast.name) != decl->key_names.end();
  if (!is_key && decl->visible.count(ast.name) > 0) {
    if (std::find(decl->needed.begin(), decl->needed.end(), ast.name) ==
        decl->needed.end()) {
      decl->needed.push_back(ast.name);
    }
  }
  return Status::OK();
}

Status TranslatorImpl::CollectNeeded(const ExprAst& ast) {
  if (ast.kind == ExprAst::Kind::kIdent) return CollectIdent(ast);
  for (const ExprAstPtr& child : ast.children) {
    ERBIUM_RETURN_NOT_OK(CollectNeeded(*child));
  }
  return Status::OK();
}

void TranslatorImpl::TouchEntity(const std::string& entity,
                                 obs::EntityPath path) {
  footprint_.entities.push_back({entity, path});
}

void TranslatorImpl::TouchRelationship(const std::string& relationship,
                                       bool fused) {
  footprint_.relationships.push_back({relationship, fused});
}

Status TranslatorImpl::CollectAttrTouches(const ExprAst& ast, bool predicate) {
  if (ast.kind == ExprAst::Kind::kIdent) {
    // Ambiguity and unknown-column errors are reported by the real
    // analysis passes; the footprint records only what resolves cleanly.
    Result<AliasDecl*> resolved = ResolveAlias(ast.qualifier, ast.name);
    if (!resolved.ok() || *resolved == nullptr) return Status::OK();
    AliasDecl* decl = *resolved;
    if (decl->visible.count(ast.name) == 0) return Status::OK();
    std::string seen =
        (predicate ? "p|" : "o|") + decl->entity + "|" + ast.name;
    if (attr_touches_seen_.insert(std::move(seen)).second) {
      footprint_.attributes.push_back({decl->entity, ast.name, predicate});
    }
    return Status::OK();
  }
  for (const ExprAstPtr& child : ast.children) {
    ERBIUM_RETURN_NOT_OK(CollectAttrTouches(*child, predicate));
  }
  return Status::OK();
}

Status TranslatorImpl::CollectFootprintAttrs() {
  for (const SelectItem& item : query_.select) {
    ERBIUM_RETURN_NOT_OK(CollectAttrTouches(*item.expr, /*predicate=*/false));
  }
  for (const ExprAstPtr& g : query_.group_by) {
    ERBIUM_RETURN_NOT_OK(CollectAttrTouches(*g, /*predicate=*/false));
  }
  for (const OrderItem& item : query_.order_by) {
    ERBIUM_RETURN_NOT_OK(CollectAttrTouches(*item.expr, /*predicate=*/false));
  }
  if (query_.where) {
    ERBIUM_RETURN_NOT_OK(CollectAttrTouches(*query_.where, /*predicate=*/true));
  }
  for (const JoinClause& join : query_.joins) {
    if (join.on_expr) {
      ERBIUM_RETURN_NOT_OK(
          CollectAttrTouches(*join.on_expr, /*predicate=*/true));
    }
  }
  return Status::OK();
}

Status TranslatorImpl::ReferencedAliases(const ExprAst& ast,
                                         std::set<std::string>* out) {
  if (ast.kind == ExprAst::Kind::kIdent) {
    ERBIUM_ASSIGN_OR_RETURN(AliasDecl * decl,
                            ResolveAlias(ast.qualifier, ast.name));
    if (decl != nullptr) {
      out->insert(decl->alias);
    } else if (!ast.qualifier.empty()) {
      out->insert(ast.qualifier);  // relationship pseudo-alias
    } else {
      out->insert("");  // unresolved bare name (relationship attr)
    }
    return Status::OK();
  }
  for (const ExprAstPtr& child : ast.children) {
    ERBIUM_RETURN_NOT_OK(ReferencedAliases(*child, out));
  }
  return Status::OK();
}

Result<ExprPtr> TranslatorImpl::Bind(const ExprAst& ast, Scope* scope) {
  switch (ast.kind) {
    case ExprAst::Kind::kIdent: {
      ERBIUM_ASSIGN_OR_RETURN(int position, scope->Resolve(ast));
      return MakeColumnRef(position, ast.ToString());
    }
    case ExprAst::Kind::kLiteral:
      return BindLiteral(ast);
    case ExprAst::Kind::kBinary: {
      ERBIUM_ASSIGN_OR_RETURN(ExprPtr left, Bind(*ast.children[0], scope));
      ERBIUM_ASSIGN_OR_RETURN(ExprPtr right, Bind(*ast.children[1], scope));
      if (ast.op == "and") return MakeAnd(std::move(left), std::move(right));
      if (ast.op == "or") return MakeOr(std::move(left), std::move(right));
      static const std::map<std::string, CompareOp> kCompare = {
          {"=", CompareOp::kEq},  {"!=", CompareOp::kNe},
          {"<", CompareOp::kLt},  {"<=", CompareOp::kLe},
          {">", CompareOp::kGt},  {">=", CompareOp::kGe}};
      auto cmp = kCompare.find(ast.op);
      if (cmp != kCompare.end()) {
        return MakeCompare(cmp->second, std::move(left), std::move(right));
      }
      static const std::map<std::string, ArithmeticOp> kArith = {
          {"+", ArithmeticOp::kAdd}, {"-", ArithmeticOp::kSub},
          {"*", ArithmeticOp::kMul}, {"/", ArithmeticOp::kDiv},
          {"%", ArithmeticOp::kMod}};
      auto arith = kArith.find(ast.op);
      if (arith != kArith.end()) {
        return MakeArithmetic(arith->second, std::move(left),
                              std::move(right));
      }
      return Status::AnalysisError("unknown operator " + ast.op);
    }
    case ExprAst::Kind::kNot: {
      ERBIUM_ASSIGN_OR_RETURN(ExprPtr child, Bind(*ast.children[0], scope));
      return MakeNot(std::move(child));
    }
    case ExprAst::Kind::kIsNull: {
      ERBIUM_ASSIGN_OR_RETURN(ExprPtr child, Bind(*ast.children[0], scope));
      return ExprPtr(
          std::make_shared<IsNullExpr>(std::move(child), ast.negated));
    }
    case ExprAst::Kind::kInList: {
      ERBIUM_ASSIGN_OR_RETURN(ExprPtr child, Bind(*ast.children[0], scope));
      ExprPtr in = MakeInList(std::move(child), ast.in_values);
      return ast.negated ? MakeNot(std::move(in)) : in;
    }
    case ExprAst::Kind::kFunction: {
      if (IsAggregateName(ast.name)) {
        return Status::AnalysisError(
            "aggregate " + ast.name +
            " is only allowed as a top-level select item");
      }
      if (ast.name == "unnest") {
        return Status::AnalysisError(
            "unnest is only allowed as a top-level select item");
      }
      ERBIUM_ASSIGN_OR_RETURN(BuiltinFn fn,
                              FunctionExpr::FunctionByName(ast.name));
      std::vector<ExprPtr> args;
      for (const ExprAstPtr& child : ast.children) {
        ERBIUM_ASSIGN_OR_RETURN(ExprPtr arg, Bind(*child, scope));
        args.push_back(std::move(arg));
      }
      return MakeFunction(fn, std::move(args));
    }
    case ExprAst::Kind::kStar:
      return Status::AnalysisError("* is only allowed inside count(*)");
    case ExprAst::Kind::kStruct: {
      std::vector<ExprPtr> fields;
      for (const ExprAstPtr& child : ast.children) {
        ERBIUM_ASSIGN_OR_RETURN(ExprPtr field, Bind(*child, scope));
        fields.push_back(std::move(field));
      }
      return ExprPtr(
          std::make_shared<MakeStructExpr>(ast.field_names, fields));
    }
  }
  return Status::Internal("unreachable expression kind");
}

ExprPtr TranslatorImpl::BindLiteral(const ExprAst& literal) const {
  if (literal.slot < 0) return MakeLiteral(literal.literal);
  return std::make_shared<ParamExpr>(params_,
                                     static_cast<size_t>(literal.slot));
}

Result<OperatorPtr> TranslatorImpl::BuildAliasPlan(
    AliasDecl* decl, std::vector<ExprAstPtr> conjuncts, AliasInfo* info_out,
    bool join_side) {
  // Detect a full-key point lookup: equality conjuncts ident = literal
  // (or literal = ident) covering every key attribute. The choice looks
  // only at where literals are, never at their values, so a cached plan
  // stays right for every value bound into its slots.
  std::map<std::string, const ExprAst*> pinned;
  std::vector<bool> consumed(conjuncts.size(), false);
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const ExprAst& c = *conjuncts[i];
    if (c.kind != ExprAst::Kind::kBinary || c.op != "=") continue;
    const ExprAst* ident = nullptr;
    const ExprAst* literal = nullptr;
    for (int side : {0, 1}) {
      if (c.children[side]->kind == ExprAst::Kind::kIdent &&
          c.children[1 - side]->kind == ExprAst::Kind::kLiteral) {
        ident = c.children[side].get();
        literal = c.children[1 - side].get();
      }
    }
    if (ident == nullptr) continue;
    bool is_key = std::find(decl->key_names.begin(), decl->key_names.end(),
                            ident->name) != decl->key_names.end();
    if (is_key && pinned.count(ident->name) == 0) {
      pinned.emplace(ident->name, literal);
      consumed[i] = true;
    }
  }
  OperatorPtr plan;
  bool point_lookup = pinned.size() == decl->key_names.size() &&
                      !decl->key_names.empty();
  TouchEntity(decl->entity, join_side       ? obs::EntityPath::kJoinSide
                            : point_lookup ? obs::EntityPath::kProbe
                                           : obs::EntityPath::kScan);
  if (point_lookup) {
    std::vector<ExprPtr> key;
    for (const std::string& name : decl->key_names) {
      key.push_back(BindLiteral(*pinned.at(name)));
    }
    ERBIUM_ASSIGN_OR_RETURN(
        plan, db_->LookupEntity(decl->entity, key, decl->needed));
  } else {
    ERBIUM_ASSIGN_OR_RETURN(plan, db_->ScanEntity(decl->entity, decl->needed));
    std::fill(consumed.begin(), consumed.end(), false);
  }
  // Local scope of this alias's output.
  AliasInfo info;
  info.alias = decl->alias;
  info.entity = decl->entity;
  info.key_names = decl->key_names;
  int position = 0;
  for (const std::string& k : decl->key_names) info.columns[k] = position++;
  for (const std::string& a : decl->needed) info.columns[a] = position++;
  // Apply remaining single-alias conjuncts.
  Scope local;
  local.aliases.push_back(info);
  local.width = position;
  std::vector<ExprPtr> bound;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (consumed[i]) continue;
    ERBIUM_ASSIGN_OR_RETURN(ExprPtr e, Bind(*conjuncts[i], &local));
    bound.push_back(std::move(e));
  }
  if (ExprPtr predicate = ConjoinAll(std::move(bound))) {
    plan = std::make_unique<FilterOp>(std::move(plan), std::move(predicate));
  }
  *info_out = std::move(info);
  return plan;
}

Result<CompiledQuery> TranslatorImpl::Run() {
  ERBIUM_RETURN_NOT_OK(CollectAliases());
  ERBIUM_RETURN_NOT_OK(CollectFootprintAttrs());

  // ---- Unnest fast path --------------------------------------------------
  // SELECT <key attrs...>, unnest(<mv attr>) FROM E [WHERE <key-only>]:
  // under separate-table storage the side table *is* the unnested form,
  // so scan it directly instead of assembling arrays and re-expanding
  // them (the optimization PostgreSQL gets for free on the normalized
  // mapping; essential for the paper's E2 comparison).
  if (query_.joins.empty() && !query_.distinct && !query_.explicit_group_by &&
      query_.order_by.empty() && decls_.size() == 1) {
    AliasDecl& decl = decls_[0];
    int unnest_items = 0;
    std::string mv_attr;
    bool eligible = true;
    for (const SelectItem& item : query_.select) {
      const ExprAst& e = *item.expr;
      if (e.kind == ExprAst::Kind::kFunction && e.name == "unnest" &&
          e.children.size() == 1 &&
          e.children[0]->kind == ExprAst::Kind::kIdent) {
        ++unnest_items;
        mv_attr = e.children[0]->name;
        continue;
      }
      if (e.kind == ExprAst::Kind::kIdent &&
          std::find(decl.key_names.begin(), decl.key_names.end(), e.name) !=
              decl.key_names.end()) {
        continue;
      }
      eligible = false;
      break;
    }
    if (eligible && unnest_items == 1) {
      // The where clause may only touch key attributes or the element.
      std::vector<ExprAstPtr> conjuncts;
      SplitConjuncts(query_.where, &conjuncts);
      for (const ExprAstPtr& c : conjuncts) {
        std::set<std::string> refs;
        std::function<void(const ExprAst&)> collect =
            [&](const ExprAst& ast) {
              if (ast.kind == ExprAst::Kind::kIdent) refs.insert(ast.name);
              for (const ExprAstPtr& child : ast.children) collect(*child);
            };
        collect(*c);
        for (const std::string& name : refs) {
          if (std::find(decl.key_names.begin(), decl.key_names.end(),
                        name) == decl.key_names.end()) {
            eligible = false;
          }
        }
      }
      ERBIUM_ASSIGN_OR_RETURN(std::vector<AttributeDef> visible_attrs,
                              db_->schema().AllAttributes(decl.entity));
      const AttributeDef* attr_def = FindAttribute(visible_attrs, mv_attr);
      if (eligible && attr_def != nullptr && attr_def->multi_valued) {
        TouchEntity(decl.entity, obs::EntityPath::kScan);
        ERBIUM_ASSIGN_OR_RETURN(OperatorPtr plan,
                                db_->ScanMultiValued(decl.entity, mv_attr));
        // Scope over the stream: key columns then the element column.
        Scope scope;
        AliasInfo info;
        info.alias = decl.alias;
        info.entity = decl.entity;
        info.key_names = decl.key_names;
        for (size_t i = 0; i < plan->output_columns().size(); ++i) {
          info.columns[plan->output_columns()[i].name] =
              static_cast<int>(i);
        }
        scope.aliases.push_back(info);
        scope.width = static_cast<int>(plan->output_columns().size());
        if (query_.where) {
          ERBIUM_ASSIGN_OR_RETURN(ExprPtr predicate,
                                  Bind(*query_.where, &scope));
          plan = std::make_unique<FilterOp>(std::move(plan),
                                            std::move(predicate));
        }
        std::vector<ExprPtr> out_exprs;
        std::vector<Column> out_cols;
        std::vector<std::string> names;
        for (size_t i = 0; i < query_.select.size(); ++i) {
          const SelectItem& item = query_.select[i];
          const ExprAst& e = *item.expr;
          std::string source = e.kind == ExprAst::Kind::kIdent
                                   ? e.name
                                   : mv_attr;  // the unnest item
          std::string name = !item.alias.empty() ? item.alias : source;
          auto it = info.columns.find(source);
          if (it == info.columns.end()) {
            return Status::Internal("fast path missed column " + source);
          }
          out_cols.push_back(Column{name, Type::Null(), true});
          out_exprs.push_back(MakeColumnRef(it->second, name));
          names.push_back(name);
        }
        plan = std::make_unique<ProjectOp>(std::move(plan),
                                           std::move(out_cols),
                                           std::move(out_exprs));
        plan = MaybeParallelGather(std::move(plan), opts_);
        if (query_.limit >= 0) {
          plan = std::make_unique<LimitOp>(
              std::move(plan), static_cast<size_t>(query_.limit));
        }
        CompiledQuery compiled;
        compiled.plan = std::move(plan);
        compiled.columns = std::move(names);
        compiled.footprint =
            std::make_shared<obs::StatementFootprint>(std::move(footprint_));
        return compiled;
      }
    }
  }

  // Gather per-alias attribute needs from every expression in the query.
  for (const SelectItem& item : query_.select) {
    ERBIUM_RETURN_NOT_OK(CollectNeeded(*item.expr));
  }
  if (query_.where) ERBIUM_RETURN_NOT_OK(CollectNeeded(*query_.where));
  for (const ExprAstPtr& g : query_.group_by) {
    ERBIUM_RETURN_NOT_OK(CollectNeeded(*g));
  }
  for (const JoinClause& join : query_.joins) {
    if (join.on_expr) ERBIUM_RETURN_NOT_OK(CollectNeeded(*join.on_expr));
  }

  // Partition WHERE into per-alias pushdowns and residual conjuncts.
  std::vector<ExprAstPtr> conjuncts;
  SplitConjuncts(query_.where, &conjuncts);
  std::map<std::string, std::vector<ExprAstPtr>> pushed;
  std::vector<ExprAstPtr> residual;
  for (const ExprAstPtr& c : conjuncts) {
    std::set<std::string> refs;
    ERBIUM_RETURN_NOT_OK(ReferencedAliases(*c, &refs));
    // Pushable only when the single referenced alias is an entity alias;
    // relationship pseudo-aliases and unresolved bare names must wait
    // until after the joins bring their columns into scope.
    bool pushable = refs.size() == 1 && !refs.begin()->empty();
    if (pushable) {
      bool is_entity_alias = false;
      for (const AliasDecl& decl : decls_) {
        if (EqualsIgnoreCase(decl.alias, *refs.begin())) {
          is_entity_alias = true;
        }
      }
      pushable = is_entity_alias;
    }
    if (pushable) {
      pushed[*refs.begin()].push_back(c);
    } else {
      residual.push_back(c);
    }
  }

  // Base plan. When the first join goes through a relationship whose
  // storage already materializes the join (factorized pair or
  // materialized table) and the two aliases are exactly its participants,
  // serve both entities and the join from ONE pass over the joined
  // structure — the optimization that makes M6-style mappings pay off.
  Scope scope;
  OperatorPtr plan;
  size_t first_join = 0;
  if (!query_.joins.empty() && !query_.joins[0].relationship.empty()) {
    const RelationshipSetDef* rel =
        db_->schema().FindRelationshipSet(query_.joins[0].relationship);
    if (rel != nullptr) {
      AliasDecl* from_decl = &decls_[0];
      AliasDecl* join_decl = &decls_[1];
      AliasDecl* left_decl = nullptr;
      AliasDecl* right_decl = nullptr;
      if (EqualsIgnoreCase(from_decl->entity, rel->left.entity) &&
          EqualsIgnoreCase(join_decl->entity, rel->right.entity)) {
        left_decl = from_decl;
        right_decl = join_decl;
      } else if (EqualsIgnoreCase(from_decl->entity, rel->right.entity) &&
                 EqualsIgnoreCase(join_decl->entity, rel->left.entity)) {
        left_decl = join_decl;
        right_decl = from_decl;
      }
      if (left_decl != nullptr) {
        Result<OperatorPtr> fused = db_->ScanRelationshipJoined(
            rel->name, left_decl->needed, right_decl->needed);
        if (fused.ok()) {
          plan = std::move(fused).value();
          // Register both aliases over the fused output by column name
          // (keys and attrs are uniquely named across R2/S1-style pairs;
          // on collision the fused path is skipped).
          bool collision = false;
          auto register_alias = [&](AliasDecl* decl) {
            AliasInfo info;
            info.alias = decl->alias;
            info.entity = decl->entity;
            info.key_names = decl->key_names;
            std::vector<std::string> wanted = decl->key_names;
            wanted.insert(wanted.end(), decl->needed.begin(),
                          decl->needed.end());
            for (const std::string& name : wanted) {
              int idx = -1;
              const std::vector<Column>& cols = plan->output_columns();
              for (size_t i = 0; i < cols.size(); ++i) {
                if (cols[i].name == name) {
                  if (idx >= 0) collision = true;
                  idx = static_cast<int>(i);
                }
              }
              if (idx < 0) collision = true;
              info.columns[name] = idx;
            }
            scope.aliases.push_back(std::move(info));
          };
          register_alias(left_decl);
          register_alias(right_decl);
          if (collision) {
            scope.aliases.clear();
            plan.reset();
          } else {
            scope.width = static_cast<int>(plan->output_columns().size());
            first_join = 1;
            // One pass over the joined structure serves both entities.
            TouchRelationship(rel->name, /*fused=*/true);
            TouchEntity(left_decl->entity, obs::EntityPath::kScan);
            TouchEntity(right_decl->entity, obs::EntityPath::kJoinSide);
            // Per-alias pushed conjuncts apply on top of the fused scan.
            std::vector<ExprPtr> bound;
            for (AliasDecl* decl : {left_decl, right_decl}) {
              for (const ExprAstPtr& c : pushed[decl->alias]) {
                ERBIUM_ASSIGN_OR_RETURN(ExprPtr e, Bind(*c, &scope));
                bound.push_back(std::move(e));
              }
            }
            if (ExprPtr predicate = ConjoinAll(std::move(bound))) {
              plan = std::make_unique<FilterOp>(std::move(plan),
                                                std::move(predicate));
            }
          }
        }
      }
    }
  }
  if (plan == nullptr) {
    AliasInfo first_info;
    ERBIUM_ASSIGN_OR_RETURN(
        plan, BuildAliasPlan(&decls_[0], pushed[decls_[0].alias], &first_info,
                             /*join_side=*/false));
    scope.aliases.clear();
    scope.aliases.push_back(first_info);
    scope.width = static_cast<int>(plan->output_columns().size());
    first_join = 0;
  }

  // Joins, left-deep in declaration order.
  for (size_t j = first_join; j < query_.joins.size(); ++j) {
    const JoinClause& join = query_.joins[j];
    AliasDecl* decl = &decls_[j + 1];
    AliasInfo right_info;
    ERBIUM_ASSIGN_OR_RETURN(
        OperatorPtr right_plan,
        BuildAliasPlan(decl, pushed[decl->alias], &right_info,
                       /*join_side=*/true));
    int right_width = static_cast<int>(right_plan->output_columns().size());

    if (!join.relationship.empty()) {
      const std::string& rel_name = join.relationship;
      const RelationshipSetDef* rel =
          db_->schema().FindRelationshipSet(rel_name);
      if (rel != nullptr) {
        // Which side is the new alias, which existing alias matches the
        // other side? Exact entity matches beat hierarchy-related ones.
        auto side_score = [&](const std::string& side_entity,
                              const std::string& entity) -> int {
          if (EqualsIgnoreCase(side_entity, entity)) return 2;
          if (db_->schema().IsSelfOrDescendant(entity, side_entity) ||
              db_->schema().IsSelfOrDescendant(side_entity, entity)) {
            return 1;
          }
          return 0;
        };
        int left_new = side_score(rel->left.entity, decl->entity);
        int right_new = side_score(rel->right.entity, decl->entity);
        if (left_new == 0 && right_new == 0) {
          return Status::AnalysisError("entity " + decl->entity +
                                       " does not participate in " +
                                       rel_name);
        }
        bool new_is_right = right_new >= left_new;
        const Participant& new_side = new_is_right ? rel->right : rel->left;
        const Participant& old_side = new_is_right ? rel->left : rel->right;
        // Find the existing alias for the other side.
        AliasInfo* old_info = nullptr;
        int best = 0;
        for (AliasInfo& cand : scope.aliases) {
          if (cand.entity.empty()) continue;
          int score = side_score(old_side.entity, cand.entity);
          if (score > best) {
            best = score;
            old_info = &cand;
          } else if (score == best && score > 0 && old_info != nullptr) {
            return Status::AnalysisError(
                "ambiguous participants for relationship " + rel_name +
                "; qualify with distinct entity classes");
          }
        }
        if (old_info == nullptr) {
          return Status::AnalysisError(
              "no in-scope entity participates in " + rel_name);
        }
        // plan ⋈ rel-instances ⋈ new entity.
        TouchRelationship(rel_name, /*fused=*/false);
        ERBIUM_ASSIGN_OR_RETURN(OperatorPtr rel_scan,
                                db_->ScanRelationship(rel_name));
        ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> old_key_cols,
                                db_->mapping().KeyColumns(old_side.entity));
        ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> new_key_cols,
                                db_->mapping().KeyColumns(new_side.entity));
        std::vector<ExprPtr> left_keys;
        for (const Column& c : old_key_cols) {
          auto it = old_info->columns.find(c.name);
          if (it == old_info->columns.end()) {
            return Status::Internal("missing key column " + c.name);
          }
          left_keys.push_back(MakeColumnRef(it->second, c.name));
        }
        std::vector<ExprPtr> rel_old_keys;
        std::vector<ExprPtr> rel_new_keys;
        {
          const std::vector<Column>& rel_cols = rel_scan->output_columns();
          auto rel_col = [&](const std::string& name) -> int {
            for (size_t i = 0; i < rel_cols.size(); ++i) {
              if (rel_cols[i].name == name) return static_cast<int>(i);
            }
            return -1;
          };
          for (const Column& c : old_key_cols) {
            int idx = rel_col(
                PhysicalMapping::RoleColumnName(old_side.role, c.name));
            if (idx < 0) return Status::Internal("missing rel key column");
            rel_old_keys.push_back(MakeColumnRef(idx, rel_cols[idx].name));
          }
          for (const Column& c : new_key_cols) {
            int idx = rel_col(
                PhysicalMapping::RoleColumnName(new_side.role, c.name));
            if (idx < 0) return Status::Internal("missing rel key column");
            rel_new_keys.push_back(MakeColumnRef(idx, rel_cols[idx].name));
          }
        }
        int rel_width = static_cast<int>(rel_scan->output_columns().size());
        // Register the relationship's attribute columns as a pseudo-alias
        // so rs_a1-style references resolve.
        AliasInfo rel_info;
        rel_info.alias = rel_name;
        for (size_t i = 0; i < rel->attributes.size(); ++i) {
          // Attr columns follow the two key column groups.
          rel_info.columns[rel->attributes[i].name] =
              scope.width +
              static_cast<int>(old_key_cols.size() + new_key_cols.size() + i);
        }
        // Careful: ScanRelationship output is left-role cols, right-role
        // cols, attrs — in *relationship* order, not old/new order.
        {
          const std::vector<Column>& rel_cols = rel_scan->output_columns();
          rel_info.columns.clear();
          for (const AttributeDef& attr : rel->attributes) {
            for (size_t i = 0; i < rel_cols.size(); ++i) {
              if (rel_cols[i].name == attr.name) {
                rel_info.columns[attr.name] =
                    scope.width + static_cast<int>(i);
              }
            }
          }
        }
        plan = std::make_unique<HashJoinOp>(std::move(plan),
                                            std::move(rel_scan),
                                            std::move(left_keys),
                                            std::move(rel_old_keys));
        // Join the new entity on the relationship's new-side key columns.
        std::vector<ExprPtr> probe_keys;
        {
          // rel_new_keys positions shift by scope.width after the join.
          for (const ExprPtr& e : rel_new_keys) {
            const auto* ref = static_cast<const ColumnRefExpr*>(e.get());
            probe_keys.push_back(MakeColumnRef(scope.width + ref->index(),
                                               ref->ToString()));
          }
        }
        std::vector<ExprPtr> build_keys;
        for (const Column& c : new_key_cols) {
          auto it = right_info.columns.find(c.name);
          if (it == right_info.columns.end()) {
            return Status::Internal("missing key column " + c.name);
          }
          build_keys.push_back(MakeColumnRef(it->second, c.name));
        }
        int offset = scope.width + rel_width;
        plan = std::make_unique<HashJoinOp>(std::move(plan),
                                            std::move(right_plan),
                                            std::move(probe_keys),
                                            std::move(build_keys));
        scope.aliases.push_back(rel_info);
        for (auto& [name, pos] : right_info.columns) pos += offset;
        scope.aliases.push_back(right_info);
        scope.width = offset + right_width;
        continue;
      }
      // Identifying relationship of a weak entity: join owner-key prefix.
      const EntitySetDef* weak = nullptr;
      for (const std::string& entity_name :
           db_->schema().EntitySetNames()) {
        const EntitySetDef* def = db_->schema().FindEntitySet(entity_name);
        if (def->weak &&
            EqualsIgnoreCase(def->identifying_relationship, rel_name)) {
          weak = def;
          break;
        }
      }
      if (weak == nullptr) {
        return Status::AnalysisError("unknown relationship " + rel_name);
      }
      // One side is the weak entity, the other its owner; figure out
      // which one is new.
      bool new_is_weak = EqualsIgnoreCase(decl->entity, weak->name);
      const std::string owner = weak->owner;
      AliasInfo* old_info = nullptr;
      for (AliasInfo& cand : scope.aliases) {
        if (cand.entity.empty()) continue;
        if (new_is_weak ? EqualsIgnoreCase(cand.entity, owner)
                        : EqualsIgnoreCase(cand.entity, weak->name)) {
          old_info = &cand;
          break;
        }
      }
      if (old_info == nullptr) {
        return Status::AnalysisError("no in-scope participant for " +
                                     rel_name);
      }
      TouchRelationship(rel_name, /*fused=*/false);
      ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> owner_key,
                              db_->mapping().KeyColumns(owner));
      std::vector<ExprPtr> left_keys;
      std::vector<ExprPtr> right_keys;
      for (const Column& c : owner_key) {
        auto left_it = old_info->columns.find(c.name);
        auto right_it = right_info.columns.find(c.name);
        if (left_it == old_info->columns.end() ||
            right_it == right_info.columns.end()) {
          return Status::Internal("missing owner key column " + c.name);
        }
        left_keys.push_back(MakeColumnRef(left_it->second, c.name));
        right_keys.push_back(MakeColumnRef(right_it->second, c.name));
      }
      int offset = scope.width;
      plan = std::make_unique<HashJoinOp>(std::move(plan),
                                          std::move(right_plan),
                                          std::move(left_keys),
                                          std::move(right_keys));
      for (auto& [name, pos] : right_info.columns) pos += offset;
      scope.aliases.push_back(right_info);
      scope.width = offset + right_width;
      continue;
    }

    // Theta join on an expression: try to extract equi keys, else fall
    // back to a nested-loop join.
    std::vector<ExprAstPtr> on_conjuncts;
    SplitConjuncts(join.on_expr, &on_conjuncts);
    std::vector<ExprPtr> left_keys;
    std::vector<ExprPtr> right_keys;
    std::vector<ExprAstPtr> leftover;
    Scope right_scope;
    right_scope.aliases.push_back(right_info);
    for (const ExprAstPtr& c : on_conjuncts) {
      bool extracted = false;
      if (c->kind == ExprAst::Kind::kBinary && c->op == "=") {
        for (int side : {0, 1}) {
          std::set<std::string> l_refs, r_refs;
          Status s1 = ReferencedAliases(*c->children[side], &l_refs);
          Status s2 = ReferencedAliases(*c->children[1 - side], &r_refs);
          if (!s1.ok() || !s2.ok()) continue;
          bool left_is_old = l_refs.count(decl->alias) == 0;
          bool right_is_new =
              r_refs.size() == 1 && r_refs.count(decl->alias) == 1;
          if (left_is_old && right_is_new && !l_refs.empty()) {
            Result<ExprPtr> lk = Bind(*c->children[side], &scope);
            Result<ExprPtr> rk = Bind(*c->children[1 - side], &right_scope);
            if (lk.ok() && rk.ok()) {
              left_keys.push_back(std::move(lk).value());
              right_keys.push_back(std::move(rk).value());
              extracted = true;
            }
            break;
          }
        }
      }
      if (!extracted) leftover.push_back(c);
    }
    int offset = scope.width;
    if (!left_keys.empty()) {
      plan = std::make_unique<HashJoinOp>(std::move(plan),
                                          std::move(right_plan),
                                          std::move(left_keys),
                                          std::move(right_keys));
      for (auto& [name, pos] : right_info.columns) pos += offset;
      scope.aliases.push_back(right_info);
      scope.width = offset + right_width;
      if (!leftover.empty()) {
        std::vector<ExprPtr> bound;
        for (const ExprAstPtr& c : leftover) {
          ERBIUM_ASSIGN_OR_RETURN(ExprPtr e, Bind(*c, &scope));
          bound.push_back(std::move(e));
        }
        plan = std::make_unique<FilterOp>(std::move(plan),
                                          ConjoinAll(std::move(bound)));
      }
    } else {
      for (auto& [name, pos] : right_info.columns) pos += offset;
      scope.aliases.push_back(right_info);
      scope.width = offset + right_width;
      ExprPtr predicate;
      if (join.on_expr) {
        std::vector<ExprPtr> bound;
        for (const ExprAstPtr& c : leftover) {
          ERBIUM_ASSIGN_OR_RETURN(ExprPtr e, Bind(*c, &scope));
          bound.push_back(std::move(e));
        }
        predicate = ConjoinAll(std::move(bound));
      }
      plan = std::make_unique<NestedLoopJoinOp>(std::move(plan),
                                                std::move(right_plan),
                                                std::move(predicate));
    }
  }

  // Residual predicates after all joins.
  if (!residual.empty()) {
    std::vector<ExprPtr> bound;
    for (const ExprAstPtr& c : residual) {
      ERBIUM_ASSIGN_OR_RETURN(ExprPtr e, Bind(*c, &scope));
      bound.push_back(std::move(e));
    }
    plan = std::make_unique<FilterOp>(std::move(plan),
                                      ConjoinAll(std::move(bound)));
  }

  // ---- SELECT ----------------------------------------------------------------
  bool has_aggregate = false;
  for (const SelectItem& item : query_.select) {
    if (item.expr->kind == ExprAst::Kind::kFunction &&
        IsAggregateName(item.expr->name)) {
      has_aggregate = true;
    }
  }

  std::vector<std::string> output_names;
  if (has_aggregate) {
    // Group keys: explicit GROUP BY, otherwise the non-aggregate select
    // items (the paper's inferred group-by).
    std::vector<ExprAstPtr> group_asts = query_.group_by;
    if (!query_.explicit_group_by) {
      for (const SelectItem& item : query_.select) {
        if (!(item.expr->kind == ExprAst::Kind::kFunction &&
              IsAggregateName(item.expr->name))) {
          group_asts.push_back(item.expr);
        }
      }
    }
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    for (size_t i = 0; i < group_asts.size(); ++i) {
      ERBIUM_ASSIGN_OR_RETURN(ExprPtr e, Bind(*group_asts[i], &scope));
      group_exprs.push_back(std::move(e));
      group_names.push_back("g" + std::to_string(i));
    }
    std::vector<AggregateSpec> aggs;
    for (const SelectItem& item : query_.select) {
      if (!(item.expr->kind == ExprAst::Kind::kFunction &&
            IsAggregateName(item.expr->name))) {
        continue;
      }
      const ExprAst& fn = *item.expr;
      AggregateSpec spec;
      spec.distinct = fn.distinct;
      spec.output_name = DeriveName(item, aggs.size());
      if (fn.name == "count" && !fn.children.empty() &&
          fn.children[0]->kind == ExprAst::Kind::kStar) {
        spec.kind = AggKind::kCountStar;
      } else {
        ERBIUM_ASSIGN_OR_RETURN(spec.kind, AggKindByName(fn.name));
        if (fn.children.size() != 1) {
          return Status::AnalysisError("aggregate " + fn.name +
                                       " takes exactly one argument");
        }
        ERBIUM_ASSIGN_OR_RETURN(spec.input, Bind(*fn.children[0], &scope));
      }
      aggs.push_back(std::move(spec));
    }
    ERBIUM_ASSIGN_OR_RETURN(AggProjection proj,
                            ComputeAggProjection(query_, group_asts));
    plan = MakeAggregatePlan(std::move(plan), std::move(group_exprs),
                             group_names, std::move(aggs), opts_);
    // Final projection maps select items onto the aggregate output.
    std::vector<ExprPtr> out_exprs;
    std::vector<Column> out_cols;
    for (size_t i = 0; i < query_.select.size(); ++i) {
      out_cols.push_back(Column{proj.names[i], Type::Null(), true});
      out_exprs.push_back(MakeColumnRef(proj.positions[i], proj.names[i]));
      output_names.push_back(proj.names[i]);
    }
    plan = std::make_unique<ProjectOp>(std::move(plan), std::move(out_cols),
                                       std::move(out_exprs));
  } else {
    // Plain projection; top-level unnest() items expand afterwards.
    std::vector<ExprPtr> out_exprs;
    std::vector<Column> out_cols;
    std::vector<int> unnest_positions;
    for (size_t i = 0; i < query_.select.size(); ++i) {
      const SelectItem& item = query_.select[i];
      const ExprAst* expr = item.expr.get();
      std::string name = DeriveName(item, i);
      bool is_unnest = expr->kind == ExprAst::Kind::kFunction &&
                       expr->name == "unnest";
      if (is_unnest) {
        if (expr->children.size() != 1) {
          return Status::AnalysisError("unnest takes exactly one argument");
        }
        expr = expr->children[0].get();
        if (item.alias.empty() && expr->kind == ExprAst::Kind::kIdent) {
          name = expr->name;
        }
        unnest_positions.push_back(static_cast<int>(i));
      }
      ERBIUM_ASSIGN_OR_RETURN(ExprPtr bound, Bind(*expr, &scope));
      out_cols.push_back(Column{name, Type::Null(), true});
      out_exprs.push_back(std::move(bound));
      output_names.push_back(name);
    }
    plan = std::make_unique<ProjectOp>(std::move(plan), std::move(out_cols),
                                       std::move(out_exprs));
    for (int position : unnest_positions) {
      plan = std::make_unique<UnnestOp>(std::move(plan), position,
                                        output_names[position]);
    }
    // Parallelize the scan→filter→project pipeline; Distinct/Sort/Limit
    // above stay serial consumers of the gathered stream.
    plan = MaybeParallelGather(std::move(plan), opts_);
  }

  ERBIUM_ASSIGN_OR_RETURN(plan,
                          FinishQueryTail(std::move(plan), output_names,
                                          query_));
  CompiledQuery compiled;
  compiled.plan = std::move(plan);
  compiled.columns = std::move(output_names);
  compiled.footprint =
      std::make_shared<obs::StatementFootprint>(std::move(footprint_));
  return compiled;
}

// ---- EXPLAIN mapping notes -------------------------------------------------
// One note per logical construct the query touches, saying which physical
// structure the active mapping resolved it to (the M1-vs-M6 distinction
// the paper's Section 6 experiments revolve around).

std::string SegmentNote(const PhysicalMapping& m, const std::string& entity) {
  switch (m.segment_location(entity)) {
    case SegmentLocation::kOwnTable:
      return "own table '" + m.SegmentTableName(entity) + "'";
    case SegmentLocation::kHierarchySingle:
      return "single hierarchy table '" + m.SegmentTableName(entity) +
             "' (discriminator " + std::string(PhysicalMapping::kTypeColumn) +
             ")";
    case SegmentLocation::kHierarchyDisjoint:
      return "disjoint per-class hierarchy tables";
    case SegmentLocation::kFoldedInOwner:
      return "folded into the owner's table as an array of structs";
    case SegmentLocation::kPairLeft:
    case SegmentLocation::kPairRight:
      return "factorized pair '" + m.SegmentPairName(entity) + "' (via " +
             m.SwallowingRelationship(entity) + ")";
    case SegmentLocation::kMaterializedLeft:
    case SegmentLocation::kMaterializedRight:
      return "materialized join table '" + m.SegmentTableName(entity) +
             "' (via " + m.SwallowingRelationship(entity) + ")";
  }
  return "unknown";
}

std::string RelationshipNote(const PhysicalMapping& m,
                             const RelationshipSetDef& rel) {
  switch (m.spec().relationship_storage(rel)) {
    case RelationshipStorage::kForeignKey:
      return "foreign-key columns on the many side";
    case RelationshipStorage::kJoinTable:
      return "join table '" + rel.name + "'";
    case RelationshipStorage::kMaterializedJoin:
      return "materialized join table '" +
             PhysicalMapping::MaterializedTableName(rel.name) + "'";
    case RelationshipStorage::kFactorized:
      return "factorized pair '" + PhysicalMapping::PairName(rel.name) + "'";
  }
  return "unknown";
}

std::vector<std::string> BuildMappingNotes(const PhysicalMapping& m,
                                           const Query& query) {
  std::vector<std::string> notes;
  std::set<std::string> seen_entities;
  auto note_entity = [&](const std::string& entity) {
    if (m.schema().FindEntitySet(entity) == nullptr) return;
    if (!seen_entities.insert(entity).second) return;
    notes.push_back("entity " + entity + " -> " + SegmentNote(m, entity));
    // Multi-valued attributes are the M1-vs-M2 axis: say where each lives.
    for (const AttributeDef& attr :
         m.schema().FindEntitySet(entity)->attributes) {
      if (!attr.multi_valued) continue;
      if (m.spec().multi_valued_storage(entity, attr.name) ==
          MultiValuedStorage::kSeparateTable) {
        notes.push_back("  " + entity + "." + attr.name + " -> side table '" +
                        PhysicalMapping::MvTableName(entity, attr.name) + "'");
      } else {
        notes.push_back("  " + entity + "." + attr.name +
                        " -> array column on '" + entity + "'");
      }
    }
  };
  note_entity(query.from.entity);
  for (const JoinClause& join : query.joins) {
    note_entity(join.item.entity);
    if (join.relationship.empty()) continue;
    const RelationshipSetDef* rel =
        m.schema().FindRelationshipSet(join.relationship);
    if (rel != nullptr) {
      notes.push_back("relationship " + rel->name + " -> " +
                      RelationshipNote(m, *rel));
    } else {
      // Weak-entity identifying join: storage is the entity's own note.
      notes.push_back("identifying join " + join.relationship +
                      " -> owner-key columns on the weak entity");
    }
  }
  return notes;
}

}  // namespace

Result<CompiledQuery> Translator::Translate(MappedDatabase* db,
                                            const Query& query,
                                            const ExecOptions& opts) {
  TranslatorImpl impl(db, query, opts);
  ERBIUM_ASSIGN_OR_RETURN(CompiledQuery compiled, impl.Run());
  compiled.params = impl.params();
  compiled.explain = query.explain;
  if (query.explain != ExplainMode::kNone) {
    compiled.mapping_summary = db->mapping().spec().ToString();
    compiled.mapping_notes = BuildMappingNotes(db->mapping(), query);
  }
  return compiled;
}

}  // namespace erql
}  // namespace erbium
