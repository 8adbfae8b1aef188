#include <algorithm>
#include <set>

#include "exec/aggregate.h"
#include "exec/join.h"
#include "mapping/database.h"

namespace erbium {

namespace {

/// Position of a named output column; -1 when absent.
int ColIndex(const Operator& op, const std::string& name) {
  const std::vector<Column>& cols = op.output_columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

ExprPtr ColRef(const Operator& op, int index) {
  return MakeColumnRef(index, op.output_columns()[index].name);
}

/// Projects a child to the named columns (all must exist).
Result<OperatorPtr> ProjectTo(OperatorPtr child,
                              const std::vector<std::string>& names) {
  std::vector<ExprPtr> exprs;
  std::vector<Column> out;
  for (const std::string& name : names) {
    int idx = ColIndex(*child, name);
    if (idx < 0) {
      return Status::Internal("projection column " + name + " missing");
    }
    out.push_back(child->output_columns()[idx]);
    exprs.push_back(MakeColumnRef(idx, name));
  }
  return OperatorPtr(
      std::make_unique<ProjectOp>(std::move(child), out, std::move(exprs)));
}

/// Projects a child to the columns at `positions`, keeping their names.
OperatorPtr ProjectAt(OperatorPtr child, const std::vector<int>& positions) {
  std::vector<ExprPtr> exprs;
  std::vector<Column> out;
  for (int pos : positions) {
    out.push_back(child->output_columns()[pos]);
    exprs.push_back(ColRef(*child, pos));
  }
  return std::make_unique<ProjectOp>(std::move(child), std::move(out),
                                     std::move(exprs));
}

/// Positions of the named key columns in an operator's output.
std::vector<int> KeyPositions(const Operator& op,
                              const std::vector<std::string>& key_names) {
  std::vector<int> positions;
  for (const std::string& name : key_names) {
    positions.push_back(ColIndex(op, name));
  }
  return positions;
}

/// Equality predicate `columns == key` over the child's output.
ExprPtr KeyEqualsPredicate(const Operator& op, const std::vector<int>& cols,
                           const std::vector<ExprPtr>& key) {
  std::vector<ExprPtr> conjuncts;
  for (size_t i = 0; i < cols.size(); ++i) {
    conjuncts.push_back(
        MakeCompare(CompareOp::kEq, ColRef(op, cols[i]), key[i]));
  }
  return ConjoinAll(std::move(conjuncts));
}

/// Rows whose column `index` is not null.
OperatorPtr NotNullAt(OperatorPtr child, int index) {
  ExprPtr present = std::make_shared<IsNullExpr>(ColRef(*child, index), true);
  return std::make_unique<FilterOp>(std::move(child), std::move(present));
}

/// A constant key as IndexLookup / key-filter expressions.
std::vector<ExprPtr> LiteralKey(const IndexKey& key) {
  std::vector<ExprPtr> exprs;
  for (const Value& v : key) exprs.push_back(MakeLiteral(v));
  return exprs;
}

}  // namespace

// ---- segment/base streams ------------------------------------------------------

Result<OperatorPtr> MappedDatabase::JoinAncestors(
    OperatorPtr base, const std::vector<int>& key, const EntityLayout& e,
    const std::vector<std::string>& attrs) {
  // Class-table storage: the paper's multi-way hierarchy joins. Joined
  // key columns collide by name; later name lookups find the first (left)
  // occurrence, which is correct.
  std::vector<const EntityLayout*> joined;
  for (const std::string& attr : attrs) {
    const EntityLayout* ancestor = e.declaring.at(attr);
    if (ancestor == &e || std::find(joined.begin(), joined.end(),
                                    ancestor) != joined.end()) {
      continue;
    }
    joined.push_back(ancestor);
    if (ancestor->location != SegmentLocation::kOwnTable) {
      return Status::Internal("missing ancestor segment table " +
                              ancestor->def->name);
    }
    std::vector<ExprPtr> probe;
    for (int pos : key) probe.push_back(ColRef(*base, pos));
    const SegmentProbe& segment = ancestor->probes.front();
    base = std::make_unique<IndexJoinOp>(std::move(base), segment.table,
                                         std::move(probe), segment.key);
  }
  return base;
}

Result<OperatorPtr> MappedDatabase::BuildSegmentStream(
    const EntityLayout& e, const std::vector<std::string>& inline_attrs,
    const std::vector<ExprPtr>* key_filter) const {
  auto table_base = [&](const SegmentProbe& probe) -> OperatorPtr {
    if (key_filter != nullptr) {
      return std::make_unique<IndexLookup>(probe.table, probe.key,
                                           *key_filter);
    }
    return std::make_unique<SeqScan>(probe.table);
  };

  switch (e.location) {
    case SegmentLocation::kOwnTable:
      return JoinAncestors(table_base(e.probes.front()),
                           e.probes.front().key, e, inline_attrs);
    case SegmentLocation::kHierarchySingle: {
      OperatorPtr base = table_base(e.probes.front());
      if (e.self_and_descendants.size() ==
          e.scope->self_and_descendants.size()) {
        return base;
      }
      // Restrict to the subtree through the discriminator.
      std::vector<Value> members;
      for (const EntityLayout* cls : e.self_and_descendants) {
        members.push_back(Value::String(cls->def->name));
      }
      ExprPtr in_subtree =
          MakeInList(ColRef(*base, e.type_column), std::move(members));
      return OperatorPtr(
          std::make_unique<FilterOp>(std::move(base), std::move(in_subtree)));
    }
    case SegmentLocation::kHierarchyDisjoint: {
      std::vector<OperatorPtr> branches;
      std::vector<std::string> projection = e.key_names;
      projection.insert(projection.end(), inline_attrs.begin(),
                        inline_attrs.end());
      for (const SegmentProbe& probe : e.probes) {
        ERBIUM_ASSIGN_OR_RETURN(OperatorPtr branch,
                                ProjectTo(table_base(probe), projection));
        branches.push_back(std::move(branch));
      }
      if (branches.size() == 1) return std::move(branches.front());
      return OperatorPtr(
          std::make_unique<UnionAllOp>(std::move(branches)));
    }
    case SegmentLocation::kFoldedInOwner: {
      // Owner stream (restricted by the owner-key prefix when a full key
      // filter is present), unnested over the folded array.
      const std::vector<std::string>& owner_keys = e.owner->key_names;
      std::vector<ExprPtr> owner_key;
      if (key_filter != nullptr) {
        owner_key.assign(key_filter->begin(),
                         key_filter->begin() + owner_keys.size());
      }
      ERBIUM_ASSIGN_OR_RETURN(
          OperatorPtr base,
          BuildSegmentStream(*e.owner, {},
                             key_filter != nullptr ? &owner_key : nullptr));
      const std::string& name = e.def->name;
      int folded_idx = ColIndex(*base, name);
      if (folded_idx < 0) {
        return Status::Internal("missing folded column " + name);
      }
      base = std::make_unique<UnnestOp>(std::move(base), folded_idx,
                                        name + "_element");
      // Project owner key + struct fields (partial key and attributes).
      std::vector<Column> out;
      std::vector<ExprPtr> exprs;
      for (int idx : KeyPositions(*base, owner_keys)) {
        out.push_back(base->output_columns()[idx]);
        exprs.push_back(ColRef(*base, idx));
      }
      ExprPtr element = ColRef(*base, folded_idx);
      for (const AttributeDef& attr : e.def->attributes) {
        out.push_back(Column{attr.name,
                             PhysicalMapping::PhysicalAttrType(
                                 attr, attr.multi_valued),
                             true});
        exprs.push_back(std::make_shared<FieldAccessExpr>(element, attr.name));
      }
      OperatorPtr projected = std::make_unique<ProjectOp>(
          std::move(base), std::move(out), std::move(exprs));
      if (key_filter == nullptr) return projected;
      // Restrict to the exact partial key.
      std::vector<ExprPtr> partial(key_filter->begin() + owner_keys.size(),
                                   key_filter->end());
      ExprPtr predicate = KeyEqualsPredicate(
          *projected, KeyPositions(*projected, e.def->partial_key), partial);
      return OperatorPtr(std::make_unique<FilterOp>(std::move(projected),
                                                    std::move(predicate)));
    }
    case SegmentLocation::kPairLeft:
    case SegmentLocation::kPairRight: {
      OperatorPtr base = std::make_unique<FactorizedSideScan>(
          e.pair, e.location == SegmentLocation::kPairLeft);
      std::vector<int> key = KeyPositions(*base, e.key_names);
      if (key_filter != nullptr) {
        ExprPtr predicate = KeyEqualsPredicate(*base, key, *key_filter);
        base =
            std::make_unique<FilterOp>(std::move(base), std::move(predicate));
      }
      // Inherited attrs come from ancestor tables (class-table storage is
      // validated for swallowed subclasses).
      return JoinAncestors(std::move(base), key, e, inline_attrs);
    }
    case SegmentLocation::kMaterializedLeft:
    case SegmentLocation::kMaterializedRight: {
      // Keep rows that carry this side, strip the prefix, deduplicate
      // (the M:N duplication cost of materialized storage).
      const SegmentProbe& probe = e.probes.front();
      OperatorPtr base = NotNullAt(table_base(probe), probe.key.front());
      bool left = e.location == SegmentLocation::kMaterializedLeft;
      const std::vector<Column>& segment =
          left ? e.joined->left_segment : e.joined->right_segment;
      const std::vector<int>& columns =
          left ? e.joined->left_columns : e.joined->right_columns;
      std::vector<ExprPtr> exprs;
      for (size_t i = 0; i < segment.size(); ++i) {
        exprs.push_back(MakeColumnRef(columns[i], segment[i].name));
      }
      base = std::make_unique<ProjectOp>(std::move(base), segment,
                                         std::move(exprs));
      base = std::make_unique<DistinctOp>(std::move(base));
      // Ancestor joins (swallowed subclass under class-table storage).
      std::vector<int> key = KeyPositions(*base, e.key_names);
      return JoinAncestors(std::move(base), key, e, inline_attrs);
    }
  }
  return Status::Internal("unreachable segment location");
}

Result<OperatorPtr> MappedDatabase::BuildEntityPlan(
    const EntityLayout& e, const std::vector<std::string>& attrs,
    const std::vector<ExprPtr>* key_filter) const {
  const std::vector<std::string>& key_names = e.key_names;
  // Partition: which requested attrs need a separate-table join.
  std::vector<std::string> inline_attrs;
  std::vector<std::string> side_attrs;
  for (const std::string& attr : attrs) {
    if (e.IsKey(attr)) continue;  // key columns are always present
    ERBIUM_RETURN_NOT_OK(e.CheckVisible(attr));
    if (e.SideTable(attr) != nullptr) {
      side_attrs.push_back(attr);
    } else {
      inline_attrs.push_back(attr);
    }
  }

  ERBIUM_ASSIGN_OR_RETURN(OperatorPtr base,
                          BuildSegmentStream(e, inline_attrs, key_filter));

  // Join each separate-table multi-valued attribute, grouped into an
  // array per key (the paper's chain of array_agg + group by, and the
  // source of M1's multi-way-join cost in experiment E1).
  for (const std::string& attr : side_attrs) {
    const MvTable& side = *e.SideTable(attr);
    OperatorPtr side_scan;
    if (key_filter != nullptr) {
      side_scan =
          std::make_unique<IndexLookup>(side.table, side.key, *key_filter);
    } else {
      side_scan = std::make_unique<SeqScan>(side.table);
    }
    std::vector<ExprPtr> group_exprs;
    for (int pos : side.key) group_exprs.push_back(ColRef(*side_scan, pos));
    std::vector<AggregateSpec> aggs;
    aggs.push_back(AggregateSpec{AggKind::kArrayAgg,
                                 ColRef(*side_scan, ColIndex(*side_scan, attr)),
                                 attr, false});
    OperatorPtr grouped = std::make_unique<HashAggregateOp>(
        std::move(side_scan), std::move(group_exprs), key_names,
        std::move(aggs));
    std::vector<ExprPtr> left_keys;
    std::vector<ExprPtr> right_keys;
    for (size_t i = 0; i < key_names.size(); ++i) {
      left_keys.push_back(ColRef(*base, ColIndex(*base, key_names[i])));
      right_keys.push_back(MakeColumnRef(static_cast<int>(i), key_names[i]));
    }
    base = std::make_unique<HashJoinOp>(std::move(base), std::move(grouped),
                                        std::move(left_keys),
                                        std::move(right_keys),
                                        JoinType::kLeftOuter);
  }

  // Final projection: key columns then requested attrs in order; null
  // arrays from outer joins normalize to empty arrays.
  std::vector<Column> out;
  std::vector<ExprPtr> exprs;
  for (int idx : KeyPositions(*base, key_names)) {
    out.push_back(base->output_columns()[idx]);
    exprs.push_back(ColRef(*base, idx));
  }
  for (const std::string& attr : attrs) {
    // The array column appended by the side join is the LAST column with
    // that name; inline columns resolve first-match. Distinguish by
    // whether the attr was a side attr.
    bool is_side = std::find(side_attrs.begin(), side_attrs.end(), attr) !=
                   side_attrs.end();
    int idx = -1;
    if (is_side) {
      const std::vector<Column>& cols = base->output_columns();
      for (size_t i = 0; i < cols.size(); ++i) {
        if (cols[i].name == attr) idx = static_cast<int>(i);
      }
    } else {
      idx = ColIndex(*base, attr);
    }
    if (idx < 0) {
      return Status::AnalysisError("attribute " + attr +
                                   " is not available on " + e.def->name);
    }
    Column col = base->output_columns()[idx];
    col.name = attr;
    ExprPtr expr = MakeColumnRef(idx, attr);
    if (is_side) {
      expr = MakeFunction(BuiltinFn::kCoalesce,
                          {expr, MakeLiteral(Value::Array({}))});
    }
    out.push_back(col);
    exprs.push_back(std::move(expr));
  }
  return OperatorPtr(std::make_unique<ProjectOp>(std::move(base),
                                                 std::move(out),
                                                 std::move(exprs)));
}

// ---- entity access plans -------------------------------------------------------

Result<OperatorPtr> MappedDatabase::ScanEntity(
    const std::string& class_name, const std::vector<std::string>& attrs) {
  ERBIUM_ASSIGN_OR_RETURN(const EntityLayout* e, EntityLayoutOf(class_name));
  return BuildEntityPlan(*e, attrs, nullptr);
}

Result<OperatorPtr> MappedDatabase::LookupEntity(
    const std::string& class_name, const IndexKey& key,
    const std::vector<std::string>& attrs) {
  return LookupEntity(class_name, LiteralKey(key), attrs);
}

Result<OperatorPtr> MappedDatabase::LookupEntity(
    const std::string& class_name, const std::vector<ExprPtr>& key,
    const std::vector<std::string>& attrs) {
  ERBIUM_ASSIGN_OR_RETURN(const EntityLayout* e, EntityLayoutOf(class_name));
  if (key.size() != e->key_names.size()) {
    return Status::InvalidArgument("key arity mismatch for " + class_name);
  }
  return BuildEntityPlan(*e, attrs, &key);
}

Result<Value> MappedDatabase::GetEntity(const std::string& class_name,
                                        const IndexKey& key) {
  ERBIUM_ASSIGN_OR_RETURN(const EntityLayout* e, EntityLayoutOf(class_name));
  ERBIUM_ASSIGN_OR_RETURN(const EntityLayout* specific,
                          SpecificLayout(*e, key));
  const std::vector<std::string>& attr_names = specific->value_attrs;
  std::vector<ExprPtr> key_exprs = LiteralKey(key);
  ERBIUM_ASSIGN_OR_RETURN(OperatorPtr plan,
                          BuildEntityPlan(*specific, attr_names, &key_exprs));
  ERBIUM_ASSIGN_OR_RETURN(std::vector<Row> rows, CollectRows(plan.get()));
  if (rows.empty()) {
    return Status::Internal("instance disappeared during GetEntity");
  }
  const Row& row = rows.front();
  const std::vector<std::string>& key_names = e->key_names;
  Value::StructData fields;
  fields.emplace_back("_class", Value::String(specific->def->name));
  for (size_t i = 0; i < key_names.size(); ++i) {
    fields.emplace_back(key_names[i], key[i]);
  }
  for (size_t i = 0; i < attr_names.size(); ++i) {
    fields.emplace_back(attr_names[i], row[key_names.size() + i]);
  }
  return Value::Struct(std::move(fields));
}

Result<OperatorPtr> MappedDatabase::ScanMultiValued(
    const std::string& class_name, const std::string& attr) {
  ERBIUM_ASSIGN_OR_RETURN(const EntityLayout* e, EntityLayoutOf(class_name));
  ERBIUM_RETURN_NOT_OK(e->CheckVisible(attr));
  const EntityLayout* declaring = e->declaring.at(attr);
  if (!declaring->own_attrs.at(attr).def->multi_valued) {
    return Status::AnalysisError("attribute " + attr + " of " + class_name +
                                 " is not multi-valued");
  }
  const std::vector<std::string>& key_names = e->key_names;
  if (const MvTable* side = e->SideTable(attr)) {
    OperatorPtr scan = std::make_unique<SeqScan>(side->table);
    if (declaring == e) return scan;
    // Restrict to instances of the narrower class via a semi-join.
    ERBIUM_ASSIGN_OR_RETURN(OperatorPtr members,
                            BuildEntityPlan(*e, {}, nullptr));
    std::vector<ExprPtr> left_keys;
    std::vector<ExprPtr> right_keys;
    for (size_t i = 0; i < key_names.size(); ++i) {
      left_keys.push_back(ColRef(*scan, side->key[i]));
      right_keys.push_back(ColRef(*members, static_cast<int>(i)));
    }
    OperatorPtr joined = std::make_unique<HashJoinOp>(
        std::move(scan), std::move(members), std::move(left_keys),
        std::move(right_keys), JoinType::kInner);
    std::vector<std::string> projection = key_names;
    projection.push_back(attr);
    return ProjectTo(std::move(joined), projection);
  }
  // Array-backed (or folded weak): entity plan + unnest.
  ERBIUM_ASSIGN_OR_RETURN(OperatorPtr base,
                          BuildEntityPlan(*e, {attr}, nullptr));
  int array_idx = static_cast<int>(key_names.size());
  return OperatorPtr(
      std::make_unique<UnnestOp>(std::move(base), array_idx, attr));
}

// ---- relationship access plans -------------------------------------------------

Result<OperatorPtr> MappedDatabase::ScanRelationshipJoined(
    const std::string& rel_name, const std::vector<std::string>& left_attrs,
    const std::vector<std::string>& right_attrs) {
  ERBIUM_ASSIGN_OR_RETURN(const RelationshipLayout* r,
                          RelationshipLayoutOf(rel_name));
  bool factorized = r->storage == RelationshipStorage::kFactorized;
  if (!factorized && r->storage != RelationshipStorage::kMaterializedJoin) {
    return Status::NotImplemented(
        "relationship " + rel_name + " is not stored joined");
  }
  // Per side: the requested non-key attributes, and those of them in the
  // side's own segment (available in the joined row; inherited ones join
  // in afterwards). MV side-table attrs are unsupported here.
  struct Side {
    const EntityLayout* e;
    const std::vector<Column>* segment;
    const std::vector<int>* columns;
    const std::vector<std::string>* requested;
    std::vector<std::string> values;
    std::vector<std::string> own;
  };
  Side sides[2] = {
      {r->left, &r->left_segment, &r->left_columns, &left_attrs, {}, {}},
      {r->right, &r->right_segment, &r->right_columns, &right_attrs, {}, {}}};
  for (Side& side : sides) {
    for (const std::string& attr : *side.requested) {
      if (side.e->IsKey(attr)) continue;
      ERBIUM_RETURN_NOT_OK(side.e->CheckVisible(attr));
      if (side.e->SideTable(attr) != nullptr) {
        return Status::NotImplemented(
            "joined scan with separate-table multi-valued attribute " + attr);
      }
      side.values.push_back(attr);
      if (side.e->declaring.at(attr) == side.e) side.own.push_back(attr);
    }
  }

  OperatorPtr base;
  if (factorized) {
    base = std::make_unique<FactorizedJoinScan>(r->pair);
  } else {
    // One pass over the wide table: joined rows only.
    base = std::make_unique<SeqScan>(r->table);
    ExprPtr both = MakeAnd(
        std::make_shared<IsNullExpr>(ColRef(*base, r->left_key.front()), true),
        std::make_shared<IsNullExpr>(ColRef(*base, r->right_key.front()),
                                     true));
    base = std::make_unique<FilterOp>(std::move(base), std::move(both));
  }

  // Project into canonical order: left key, left own attrs, right key,
  // right own attrs. Inherited attrs join after projection.
  std::vector<Column> out;
  std::vector<ExprPtr> exprs;
  auto emit = [&](const Side& side, const std::string& name) -> Status {
    const std::vector<Column>& segment = *side.segment;
    size_t i = 0;
    while (i < segment.size() && segment[i].name != name) ++i;
    if (i == segment.size()) {
      return Status::Internal("joined scan missing column " + name);
    }
    int pos = (*side.columns)[i];
    Column col = base->output_columns()[pos];
    col.name = name;
    out.push_back(col);
    exprs.push_back(MakeColumnRef(pos, name));
    return Status::OK();
  };
  for (const Side& side : sides) {
    for (const std::string& k : side.e->key_names) {
      ERBIUM_RETURN_NOT_OK(emit(side, k));
    }
    for (const std::string& a : side.own) ERBIUM_RETURN_NOT_OK(emit(side, a));
  }
  base = std::make_unique<ProjectOp>(std::move(base), std::move(out),
                                     std::move(exprs));

  // Inherited attributes via ancestor index joins (left side keys are at
  // positions 0.., right side keys follow the left block).
  int offset = 0;
  for (const Side& side : sides) {
    std::vector<int> key;
    for (size_t i = 0; i < side.e->key_names.size(); ++i) {
      key.push_back(offset + static_cast<int>(i));
    }
    ERBIUM_ASSIGN_OR_RETURN(
        base, JoinAncestors(std::move(base), key, *side.e, side.values));
    offset += static_cast<int>(key.size() + side.own.size());
  }

  // Final canonical projection: left key + left_attrs + right key +
  // right_attrs (requested order).
  std::vector<std::string> final_names = r->left->key_names;
  final_names.insert(final_names.end(), left_attrs.begin(), left_attrs.end());
  final_names.insert(final_names.end(), r->right->key_names.begin(),
                     r->right->key_names.end());
  final_names.insert(final_names.end(), right_attrs.begin(),
                     right_attrs.end());
  // Deduplicate while preserving order (requested attrs may repeat keys).
  std::vector<std::string> unique_names;
  std::set<std::string> seen;
  for (const std::string& name : final_names) {
    if (seen.insert(name).second) unique_names.push_back(name);
  }
  return ProjectTo(std::move(base), unique_names);
}

Result<OperatorPtr> MappedDatabase::ScanRelationship(
    const std::string& rel_name) {
  ERBIUM_ASSIGN_OR_RETURN(const RelationshipLayout* r,
                          RelationshipLayoutOf(rel_name));
  size_t left_len = r->left->key_names.size();
  size_t right_len = r->right->key_names.size();
  switch (r->storage) {
    case RelationshipStorage::kJoinTable:
      return OperatorPtr(std::make_unique<SeqScan>(r->table));
    case RelationshipStorage::kForeignKey: {
      // Stream over the many side's FK carriers (its segment tables),
      // keeping the many key, the FK and the attribute columns.
      const EntityLayout& many = r->many_is_left ? *r->left : *r->right;
      size_t many_len = many.key_names.size();
      size_t one_len = r->many_is_left ? right_len : left_len;
      std::vector<OperatorPtr> branches;
      for (size_t i = 0; i < r->carriers.size(); ++i) {
        const SegmentProbe& probe = many.probes[i];
        const RelationshipLayout::FkCarrier& carrier = r->carriers[i];
        std::vector<int> needed = probe.key;
        needed.insert(needed.end(), carrier.key.begin(), carrier.key.end());
        for (size_t a = 0; a < carrier.attributes.size(); ++a) {
          if (carrier.attributes[a] < 0) {
            return Status::Internal("missing FK attribute column " +
                                    r->def->attributes[a].name);
          }
          needed.push_back(carrier.attributes[a]);
        }
        branches.push_back(
            ProjectAt(std::make_unique<SeqScan>(probe.table), needed));
      }
      OperatorPtr base =
          branches.size() == 1
              ? std::move(branches.front())
              : OperatorPtr(std::make_unique<UnionAllOp>(std::move(branches)));
      // Linked rows only; other classes' rows of a shared table carry
      // null FKs too.
      base = NotNullAt(std::move(base), static_cast<int>(many_len));
      // Project to role-prefixed output: left role columns, right role
      // columns, attributes.
      std::vector<int> positions;
      for (size_t side = 0; side < 2; ++side) {
        bool is_many = (side == 0) == r->many_is_left;
        size_t first = is_many ? 0 : many_len;
        size_t len = is_many ? many_len : one_len;
        for (size_t i = 0; i < len; ++i) {
          positions.push_back(static_cast<int>(first + i));
        }
      }
      for (size_t a = 0; a < r->def->attributes.size(); ++a) {
        positions.push_back(static_cast<int>(many_len + one_len + a));
      }
      std::vector<ExprPtr> exprs;
      for (size_t c = 0; c < positions.size(); ++c) {
        exprs.push_back(MakeColumnRef(positions[c], r->columns[c].name));
      }
      return OperatorPtr(std::make_unique<ProjectOp>(
          std::move(base), r->columns, std::move(exprs)));
    }
    case RelationshipStorage::kMaterializedJoin: {
      OperatorPtr base = std::make_unique<SeqScan>(r->table);
      ExprPtr both_present = MakeAnd(
          std::make_shared<IsNullExpr>(ColRef(*base, r->left_key.front()),
                                       true),
          std::make_shared<IsNullExpr>(ColRef(*base, r->right_key.front()),
                                       true));
      base = std::make_unique<FilterOp>(std::move(base),
                                        std::move(both_present));
      std::vector<int> projection = r->left_key;
      projection.insert(projection.end(), r->right_key.begin(),
                        r->right_key.end());
      projection.insert(projection.end(), r->attributes.begin(),
                        r->attributes.end());
      return ProjectAt(std::move(base), projection);
    }
    case RelationshipStorage::kFactorized: {
      // Key columns are the leading columns of each side's segment.
      OperatorPtr base = std::make_unique<FactorizedJoinScan>(r->pair);
      std::vector<Column> out(r->columns.begin(),
                              r->columns.begin() + left_len + right_len);
      std::vector<ExprPtr> exprs;
      for (size_t i = 0; i < left_len; ++i) {
        exprs.push_back(MakeColumnRef(r->left_columns[i], out[i].name));
      }
      for (size_t i = 0; i < right_len; ++i) {
        exprs.push_back(MakeColumnRef(r->right_columns[i],
                                      out[left_len + i].name));
      }
      return OperatorPtr(std::make_unique<ProjectOp>(
          std::move(base), std::move(out), std::move(exprs)));
    }
  }
  return Status::Internal("unreachable relationship storage");
}

}  // namespace erbium
