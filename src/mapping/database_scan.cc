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

/// A constant key as IndexLookup / key-filter expressions.
std::vector<ExprPtr> LiteralKey(const IndexKey& key) {
  std::vector<ExprPtr> exprs;
  for (const Value& v : key) exprs.push_back(MakeLiteral(v));
  return exprs;
}

}  // namespace

// ---- segment/base streams ------------------------------------------------------

Result<OperatorPtr> MappedDatabase::BuildSegmentStream(
    const std::string& class_name, const std::vector<std::string>& attrs,
    const std::vector<ExprPtr>* key_filter) {
  // Returns a stream over instances of `class_name` whose columns include
  // the full key (named by key attribute names) and every *inline* column
  // among `attrs` (arrays, scalars). Separate-table multi-valued attrs
  // are joined in by BuildEntityPlan.
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> key_names,
                          KeyColumnNames(class_name));
  SegmentLocation loc = mapping_.segment_location(class_name);
  const EntitySetDef* def = schema().FindEntitySet(class_name);

  // Which inline attrs live on which declaring class (for ancestor joins
  // under class-table storage).
  struct InlineAttr {
    std::string name;
    std::string declaring;
  };
  std::vector<InlineAttr> inline_attrs;
  for (const std::string& attr : attrs) {
    if (std::find(key_names.begin(), key_names.end(), attr) !=
        key_names.end()) {
      continue;  // key columns are always present
    }
    ERBIUM_ASSIGN_OR_RETURN(std::string declaring,
                            DeclaringClass(class_name, attr));
    ERBIUM_ASSIGN_OR_RETURN(const AttributeDef* attr_def,
                            FindVisibleAttribute(class_name, attr));
    bool folded_weak =
        def->weak && mapping_.spec().weak_storage(class_name) ==
                         WeakEntityStorage::kFoldedArray;
    if (attr_def->multi_valued && !folded_weak &&
        mapping_.spec().multi_valued_storage(declaring, attr) ==
            MultiValuedStorage::kSeparateTable) {
      continue;  // joined in later
    }
    inline_attrs.push_back(InlineAttr{attr, declaring});
  }

  auto table_base = [&](const std::string& table_name)
      -> Result<OperatorPtr> {
    Table* table = catalog_.GetTable(table_name);
    if (table == nullptr) {
      return Status::Internal("missing table " + table_name);
    }
    if (key_filter != nullptr) {
      ERBIUM_ASSIGN_OR_RETURN(std::vector<int> positions,
                              ColumnPositions(*table, key_names));
      return OperatorPtr(
          std::make_unique<IndexLookup>(table, positions, *key_filter));
    }
    return OperatorPtr(std::make_unique<SeqScan>(table));
  };

  switch (loc) {
    case SegmentLocation::kOwnTable: {
      ERBIUM_ASSIGN_OR_RETURN(OperatorPtr base, table_base(class_name));
      // Join ancestor segment tables for inherited inline attrs
      // (class-table storage: the paper's multi-way hierarchy joins).
      std::set<std::string> joined;
      for (const InlineAttr& attr : inline_attrs) {
        if (attr.declaring == class_name) continue;
        if (!joined.insert(attr.declaring).second) continue;
        Table* ancestor = catalog_.GetTable(attr.declaring);
        if (ancestor == nullptr) {
          return Status::Internal("missing ancestor segment table " +
                                  attr.declaring);
        }
        std::vector<ExprPtr> left_keys;
        for (const std::string& key_name : key_names) {
          int idx = ColIndex(*base, key_name);
          left_keys.push_back(ColRef(*base, idx));
        }
        ERBIUM_ASSIGN_OR_RETURN(std::vector<int> right_positions,
                                ColumnPositions(*ancestor, key_names));
        base = std::make_unique<IndexJoinOp>(std::move(base), ancestor,
                                             std::move(left_keys),
                                             right_positions);
        // Joined key columns collide by name; later name lookups find the
        // first (left) occurrence, which is correct.
      }
      return base;
    }
    case SegmentLocation::kHierarchySingle: {
      ERBIUM_ASSIGN_OR_RETURN(std::string root,
                              schema().HierarchyRoot(class_name));
      ERBIUM_ASSIGN_OR_RETURN(OperatorPtr base, table_base(root));
      std::vector<std::string> subtree =
          schema().SelfAndDescendants(class_name);
      if (subtree.size() != schema().SelfAndDescendants(root).size()) {
        // Restrict to the subtree through the discriminator.
        int type_idx = ColIndex(*base, PhysicalMapping::kTypeColumn);
        std::vector<Value> members;
        for (const std::string& cls : subtree) {
          members.push_back(Value::String(cls));
        }
        base = std::make_unique<FilterOp>(
            std::move(base),
            MakeInList(ColRef(*base, type_idx), std::move(members)));
      }
      return base;
    }
    case SegmentLocation::kHierarchyDisjoint: {
      std::vector<OperatorPtr> branches;
      std::vector<std::string> projection = key_names;
      for (const InlineAttr& attr : inline_attrs) {
        projection.push_back(attr.name);
      }
      for (const std::string& cls : schema().SelfAndDescendants(class_name)) {
        ERBIUM_ASSIGN_OR_RETURN(OperatorPtr branch, table_base(cls));
        ERBIUM_ASSIGN_OR_RETURN(branch,
                                ProjectTo(std::move(branch), projection));
        branches.push_back(std::move(branch));
      }
      if (branches.size() == 1) return std::move(branches.front());
      return OperatorPtr(
          std::make_unique<UnionAllOp>(std::move(branches)));
    }
    case SegmentLocation::kFoldedInOwner: {
      // Owner stream (restricted by the owner-key prefix when a full key
      // filter is present), unnested over the folded array.
      ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> owner_keys,
                              KeyColumnNames(def->owner));
      std::vector<std::string> owner_attrs;  // just the folded column
      OperatorPtr base;
      if (key_filter != nullptr) {
        std::vector<ExprPtr> owner_key(
            key_filter->begin(), key_filter->begin() + owner_keys.size());
        ERBIUM_ASSIGN_OR_RETURN(
            base, BuildSegmentStream(def->owner, owner_attrs, &owner_key));
      } else {
        ERBIUM_ASSIGN_OR_RETURN(
            base, BuildSegmentStream(def->owner, owner_attrs, nullptr));
      }
      int folded_idx = ColIndex(*base, class_name);
      if (folded_idx < 0) {
        return Status::Internal("missing folded column " + class_name);
      }
      base = std::make_unique<UnnestOp>(std::move(base), folded_idx,
                                        class_name + "_element");
      // Project owner key + struct fields (partial key and attributes).
      int element_idx = folded_idx;
      std::vector<Column> out;
      std::vector<ExprPtr> exprs;
      for (const std::string& key_name : owner_keys) {
        int idx = ColIndex(*base, key_name);
        out.push_back(base->output_columns()[idx]);
        exprs.push_back(MakeColumnRef(idx, key_name));
      }
      ExprPtr element = ColRef(*base, element_idx);
      for (const AttributeDef& attr : def->attributes) {
        out.push_back(Column{attr.name,
                             PhysicalMapping::PhysicalAttrType(
                                 attr, attr.multi_valued),
                             true});
        exprs.push_back(std::make_shared<FieldAccessExpr>(element, attr.name));
      }
      OperatorPtr projected = std::make_unique<ProjectOp>(
          std::move(base), std::move(out), std::move(exprs));
      if (key_filter != nullptr) {
        // Restrict to the exact partial key.
        std::vector<int> partial_positions;
        for (const std::string& pk : def->partial_key) {
          partial_positions.push_back(ColIndex(*projected, pk));
        }
        std::vector<ExprPtr> partial(
            key_filter->begin() + owner_keys.size(), key_filter->end());
        ExprPtr predicate =
            KeyEqualsPredicate(*projected, partial_positions, partial);
        projected = std::make_unique<FilterOp>(std::move(projected),
                                               std::move(predicate));
      }
      return projected;
    }
    case SegmentLocation::kPairLeft:
    case SegmentLocation::kPairRight: {
      FactorizedPair* p = pair(mapping_.SegmentPairName(class_name));
      bool left = loc == SegmentLocation::kPairLeft;
      OperatorPtr base = std::make_unique<FactorizedSideScan>(p, left);
      if (key_filter != nullptr) {
        std::vector<int> positions;
        for (const std::string& key_name : key_names) {
          positions.push_back(ColIndex(*base, key_name));
        }
        base = std::make_unique<FilterOp>(
            std::move(base),
            KeyEqualsPredicate(*base, positions, *key_filter));
      }
      // Inherited attrs come from ancestor tables (class-table storage is
      // validated for swallowed subclasses).
      std::set<std::string> joined;
      for (const InlineAttr& attr : inline_attrs) {
        if (attr.declaring == class_name) continue;
        if (!joined.insert(attr.declaring).second) continue;
        Table* ancestor = catalog_.GetTable(attr.declaring);
        std::vector<ExprPtr> left_keys;
        for (const std::string& key_name : key_names) {
          left_keys.push_back(ColRef(*base, ColIndex(*base, key_name)));
        }
        ERBIUM_ASSIGN_OR_RETURN(std::vector<int> right_positions,
                                ColumnPositions(*ancestor, key_names));
        base = std::make_unique<IndexJoinOp>(std::move(base), ancestor,
                                             std::move(left_keys),
                                             right_positions);
      }
      return base;
    }
    case SegmentLocation::kMaterializedLeft:
    case SegmentLocation::kMaterializedRight: {
      std::string rel_name = mapping_.SwallowingRelationship(class_name);
      const RelationshipSetDef* rel = schema().FindRelationshipSet(rel_name);
      bool left = loc == SegmentLocation::kMaterializedLeft;
      const std::string& role = left ? rel->left.role : rel->right.role;
      Table* table = catalog_.GetTable(
          PhysicalMapping::MaterializedTableName(rel_name));
      OperatorPtr base;
      std::vector<std::string> prefixed_keys;
      for (const std::string& key_name : key_names) {
        prefixed_keys.push_back(
            PhysicalMapping::RoleColumnName(role, key_name));
      }
      if (key_filter != nullptr) {
        ERBIUM_ASSIGN_OR_RETURN(std::vector<int> positions,
                                ColumnPositions(*table, prefixed_keys));
        base = std::make_unique<IndexLookup>(table, positions, *key_filter);
      } else {
        base = std::make_unique<SeqScan>(table);
      }
      // Keep rows that carry this side, strip the prefix, deduplicate
      // (the M:N duplication cost of materialized storage).
      int first_key = ColIndex(*base, prefixed_keys.front());
      base = std::make_unique<FilterOp>(
          std::move(base),
          std::make_shared<IsNullExpr>(ColRef(*base, first_key), true));
      ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> seg_cols,
                              mapping_.OwnSegmentColumns(class_name));
      std::vector<Column> out;
      std::vector<ExprPtr> exprs;
      for (const Column& col : seg_cols) {
        int idx =
            ColIndex(*base, PhysicalMapping::RoleColumnName(role, col.name));
        if (idx < 0) {
          return Status::Internal("materialized column missing: " + col.name);
        }
        out.push_back(Column{col.name, col.type, col.nullable});
        exprs.push_back(MakeColumnRef(idx, col.name));
      }
      base = std::make_unique<ProjectOp>(std::move(base), std::move(out),
                                         std::move(exprs));
      base = std::make_unique<DistinctOp>(std::move(base));
      // Ancestor joins (swallowed subclass under class-table storage).
      std::set<std::string> joined;
      for (const InlineAttr& attr : inline_attrs) {
        if (attr.declaring == class_name) continue;
        if (!joined.insert(attr.declaring).second) continue;
        Table* ancestor = catalog_.GetTable(attr.declaring);
        std::vector<ExprPtr> left_keys;
        for (const std::string& key_name : key_names) {
          left_keys.push_back(ColRef(*base, ColIndex(*base, key_name)));
        }
        ERBIUM_ASSIGN_OR_RETURN(std::vector<int> right_positions,
                                ColumnPositions(*ancestor, key_names));
        base = std::make_unique<IndexJoinOp>(std::move(base), ancestor,
                                             std::move(left_keys),
                                             right_positions);
      }
      return base;
    }
  }
  return Status::Internal("unreachable segment location");
}

Result<OperatorPtr> MappedDatabase::BuildEntityPlan(
    const std::string& class_name, const std::vector<std::string>& attrs,
    const std::vector<ExprPtr>* key_filter) {
  if (schema().FindEntitySet(class_name) == nullptr) {
    return Status::NotFound("no entity set named " + class_name);
  }
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> key_names,
                          KeyColumnNames(class_name));
  const EntitySetDef* def = schema().FindEntitySet(class_name);
  bool folded_weak =
      def->weak && mapping_.spec().weak_storage(class_name) ==
                       WeakEntityStorage::kFoldedArray;

  // Partition: which requested attrs need a separate-table join.
  std::vector<std::string> side_attrs;
  for (const std::string& attr : attrs) {
    if (std::find(key_names.begin(), key_names.end(), attr) !=
        key_names.end()) {
      continue;
    }
    ERBIUM_ASSIGN_OR_RETURN(const AttributeDef* attr_def,
                            FindVisibleAttribute(class_name, attr));
    ERBIUM_ASSIGN_OR_RETURN(std::string declaring,
                            DeclaringClass(class_name, attr));
    if (attr_def->multi_valued && !folded_weak &&
        mapping_.spec().multi_valued_storage(declaring, attr) ==
            MultiValuedStorage::kSeparateTable) {
      side_attrs.push_back(attr);
    }
  }

  ERBIUM_ASSIGN_OR_RETURN(OperatorPtr base,
                          BuildSegmentStream(class_name, attrs, key_filter));

  // Join each separate-table multi-valued attribute, grouped into an
  // array per key (the paper's chain of array_agg + group by, and the
  // source of M1's multi-way-join cost in experiment E1).
  for (const std::string& attr : side_attrs) {
    ERBIUM_ASSIGN_OR_RETURN(std::string declaring,
                            DeclaringClass(class_name, attr));
    Table* side =
        catalog_.GetTable(PhysicalMapping::MvTableName(declaring, attr));
    if (side == nullptr) {
      return Status::Internal("missing side table for " + attr);
    }
    OperatorPtr side_scan;
    if (key_filter != nullptr) {
      ERBIUM_ASSIGN_OR_RETURN(std::vector<int> positions,
                              ColumnPositions(*side, key_names));
      side_scan = std::make_unique<IndexLookup>(side, positions, *key_filter);
    } else {
      side_scan = std::make_unique<SeqScan>(side);
    }
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    for (const std::string& key_name : key_names) {
      int idx = ColIndex(*side_scan, key_name);
      group_exprs.push_back(ColRef(*side_scan, idx));
      group_names.push_back(key_name);
    }
    int value_idx = ColIndex(*side_scan, attr);
    std::vector<AggregateSpec> aggs;
    aggs.push_back(AggregateSpec{AggKind::kArrayAgg,
                                 ColRef(*side_scan, value_idx), attr, false});
    OperatorPtr grouped = std::make_unique<HashAggregateOp>(
        std::move(side_scan), std::move(group_exprs), std::move(group_names),
        std::move(aggs));
    std::vector<ExprPtr> left_keys;
    std::vector<ExprPtr> right_keys;
    for (size_t i = 0; i < key_names.size(); ++i) {
      left_keys.push_back(
          ColRef(*base, ColIndex(*base, key_names[i])));
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
  for (const std::string& key_name : key_names) {
    int idx = ColIndex(*base, key_name);
    out.push_back(base->output_columns()[idx]);
    exprs.push_back(MakeColumnRef(idx, key_name));
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
                                   " is not available on " + class_name);
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

Result<OperatorPtr> MappedDatabase::ScanEntity(
    const std::string& class_name, const std::vector<std::string>& attrs) {
  return BuildEntityPlan(class_name, attrs, nullptr);
}

Result<OperatorPtr> MappedDatabase::LookupEntity(
    const std::string& class_name, const IndexKey& key,
    const std::vector<std::string>& attrs) {
  return LookupEntity(class_name, LiteralKey(key), attrs);
}

Result<OperatorPtr> MappedDatabase::LookupEntity(
    const std::string& class_name, const std::vector<ExprPtr>& key,
    const std::vector<std::string>& attrs) {
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> key_names,
                          KeyColumnNames(class_name));
  if (key.size() != key_names.size()) {
    return Status::InvalidArgument("key arity mismatch for " + class_name);
  }
  return BuildEntityPlan(class_name, attrs, &key);
}

Result<OperatorPtr> MappedDatabase::ScanMultiValued(
    const std::string& class_name, const std::string& attr) {
  ERBIUM_ASSIGN_OR_RETURN(const AttributeDef* attr_def,
                          FindVisibleAttribute(class_name, attr));
  if (!attr_def->multi_valued) {
    return Status::AnalysisError("attribute " + attr + " of " + class_name +
                                 " is not multi-valued");
  }
  ERBIUM_ASSIGN_OR_RETURN(std::string declaring,
                          DeclaringClass(class_name, attr));
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> key_names,
                          KeyColumnNames(class_name));
  const EntitySetDef* def = schema().FindEntitySet(class_name);
  bool folded_weak =
      def->weak && mapping_.spec().weak_storage(class_name) ==
                       WeakEntityStorage::kFoldedArray;
  if (!folded_weak &&
      mapping_.spec().multi_valued_storage(declaring, attr) ==
          MultiValuedStorage::kSeparateTable) {
    Table* side =
        catalog_.GetTable(PhysicalMapping::MvTableName(declaring, attr));
    OperatorPtr scan = std::make_unique<SeqScan>(side);
    if (class_name == declaring) return scan;
    // Restrict to instances of the narrower class via a semi-join.
    ERBIUM_ASSIGN_OR_RETURN(OperatorPtr members,
                            BuildEntityPlan(class_name, {}, nullptr));
    std::vector<ExprPtr> left_keys;
    std::vector<ExprPtr> right_keys;
    for (const std::string& key_name : key_names) {
      left_keys.push_back(ColRef(*scan, ColIndex(*scan, key_name)));
      right_keys.push_back(
          ColRef(*members, ColIndex(*members, key_name)));
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
                          BuildEntityPlan(class_name, {attr}, nullptr));
  int array_idx = static_cast<int>(key_names.size());
  return OperatorPtr(
      std::make_unique<UnnestOp>(std::move(base), array_idx, attr));
}

Result<OperatorPtr> MappedDatabase::LookupWeakByOwner(
    const std::string& weak_entity, const IndexKey& owner_key,
    const std::vector<std::string>& attrs) {
  const EntitySetDef* def = schema().FindEntitySet(weak_entity);
  if (def == nullptr || !def->weak) {
    return Status::InvalidArgument(weak_entity + " is not a weak entity set");
  }
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> owner_key_names,
                          KeyColumnNames(def->owner));
  if (owner_key.size() != owner_key_names.size()) {
    return Status::InvalidArgument("owner key arity mismatch");
  }
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> key_names,
                          KeyColumnNames(weak_entity));
  SegmentLocation loc = mapping_.segment_location(weak_entity);
  std::vector<std::string> projection = key_names;
  for (const std::string& attr : attrs) {
    if (std::find(projection.begin(), projection.end(), attr) ==
        projection.end()) {
      projection.push_back(attr);
    }
  }
  if (loc == SegmentLocation::kOwnTable) {
    // MV attrs stored separately would need side joins; not supported in
    // this point-access path.
    for (const std::string& attr : attrs) {
      ERBIUM_ASSIGN_OR_RETURN(const AttributeDef* attr_def,
                              FindVisibleAttribute(weak_entity, attr));
      if (attr_def->multi_valued &&
          mapping_.spec().multi_valued_storage(weak_entity, attr) ==
              MultiValuedStorage::kSeparateTable) {
        return Status::NotImplemented(
            "LookupWeakByOwner with separate-table multi-valued attrs");
      }
    }
    Table* table = catalog_.GetTable(weak_entity);
    ERBIUM_ASSIGN_OR_RETURN(std::vector<int> positions,
                            ColumnPositions(*table, owner_key_names));
    OperatorPtr scan = std::make_unique<IndexLookup>(table, positions,
                                                     LiteralKey(owner_key));
    return ProjectTo(std::move(scan), projection);
  }
  if (loc == SegmentLocation::kFoldedInOwner) {
    // One owner-row lookup, then unnest the folded array column.
    SegmentLocation owner_loc = mapping_.segment_location(def->owner);
    std::string owner_table_name = mapping_.SegmentTableName(def->owner);
    if (owner_loc != SegmentLocation::kOwnTable &&
        owner_loc != SegmentLocation::kHierarchySingle) {
      return Status::NotImplemented(
          "LookupWeakByOwner through this owner storage");
    }
    Table* owner_table = catalog_.GetTable(owner_table_name);
    ERBIUM_ASSIGN_OR_RETURN(std::vector<int> positions,
                            ColumnPositions(*owner_table, owner_key_names));
    OperatorPtr base = std::make_unique<IndexLookup>(owner_table, positions,
                                                     LiteralKey(owner_key));
    int folded_idx = ColIndex(*base, weak_entity);
    if (folded_idx < 0) {
      return Status::Internal("missing folded column " + weak_entity);
    }
    base = std::make_unique<UnnestOp>(std::move(base), folded_idx,
                                      weak_entity + "_element");
    std::vector<Column> out;
    std::vector<ExprPtr> exprs;
    for (const std::string& key_name : owner_key_names) {
      int idx = ColIndex(*base, key_name);
      out.push_back(base->output_columns()[idx]);
      exprs.push_back(MakeColumnRef(idx, key_name));
    }
    ExprPtr element = ColRef(*base, folded_idx);
    for (const AttributeDef& attr : def->attributes) {
      out.push_back(Column{attr.name,
                           PhysicalMapping::PhysicalAttrType(
                               attr, attr.multi_valued),
                           true});
      exprs.push_back(std::make_shared<FieldAccessExpr>(element, attr.name));
    }
    OperatorPtr projected = std::make_unique<ProjectOp>(
        std::move(base), std::move(out), std::move(exprs));
    return ProjectTo(std::move(projected), projection);
  }
  return Status::NotImplemented(
      "LookupWeakByOwner through this weak-entity storage");
}

Result<OperatorPtr> MappedDatabase::ScanRelationshipJoined(
    const std::string& rel_name, const std::vector<std::string>& left_attrs,
    const std::vector<std::string>& right_attrs) {
  const RelationshipSetDef* rel = schema().FindRelationshipSet(rel_name);
  if (rel == nullptr) {
    return Status::NotFound("no relationship set named " + rel_name);
  }
  RelationshipStorage storage = mapping_.spec().relationship_storage(*rel);
  if (storage != RelationshipStorage::kMaterializedJoin &&
      storage != RelationshipStorage::kFactorized) {
    return Status::NotImplemented(
        "relationship " + rel_name + " is not stored joined");
  }
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> left_keys,
                          KeyColumnNames(rel->left.entity));
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> right_keys,
                          KeyColumnNames(rel->right.entity));
  // Partition requested attrs per side: own-segment (available in the
  // joined structure) vs inherited (ancestor joins afterwards). MV
  // side-table attrs are unsupported here.
  struct SideAttrs {
    std::vector<std::string> own;
    std::vector<std::pair<std::string, std::string>> inherited;  // attr,cls
  };
  auto partition = [&](const std::string& cls,
                       const std::vector<std::string>& attrs,
                       const std::vector<std::string>& keys)
      -> Result<SideAttrs> {
    SideAttrs out;
    for (const std::string& attr : attrs) {
      if (std::find(keys.begin(), keys.end(), attr) != keys.end()) continue;
      ERBIUM_ASSIGN_OR_RETURN(const AttributeDef* attr_def,
                              FindVisibleAttribute(cls, attr));
      ERBIUM_ASSIGN_OR_RETURN(std::string declaring,
                              DeclaringClass(cls, attr));
      if (attr_def->multi_valued &&
          mapping_.spec().multi_valued_storage(declaring, attr) ==
              MultiValuedStorage::kSeparateTable) {
        return Status::NotImplemented(
            "joined scan with separate-table multi-valued attribute " + attr);
      }
      if (declaring == cls) {
        out.own.push_back(attr);
      } else {
        out.inherited.emplace_back(attr, declaring);
      }
    }
    return out;
  };
  ERBIUM_ASSIGN_OR_RETURN(
      SideAttrs left_side,
      partition(rel->left.entity, left_attrs, left_keys));
  ERBIUM_ASSIGN_OR_RETURN(
      SideAttrs right_side,
      partition(rel->right.entity, right_attrs, right_keys));

  OperatorPtr base;
  std::map<std::string, int> left_pos;   // name -> position in base
  std::map<std::string, int> right_pos;
  if (storage == RelationshipStorage::kFactorized) {
    FactorizedPair* p = pair(PhysicalMapping::PairName(rel_name));
    base = std::make_unique<FactorizedJoinScan>(p);
    size_t left_arity = p->left_columns().size();
    for (size_t i = 0; i < p->left_columns().size(); ++i) {
      left_pos[p->left_columns()[i].name] = static_cast<int>(i);
    }
    for (size_t i = 0; i < p->right_columns().size(); ++i) {
      right_pos[p->right_columns()[i].name] =
          static_cast<int>(left_arity + i);
    }
  } else {
    Table* table =
        catalog_.GetTable(PhysicalMapping::MaterializedTableName(rel_name));
    base = std::make_unique<SeqScan>(table);
    auto locate = [&](const std::string& role, const std::string& name) {
      return table->schema().ColumnIndex(
          PhysicalMapping::RoleColumnName(role, name));
    };
    ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> left_seg,
                            mapping_.OwnSegmentColumns(rel->left.entity));
    ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> right_seg,
                            mapping_.OwnSegmentColumns(rel->right.entity));
    for (const Column& c : left_seg) {
      left_pos[c.name] = locate(rel->left.role, c.name);
    }
    for (const Column& c : right_seg) {
      right_pos[c.name] = locate(rel->right.role, c.name);
    }
    // One pass over the wide table: joined rows only.
    ExprPtr both = MakeAnd(
        std::make_shared<IsNullExpr>(
            ColRef(*base, left_pos[left_keys.front()]), true),
        std::make_shared<IsNullExpr>(
            ColRef(*base, right_pos[right_keys.front()]), true));
    base = std::make_unique<FilterOp>(std::move(base), std::move(both));
  }

  // Project into canonical order: left key, left own+inherited slots,
  // right key, right own attrs. Inherited attrs join after projection.
  std::vector<Column> out;
  std::vector<ExprPtr> exprs;
  auto emit = [&](const std::map<std::string, int>& pos,
                  const std::string& name) -> Status {
    auto it = pos.find(name);
    if (it == pos.end()) {
      return Status::Internal("joined scan missing column " + name);
    }
    Column col = base->output_columns()[it->second];
    col.name = name;
    out.push_back(col);
    exprs.push_back(MakeColumnRef(it->second, name));
    return Status::OK();
  };
  for (const std::string& k : left_keys) ERBIUM_RETURN_NOT_OK(emit(left_pos, k));
  for (const std::string& a : left_side.own) {
    ERBIUM_RETURN_NOT_OK(emit(left_pos, a));
  }
  for (const std::string& k : right_keys) {
    ERBIUM_RETURN_NOT_OK(emit(right_pos, k));
  }
  for (const std::string& a : right_side.own) {
    ERBIUM_RETURN_NOT_OK(emit(right_pos, a));
  }
  base = std::make_unique<ProjectOp>(std::move(base), std::move(out),
                                     std::move(exprs));

  // Inherited attributes via ancestor index joins (left side keys are at
  // positions 0.., right side keys follow the left block).
  auto join_ancestors = [&](const SideAttrs& side,
                            const std::vector<std::string>& keys,
                            size_t key_offset) -> Status {
    std::set<std::string> joined;
    for (const auto& [attr, declaring] : side.inherited) {
      if (!joined.insert(declaring).second) continue;
      Table* ancestor = catalog_.GetTable(declaring);
      if (ancestor == nullptr) {
        return Status::Internal("missing ancestor table " + declaring);
      }
      std::vector<ExprPtr> probe;
      for (size_t i = 0; i < keys.size(); ++i) {
        probe.push_back(MakeColumnRef(static_cast<int>(key_offset + i),
                                      keys[i]));
      }
      ERBIUM_ASSIGN_OR_RETURN(std::vector<int> right_positions,
                              ColumnPositions(*ancestor, keys));
      base = std::make_unique<IndexJoinOp>(std::move(base), ancestor,
                                           std::move(probe), right_positions);
    }
    return Status::OK();
  };
  size_t left_block = left_keys.size() + left_side.own.size();
  ERBIUM_RETURN_NOT_OK(join_ancestors(left_side, left_keys, 0));
  ERBIUM_RETURN_NOT_OK(join_ancestors(right_side, right_keys, left_block));

  // Final canonical projection: left key + left_attrs + right key +
  // right_attrs (requested order).
  std::vector<std::string> final_names = left_keys;
  final_names.insert(final_names.end(), left_attrs.begin(), left_attrs.end());
  final_names.insert(final_names.end(), right_keys.begin(), right_keys.end());
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
  const RelationshipSetDef* rel = schema().FindRelationshipSet(rel_name);
  if (rel == nullptr) {
    return Status::NotFound("no relationship set named " + rel_name);
  }
  RelationshipStorage storage = mapping_.spec().relationship_storage(*rel);
  ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> left_key,
                          mapping_.KeyColumns(rel->left.entity));
  ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> right_key,
                          mapping_.KeyColumns(rel->right.entity));
  std::vector<std::string> role_columns;
  for (const Column& c : left_key) {
    role_columns.push_back(
        PhysicalMapping::RoleColumnName(rel->left.role, c.name));
  }
  for (const Column& c : right_key) {
    role_columns.push_back(
        PhysicalMapping::RoleColumnName(rel->right.role, c.name));
  }
  switch (storage) {
    case RelationshipStorage::kJoinTable: {
      Table* table = catalog_.GetTable(rel_name);
      return OperatorPtr(std::make_unique<SeqScan>(table));
    }
    case RelationshipStorage::kForeignKey: {
      // Stream over the many side's FK carrier, filtered to linked rows.
      const Participant& many = rel->many_side();
      const Participant& one = rel->one_side();
      ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> many_keys,
                              KeyColumnNames(many.entity));
      std::vector<std::string> fk_names;
      for (const Column& c : one.entity == rel->left.entity ? left_key
                                                            : right_key) {
        fk_names.push_back(PhysicalMapping::FkColumnName(rel_name, c.name));
      }
      // Scan the FK carrier tables directly so the FK columns survive.
      std::vector<std::string> needed = many_keys;
      needed.insert(needed.end(), fk_names.begin(), fk_names.end());
      for (const AttributeDef& attr : rel->attributes) {
        needed.push_back(PhysicalMapping::FkColumnName(rel_name, attr.name));
      }
      std::vector<std::string> carrier_tables;
      switch (mapping_.segment_location(many.entity)) {
        case SegmentLocation::kOwnTable:
          carrier_tables.push_back(many.entity);
          break;
        case SegmentLocation::kHierarchySingle:
          // Rows of other classes carry null FKs and are filtered below.
          carrier_tables.push_back(mapping_.SegmentTableName(many.entity));
          break;
        case SegmentLocation::kHierarchyDisjoint:
          for (const std::string& cls :
               schema().SelfAndDescendants(many.entity)) {
            carrier_tables.push_back(cls);
          }
          break;
        default:
          return Status::Internal("FK carrier for " + many.entity +
                                  " has no physical table");
      }
      std::vector<OperatorPtr> branches;
      for (const std::string& carrier : carrier_tables) {
        Table* table = catalog_.GetTable(carrier);
        if (table == nullptr) {
          return Status::Internal("missing carrier table " + carrier);
        }
        OperatorPtr scan = std::make_unique<SeqScan>(table);
        ERBIUM_ASSIGN_OR_RETURN(scan, ProjectTo(std::move(scan), needed));
        branches.push_back(std::move(scan));
      }
      OperatorPtr base =
          branches.size() == 1
              ? std::move(branches.front())
              : OperatorPtr(std::make_unique<UnionAllOp>(std::move(branches)));
      int first_fk = ColIndex(*base, fk_names.front());
      if (first_fk < 0) {
        return Status::Internal("missing FK column " + fk_names.front());
      }
      base = std::make_unique<FilterOp>(
          std::move(base),
          std::make_shared<IsNullExpr>(ColRef(*base, first_fk), true));
      // Project to role-prefixed output: left role columns then right.
      std::vector<Column> out;
      std::vector<ExprPtr> exprs;
      auto emit = [&](const Participant& p, const std::vector<Column>& key,
                      bool is_many) -> Status {
        for (size_t i = 0; i < key.size(); ++i) {
          std::string source =
              is_many ? many_keys[i]
                      : PhysicalMapping::FkColumnName(rel_name, key[i].name);
          int idx = ColIndex(*base, source);
          if (idx < 0) return Status::Internal("missing column " + source);
          out.push_back(
              Column{PhysicalMapping::RoleColumnName(p.role, key[i].name),
                     key[i].type, false});
          exprs.push_back(MakeColumnRef(idx, out.back().name));
        }
        return Status::OK();
      };
      bool left_is_many = many.role == rel->left.role;
      ERBIUM_RETURN_NOT_OK(emit(rel->left, left_key, left_is_many));
      ERBIUM_RETURN_NOT_OK(emit(rel->right, right_key, !left_is_many));
      for (const AttributeDef& attr : rel->attributes) {
        int idx = ColIndex(
            *base, PhysicalMapping::FkColumnName(rel_name, attr.name));
        if (idx < 0) {
          return Status::Internal("missing FK attribute column " + attr.name);
        }
        out.push_back(Column{attr.name, attr.type, true});
        exprs.push_back(MakeColumnRef(idx, attr.name));
      }
      return OperatorPtr(std::make_unique<ProjectOp>(
          std::move(base), std::move(out), std::move(exprs)));
    }
    case RelationshipStorage::kMaterializedJoin: {
      Table* table = catalog_.GetTable(
          PhysicalMapping::MaterializedTableName(rel_name));
      OperatorPtr base = std::make_unique<SeqScan>(table);
      int left_idx = ColIndex(*base, role_columns.front());
      int right_idx = ColIndex(*base, role_columns[left_key.size()]);
      ExprPtr both_present =
          MakeAnd(std::make_shared<IsNullExpr>(ColRef(*base, left_idx), true),
                  std::make_shared<IsNullExpr>(ColRef(*base, right_idx), true));
      base = std::make_unique<FilterOp>(std::move(base),
                                        std::move(both_present));
      std::vector<std::string> projection = role_columns;
      for (const AttributeDef& attr : rel->attributes) {
        projection.push_back(attr.name);
      }
      return ProjectTo(std::move(base), projection);
    }
    case RelationshipStorage::kFactorized: {
      FactorizedPair* p = pair(PhysicalMapping::PairName(rel_name));
      OperatorPtr base = std::make_unique<FactorizedJoinScan>(p);
      // Key columns are the leading columns of each side's segment.
      std::vector<Column> out;
      std::vector<ExprPtr> exprs;
      size_t left_arity = p->left_columns().size();
      for (size_t i = 0; i < left_key.size(); ++i) {
        out.push_back(Column{role_columns[i], left_key[i].type, false});
        exprs.push_back(MakeColumnRef(static_cast<int>(i), out.back().name));
      }
      for (size_t i = 0; i < right_key.size(); ++i) {
        out.push_back(Column{role_columns[left_key.size() + i],
                             right_key[i].type, false});
        exprs.push_back(MakeColumnRef(static_cast<int>(left_arity + i),
                                      out.back().name));
      }
      return OperatorPtr(std::make_unique<ProjectOp>(
          std::move(base), std::move(out), std::move(exprs)));
    }
  }
  return Status::Internal("unreachable relationship storage");
}

}  // namespace erbium
