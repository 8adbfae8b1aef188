#include "mapping/database.h"

namespace erbium {

namespace {

/// Copies all `<role>_`-prefixed column values from `src` into `dst`.
void CopyRoleColumns(const TableSchema& schema, const std::string& role,
                     const Row& src, Row* dst) {
  std::string prefix = role + "_";
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    if (schema.column(i).name.rfind(prefix, 0) == 0) {
      (*dst)[i] = src[i];
    }
  }
}

}  // namespace

Result<size_t> MappedDatabase::CountRelationships(
    const std::string& rel_name) {
  ERBIUM_ASSIGN_OR_RETURN(OperatorPtr plan, ScanRelationship(rel_name));
  ERBIUM_RETURN_NOT_OK(plan->Open());
  size_t count = 0;
  Row row;
  while (plan->Next(&row)) ++count;
  return count;
}

Status MappedDatabase::InsertRelationshipImpl(const std::string& rel_name,
                                          const IndexKey& left_key,
                                          const IndexKey& right_key,
                                          const Value& attrs) {
  const RelationshipSetDef* rel = schema().FindRelationshipSet(rel_name);
  if (rel == nullptr) {
    return Status::NotFound("no relationship set named " + rel_name);
  }
  // Referential integrity on both sides — enforceable under every
  // mapping here (the paper notes this is hard on raw relational M3).
  ERBIUM_ASSIGN_OR_RETURN(bool left_exists,
                          EntityExists(rel->left.entity, left_key));
  if (!left_exists) {
    return Status::ConstraintViolation("left participant of " + rel_name +
                                       " does not exist");
  }
  ERBIUM_ASSIGN_OR_RETURN(bool right_exists,
                          EntityExists(rel->right.entity, right_key));
  if (!right_exists) {
    return Status::ConstraintViolation("right participant of " + rel_name +
                                       " does not exist");
  }

  RelationshipStorage storage = mapping_.spec().relationship_storage(*rel);
  ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> left_cols,
                          mapping_.KeyColumns(rel->left.entity));
  ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> right_cols,
                          mapping_.KeyColumns(rel->right.entity));

  // Cardinality: a kOne participant admits at most one instance per
  // instance of the other side. Foreign-key storage enforces this through
  // FK occupancy, join tables through their unique indexes; the
  // joined-storage variants are probed explicitly here.
  if (storage == RelationshipStorage::kFactorized) {
    FactorizedPair* p = pair(PhysicalMapping::PairName(rel_name));
    if (rel->left.cardinality == Cardinality::kOne) {
      int64_t r = p->FindRight(right_key);
      if (r >= 0 && !p->left_neighbors(r).empty()) {
        return Status::ConstraintViolation(
            "cardinality violation: right participant already linked in " +
            rel_name);
      }
    }
    if (rel->right.cardinality == Cardinality::kOne) {
      int64_t l = p->FindLeft(left_key);
      if (l >= 0 && !p->right_neighbors(l).empty()) {
        return Status::ConstraintViolation(
            "cardinality violation: left participant already linked in " +
            rel_name);
      }
    }
  } else if (storage == RelationshipStorage::kMaterializedJoin) {
    Table* table =
        catalog_.GetTable(PhysicalMapping::MaterializedTableName(rel_name));
    auto linked = [&](const Participant& p, const std::vector<Column>& cols,
                      const IndexKey& key, const Participant& other,
                      const std::vector<Column>& other_cols) -> Result<bool> {
      std::vector<std::string> names;
      for (const Column& c : cols) {
        names.push_back(PhysicalMapping::RoleColumnName(p.role, c.name));
      }
      ERBIUM_ASSIGN_OR_RETURN(std::vector<int> positions,
                              ColumnPositions(*table, names));
      std::vector<std::string> other_names;
      for (const Column& c : other_cols) {
        other_names.push_back(
            PhysicalMapping::RoleColumnName(other.role, c.name));
      }
      ERBIUM_ASSIGN_OR_RETURN(std::vector<int> other_positions,
                              ColumnPositions(*table, other_names));
      std::vector<RowId> ids;
      table->LookupEqual(positions, key, &ids);
      for (RowId id : ids) {
        if (!table->row(id)[other_positions.front()].is_null()) return true;
      }
      return false;
    };
    if (rel->left.cardinality == Cardinality::kOne) {
      ERBIUM_ASSIGN_OR_RETURN(
          bool right_linked,
          linked(rel->right, right_cols, right_key, rel->left, left_cols));
      if (right_linked) {
        return Status::ConstraintViolation(
            "cardinality violation: right participant already linked in " +
            rel_name);
      }
    }
    if (rel->right.cardinality == Cardinality::kOne) {
      ERBIUM_ASSIGN_OR_RETURN(
          bool left_linked,
          linked(rel->left, left_cols, left_key, rel->right, right_cols));
      if (left_linked) {
        return Status::ConstraintViolation(
            "cardinality violation: left participant already linked in " +
            rel_name);
      }
    }
  }

  auto attr_value = [&](const std::string& name) -> Value {
    if (attrs.kind() != TypeKind::kStruct) return Value::Null();
    const Value* v = attrs.FindField(name);
    return v == nullptr ? Value::Null() : *v;
  };

  switch (storage) {
    case RelationshipStorage::kForeignKey: {
      bool many_is_left = rel->many_side().role == rel->left.role;
      const IndexKey& many_key = many_is_left ? left_key : right_key;
      const IndexKey& one_key = many_is_left ? right_key : left_key;
      const std::vector<Column>& one_cols =
          many_is_left ? right_cols : left_cols;
      ERBIUM_ASSIGN_OR_RETURN(
          SegmentRef ref, FindSegmentRow(rel->many_side().entity, many_key));
      Row row = ref.table->row(ref.row);
      for (size_t i = 0; i < one_cols.size(); ++i) {
        int pos = ref.table->schema().ColumnIndex(
            PhysicalMapping::FkColumnName(rel_name, one_cols[i].name));
        if (pos < 0) return Status::Internal("missing FK column");
        if (!row[pos].is_null()) {
          return Status::ConstraintViolation(
              "participant already linked through " + rel_name);
        }
        row[pos] = one_key[i];
      }
      for (const AttributeDef& attr : rel->attributes) {
        int pos = ref.table->schema().ColumnIndex(
            PhysicalMapping::FkColumnName(rel_name, attr.name));
        if (pos >= 0) row[pos] = attr_value(attr.name);
      }
      return ref.table->Update(ref.row, std::move(row));
    }
    case RelationshipStorage::kJoinTable: {
      Table* table = catalog_.GetTable(rel_name);
      // Reject duplicate edges.
      std::vector<std::string> left_names;
      for (const Column& c : left_cols) {
        left_names.push_back(
            PhysicalMapping::RoleColumnName(rel->left.role, c.name));
      }
      ERBIUM_ASSIGN_OR_RETURN(std::vector<int> left_positions,
                              ColumnPositions(*table, left_names));
      std::vector<RowId> candidates;
      table->LookupEqual(left_positions, left_key, &candidates);
      for (RowId id : candidates) {
        const Row& existing = table->row(id);
        bool same = true;
        for (size_t i = 0; i < right_key.size(); ++i) {
          if (existing[left_cols.size() + i] != right_key[i]) {
            same = false;
            break;
          }
        }
        if (same) {
          return Status::AlreadyExists("relationship instance already exists");
        }
      }
      Row row = left_key;
      row.insert(row.end(), right_key.begin(), right_key.end());
      for (const AttributeDef& attr : rel->attributes) {
        row.push_back(attr_value(attr.name));
      }
      return table->Insert(std::move(row)).status();
    }
    case RelationshipStorage::kMaterializedJoin: {
      Table* table = catalog_.GetTable(
          PhysicalMapping::MaterializedTableName(rel_name));
      const TableSchema& ts = table->schema();
      std::vector<std::string> left_names, right_names;
      for (const Column& c : left_cols) {
        left_names.push_back(
            PhysicalMapping::RoleColumnName(rel->left.role, c.name));
      }
      for (const Column& c : right_cols) {
        right_names.push_back(
            PhysicalMapping::RoleColumnName(rel->right.role, c.name));
      }
      ERBIUM_ASSIGN_OR_RETURN(std::vector<int> left_positions,
                              ColumnPositions(*table, left_names));
      ERBIUM_ASSIGN_OR_RETURN(std::vector<int> right_positions,
                              ColumnPositions(*table, right_names));
      std::vector<RowId> left_rows, right_rows;
      table->LookupEqual(left_positions, left_key, &left_rows);
      table->LookupEqual(right_positions, right_key, &right_rows);
      if (left_rows.empty() || right_rows.empty()) {
        return Status::Internal("materialized segment rows missing");
      }
      // Duplicate edge?
      for (RowId lid : left_rows) {
        const Row& row = table->row(lid);
        bool same = true;
        for (size_t i = 0; i < right_positions.size(); ++i) {
          if (row[right_positions[i]] != right_key[i]) {
            same = false;
            break;
          }
        }
        if (same) {
          return Status::AlreadyExists("relationship instance already exists");
        }
      }
      auto is_lone = [&](RowId id, const std::vector<int>& other_side) {
        return table->row(id)[other_side.front()].is_null();
      };
      RowId lone_left = 0;
      bool has_lone_left = false;
      for (RowId id : left_rows) {
        if (is_lone(id, right_positions)) {
          lone_left = id;
          has_lone_left = true;
          break;
        }
      }
      RowId lone_right = 0;
      bool has_lone_right = false;
      for (RowId id : right_rows) {
        if (is_lone(id, left_positions)) {
          lone_right = id;
          has_lone_right = true;
          break;
        }
      }
      const Row left_source = table->row(left_rows.front());
      const Row right_source = table->row(right_rows.front());
      Row merged(ts.num_columns(), Value::Null());
      CopyRoleColumns(ts, rel->left.role, left_source, &merged);
      CopyRoleColumns(ts, rel->right.role, right_source, &merged);
      for (const AttributeDef& attr : rel->attributes) {
        int pos = ts.ColumnIndex(attr.name);
        if (pos >= 0) merged[pos] = attr_value(attr.name);
      }
      if (has_lone_left && has_lone_right) {
        ERBIUM_RETURN_NOT_OK(table->Update(lone_left, std::move(merged)));
        return table->Delete(lone_right);
      }
      if (has_lone_left) {
        return table->Update(lone_left, std::move(merged));
      }
      if (has_lone_right) {
        return table->Update(lone_right, std::move(merged));
      }
      return table->Insert(std::move(merged)).status();
    }
    case RelationshipStorage::kFactorized: {
      FactorizedPair* p = pair(PhysicalMapping::PairName(rel_name));
      return p->Connect(left_key, right_key);
    }
  }
  return Status::Internal("unreachable relationship storage");
}

Status MappedDatabase::DeleteRelationshipImpl(const std::string& rel_name,
                                          const IndexKey& left_key,
                                          const IndexKey& right_key) {
  const RelationshipSetDef* rel = schema().FindRelationshipSet(rel_name);
  if (rel == nullptr) {
    return Status::NotFound("no relationship set named " + rel_name);
  }
  RelationshipStorage storage = mapping_.spec().relationship_storage(*rel);
  ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> left_cols,
                          mapping_.KeyColumns(rel->left.entity));
  ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> right_cols,
                          mapping_.KeyColumns(rel->right.entity));
  switch (storage) {
    case RelationshipStorage::kForeignKey: {
      bool many_is_left = rel->many_side().role == rel->left.role;
      const IndexKey& many_key = many_is_left ? left_key : right_key;
      const IndexKey& one_key = many_is_left ? right_key : left_key;
      const std::vector<Column>& one_cols =
          many_is_left ? right_cols : left_cols;
      ERBIUM_ASSIGN_OR_RETURN(
          SegmentRef ref, FindSegmentRow(rel->many_side().entity, many_key));
      Row row = ref.table->row(ref.row);
      for (size_t i = 0; i < one_cols.size(); ++i) {
        int pos = ref.table->schema().ColumnIndex(
            PhysicalMapping::FkColumnName(rel_name, one_cols[i].name));
        if (pos < 0 || row[pos].is_null() || row[pos] != one_key[i]) {
          return Status::NotFound("relationship instance not found");
        }
      }
      for (size_t i = 0; i < one_cols.size(); ++i) {
        int pos = ref.table->schema().ColumnIndex(
            PhysicalMapping::FkColumnName(rel_name, one_cols[i].name));
        row[pos] = Value::Null();
      }
      for (const AttributeDef& attr : rel->attributes) {
        int pos = ref.table->schema().ColumnIndex(
            PhysicalMapping::FkColumnName(rel_name, attr.name));
        if (pos >= 0) row[pos] = Value::Null();
      }
      return ref.table->Update(ref.row, std::move(row));
    }
    case RelationshipStorage::kJoinTable: {
      Table* table = catalog_.GetTable(rel_name);
      std::vector<std::string> left_names;
      for (const Column& c : left_cols) {
        left_names.push_back(
            PhysicalMapping::RoleColumnName(rel->left.role, c.name));
      }
      ERBIUM_ASSIGN_OR_RETURN(std::vector<int> left_positions,
                              ColumnPositions(*table, left_names));
      std::vector<RowId> candidates;
      table->LookupEqual(left_positions, left_key, &candidates);
      for (RowId id : candidates) {
        const Row& row = table->row(id);
        bool same = true;
        for (size_t i = 0; i < right_key.size(); ++i) {
          if (row[left_cols.size() + i] != right_key[i]) {
            same = false;
            break;
          }
        }
        if (same) return table->Delete(id);
      }
      return Status::NotFound("relationship instance not found");
    }
    case RelationshipStorage::kMaterializedJoin: {
      Table* table = catalog_.GetTable(
          PhysicalMapping::MaterializedTableName(rel_name));
      const TableSchema& ts = table->schema();
      std::vector<std::string> left_names, right_names;
      for (const Column& c : left_cols) {
        left_names.push_back(
            PhysicalMapping::RoleColumnName(rel->left.role, c.name));
      }
      for (const Column& c : right_cols) {
        right_names.push_back(
            PhysicalMapping::RoleColumnName(rel->right.role, c.name));
      }
      ERBIUM_ASSIGN_OR_RETURN(std::vector<int> left_positions,
                              ColumnPositions(*table, left_names));
      ERBIUM_ASSIGN_OR_RETURN(std::vector<int> right_positions,
                              ColumnPositions(*table, right_names));
      std::vector<RowId> left_rows;
      table->LookupEqual(left_positions, left_key, &left_rows);
      RowId edge_row = 0;
      bool found = false;
      for (RowId id : left_rows) {
        const Row& row = table->row(id);
        bool same = true;
        for (size_t i = 0; i < right_positions.size(); ++i) {
          if (row[right_positions[i]].is_null() ||
              row[right_positions[i]] != right_key[i]) {
            same = false;
            break;
          }
        }
        if (same) {
          edge_row = id;
          found = true;
          break;
        }
      }
      if (!found) return Status::NotFound("relationship instance not found");
      // Preserve lone segments when this was their last row.
      std::vector<RowId> right_rows;
      table->LookupEqual(right_positions, right_key, &right_rows);
      Row original = table->row(edge_row);
      ERBIUM_RETURN_NOT_OK(table->Delete(edge_row));
      if (left_rows.size() == 1) {
        Row lone(ts.num_columns(), Value::Null());
        CopyRoleColumns(ts, rel->left.role, original, &lone);
        ERBIUM_RETURN_NOT_OK(table->Insert(std::move(lone)).status());
      }
      if (right_rows.size() == 1) {
        Row lone(ts.num_columns(), Value::Null());
        CopyRoleColumns(ts, rel->right.role, original, &lone);
        ERBIUM_RETURN_NOT_OK(table->Insert(std::move(lone)).status());
      }
      return Status::OK();
    }
    case RelationshipStorage::kFactorized: {
      FactorizedPair* p = pair(PhysicalMapping::PairName(rel_name));
      return p->Disconnect(left_key, right_key);
    }
  }
  return Status::Internal("unreachable relationship storage");
}

}  // namespace erbium
