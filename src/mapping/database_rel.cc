#include "mapping/database.h"

namespace erbium {

namespace {

/// Copies the columns at `positions` from `src` into `dst`.
void CopyColumns(const std::vector<int>& positions, const Row& src, Row* dst) {
  for (int pos : positions) (*dst)[pos] = src[pos];
}

/// The row of `table` holding the edge (left_key, right_key), or -1.
/// `left_rows` receives every row carrying `left_key`.
int64_t FindEdge(const Table& table, const std::vector<int>& left_pos,
                 const std::vector<int>& right_pos, const IndexKey& left_key,
                 const IndexKey& right_key, std::vector<RowId>* left_rows) {
  table.LookupEqual(left_pos, left_key, left_rows);
  for (RowId id : *left_rows) {
    const Row& row = table.row(id);
    bool same = right_key.size() == right_pos.size();
    for (size_t i = 0; same && i < right_pos.size(); ++i) {
      same = !row[right_pos[i]].is_null() && row[right_pos[i]] == right_key[i];
    }
    if (same) return static_cast<int64_t>(id);
  }
  return -1;
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

Status MappedDatabase::ClearForeignKeys(const RelationshipLayout& r,
                                        const IndexKey& key) {
  const EntityLayout& many = r.many_is_left ? *r.left : *r.right;
  for (size_t i = 0; i < r.carriers.size(); ++i) {
    Table* table = many.probes[i].table;
    const RelationshipLayout::FkCarrier& carrier = r.carriers[i];
    for (RowId id : RowsWhere(*table, carrier.key, key)) {
      Row row = table->row(id);
      NullOut(carrier.key, &row);
      NullOut(carrier.attributes, &row);
      ERBIUM_RETURN_NOT_OK(table->Update(id, std::move(row)));
    }
  }
  return Status::OK();
}

Status MappedDatabase::DetachSide(const RelationshipLayout& r, bool left,
                                  const IndexKey& key) {
  Table* table = r.table;
  const std::vector<int>& other_key = left ? r.right_key : r.left_key;
  for (RowId id : RowsWhere(*table, left ? r.left_key : r.right_key, key)) {
    Row row = table->row(id);
    // A lone row goes, and so does a joined row whose partner appears on
    // another row; otherwise the partner stays, as a lone row.
    bool drop = row[other_key.front()].is_null();
    if (!drop) {
      IndexKey partner;
      for (int pos : other_key) partner.push_back(row[pos]);
      drop = RowsWhere(*table, other_key, partner).size() > 1;
    }
    if (drop) {
      ERBIUM_RETURN_NOT_OK(table->Delete(id));
      continue;
    }
    NullOut(left ? r.left_columns : r.right_columns, &row);
    ERBIUM_RETURN_NOT_OK(table->Update(id, std::move(row)));
  }
  return Status::OK();
}

Status MappedDatabase::InsertRelationshipImpl(const RelationshipLayout& r,
                                              const IndexKey& left_key,
                                              const IndexKey& right_key,
                                              const Value& attrs) {
  const std::string& rel_name = r.def->name;
  // Referential integrity on both sides — enforceable under every
  // mapping here (the paper notes this is hard on raw relational M3).
  if (!EntityExists(*r.left, left_key)) {
    return Status::ConstraintViolation("left participant of " + rel_name +
                                       " does not exist");
  }
  if (!EntityExists(*r.right, right_key)) {
    return Status::ConstraintViolation("right participant of " + rel_name +
                                       " does not exist");
  }
  ERBIUM_RETURN_NOT_OK(r.left->CheckKeyTypes(left_key));
  ERBIUM_RETURN_NOT_OK(r.right->CheckKeyTypes(right_key));

  // Cardinality: a kOne participant admits at most one instance per
  // instance of the other side. Foreign-key storage enforces this through
  // FK occupancy, join tables through their unique indexes; the
  // joined-storage variants are probed explicitly here.
  auto linked = [&](bool left, const IndexKey& key) {
    if (r.pair != nullptr) {
      int64_t i = left ? r.pair->FindLeft(key) : r.pair->FindRight(key);
      return i >= 0 && !(left ? r.pair->right_neighbors(i)
                              : r.pair->left_neighbors(i))
                            .empty();
    }
    const std::vector<int>& other = left ? r.right_key : r.left_key;
    for (RowId id : RowsWhere(*r.table, left ? r.left_key : r.right_key, key)) {
      if (!r.table->row(id)[other.front()].is_null()) return true;
    }
    return false;
  };
  if (r.storage == RelationshipStorage::kFactorized ||
      r.storage == RelationshipStorage::kMaterializedJoin) {
    if (r.def->left.cardinality == Cardinality::kOne &&
        linked(false, right_key)) {
      return Status::ConstraintViolation(
          "cardinality violation: right participant already linked in " +
          rel_name);
    }
    if (r.def->right.cardinality == Cardinality::kOne &&
        linked(true, left_key)) {
      return Status::ConstraintViolation(
          "cardinality violation: left participant already linked in " +
          rel_name);
    }
  }

  auto attr_value = [&](size_t i) -> Value {
    const Value* v = attrs.kind() == TypeKind::kStruct
                         ? attrs.FindField(r.def->attributes[i].name)
                         : nullptr;
    return v == nullptr ? Value::Null() : *v;
  };

  switch (r.storage) {
    case RelationshipStorage::kForeignKey: {
      const IndexKey& many_key = r.many_is_left ? left_key : right_key;
      const IndexKey& one_key = r.many_is_left ? right_key : left_key;
      SegmentRef ref =
          *FindSegmentRow(r.many_is_left ? *r.left : *r.right, many_key);
      const RelationshipLayout::FkCarrier& carrier = r.carriers[ref.probe];
      Row row = ref.table->row(ref.row);
      for (size_t i = 0; i < carrier.key.size(); ++i) {
        if (!row[carrier.key[i]].is_null()) {
          return Status::ConstraintViolation(
              "participant already linked through " + rel_name);
        }
        row[carrier.key[i]] = one_key[i];
      }
      for (size_t a = 0; a < carrier.attributes.size(); ++a) {
        if (carrier.attributes[a] >= 0) {
          row[carrier.attributes[a]] = attr_value(a);
        }
      }
      return ref.table->Update(ref.row, std::move(row));
    }
    case RelationshipStorage::kJoinTable: {
      std::vector<RowId> left_rows;
      if (FindEdge(*r.table, r.left_key, r.right_key, left_key, right_key,
                   &left_rows) >= 0) {
        return Status::AlreadyExists("relationship instance already exists");
      }
      Row row(r.table->schema().num_columns(), Value::Null());
      for (size_t i = 0; i < left_key.size(); ++i) {
        row[r.left_key[i]] = left_key[i];
      }
      for (size_t i = 0; i < right_key.size(); ++i) {
        row[r.right_key[i]] = right_key[i];
      }
      for (size_t a = 0; a < r.attributes.size(); ++a) {
        row[r.attributes[a]] = attr_value(a);
      }
      return r.table->Insert(std::move(row)).status();
    }
    case RelationshipStorage::kMaterializedJoin: {
      Table* table = r.table;
      std::vector<RowId> left_rows;
      if (FindEdge(*table, r.left_key, r.right_key, left_key, right_key,
                   &left_rows) >= 0) {
        return Status::AlreadyExists("relationship instance already exists");
      }
      std::vector<RowId> right_rows = RowsWhere(*table, r.right_key, right_key);
      if (left_rows.empty() || right_rows.empty()) {
        return Status::Internal("materialized segment rows missing");
      }
      // A lone row of either side is reused for the joined row.
      auto lone = [&](const std::vector<RowId>& ids,
                      const std::vector<int>& other) -> int64_t {
        for (RowId id : ids) {
          if (table->row(id)[other.front()].is_null()) return id;
        }
        return -1;
      };
      int64_t lone_left = lone(left_rows, r.right_key);
      int64_t lone_right = lone(right_rows, r.left_key);
      Row merged(table->schema().num_columns(), Value::Null());
      CopyColumns(r.left_columns, table->row(left_rows.front()), &merged);
      CopyColumns(r.right_columns, table->row(right_rows.front()), &merged);
      for (size_t a = 0; a < r.attributes.size(); ++a) {
        if (r.attributes[a] >= 0) merged[r.attributes[a]] = attr_value(a);
      }
      if (lone_left >= 0) {
        ERBIUM_RETURN_NOT_OK(table->Update(lone_left, std::move(merged)));
        return lone_right >= 0 ? table->Delete(lone_right) : Status::OK();
      }
      if (lone_right >= 0) return table->Update(lone_right, std::move(merged));
      return table->Insert(std::move(merged)).status();
    }
    case RelationshipStorage::kFactorized:
      return r.pair->Connect(left_key, right_key);
  }
  return Status::Internal("unreachable relationship storage");
}

Status MappedDatabase::DeleteRelationshipImpl(const RelationshipLayout& r,
                                              const IndexKey& left_key,
                                              const IndexKey& right_key) {
  auto not_found = [] {
    return Status::NotFound("relationship instance not found");
  };
  if (left_key.size() != r.left->key_names.size() ||
      right_key.size() != r.right->key_names.size()) {
    return not_found();
  }
  switch (r.storage) {
    case RelationshipStorage::kForeignKey: {
      const IndexKey& many_key = r.many_is_left ? left_key : right_key;
      const IndexKey& one_key = r.many_is_left ? right_key : left_key;
      std::optional<SegmentRef> ref =
          FindSegmentRow(r.many_is_left ? *r.left : *r.right, many_key);
      if (!ref) return not_found();
      const RelationshipLayout::FkCarrier& carrier = r.carriers[ref->probe];
      Row row = ref->table->row(ref->row);
      for (size_t i = 0; i < carrier.key.size(); ++i) {
        const Value& fk = row[carrier.key[i]];
        if (fk.is_null() || fk != one_key[i]) return not_found();
      }
      NullOut(carrier.key, &row);
      NullOut(carrier.attributes, &row);
      return ref->table->Update(ref->row, std::move(row));
    }
    case RelationshipStorage::kJoinTable: {
      std::vector<RowId> left_rows;
      int64_t edge = FindEdge(*r.table, r.left_key, r.right_key, left_key,
                              right_key, &left_rows);
      return edge < 0 ? not_found() : r.table->Delete(edge);
    }
    case RelationshipStorage::kMaterializedJoin: {
      Table* table = r.table;
      std::vector<RowId> left_rows;
      int64_t edge = FindEdge(*table, r.left_key, r.right_key, left_key,
                              right_key, &left_rows);
      if (edge < 0) return not_found();
      size_t right_rows = RowsWhere(*table, r.right_key, right_key).size();
      Row original = table->row(edge);
      ERBIUM_RETURN_NOT_OK(table->Delete(edge));
      // Preserve lone segments when this was their last row.
      for (bool left : {true, false}) {
        if ((left ? left_rows.size() : right_rows) != 1) continue;
        Row lone(table->schema().num_columns(), Value::Null());
        CopyColumns(left ? r.left_columns : r.right_columns, original, &lone);
        ERBIUM_RETURN_NOT_OK(table->Insert(std::move(lone)).status());
      }
      return Status::OK();
    }
    case RelationshipStorage::kFactorized:
      return r.pair->Disconnect(left_key, right_key);
  }
  return Status::Internal("unreachable relationship storage");
}

}  // namespace erbium
