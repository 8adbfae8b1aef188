#include "mapping/database.h"

#include <algorithm>

#include "common/union_find.h"
#include "obs/metrics.h"

namespace erbium {

namespace {

/// Value of a named column in a table row; Internal error if absent.
Result<Value> ColumnValue(const Table& table, const Row& row,
                          const std::string& column) {
  int idx = table.schema().ColumnIndex(column);
  if (idx < 0) {
    return Status::Internal("table " + table.name() + " has no column " +
                            column);
  }
  return row[idx];
}

/// Builds a row for a table by asking `provider` for each column value.
template <typename Provider>
Result<Row> BuildRow(const TableSchema& schema, Provider&& provider) {
  Row row;
  row.reserve(schema.num_columns());
  for (const Column& col : schema.columns()) {
    ERBIUM_ASSIGN_OR_RETURN(Value v, provider(col));
    row.push_back(std::move(v));
  }
  return row;
}

}  // namespace

Status MappedDatabase::Counted(Status s, const char* counter_name) {
  if (s.ok()) {
    obs::MetricsRegistry::Global().counter(counter_name).Increment();
  }
  return s;
}

// ---- logical CRUD choke points -------------------------------------------------
//
// Each public mutation applies in memory first, then bumps its crud.*
// counter and writes its record through the durability hook (when one is
// attached) while still holding its lock domain. It acknowledges the
// caller only once that record is durable, a wait that happens after the
// domain is released. A hook failure (real I/O trouble or an injected
// crash) is returned to the caller: the write was applied in memory but
// never acknowledged, so recovery is free to drop it.

template <typename Apply, typename Log>
Status MappedDatabase::ApplyAndLog(const std::string& construct,
                                   const char* counter_name, Apply apply,
                                   Log log) {
  DurabilityHook* hook = nullptr;
  uint64_t lsn = 0;
  {
    std::lock_guard<std::mutex> domain(LockDomain(construct));
    ERBIUM_RETURN_NOT_OK(Counted(apply(), counter_name));
    hook = durability_;
    if (hook == nullptr) return Status::OK();
    ERBIUM_ASSIGN_OR_RETURN(lsn, log(hook));
  }
  return hook->WaitDurable(lsn);
}

Status MappedDatabase::InsertEntity(const std::string& class_name,
                                    const Value& entity) {
  return ApplyAndLog(
      class_name, "crud.entity_inserts",
      [&] { return InsertEntityImpl(class_name, entity); },
      [&](DurabilityHook* hook) {
        return hook->LogInsertEntity(class_name, entity);
      });
}

Status MappedDatabase::DeleteEntity(const std::string& class_name,
                                    const IndexKey& key) {
  return ApplyAndLog(
      class_name, "crud.entity_deletes",
      [&] { return DeleteEntityImpl(class_name, key); },
      [&](DurabilityHook* hook) {
        return hook->LogDeleteEntity(class_name, key);
      });
}

Status MappedDatabase::UpdateAttribute(const std::string& class_name,
                                       const IndexKey& key,
                                       const std::string& attr,
                                       const Value& value) {
  return ApplyAndLog(
      class_name, "crud.attribute_updates",
      [&] { return UpdateAttributeImpl(class_name, key, attr, value); },
      [&](DurabilityHook* hook) {
        return hook->LogUpdateAttribute(class_name, key, attr, value);
      });
}

Status MappedDatabase::InsertRelationship(const std::string& rel_name,
                                          const IndexKey& left_key,
                                          const IndexKey& right_key,
                                          const Value& attrs) {
  return ApplyAndLog(
      rel_name, "crud.relationship_inserts",
      [&] {
        return InsertRelationshipImpl(rel_name, left_key, right_key, attrs);
      },
      [&](DurabilityHook* hook) {
        return hook->LogInsertRelationship(rel_name, left_key, right_key,
                                           attrs);
      });
}

Status MappedDatabase::DeleteRelationship(const std::string& rel_name,
                                          const IndexKey& left_key,
                                          const IndexKey& right_key) {
  return ApplyAndLog(
      rel_name, "crud.relationship_deletes",
      [&] { return DeleteRelationshipImpl(rel_name, left_key, right_key); },
      [&](DurabilityHook* hook) {
        return hook->LogDeleteRelationship(rel_name, left_key, right_key);
      });
}

Result<std::unique_ptr<MappedDatabase>> MappedDatabase::Create(
    const ERSchema* schema, MappingSpec spec) {
  ERBIUM_ASSIGN_OR_RETURN(PhysicalMapping mapping,
                          PhysicalMapping::Compile(schema, std::move(spec)));
  std::unique_ptr<MappedDatabase> db(new MappedDatabase(std::move(mapping)));
  ERBIUM_RETURN_NOT_OK(db->Initialize());
  return db;
}

Status MappedDatabase::Initialize() {
  for (const TableSchema& schema : mapping_.tables()) {
    ERBIUM_RETURN_NOT_OK(catalog_.CreateTable(schema).status());
  }
  for (const PhysicalMapping::IndexDef& index : mapping_.indexes()) {
    Table* table = catalog_.GetTable(index.table);
    if (table == nullptr) {
      return Status::Internal("index on missing table " + index.table);
    }
    ERBIUM_RETURN_NOT_OK(table->CreateIndex(index.index_name, index.columns,
                                            index.unique));
  }
  for (const PhysicalMapping::PairDef& def : mapping_.pairs()) {
    pairs_.emplace(def.name, std::make_unique<FactorizedPair>(
                                 def.name, def.left_columns, def.left_key,
                                 def.right_columns, def.right_key));
  }
  // The chosen mapping is persisted inside the database itself as a JSON
  // object, mirroring the paper's prototype ("maintained in a table in
  // the database ... read into memory at initialization time").
  ERBIUM_ASSIGN_OR_RETURN(
      Table * mapping_catalog,
      catalog_.CreateTable(TableSchema(
          kMappingCatalogTable,
          {Column{"name", Type::String(), false},
           Column{"spec_json", Type::String(), false}},
          {0})));
  ERBIUM_RETURN_NOT_OK(
      mapping_catalog
          ->Insert({Value::String(mapping_.spec().name),
                    Value::String(mapping_.spec().ToJson())})
          .status());
  BuildLockDomains();
  return Status::OK();
}

void MappedDatabase::BuildLockDomains() {
  UnionFind components;
  for (const std::string& name : schema().EntitySetNames()) {
    const EntitySetDef* def = schema().FindEntitySet(name);
    components.Find(name);
    if (!def->parent.empty()) components.Unite(name, def->parent);
    if (def->weak && !def->owner.empty()) components.Unite(name, def->owner);
  }
  for (const std::string& name : schema().RelationshipSetNames()) {
    const RelationshipSetDef* def = schema().FindRelationshipSet(name);
    components.Unite(name, def->left.entity);
    components.Unite(name, def->right.entity);
  }

  std::unordered_map<std::string, std::shared_ptr<std::mutex>> by_root;
  lock_domains_.clear();
  for (const std::string& name : components.Names()) {
    std::shared_ptr<std::mutex>& mu = by_root[components.Find(name)];
    if (mu == nullptr) mu = std::make_shared<std::mutex>();
    lock_domains_.emplace(name, mu);
  }
}

std::mutex& MappedDatabase::LockDomain(const std::string& construct) {
  auto it = lock_domains_.find(construct);
  return it == lock_domains_.end() ? *fallback_domain_ : *it->second;
}

Result<MappingSpec> MappedDatabase::LoadPersistedSpec() const {
  const Table* table = catalog_.GetTable(kMappingCatalogTable);
  if (table == nullptr || table->size() == 0) {
    return Status::NotFound("mapping catalog table missing or empty");
  }
  for (RowId id = 0; id < table->slot_count(); ++id) {
    if (!table->IsLive(id)) continue;
    return MappingSpec::FromJson(table->row(id)[1].as_string());
  }
  return Status::NotFound("mapping catalog table has no live rows");
}

FactorizedPair* MappedDatabase::pair(const std::string& name) {
  auto it = pairs_.find(name);
  return it == pairs_.end() ? nullptr : it->second.get();
}

const FactorizedPair* MappedDatabase::pair(const std::string& name) const {
  auto it = pairs_.find(name);
  return it == pairs_.end() ? nullptr : it->second.get();
}

size_t MappedDatabase::ApproximateDataBytes() const {
  size_t total = catalog_.ApproximateDataBytes();
  for (const auto& [name, pair] : pairs_) {
    total += pair->ApproximateDataBytes();
  }
  return total;
}

// ---- small helpers -----------------------------------------------------------

Result<const AttributeDef*> MappedDatabase::FindVisibleAttribute(
    const std::string& class_name, const std::string& attr) const {
  ERBIUM_ASSIGN_OR_RETURN(std::vector<AttributeDef> attrs,
                          schema().AllAttributes(class_name));
  for (const AttributeDef& a : attrs) {
    if (a.name == attr) {
      // Return a pointer into the schema's stable storage.
      ERBIUM_ASSIGN_OR_RETURN(std::string declaring,
                              DeclaringClass(class_name, attr));
      return FindAttribute(schema().FindEntitySet(declaring)->attributes,
                           attr);
    }
  }
  return Status::AnalysisError("entity set " + class_name +
                               " has no attribute " + attr);
}

Result<std::string> MappedDatabase::DeclaringClass(
    const std::string& class_name, const std::string& attr) const {
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> chain,
                          schema().AncestryChain(class_name));
  for (const std::string& cls : chain) {
    if (FindAttribute(schema().FindEntitySet(cls)->attributes, attr) !=
        nullptr) {
      return cls;
    }
  }
  return Status::AnalysisError("entity set " + class_name +
                               " has no attribute " + attr);
}

Result<std::vector<std::string>> MappedDatabase::KeyColumnNames(
    const std::string& class_name) const {
  ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> cols,
                          mapping_.KeyColumns(class_name));
  std::vector<std::string> names;
  names.reserve(cols.size());
  for (const Column& c : cols) names.push_back(c.name);
  return names;
}

Result<IndexKey> MappedDatabase::ExtractFullKey(const std::string& class_name,
                                                const Value& entity) const {
  if (entity.kind() != TypeKind::kStruct) {
    return Status::InvalidArgument("entity value must be a struct");
  }
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                          KeyColumnNames(class_name));
  IndexKey key;
  for (const std::string& name : names) {
    const Value* v = entity.FindField(name);
    if (v == nullptr || v->is_null()) {
      return Status::ConstraintViolation("missing key attribute " + name +
                                         " for entity set " + class_name);
    }
    key.push_back(*v);
  }
  return key;
}

Result<std::vector<int>> MappedDatabase::ColumnPositions(
    const Table& table, const std::vector<std::string>& names) const {
  std::vector<int> out;
  for (const std::string& name : names) {
    int idx = table.schema().ColumnIndex(name);
    if (idx < 0) {
      return Status::Internal("table " + table.name() + " has no column " +
                              name);
    }
    out.push_back(idx);
  }
  return out;
}

Result<MappedDatabase::SegmentRef> MappedDatabase::FindSegmentRow(
    const std::string& class_name, const IndexKey& key) {
  SegmentLocation loc = mapping_.segment_location(class_name);
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> key_names,
                          KeyColumnNames(class_name));
  auto lookup = [&](const std::string& table_name,
                    const std::vector<std::string>& cols)
      -> Result<SegmentRef> {
    Table* table = catalog_.GetTable(table_name);
    if (table == nullptr) {
      return Status::Internal("missing table " + table_name);
    }
    ERBIUM_ASSIGN_OR_RETURN(std::vector<int> positions,
                            ColumnPositions(*table, cols));
    std::vector<RowId> ids;
    table->LookupEqual(positions, key, &ids);
    if (ids.empty()) {
      return Status::NotFound("no " + class_name + " instance with given key");
    }
    return SegmentRef{table, ids.front()};
  };
  switch (loc) {
    case SegmentLocation::kOwnTable:
      return lookup(class_name, key_names);
    case SegmentLocation::kHierarchySingle:
      return lookup(mapping_.SegmentTableName(class_name), key_names);
    case SegmentLocation::kHierarchyDisjoint: {
      for (const std::string& cls : schema().SelfAndDescendants(class_name)) {
        Result<SegmentRef> ref = lookup(cls, key_names);
        if (ref.ok()) return ref;
      }
      return Status::NotFound("no " + class_name +
                              " instance with given key");
    }
    case SegmentLocation::kMaterializedLeft:
    case SegmentLocation::kMaterializedRight: {
      std::string rel_name = mapping_.SwallowingRelationship(class_name);
      const RelationshipSetDef* rel = schema().FindRelationshipSet(rel_name);
      const std::string& role = loc == SegmentLocation::kMaterializedLeft
                                    ? rel->left.role
                                    : rel->right.role;
      std::vector<std::string> cols;
      for (const std::string& name : key_names) {
        cols.push_back(PhysicalMapping::RoleColumnName(role, name));
      }
      return lookup(PhysicalMapping::MaterializedTableName(rel_name), cols);
    }
    default:
      return Status::Internal(
          "FindSegmentRow does not apply to the storage of " + class_name);
  }
}

// ---- membership --------------------------------------------------------------

Result<bool> MappedDatabase::EntityExists(const std::string& class_name,
                                          const IndexKey& key) {
  const EntitySetDef* def = schema().FindEntitySet(class_name);
  if (def == nullptr) {
    return Status::NotFound("no entity set named " + class_name);
  }
  SegmentLocation loc = mapping_.segment_location(class_name);
  if (loc == SegmentLocation::kPairLeft || loc == SegmentLocation::kPairRight) {
    FactorizedPair* p = pair(mapping_.SegmentPairName(class_name));
    return loc == SegmentLocation::kPairLeft ? p->FindLeft(key) >= 0
                                             : p->FindRight(key) >= 0;
  }
  if (loc == SegmentLocation::kFoldedInOwner) {
    ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> owner_cols,
                            mapping_.KeyColumns(def->owner));
    IndexKey owner_key(key.begin(), key.begin() + owner_cols.size());
    Result<SegmentRef> owner = FindSegmentRow(def->owner, owner_key);
    if (!owner.ok()) return false;
    ERBIUM_ASSIGN_OR_RETURN(
        Value folded,
        ColumnValue(*owner->table, owner->table->row(owner->row), class_name));
    if (folded.kind() != TypeKind::kArray) return false;
    for (const Value& element : folded.array()) {
      bool match = true;
      for (size_t i = 0; i < def->partial_key.size(); ++i) {
        const Value* field = element.FindField(def->partial_key[i]);
        if (field == nullptr ||
            *field != key[owner_cols.size() + i]) {
          match = false;
          break;
        }
      }
      if (match) return true;
    }
    return false;
  }
  if (loc == SegmentLocation::kHierarchySingle) {
    Result<SegmentRef> ref = FindSegmentRow(class_name, key);
    if (!ref.ok()) return false;
    ERBIUM_ASSIGN_OR_RETURN(
        Value type_value,
        ColumnValue(*ref->table, ref->table->row(ref->row),
                    PhysicalMapping::kTypeColumn));
    if (type_value.kind() != TypeKind::kString) return false;
    for (const std::string& cls : schema().SelfAndDescendants(class_name)) {
      if (type_value.as_string() == cls) return true;
    }
    return false;
  }
  Result<SegmentRef> ref = FindSegmentRow(class_name, key);
  return ref.ok();
}

Result<std::string> MappedDatabase::SpecificClassOf(
    const std::string& class_name, const IndexKey& key) {
  ERBIUM_ASSIGN_OR_RETURN(bool exists, EntityExists(class_name, key));
  if (!exists) {
    return Status::NotFound("no " + class_name + " instance with given key");
  }
  const EntitySetDef* def = schema().FindEntitySet(class_name);
  if (def->weak) return class_name;
  SegmentLocation loc = mapping_.segment_location(class_name);
  if (loc == SegmentLocation::kHierarchySingle) {
    ERBIUM_ASSIGN_OR_RETURN(SegmentRef ref, FindSegmentRow(class_name, key));
    ERBIUM_ASSIGN_OR_RETURN(
        Value type_value,
        ColumnValue(*ref.table, ref.table->row(ref.row),
                    PhysicalMapping::kTypeColumn));
    return type_value.as_string();
  }
  // Class-table / disjoint / pair-backed: walk down while a subclass holds
  // the key. (With overlapping specializations the first-found deepest
  // class is returned.)
  std::string current = class_name;
  while (true) {
    bool descended = false;
    for (const std::string& child : schema().DirectSubclasses(current)) {
      ERBIUM_ASSIGN_OR_RETURN(bool in_child, EntityExists(child, key));
      if (in_child) {
        current = child;
        descended = true;
        break;
      }
    }
    if (!descended) return current;
  }
}

// ---- insert -------------------------------------------------------------------

Status MappedDatabase::InsertEntityImpl(const std::string& class_name,
                                    const Value& entity) {
  const EntitySetDef* def = schema().FindEntitySet(class_name);
  if (def == nullptr) {
    return Status::NotFound("no entity set named " + class_name);
  }
  ERBIUM_ASSIGN_OR_RETURN(IndexKey key, ExtractFullKey(class_name, entity));
  // Uniqueness across the whole hierarchy.
  std::string uniqueness_scope = class_name;
  if (!def->weak) {
    ERBIUM_ASSIGN_OR_RETURN(uniqueness_scope,
                            schema().HierarchyRoot(class_name));
  }
  ERBIUM_ASSIGN_OR_RETURN(bool exists, EntityExists(uniqueness_scope, key));
  if (exists) {
    return Status::AlreadyExists("an instance of " + uniqueness_scope +
                                 " with this key already exists");
  }
  // Weak entities require their owner (referential integrity of the
  // identifying relationship).
  if (def->weak) {
    ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> owner_cols,
                            mapping_.KeyColumns(def->owner));
    IndexKey owner_key(key.begin(), key.begin() + owner_cols.size());
    ERBIUM_ASSIGN_OR_RETURN(bool owner_exists,
                            EntityExists(def->owner, owner_key));
    if (!owner_exists) {
      return Status::ConstraintViolation("owner instance of weak entity " +
                                         class_name + " does not exist");
    }
  }
  ERBIUM_RETURN_NOT_OK(InsertSegments(class_name, entity, key));
  return InsertMultiValued(class_name, entity, key);
}

Status MappedDatabase::InsertSegments(const std::string& class_name,
                                      const Value& entity,
                                      const IndexKey& key) {
  const EntitySetDef* def = schema().FindEntitySet(class_name);
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> key_names,
                          KeyColumnNames(class_name));

  // Provides a value for one physical column of a segment table.
  auto provider = [&](const Column& col) -> Result<Value> {
    for (size_t i = 0; i < key_names.size(); ++i) {
      if (col.name == key_names[i]) return key[i];
    }
    if (col.name == PhysicalMapping::kTypeColumn) {
      return Value::String(class_name);
    }
    const Value* field = entity.FindField(col.name);
    if (field != nullptr && !field->is_null()) return *field;
    // Missing multi-valued array -> empty array; folded weak column ->
    // empty array; anything else -> null.
    if (col.type != nullptr && col.type->kind() == TypeKind::kArray) {
      return Value::Array({});
    }
    return Value::Null();
  };

  // For strong classes under class-table storage, every class on the
  // ancestry chain contributes its own segment (the leaf may live in a
  // pair or materialized table); single-table and disjoint storage write
  // exactly one row. Weak entities are a single segment.
  SegmentLocation loc = mapping_.segment_location(class_name);
  if (!def->weak && loc != SegmentLocation::kHierarchySingle &&
      loc != SegmentLocation::kHierarchyDisjoint) {
    ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> chain,
                            schema().AncestryChain(class_name));
    if (chain.size() > 1) {
      // Insert ancestor segments first (they are never swallowed), then
      // fall through to the leaf's own segment below.
      for (size_t i = 0; i + 1 < chain.size(); ++i) {
        Table* table = catalog_.GetTable(chain[i]);
        if (table == nullptr) {
          return Status::Internal("missing segment table " + chain[i]);
        }
        ERBIUM_ASSIGN_OR_RETURN(Row row, BuildRow(table->schema(), provider));
        ERBIUM_RETURN_NOT_OK(table->Insert(std::move(row)).status());
      }
    }
  }
  switch (loc) {
    case SegmentLocation::kFoldedInOwner: {
      // Append a struct to the owner's folded array column.
      ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> owner_cols,
                              mapping_.KeyColumns(def->owner));
      IndexKey owner_key(key.begin(), key.begin() + owner_cols.size());
      ERBIUM_ASSIGN_OR_RETURN(SegmentRef owner,
                              FindSegmentRow(def->owner, owner_key));
      int col = owner.table->schema().ColumnIndex(class_name);
      Row row = owner.table->row(owner.row);
      Value::ArrayData elements;
      if (row[col].kind() == TypeKind::kArray) elements = row[col].array();
      Value::StructData fields;
      for (const AttributeDef& attr : def->attributes) {
        const Value* v = entity.FindField(attr.name);
        Value field_value = v == nullptr ? Value::Null() : *v;
        if (attr.multi_valued && field_value.is_null()) {
          field_value = Value::Array({});
        }
        fields.emplace_back(attr.name, std::move(field_value));
      }
      elements.push_back(Value::Struct(std::move(fields)));
      row[col] = Value::Array(std::move(elements));
      return owner.table->Update(owner.row, std::move(row));
    }
    case SegmentLocation::kPairLeft:
    case SegmentLocation::kPairRight: {
      FactorizedPair* p = pair(mapping_.SegmentPairName(class_name));
      const std::vector<Column>& cols = loc == SegmentLocation::kPairLeft
                                            ? p->left_columns()
                                            : p->right_columns();
      Row row;
      for (const Column& col : cols) {
        ERBIUM_ASSIGN_OR_RETURN(Value v, provider(col));
        row.push_back(std::move(v));
      }
      if (loc == SegmentLocation::kPairLeft) {
        return p->InsertLeft(std::move(row)).status();
      }
      return p->InsertRight(std::move(row)).status();
    }
    case SegmentLocation::kMaterializedLeft:
    case SegmentLocation::kMaterializedRight: {
      // A lone row: this side's columns set, the other side null.
      std::string rel_name = mapping_.SwallowingRelationship(class_name);
      const RelationshipSetDef* rel = schema().FindRelationshipSet(rel_name);
      const std::string& role = loc == SegmentLocation::kMaterializedLeft
                                    ? rel->left.role
                                    : rel->right.role;
      Table* table = catalog_.GetTable(
          PhysicalMapping::MaterializedTableName(rel_name));
      std::string prefix = role + "_";
      ERBIUM_ASSIGN_OR_RETURN(
          Row row, BuildRow(table->schema(),
                            [&](const Column& col) -> Result<Value> {
                              if (col.name.rfind(prefix, 0) == 0) {
                                Column unprefixed = col;
                                unprefixed.name =
                                    col.name.substr(prefix.size());
                                return provider(unprefixed);
                              }
                              return Value::Null();
                            }));
      return table->Insert(std::move(row)).status();
    }
    case SegmentLocation::kHierarchySingle:
    case SegmentLocation::kOwnTable:
    case SegmentLocation::kHierarchyDisjoint: {
      std::string table_name =
          loc == SegmentLocation::kHierarchySingle
              ? mapping_.SegmentTableName(class_name)
              : class_name;
      Table* table = catalog_.GetTable(table_name);
      if (table == nullptr) {
        return Status::Internal("missing segment table " + table_name);
      }
      ERBIUM_ASSIGN_OR_RETURN(Row row, BuildRow(table->schema(), provider));
      return table->Insert(std::move(row)).status();
    }
  }
  return Status::Internal("unreachable segment location");
}

Status MappedDatabase::InsertMultiValued(const std::string& class_name,
                                         const Value& entity,
                                         const IndexKey& key) {
  const EntitySetDef* def = schema().FindEntitySet(class_name);
  if (def->weak && mapping_.spec().weak_storage(class_name) ==
                       WeakEntityStorage::kFoldedArray) {
    return Status::OK();  // inside the folded struct
  }
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> chain,
                          schema().AncestryChain(class_name));
  for (const std::string& cls : chain) {
    const EntitySetDef* cls_def = schema().FindEntitySet(cls);
    for (const AttributeDef& attr : cls_def->attributes) {
      if (!attr.multi_valued) continue;
      if (mapping_.spec().multi_valued_storage(cls, attr.name) !=
          MultiValuedStorage::kSeparateTable) {
        continue;
      }
      const Value* field = entity.FindField(attr.name);
      if (field == nullptr || field->is_null()) continue;
      if (field->kind() != TypeKind::kArray) {
        return Status::InvalidArgument("multi-valued attribute " + attr.name +
                                       " must be an array");
      }
      Table* table =
          catalog_.GetTable(PhysicalMapping::MvTableName(cls, attr.name));
      for (const Value& element : field->array()) {
        Row row = key;
        row.push_back(element);
        ERBIUM_RETURN_NOT_OK(table->Insert(std::move(row)).status());
      }
    }
  }
  return Status::OK();
}

// ---- delete helpers ------------------------------------------------------------

Status MappedDatabase::DeleteWhereKey(Table* table,
                                      const std::vector<std::string>& key_cols,
                                      const IndexKey& key) {
  ERBIUM_ASSIGN_OR_RETURN(std::vector<int> positions,
                          ColumnPositions(*table, key_cols));
  std::vector<RowId> ids;
  table->LookupEqual(positions, key, &ids);
  for (RowId id : ids) {
    ERBIUM_RETURN_NOT_OK(table->Delete(id));
  }
  return Status::OK();
}

Status MappedDatabase::ClearForeignKeysReferencing(
    const std::string& one_class, const IndexKey& key) {
  for (const std::string& rel_name : schema().RelationshipSetNames()) {
    const RelationshipSetDef* rel = schema().FindRelationshipSet(rel_name);
    if (mapping_.spec().relationship_storage(*rel) !=
        RelationshipStorage::kForeignKey) {
      continue;
    }
    if (!schema().IsSelfOrDescendant(one_class, rel->one_side().entity) &&
        rel->one_side().entity != one_class) {
      continue;
    }
    // FK columns live on the many side's own-attribute location(s).
    ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> one_key,
                            mapping_.KeyColumns(rel->one_side().entity));
    if (one_key.size() != key.size()) continue;  // different key shape
    std::vector<std::string> fk_names;
    for (const Column& c : one_key) {
      fk_names.push_back(PhysicalMapping::FkColumnName(rel_name, c.name));
    }
    const std::string& many = rel->many_side().entity;
    std::vector<std::string> carriers;
    switch (mapping_.segment_location(many)) {
      case SegmentLocation::kOwnTable:
        carriers.push_back(many);
        break;
      case SegmentLocation::kHierarchySingle:
        carriers.push_back(mapping_.SegmentTableName(many));
        break;
      case SegmentLocation::kHierarchyDisjoint:
        for (const std::string& cls : schema().SelfAndDescendants(many)) {
          carriers.push_back(cls);
        }
        break;
      default:
        return Status::Internal("FK carrier for " + many + " missing");
    }
    for (const std::string& carrier : carriers) {
      Table* table = catalog_.GetTable(carrier);
      ERBIUM_ASSIGN_OR_RETURN(std::vector<int> positions,
                              ColumnPositions(*table, fk_names));
      std::vector<RowId> ids;
      table->LookupEqual(positions, key, &ids);
      for (RowId id : ids) {
        Row row = table->row(id);
        for (int pos : positions) row[pos] = Value::Null();
        // Also clear folded relationship attribute columns.
        for (const AttributeDef& attr : rel->attributes) {
          int attr_pos = table->schema().ColumnIndex(
              PhysicalMapping::FkColumnName(rel_name, attr.name));
          if (attr_pos >= 0) row[attr_pos] = Value::Null();
        }
        ERBIUM_RETURN_NOT_OK(table->Update(id, std::move(row)));
      }
    }
  }
  return Status::OK();
}

// ---- delete -------------------------------------------------------------------

Status MappedDatabase::DeleteEntityImpl(const std::string& class_name,
                                    const IndexKey& key) {
  const EntitySetDef* def = schema().FindEntitySet(class_name);
  if (def == nullptr) {
    return Status::NotFound("no entity set named " + class_name);
  }
  ERBIUM_ASSIGN_OR_RETURN(bool exists, EntityExists(class_name, key));
  if (!exists) {
    return Status::NotFound("no " + class_name + " instance with given key");
  }
  // Deleting through any handle removes the whole instance: start from the
  // hierarchy root so every segment goes.
  std::string root = class_name;
  if (!def->weak) {
    ERBIUM_ASSIGN_OR_RETURN(root, schema().HierarchyRoot(class_name));
  }
  // Member classes (root-down) the instance belongs to.
  std::vector<std::string> members;
  for (const std::string& cls : schema().SelfAndDescendants(root)) {
    ERBIUM_ASSIGN_OR_RETURN(bool member, EntityExists(cls, key));
    if (member) members.push_back(cls);
  }

  // 1. Cascade to owned weak entities.
  for (const std::string& cls : members) {
    for (const std::string& weak : schema().WeakEntitiesOwnedBy(cls)) {
      WeakEntityStorage ws = mapping_.spec().weak_storage(weak);
      if (ws == WeakEntityStorage::kFoldedArray) {
        continue;  // dies with the owner segment row
      }
      const EntitySetDef* weak_def = schema().FindEntitySet(weak);
      ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> owner_key_names,
                              KeyColumnNames(cls));
      SegmentLocation weak_loc = mapping_.segment_location(weak);
      // Enumerate this owner's weak instances, then recurse.
      std::vector<IndexKey> weak_keys;
      if (weak_loc == SegmentLocation::kOwnTable) {
        Table* table = catalog_.GetTable(weak);
        ERBIUM_ASSIGN_OR_RETURN(std::vector<int> positions,
                                ColumnPositions(*table, owner_key_names));
        std::vector<RowId> ids;
        table->LookupEqual(positions, key, &ids);
        ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> weak_key_names,
                                KeyColumnNames(weak));
        ERBIUM_ASSIGN_OR_RETURN(std::vector<int> weak_key_positions,
                                ColumnPositions(*table, weak_key_names));
        for (RowId id : ids) {
          const Row& row = table->row(id);
          IndexKey weak_key;
          for (int pos : weak_key_positions) weak_key.push_back(row[pos]);
          weak_keys.push_back(std::move(weak_key));
        }
      } else {
        // Pair- or materialized-backed weak entity: scan its side.
        ERBIUM_ASSIGN_OR_RETURN(OperatorPtr scan, ScanEntity(weak, {}));
        ERBIUM_ASSIGN_OR_RETURN(std::vector<Row> rows,
                                CollectRows(scan.get()));
        for (const Row& row : rows) {
          IndexKey weak_key(row.begin(),
                            row.begin() + owner_key_names.size() +
                                weak_def->partial_key.size());
          bool owned = true;
          for (size_t i = 0; i < key.size(); ++i) {
            if (weak_key[i] != key[i]) {
              owned = false;
              break;
            }
          }
          if (owned) weak_keys.push_back(std::move(weak_key));
        }
      }
      // The cascade runs inside the owner's lock domain (weak entities
      // share it). Each owned instance is applied and logged like a
      // public delete; the owner's own, later record is the one the
      // caller waits on, and its durability covers these.
      for (const IndexKey& weak_key : weak_keys) {
        ERBIUM_RETURN_NOT_OK(
            Counted(DeleteEntityImpl(weak, weak_key), "crud.entity_deletes"));
        if (durability_ != nullptr) {
          ERBIUM_RETURN_NOT_OK(
              durability_->LogDeleteEntity(weak, weak_key).status());
        }
      }
    }
  }

  // 2. Remove relationship instances touching the entity.
  for (const std::string& rel_name : schema().RelationshipSetNames()) {
    const RelationshipSetDef* rel = schema().FindRelationshipSet(rel_name);
    RelationshipStorage storage = mapping_.spec().relationship_storage(*rel);
    for (bool left : {true, false}) {
      const Participant& p = left ? rel->left : rel->right;
      bool participates = false;
      for (const std::string& cls : members) {
        if (schema().IsSelfOrDescendant(cls, p.entity) || cls == p.entity) {
          participates = true;
        }
      }
      if (!participates) continue;
      ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> side_key,
                              mapping_.KeyColumns(p.entity));
      if (side_key.size() != key.size()) continue;
      switch (storage) {
        case RelationshipStorage::kJoinTable: {
          Table* table = catalog_.GetTable(rel_name);
          std::vector<std::string> cols;
          for (const Column& c : side_key) {
            cols.push_back(PhysicalMapping::RoleColumnName(p.role, c.name));
          }
          ERBIUM_RETURN_NOT_OK(DeleteWhereKey(table, cols, key));
          break;
        }
        case RelationshipStorage::kForeignKey:
          // Many side: FK columns die with the segment row. One side:
          // null out referencing FKs.
          if (p.role == rel->one_side().role) {
            ERBIUM_RETURN_NOT_OK(
                ClearForeignKeysReferencing(p.entity, key));
          }
          break;
        case RelationshipStorage::kMaterializedJoin: {
          Table* table = catalog_.GetTable(
              PhysicalMapping::MaterializedTableName(rel_name));
          std::vector<std::string> cols;
          for (const Column& c : side_key) {
            cols.push_back(PhysicalMapping::RoleColumnName(p.role, c.name));
          }
          ERBIUM_ASSIGN_OR_RETURN(std::vector<int> positions,
                                  ColumnPositions(*table, cols));
          // The other side's key columns decide lone vs joined rows.
          const Participant& other = left ? rel->right : rel->left;
          ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> other_key,
                                  mapping_.KeyColumns(other.entity));
          std::vector<std::string> other_cols;
          for (const Column& c : other_key) {
            other_cols.push_back(
                PhysicalMapping::RoleColumnName(other.role, c.name));
          }
          ERBIUM_ASSIGN_OR_RETURN(std::vector<int> other_positions,
                                  ColumnPositions(*table, other_cols));
          std::vector<RowId> ids;
          table->LookupEqual(positions, key, &ids);
          for (RowId id : ids) {
            Row row = table->row(id);
            bool other_present = !row[other_positions.front()].is_null();
            if (!other_present) {
              ERBIUM_RETURN_NOT_OK(table->Delete(id));
              continue;
            }
            // Null out this side entirely (the partner becomes lone,
            // but duplicates of the partner may remain on other rows —
            // deduplicate: if the partner already appears on another
            // row, drop this row instead).
            std::vector<RowId> partner_rows;
            IndexKey partner_key;
            for (int pos : other_positions) {
              partner_key.push_back(row[pos]);
            }
            table->LookupEqual(other_positions, partner_key, &partner_rows);
            if (partner_rows.size() > 1) {
              ERBIUM_RETURN_NOT_OK(table->Delete(id));
            } else {
              std::string prefix = p.role + "_";
              for (size_t c = 0; c < table->schema().num_columns(); ++c) {
                if (table->schema().column(c).name.rfind(prefix, 0) == 0) {
                  row[c] = Value::Null();
                }
              }
              ERBIUM_RETURN_NOT_OK(table->Update(id, std::move(row)));
            }
          }
          break;
        }
        case RelationshipStorage::kFactorized: {
          FactorizedPair* p_pair =
              pair(PhysicalMapping::PairName(rel_name));
          // Row + edges die together below (segment deletion) when the
          // entity lives in this pair; otherwise it cannot be factorized
          // (both sides are always swallowed).
          (void)p_pair;
          break;
        }
      }
    }
  }

  // 3. Multi-valued side tables.
  for (const std::string& cls : members) {
    const EntitySetDef* cls_def = schema().FindEntitySet(cls);
    for (const AttributeDef& attr : cls_def->attributes) {
      if (!attr.multi_valued) continue;
      if (mapping_.spec().multi_valued_storage(cls, attr.name) !=
          MultiValuedStorage::kSeparateTable) {
        continue;
      }
      Table* table =
          catalog_.GetTable(PhysicalMapping::MvTableName(cls, attr.name));
      if (table == nullptr) continue;  // folded weak: no side table
      ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> key_names,
                              KeyColumnNames(cls));
      ERBIUM_RETURN_NOT_OK(DeleteWhereKey(table, key_names, key));
    }
  }

  // 4. Segments.
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    const std::string& cls = *it;
    SegmentLocation loc = mapping_.segment_location(cls);
    switch (loc) {
      case SegmentLocation::kOwnTable:
      case SegmentLocation::kHierarchySingle:
      case SegmentLocation::kHierarchyDisjoint: {
        Result<SegmentRef> ref = FindSegmentRow(cls, key);
        if (ref.ok()) {
          // Single-table rows are shared by the whole chain: delete once
          // (when processing the root member).
          if (loc == SegmentLocation::kHierarchySingle && cls != members.front()) {
            break;
          }
          ERBIUM_RETURN_NOT_OK(ref->table->Delete(ref->row));
        }
        break;
      }
      case SegmentLocation::kFoldedInOwner: {
        const EntitySetDef* weak_def = schema().FindEntitySet(cls);
        ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> owner_cols,
                                mapping_.KeyColumns(weak_def->owner));
        IndexKey owner_key(key.begin(), key.begin() + owner_cols.size());
        ERBIUM_ASSIGN_OR_RETURN(SegmentRef owner,
                                FindSegmentRow(weak_def->owner, owner_key));
        int col = owner.table->schema().ColumnIndex(cls);
        Row row = owner.table->row(owner.row);
        Value::ArrayData remaining;
        if (row[col].kind() == TypeKind::kArray) {
          for (const Value& element : row[col].array()) {
            bool match = true;
            for (size_t i = 0; i < weak_def->partial_key.size(); ++i) {
              const Value* field =
                  element.FindField(weak_def->partial_key[i]);
              if (field == nullptr ||
                  *field != key[owner_cols.size() + i]) {
                match = false;
                break;
              }
            }
            if (!match) remaining.push_back(element);
          }
        }
        row[col] = Value::Array(std::move(remaining));
        ERBIUM_RETURN_NOT_OK(owner.table->Update(owner.row, std::move(row)));
        break;
      }
      case SegmentLocation::kPairLeft:
        ERBIUM_RETURN_NOT_OK(
            pair(mapping_.SegmentPairName(cls))->EraseLeft(key));
        break;
      case SegmentLocation::kPairRight:
        ERBIUM_RETURN_NOT_OK(
            pair(mapping_.SegmentPairName(cls))->EraseRight(key));
        break;
      case SegmentLocation::kMaterializedLeft:
      case SegmentLocation::kMaterializedRight: {
        // Handled like relationship removal plus lone-row cleanup: drop
        // every row of this side; partners without other rows become
        // lone rows (other side already nulled by step 2 merge logic —
        // here remove remaining rows carrying this segment).
        std::string rel_name = mapping_.SwallowingRelationship(cls);
        const RelationshipSetDef* rel =
            schema().FindRelationshipSet(rel_name);
        bool is_left = loc == SegmentLocation::kMaterializedLeft;
        const Participant& self = is_left ? rel->left : rel->right;
        const Participant& other = is_left ? rel->right : rel->left;
        Table* table = catalog_.GetTable(
            PhysicalMapping::MaterializedTableName(rel_name));
        ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> self_key,
                                mapping_.KeyColumns(self.entity));
        std::vector<std::string> self_cols;
        for (const Column& c : self_key) {
          self_cols.push_back(
              PhysicalMapping::RoleColumnName(self.role, c.name));
        }
        ERBIUM_ASSIGN_OR_RETURN(std::vector<int> self_positions,
                                ColumnPositions(*table, self_cols));
        ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> other_key,
                                mapping_.KeyColumns(other.entity));
        std::vector<std::string> other_cols;
        for (const Column& c : other_key) {
          other_cols.push_back(
              PhysicalMapping::RoleColumnName(other.role, c.name));
        }
        ERBIUM_ASSIGN_OR_RETURN(std::vector<int> other_positions,
                                ColumnPositions(*table, other_cols));
        std::vector<RowId> ids;
        table->LookupEqual(self_positions, key, &ids);
        for (RowId id : ids) {
          Row row = table->row(id);
          bool has_partner = !row[other_positions.front()].is_null();
          if (!has_partner) {
            ERBIUM_RETURN_NOT_OK(table->Delete(id));
            continue;
          }
          IndexKey partner_key;
          for (int pos : other_positions) partner_key.push_back(row[pos]);
          std::vector<RowId> partner_rows;
          table->LookupEqual(other_positions, partner_key, &partner_rows);
          if (partner_rows.size() > 1) {
            ERBIUM_RETURN_NOT_OK(table->Delete(id));
          } else {
            std::string prefix = self.role + "_";
            for (size_t c = 0; c < table->schema().num_columns(); ++c) {
              if (table->schema().column(c).name.rfind(prefix, 0) == 0) {
                row[c] = Value::Null();
              }
            }
            ERBIUM_RETURN_NOT_OK(table->Update(id, std::move(row)));
          }
        }
        break;
      }
    }
  }
  return Status::OK();
}

// ---- get / update / count ------------------------------------------------------

Result<Value> MappedDatabase::GetEntity(const std::string& class_name,
                                        const IndexKey& key) {
  ERBIUM_ASSIGN_OR_RETURN(bool exists, EntityExists(class_name, key));
  if (!exists) {
    return Status::NotFound("no " + class_name + " instance with given key");
  }
  ERBIUM_ASSIGN_OR_RETURN(std::string specific,
                          SpecificClassOf(class_name, key));
  ERBIUM_ASSIGN_OR_RETURN(std::vector<AttributeDef> attrs,
                          schema().AllAttributes(specific));
  std::vector<std::string> attr_names;
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> key_names,
                          KeyColumnNames(class_name));
  std::set<std::string> key_set(key_names.begin(), key_names.end());
  for (const AttributeDef& attr : attrs) {
    if (key_set.count(attr.name) == 0) attr_names.push_back(attr.name);
  }
  ERBIUM_ASSIGN_OR_RETURN(OperatorPtr plan,
                          LookupEntity(specific, key, attr_names));
  ERBIUM_ASSIGN_OR_RETURN(std::vector<Row> rows, CollectRows(plan.get()));
  if (rows.empty()) {
    return Status::Internal("instance disappeared during GetEntity");
  }
  const Row& row = rows.front();
  Value::StructData fields;
  fields.emplace_back("_class", Value::String(specific));
  for (size_t i = 0; i < key_names.size(); ++i) {
    fields.emplace_back(key_names[i], key[i]);
  }
  for (size_t i = 0; i < attr_names.size(); ++i) {
    fields.emplace_back(attr_names[i], row[key_names.size() + i]);
  }
  return Value::Struct(std::move(fields));
}

Status MappedDatabase::UpdateAttributeImpl(const std::string& class_name,
                                       const IndexKey& key,
                                       const std::string& attr,
                                       const Value& value) {
  ERBIUM_ASSIGN_OR_RETURN(std::string declaring,
                          DeclaringClass(class_name, attr));
  ERBIUM_ASSIGN_OR_RETURN(const AttributeDef* attr_def,
                          FindVisibleAttribute(class_name, attr));
  ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> key_names,
                          KeyColumnNames(class_name));
  for (const std::string& key_name : key_names) {
    if (key_name == attr) {
      return Status::InvalidArgument("key attribute " + attr +
                                     " cannot be updated");
    }
  }
  ERBIUM_ASSIGN_OR_RETURN(bool exists, EntityExists(declaring, key));
  if (!exists) {
    return Status::NotFound("no " + declaring + " instance with given key");
  }
  const EntitySetDef* def = schema().FindEntitySet(declaring);
  bool folded_weak =
      def->weak && mapping_.spec().weak_storage(declaring) ==
                       WeakEntityStorage::kFoldedArray;
  if (attr_def->multi_valued && !folded_weak &&
      mapping_.spec().multi_valued_storage(declaring, attr) ==
          MultiValuedStorage::kSeparateTable) {
    if (!value.is_null() && value.kind() != TypeKind::kArray) {
      return Status::InvalidArgument("multi-valued attribute " + attr +
                                     " must be set to an array");
    }
    Table* table =
        catalog_.GetTable(PhysicalMapping::MvTableName(declaring, attr));
    ERBIUM_RETURN_NOT_OK(DeleteWhereKey(table, key_names, key));
    if (!value.is_null()) {
      for (const Value& element : value.array()) {
        Row row = key;
        row.push_back(element);
        ERBIUM_RETURN_NOT_OK(table->Insert(std::move(row)).status());
      }
    }
    return Status::OK();
  }
  if (folded_weak) {
    // Update the field inside the folded struct element.
    ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> owner_cols,
                            mapping_.KeyColumns(def->owner));
    IndexKey owner_key(key.begin(), key.begin() + owner_cols.size());
    ERBIUM_ASSIGN_OR_RETURN(SegmentRef owner,
                            FindSegmentRow(def->owner, owner_key));
    int col = owner.table->schema().ColumnIndex(declaring);
    Row row = owner.table->row(owner.row);
    Value::ArrayData elements;
    if (row[col].kind() == TypeKind::kArray) elements = row[col].array();
    for (Value& element : elements) {
      bool match = true;
      for (size_t i = 0; i < def->partial_key.size(); ++i) {
        const Value* field = element.FindField(def->partial_key[i]);
        if (field == nullptr || *field != key[owner_cols.size() + i]) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      Value::StructData fields = element.struct_fields();
      for (auto& [name, v] : fields) {
        if (name == attr) v = value;
      }
      element = Value::Struct(std::move(fields));
    }
    row[col] = Value::Array(std::move(elements));
    return owner.table->Update(owner.row, std::move(row));
  }
  // Inline column on the declaring class's segment location.
  SegmentLocation loc = mapping_.segment_location(declaring);
  if (loc == SegmentLocation::kPairLeft ||
      loc == SegmentLocation::kPairRight) {
    FactorizedPair* p = pair(mapping_.SegmentPairName(declaring));
    bool left = loc == SegmentLocation::kPairLeft;
    const std::vector<Column>& cols =
        left ? p->left_columns() : p->right_columns();
    int64_t idx = left ? p->FindLeft(key) : p->FindRight(key);
    Row row = left ? p->left_row(idx) : p->right_row(idx);
    for (size_t c = 0; c < cols.size(); ++c) {
      if (cols[c].name == attr) row[c] = value;
    }
    return left ? p->UpdateLeft(key, std::move(row))
                : p->UpdateRight(key, std::move(row));
  }
  if (loc == SegmentLocation::kMaterializedLeft ||
      loc == SegmentLocation::kMaterializedRight) {
    // Duplicated storage: every row of this side must be updated (the
    // paper's M6 update-cost point).
    std::string rel_name = mapping_.SwallowingRelationship(declaring);
    const RelationshipSetDef* rel = schema().FindRelationshipSet(rel_name);
    const std::string& role = loc == SegmentLocation::kMaterializedLeft
                                  ? rel->left.role
                                  : rel->right.role;
    Table* table =
        catalog_.GetTable(PhysicalMapping::MaterializedTableName(rel_name));
    std::vector<std::string> cols;
    for (const std::string& name : key_names) {
      cols.push_back(PhysicalMapping::RoleColumnName(role, name));
    }
    ERBIUM_ASSIGN_OR_RETURN(std::vector<int> positions,
                            ColumnPositions(*table, cols));
    int attr_pos = table->schema().ColumnIndex(
        PhysicalMapping::RoleColumnName(role, attr));
    if (attr_pos < 0) {
      return Status::Internal("missing column for attribute " + attr);
    }
    std::vector<RowId> ids;
    table->LookupEqual(positions, key, &ids);
    for (RowId id : ids) {
      Row row = table->row(id);
      row[attr_pos] = value;
      ERBIUM_RETURN_NOT_OK(table->Update(id, std::move(row)));
    }
    return Status::OK();
  }
  ERBIUM_ASSIGN_OR_RETURN(SegmentRef ref, FindSegmentRow(declaring, key));
  int attr_pos = ref.table->schema().ColumnIndex(attr);
  if (attr_pos < 0) {
    return Status::Internal("missing column for attribute " + attr);
  }
  Row row = ref.table->row(ref.row);
  row[attr_pos] = value;
  return ref.table->Update(ref.row, std::move(row));
}

Result<size_t> MappedDatabase::CountEntities(const std::string& class_name) {
  ERBIUM_ASSIGN_OR_RETURN(OperatorPtr plan, ScanEntity(class_name, {}));
  ERBIUM_RETURN_NOT_OK(plan->Open());
  size_t count = 0;
  Row row;
  while (plan->Next(&row)) ++count;
  return count;
}

}  // namespace erbium
