#include "mapping/database.h"

#include <algorithm>

#include "common/union_find.h"
#include "obs/metrics.h"

namespace erbium {

namespace {

/// A multi-valued attribute's value is null or an array of non-null
/// elements, under every storage (a side table cannot hold a null).
Status CheckMultiValued(const AttributeDef& attr, const Value& value) {
  if (value.is_null()) return Status::OK();
  if (value.kind() != TypeKind::kArray) {
    return Status::ConstraintViolation("multi-valued attribute " + attr.name +
                                       " must be an array");
  }
  for (const Value& element : value.array()) {
    if (element.is_null()) {
      return Status::ConstraintViolation("multi-valued attribute " +
                                         attr.name + " holds a null element");
    }
  }
  return Status::OK();
}

/// Index of the element of a folded weak array whose partial key equals
/// `key` after its first `owner_len` (owner key) values; -1 when none.
int FindFoldedElement(const EntitySetDef& weak, const Value& folded,
                      const IndexKey& key, size_t owner_len) {
  if (folded.kind() != TypeKind::kArray) return -1;
  Value::ArrayView elements = folded.array();
  for (size_t e = 0; e < elements.size(); ++e) {
    bool match = true;
    for (size_t i = 0; match && i < weak.partial_key.size(); ++i) {
      const Value* field = elements[e].FindField(weak.partial_key[i]);
      match = field != nullptr && *field == key[owner_len + i];
    }
    if (match) return static_cast<int>(e);
  }
  return -1;
}

}  // namespace

std::vector<RowId> MappedDatabase::RowsWhere(
    const Table& table, const std::vector<int>& positions,
    const IndexKey& key) {
  std::vector<RowId> ids;
  table.LookupEqual(positions, key, &ids);
  return ids;
}

void MappedDatabase::NullOut(const std::vector<int>& positions, Row* row) {
  for (int pos : positions) {
    if (pos >= 0) (*row)[pos] = Value::Null();
  }
}

Status MappedDatabase::Counted(Status s, const char* counter_name) {
  if (s.ok()) {
    obs::MetricsRegistry::Global().counter(counter_name).Increment();
  }
  return s;
}

// ---- logical CRUD choke points -------------------------------------------------
//
// Each public mutation resolves its compiled layout (unknown names fail
// here, before any lock), applies in memory first, then bumps its crud.*
// counter and writes its record through the durability hook (when one is
// attached) while still holding its lock domain. It acknowledges the
// caller only once that record is durable, a wait that happens after the
// domain is released. A hook failure (real I/O trouble or an injected
// crash) is returned to the caller: the write was applied in memory but
// never acknowledged, so recovery is free to drop it. A rejected write
// changes nothing: every row it would write is built and validated
// before the first mutation.

template <typename Apply, typename Log>
Status MappedDatabase::ApplyAndLog(std::mutex* domain,
                                   const char* counter_name, Apply apply,
                                   Log log) {
  DurabilityHook* hook = nullptr;
  uint64_t lsn = 0;
  {
    std::lock_guard<std::mutex> lock(*domain);
    ERBIUM_RETURN_NOT_OK(Counted(apply(), counter_name));
    hook = durability_;
    if (hook == nullptr) return Status::OK();
    ERBIUM_ASSIGN_OR_RETURN(lsn, log(hook));
  }
  return hook->WaitDurable(lsn);
}

Status MappedDatabase::InsertEntity(const std::string& class_name,
                                    const Value& entity) {
  ERBIUM_ASSIGN_OR_RETURN(const EntityLayout* e, EntityLayoutOf(class_name));
  return ApplyAndLog(
      e->domain, "crud.entity_inserts",
      [&] { return InsertEntityImpl(*e, entity); },
      [&](DurabilityHook* hook) {
        return hook->LogInsertEntity(class_name, entity);
      });
}

Status MappedDatabase::DeleteEntity(const std::string& class_name,
                                    const IndexKey& key) {
  ERBIUM_ASSIGN_OR_RETURN(const EntityLayout* e, EntityLayoutOf(class_name));
  return ApplyAndLog(
      e->domain, "crud.entity_deletes",
      [&] { return DeleteEntityImpl(*e, key); },
      [&](DurabilityHook* hook) {
        return hook->LogDeleteEntity(class_name, key);
      });
}

Status MappedDatabase::UpdateAttribute(const std::string& class_name,
                                       const IndexKey& key,
                                       const std::string& attr,
                                       const Value& value) {
  ERBIUM_ASSIGN_OR_RETURN(const EntityLayout* e, EntityLayoutOf(class_name));
  return ApplyAndLog(
      e->domain, "crud.attribute_updates",
      [&] { return UpdateAttributeImpl(*e, key, attr, value); },
      [&](DurabilityHook* hook) {
        return hook->LogUpdateAttribute(class_name, key, attr, value);
      });
}

Status MappedDatabase::InsertRelationship(const std::string& rel_name,
                                          const IndexKey& left_key,
                                          const IndexKey& right_key,
                                          const Value& attrs) {
  ERBIUM_ASSIGN_OR_RETURN(const RelationshipLayout* r,
                          RelationshipLayoutOf(rel_name));
  return ApplyAndLog(
      r->domain, "crud.relationship_inserts",
      [&] { return InsertRelationshipImpl(*r, left_key, right_key, attrs); },
      [&](DurabilityHook* hook) {
        return hook->LogInsertRelationship(rel_name, left_key, right_key,
                                           attrs);
      });
}

Status MappedDatabase::DeleteRelationship(const std::string& rel_name,
                                          const IndexKey& left_key,
                                          const IndexKey& right_key) {
  ERBIUM_ASSIGN_OR_RETURN(const RelationshipLayout* r,
                          RelationshipLayoutOf(rel_name));
  return ApplyAndLog(
      r->domain, "crud.relationship_deletes",
      [&] { return DeleteRelationshipImpl(*r, left_key, right_key); },
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
  return BuildLayouts();
}

// ---- layout compilation ----------------------------------------------------

Status MappedDatabase::BuildLayouts() {
  const ERSchema& s = schema();
  for (const std::string& name : s.EntitySetNames()) {
    entity_layouts_[name].def = s.FindEntitySet(name);
  }
  for (const std::string& name : s.RelationshipSetNames()) {
    relationship_layouts_[name].def = s.FindRelationshipSet(name);
  }
  auto layout = [&](const std::string& name) {
    return &entity_layouts_.at(name);
  };
  auto table_named = [&](const std::string& name) -> Result<Table*> {
    Table* table = catalog_.GetTable(name);
    if (table == nullptr) return Status::Internal("missing table " + name);
    return table;
  };

  // Lock domains: one mutex per connected component of the schema graph
  // (edges: ISA parent, weak owner, relationship participants).
  UnionFind components;
  for (const auto& [name, e] : entity_layouts_) {
    components.Find(name);
    if (e.def->is_subclass()) components.Unite(name, e.def->parent);
    if (e.def->weak) components.Unite(name, e.def->owner);
  }
  for (const auto& [name, r] : relationship_layouts_) {
    components.Unite(name, r.def->left.entity);
    components.Unite(name, r.def->right.entity);
  }
  std::unordered_map<std::string, std::mutex*> by_root;
  auto domain_of = [&](const std::string& name) {
    std::mutex*& mu = by_root[components.Find(name)];
    if (mu == nullptr) {
      domains_.push_back(std::make_unique<std::mutex>());
      mu = domains_.back().get();
    }
    return mu;
  };

  for (auto& [name, e] : entity_layouts_) {
    const EntitySetDef& def = *e.def;
    e.location = mapping_.segment_location(name);
    e.domain = domain_of(name);
    ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> key_columns,
                            mapping_.KeyColumns(name));
    for (const Column& column : key_columns) {
      e.key_names.push_back(column.name);
      e.key_types.push_back(column.type);
    }
    std::vector<std::string> chain = {name};
    if (def.weak) {
      e.owner = layout(def.owner);
      e.scope = &e;
    } else {
      ERBIUM_ASSIGN_OR_RETURN(std::string root, s.HierarchyRoot(name));
      e.scope = layout(root);
      ERBIUM_ASSIGN_OR_RETURN(chain, s.AncestryChain(name));
    }
    for (const std::string& cls : chain) e.chain.push_back(layout(cls));
    std::vector<std::string> subtree = s.SelfAndDescendants(name);
    for (const std::string& cls : subtree) {
      e.self_and_descendants.push_back(layout(cls));
    }
    for (const std::string& child : s.DirectSubclasses(name)) {
      e.children.push_back(layout(child));
    }
    for (const std::string& weak : s.WeakEntitiesOwnedBy(name)) {
      e.owned_weak.push_back(layout(weak));
    }
    for (const EntityLayout* cls : e.chain) {
      for (const AttributeDef& attr : cls->def->attributes) {
        e.declaring[attr.name] = cls;
        if (attr.multi_valued) e.multi_valued.push_back(&attr);
        if (!e.IsKey(attr.name)) e.value_attrs.push_back(attr.name);
      }
    }

    // Where the own segment lives, and the key positions probing it.
    std::string role;  // materialized: the column prefix of this side
    auto add_probe = [&](const std::string& table_name) -> Status {
      ERBIUM_ASSIGN_OR_RETURN(Table * table, table_named(table_name));
      std::vector<std::string> columns;
      for (const std::string& key : e.key_names) columns.push_back(role + key);
      ERBIUM_ASSIGN_OR_RETURN(std::vector<int> key,
                              ColumnPositions(*table, columns));
      e.probes.push_back(SegmentProbe{table, std::move(key)});
      return Status::OK();
    };
    switch (e.location) {
      case SegmentLocation::kOwnTable:
        ERBIUM_RETURN_NOT_OK(add_probe(name));
        break;
      case SegmentLocation::kHierarchySingle:
        ERBIUM_RETURN_NOT_OK(add_probe(mapping_.SegmentTableName(name)));
        e.type_column = e.probes.front().table->schema().ColumnIndex(
            PhysicalMapping::kTypeColumn);
        break;
      case SegmentLocation::kHierarchyDisjoint:
        for (const std::string& cls : subtree) {
          ERBIUM_RETURN_NOT_OK(add_probe(cls));
        }
        break;
      case SegmentLocation::kMaterializedLeft:
      case SegmentLocation::kMaterializedRight: {
        const RelationshipSetDef* rel =
            s.FindRelationshipSet(mapping_.SwallowingRelationship(name));
        e.joined = &relationship_layouts_.at(rel->name);
        role = PhysicalMapping::RoleColumnName(
            e.location == SegmentLocation::kMaterializedLeft ? rel->left.role
                                                             : rel->right.role,
            "");
        ERBIUM_RETURN_NOT_OK(add_probe(mapping_.SegmentTableName(name)));
        break;
      }
      case SegmentLocation::kPairLeft:
      case SegmentLocation::kPairRight:
        e.pair = pair(mapping_.SegmentPairName(name));
        break;
      case SegmentLocation::kFoldedInOwner:
        break;  // folded_column is resolved once the owner has its probes
    }

    // The segment rows an insert writes: each class-table ancestor's own
    // table, then the class's own location. Single and disjoint tables
    // hold the whole instance in one row; a folded instance is a struct
    // appended to its owner's array instead.
    auto add_segment = [&](Table* table, bool left,
                           const std::string& prefix) {
      SegmentWrite& seg = e.segments.emplace_back();
      seg.table = table;
      seg.left = left;
      if (table == nullptr) {
        seg.pair = e.pair;
        seg.pair_schema = TableSchema(
            e.pair->name(),
            left ? e.pair->left_columns() : e.pair->right_columns());
      }
      for (const Column& col : seg.schema().columns()) {
        ColumnSource& src = seg.sources.emplace_back();
        bool array =
            col.type != nullptr && col.type->kind() == TypeKind::kArray;
        src.fallback = array ? Value::Array({}) : Value::Null();
        if (col.name.rfind(prefix, 0) != 0) continue;  // other join side
        std::string attr = col.name.substr(prefix.size());
        auto key = std::find(e.key_names.begin(), e.key_names.end(), attr);
        if (key != e.key_names.end()) {
          src.key = static_cast<int>(key - e.key_names.begin());
        } else if (attr == PhysicalMapping::kTypeColumn) {
          src.fallback = Value::String(name);
        } else if (e.declaring.count(attr) > 0) {
          src.field = attr;
        }
      }
    };
    bool one_row = e.location == SegmentLocation::kHierarchySingle ||
                   e.location == SegmentLocation::kHierarchyDisjoint;
    for (size_t i = 0; !one_row && i + 1 < chain.size(); ++i) {
      ERBIUM_ASSIGN_OR_RETURN(Table * table, table_named(chain[i]));
      add_segment(table, false, "");
    }
    switch (e.location) {
      case SegmentLocation::kFoldedInOwner:
        break;
      case SegmentLocation::kPairLeft:
      case SegmentLocation::kPairRight:
        add_segment(nullptr, e.location == SegmentLocation::kPairLeft, "");
        break;
      default:  // the first probe is the class's own (or shared) table
        add_segment(e.probes.front().table, false, role);
    }

    // Own attributes: separately stored multi-valued ones get a side
    // table, the rest a column in each probed table (or the pair side).
    bool folded = e.location == SegmentLocation::kFoldedInOwner;
    for (const AttributeDef& attr : def.attributes) {
      AttrSlot& slot = e.own_attrs[attr.name];
      slot.def = &attr;
      if (folded) continue;
      if (attr.multi_valued &&
          mapping_.spec().multi_valued_storage(name, attr.name) ==
              MultiValuedStorage::kSeparateTable) {
        ERBIUM_ASSIGN_OR_RETURN(
            Table * table,
            table_named(PhysicalMapping::MvTableName(name, attr.name)));
        ERBIUM_ASSIGN_OR_RETURN(std::vector<int> key,
                                ColumnPositions(*table, e.key_names));
        slot.mv = static_cast<int>(e.mv_tables.size());
        e.mv_tables.push_back(MvTable{&attr, table, std::move(key)});
        continue;
      }
      if (e.pair != nullptr) {
        slot.columns.push_back(
            e.segments.back().pair_schema.ColumnIndex(attr.name));
        continue;
      }
      for (const SegmentProbe& probe : e.probes) {
        ERBIUM_ASSIGN_OR_RETURN(
            std::vector<int> column,
            ColumnPositions(*probe.table, {role + attr.name}));
        slot.columns.push_back(column.front());
      }
    }
    if (def.weak && e.location == SegmentLocation::kOwnTable) {
      std::vector<std::string> owner_key(
          e.key_names.begin(), e.key_names.end() - def.partial_key.size());
      ERBIUM_ASSIGN_OR_RETURN(
          e.owner_key, ColumnPositions(*e.probes.front().table, owner_key));
    }
  }
  for (auto& [name, e] : entity_layouts_) {
    if (e.location != SegmentLocation::kFoldedInOwner) continue;
    for (const SegmentProbe& probe : e.owner->probes) {
      ERBIUM_ASSIGN_OR_RETURN(std::vector<int> column,
                              ColumnPositions(*probe.table, {name}));
      e.folded_column.push_back(column.front());
    }
  }

  for (auto& [name, r] : relationship_layouts_) {
    const RelationshipSetDef& def = *r.def;
    r.storage = mapping_.spec().relationship_storage(def);
    r.left = layout(def.left.entity);
    r.right = layout(def.right.entity);
    r.domain = domain_of(name);
    layout(def.left.entity)->sides.emplace_back(&r, true);
    layout(def.right.entity)->sides.emplace_back(&r, false);
    for (const auto& [p, side] :
         {std::pair(&def.left, r.left), std::pair(&def.right, r.right)}) {
      for (size_t i = 0; i < side->key_names.size(); ++i) {
        r.columns.push_back(
            Column{PhysicalMapping::RoleColumnName(p->role, side->key_names[i]),
                   side->key_types[i], false});
      }
    }
    for (const AttributeDef& attr : def.attributes) {
      r.columns.push_back(Column{attr.name, attr.type, true});
    }
    // A side's columns in the joined table: its role-prefixed key, and
    // (materialized) every own-segment column.
    auto role_columns = [&](const Participant& p, const EntityLayout& side,
                            std::vector<int>* key, std::vector<Column>* segment,
                            std::vector<int>* all) -> Status {
      std::vector<std::string> names;
      for (const std::string& k : side.key_names) {
        names.push_back(PhysicalMapping::RoleColumnName(p.role, k));
      }
      ERBIUM_ASSIGN_OR_RETURN(*key, ColumnPositions(*r.table, names));
      if (r.storage != RelationshipStorage::kMaterializedJoin) {
        return Status::OK();
      }
      ERBIUM_ASSIGN_OR_RETURN(*segment,
                              mapping_.OwnSegmentColumns(side.def->name));
      names.clear();
      for (const Column& c : *segment) {
        names.push_back(PhysicalMapping::RoleColumnName(p.role, c.name));
      }
      ERBIUM_ASSIGN_OR_RETURN(*all, ColumnPositions(*r.table, names));
      return Status::OK();
    };
    switch (r.storage) {
      case RelationshipStorage::kJoinTable:
      case RelationshipStorage::kMaterializedJoin: {
        ERBIUM_ASSIGN_OR_RETURN(
            r.table,
            table_named(r.storage == RelationshipStorage::kJoinTable
                            ? name
                            : PhysicalMapping::MaterializedTableName(name)));
        ERBIUM_RETURN_NOT_OK(role_columns(def.left, *r.left, &r.left_key,
                                          &r.left_segment, &r.left_columns));
        ERBIUM_RETURN_NOT_OK(role_columns(def.right, *r.right, &r.right_key,
                                          &r.right_segment, &r.right_columns));
        for (const AttributeDef& attr : def.attributes) {
          r.attributes.push_back(r.table->schema().ColumnIndex(attr.name));
        }
        break;
      }
      case RelationshipStorage::kFactorized:
        r.pair = pair(PhysicalMapping::PairName(name));
        r.left_segment = r.pair->left_columns();
        r.right_segment = r.pair->right_columns();
        for (size_t i = 0; i < r.left_segment.size(); ++i) {
          r.left_columns.push_back(static_cast<int>(i));
        }
        for (size_t i = 0; i < r.right_segment.size(); ++i) {
          r.right_columns.push_back(
              static_cast<int>(r.left_segment.size() + i));
        }
        break;
      case RelationshipStorage::kForeignKey: {
        r.many_is_left = def.left.cardinality == Cardinality::kMany;
        const EntityLayout& many = r.many_is_left ? *r.left : *r.right;
        const EntityLayout& one = r.many_is_left ? *r.right : *r.left;
        std::vector<std::string> fk_names;
        for (const std::string& k : one.key_names) {
          fk_names.push_back(PhysicalMapping::FkColumnName(name, k));
        }
        for (const SegmentProbe& probe : many.probes) {
          RelationshipLayout::FkCarrier& carrier = r.carriers.emplace_back();
          ERBIUM_ASSIGN_OR_RETURN(carrier.key,
                                  ColumnPositions(*probe.table, fk_names));
          for (const AttributeDef& attr : def.attributes) {
            carrier.attributes.push_back(probe.table->schema().ColumnIndex(
                PhysicalMapping::FkColumnName(name, attr.name)));
          }
        }
        break;
      }
    }
  }
  return Status::OK();
}

Result<MappingSpec> MappedDatabase::LoadPersistedSpec() const {
  const Table* table = catalog_.GetTable(kMappingCatalogTable);
  if (table == nullptr || table->size() == 0) {
    return Status::NotFound("mapping catalog table missing or empty");
  }
  for (RowId id = 0; id < table->slot_count(); ++id) {
    if (!table->IsLive(id)) continue;
    return MappingSpec::FromJson(
        std::string(table->row(id)[1].as_string()));
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

Result<const MappedDatabase::EntityLayout*> MappedDatabase::EntityLayoutOf(
    const std::string& name) const {
  auto it = entity_layouts_.find(name);
  if (it == entity_layouts_.end()) {
    return Status::NotFound("no entity set named " + name);
  }
  return &it->second;
}

Result<const MappedDatabase::RelationshipLayout*>
MappedDatabase::RelationshipLayoutOf(const std::string& name) const {
  auto it = relationship_layouts_.find(name);
  if (it == relationship_layouts_.end()) {
    return Status::NotFound("no relationship set named " + name);
  }
  return &it->second;
}

std::optional<MappedDatabase::SegmentRef> MappedDatabase::FindSegmentRow(
    const EntityLayout& e, const IndexKey& key) const {
  std::vector<RowId> ids;
  for (size_t i = 0; i < e.probes.size(); ++i) {
    e.probes[i].table->LookupEqual(e.probes[i].key, key, &ids);
    if (!ids.empty()) return SegmentRef{e.probes[i].table, ids.front(), i};
  }
  return std::nullopt;
}

// ---- membership --------------------------------------------------------------

Result<bool> MappedDatabase::EntityExists(const std::string& class_name,
                                          const IndexKey& key) {
  ERBIUM_ASSIGN_OR_RETURN(const EntityLayout* e, EntityLayoutOf(class_name));
  return EntityExists(*e, key);
}

Status MappedDatabase::EntityLayout::CheckKeyTypes(const IndexKey& key) const {
  for (size_t i = 0; i < key.size(); ++i) {
    ERBIUM_RETURN_NOT_OK(
        ValidateValue(key[i], key_types[i], /*nullable=*/false));
  }
  return Status::OK();
}

bool MappedDatabase::EntityLayout::IsKey(const std::string& attr) const {
  return std::find(key_names.begin(), key_names.end(), attr) !=
         key_names.end();
}

Status MappedDatabase::EntityLayout::CheckVisible(
    const std::string& attr) const {
  if (declaring.count(attr) > 0) return Status::OK();
  return Status::AnalysisError("entity set " + def->name +
                               " has no attribute " + attr);
}

const MappedDatabase::MvTable* MappedDatabase::EntityLayout::SideTable(
    const std::string& attr) const {
  auto d = declaring.find(attr);
  if (d == declaring.end()) return nullptr;
  int mv = d->second->own_attrs.at(attr).mv;
  return mv < 0 ? nullptr : &d->second->mv_tables[mv];
}

bool MappedDatabase::EntityExists(const EntityLayout& e,
                                  const IndexKey& key) const {
  if (key.size() != e.key_names.size()) return false;
  switch (e.location) {
    case SegmentLocation::kPairLeft:
      return e.pair->FindLeft(key) >= 0;
    case SegmentLocation::kPairRight:
      return e.pair->FindRight(key) >= 0;
    case SegmentLocation::kFoldedInOwner: {
      size_t owner_len = e.owner->key_names.size();
      std::optional<SegmentRef> owner = FindSegmentRow(
          *e.owner, IndexKey(key.begin(), key.begin() + owner_len));
      if (!owner) return false;
      const Row& row = owner->table->row(owner->row);
      return FindFoldedElement(*e.def, row[e.folded_column[owner->probe]], key,
                               owner_len) >= 0;
    }
    case SegmentLocation::kHierarchySingle: {
      std::optional<SegmentRef> ref = FindSegmentRow(e, key);
      if (!ref) return false;
      const Value& type = ref->table->row(ref->row)[e.type_column];
      return type.kind() == TypeKind::kString &&
             std::any_of(e.self_and_descendants.begin(),
                         e.self_and_descendants.end(),
                         [&](const EntityLayout* cls) {
                           return cls->def->name == type.as_string();
                         });
    }
    default:
      return FindSegmentRow(e, key).has_value();
  }
}

Result<std::string> MappedDatabase::SpecificClassOf(
    const std::string& class_name, const IndexKey& key) {
  ERBIUM_ASSIGN_OR_RETURN(const EntityLayout* e, EntityLayoutOf(class_name));
  ERBIUM_ASSIGN_OR_RETURN(const EntityLayout* specific,
                          SpecificLayout(*e, key));
  return specific->def->name;
}

Result<const MappedDatabase::EntityLayout*> MappedDatabase::SpecificLayout(
    const EntityLayout& e, const IndexKey& key) const {
  if (!EntityExists(e, key)) {
    return Status::NotFound("no " + e.def->name + " instance with given key");
  }
  if (e.location == SegmentLocation::kHierarchySingle) {
    SegmentRef ref = *FindSegmentRow(e, key);
    return EntityLayoutOf(
        std::string(ref.table->row(ref.row)[e.type_column].as_string()));
  }
  // Class-table / disjoint / pair-backed: walk down while a subclass holds
  // the key. (With overlapping specializations the first-found deepest
  // class is returned.)
  const EntityLayout* current = &e;
  for (bool descended = true; descended;) {
    descended = false;
    for (const EntityLayout* child : current->children) {
      if (EntityExists(*child, key)) {
        current = child;
        descended = true;
        break;
      }
    }
  }
  return current;
}

// ---- insert -------------------------------------------------------------------

Status MappedDatabase::InsertEntityImpl(const EntityLayout& e,
                                        const Value& entity) {
  if (entity.kind() != TypeKind::kStruct) {
    return Status::InvalidArgument("entity value must be a struct");
  }
  IndexKey key;
  key.reserve(e.key_names.size());
  for (const std::string& name : e.key_names) {
    const Value* v = entity.FindField(name);
    if (v == nullptr || v->is_null()) {
      return Status::ConstraintViolation("missing key attribute " + name +
                                         " for entity set " + e.def->name);
    }
    key.push_back(*v);
  }
  // Uniqueness across the whole hierarchy.
  if (EntityExists(*e.scope, key)) {
    return Status::AlreadyExists("an instance of " + e.scope->def->name +
                                 " with this key already exists");
  }
  // Weak entities require their owner (referential integrity of the
  // identifying relationship).
  size_t owner_len = e.owner == nullptr ? 0 : e.owner->key_names.size();
  IndexKey owner_key(key.begin(), key.begin() + owner_len);
  if (e.owner != nullptr && !EntityExists(*e.owner, owner_key)) {
    return Status::ConstraintViolation("owner instance of weak entity " +
                                       e.def->name + " does not exist");
  }
  ERBIUM_RETURN_NOT_OK(e.CheckKeyTypes(key));
  for (const AttributeDef* attr : e.multi_valued) {
    const Value* v = entity.FindField(attr->name);
    if (v != nullptr) ERBIUM_RETURN_NOT_OK(CheckMultiValued(*attr, *v));
  }

  if (e.location == SegmentLocation::kFoldedInOwner) {
    // Append a struct to the owner's folded array column.
    SegmentRef owner = *FindSegmentRow(*e.owner, owner_key);
    int col = e.folded_column[owner.probe];
    Row row = owner.table->row(owner.row);
    Value::ArrayData elements;
    if (row[col].kind() == TypeKind::kArray) {
      elements.assign(row[col].array().begin(), row[col].array().end());
    }
    Value::StructData fields;
    for (const AttributeDef& attr : e.def->attributes) {
      const Value* v = entity.FindField(attr.name);
      fields.emplace_back(
          attr.name, v != nullptr && !v->is_null() ? *v
                     : attr.multi_valued       ? Value::Array({})
                                               : Value::Null());
    }
    elements.push_back(Value::Struct(std::move(fields)));
    row[col] = Value::Array(std::move(elements));
    return owner.table->Update(owner.row, std::move(row));
  }

  // Build and validate every row before the first mutation.
  std::vector<Row> rows;
  rows.reserve(e.segments.size());
  for (const SegmentWrite& seg : e.segments) {
    Row& row = rows.emplace_back();
    row.reserve(seg.sources.size());
    for (const ColumnSource& src : seg.sources) {
      const Value* v = src.key >= 0         ? &key[src.key]
                       : src.field.empty() ? nullptr
                                           : entity.FindField(src.field);
      row.push_back(v != nullptr && !v->is_null() ? *v : src.fallback);
    }
    ERBIUM_RETURN_NOT_OK(seg.schema().ValidateRow(row));
  }
  std::vector<std::pair<Table*, Row>> mv_rows;
  for (const EntityLayout* cls : e.chain) {
    for (const MvTable& mv : cls->mv_tables) {
      const Value* v = entity.FindField(mv.attr->name);
      if (v == nullptr || v->is_null()) continue;
      for (const Value& element : v->array()) {
        Row row = key;
        row.push_back(element);
        ERBIUM_RETURN_NOT_OK(mv.table->schema().ValidateRow(row));
        mv_rows.emplace_back(mv.table, std::move(row));
      }
    }
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    const SegmentWrite& seg = e.segments[i];
    Row& row = rows[i];
    Status st = seg.pair == nullptr ? seg.table->Insert(std::move(row)).status()
                : seg.left ? seg.pair->InsertLeft(std::move(row)).status()
                           : seg.pair->InsertRight(std::move(row)).status();
    ERBIUM_RETURN_NOT_OK(st);
  }
  for (auto& [table, row] : mv_rows) {
    ERBIUM_RETURN_NOT_OK(table->Insert(std::move(row)).status());
  }
  return Status::OK();
}

// ---- delete -------------------------------------------------------------------

Result<std::vector<IndexKey>> MappedDatabase::OwnedWeakKeys(
    const EntityLayout& weak, const IndexKey& key) {
  std::vector<IndexKey> keys;
  if (weak.location == SegmentLocation::kOwnTable) {
    const SegmentProbe& probe = weak.probes.front();
    for (RowId id : RowsWhere(*probe.table, weak.owner_key, key)) {
      const Row& row = probe.table->row(id);
      IndexKey& weak_key = keys.emplace_back();
      for (int pos : probe.key) weak_key.push_back(row[pos]);
    }
  } else if (weak.location == SegmentLocation::kFoldedInOwner) {
    std::optional<SegmentRef> owner = FindSegmentRow(*weak.owner, key);
    if (!owner) return keys;
    const Value& folded =
        owner->table->row(owner->row)[weak.folded_column[owner->probe]];
    if (folded.kind() != TypeKind::kArray) return keys;
    for (const Value& element : folded.array()) {
      IndexKey& weak_key = keys.emplace_back(key);
      for (const std::string& part : weak.def->partial_key) {
        const Value* field = element.FindField(part);
        weak_key.push_back(field == nullptr ? Value::Null() : *field);
      }
    }
  } else {
    // Pair- or materialized-backed weak entity: scan its side.
    ERBIUM_ASSIGN_OR_RETURN(OperatorPtr scan,
                            BuildEntityPlan(weak, {}, nullptr));
    ERBIUM_ASSIGN_OR_RETURN(std::vector<Row> rows, CollectRows(scan.get()));
    for (const Row& row : rows) {
      if (std::equal(key.begin(), key.end(), row.begin())) {
        keys.emplace_back(row.begin(), row.begin() + weak.key_names.size());
      }
    }
  }
  return keys;
}

Status MappedDatabase::DeleteEntityImpl(const EntityLayout& e,
                                        const IndexKey& key) {
  if (!EntityExists(e, key)) {
    return Status::NotFound("no " + e.def->name + " instance with given key");
  }
  // Deleting through any handle removes the whole instance: every member
  // class from the hierarchy root down.
  std::vector<const EntityLayout*> members;
  for (const EntityLayout* cls : e.scope->self_and_descendants) {
    if (EntityExists(*cls, key)) members.push_back(cls);
  }

  // 1. Cascade to owned weak entities. The cascade runs inside the
  // owner's lock domain (weak entities share it). Each owned instance is
  // applied and logged like a public delete; the owner's own, later
  // record is the one the caller waits on, and its durability covers
  // these.
  for (const EntityLayout* cls : members) {
    for (const EntityLayout* weak : cls->owned_weak) {
      ERBIUM_ASSIGN_OR_RETURN(std::vector<IndexKey> weak_keys,
                              OwnedWeakKeys(*weak, key));
      for (const IndexKey& weak_key : weak_keys) {
        ERBIUM_RETURN_NOT_OK(Counted(DeleteEntityImpl(*weak, weak_key),
                                     "crud.entity_deletes"));
        if (durability_ != nullptr) {
          ERBIUM_RETURN_NOT_OK(
              durability_->LogDeleteEntity(weak->def->name, weak_key)
                  .status());
        }
      }
    }
  }

  // 2. Relationship instances touching the entity. Foreign keys held by
  // the entity die with its segment row, factorized edges with its pair
  // row; a materialized side's rows are its segment.
  for (const EntityLayout* cls : members) {
    for (const auto& [rel, left] : cls->sides) {
      switch (rel->storage) {
        case RelationshipStorage::kJoinTable:
          for (RowId id :
               RowsWhere(*rel->table, left ? rel->left_key : rel->right_key,
                         key)) {
            ERBIUM_RETURN_NOT_OK(rel->table->Delete(id));
          }
          break;
        case RelationshipStorage::kForeignKey:
          if (left != rel->many_is_left) {
            ERBIUM_RETURN_NOT_OK(ClearForeignKeys(*rel, key));
          }
          break;
        case RelationshipStorage::kMaterializedJoin:
          ERBIUM_RETURN_NOT_OK(DetachSide(*rel, left, key));
          break;
        case RelationshipStorage::kFactorized:
          break;
      }
    }
  }

  // 3. Multi-valued side tables.
  for (const EntityLayout* cls : members) {
    for (const MvTable& mv : cls->mv_tables) {
      for (RowId id : RowsWhere(*mv.table, mv.key, key)) {
        ERBIUM_RETURN_NOT_OK(mv.table->Delete(id));
      }
    }
  }

  // 4. Segments, leaf first.
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    const EntityLayout& cls = **it;
    switch (cls.location) {
      case SegmentLocation::kOwnTable:
      case SegmentLocation::kHierarchySingle:
      case SegmentLocation::kHierarchyDisjoint: {
        // Single-table rows are shared by the whole chain: delete once
        // (when processing the root member).
        if (cls.location == SegmentLocation::kHierarchySingle &&
            &cls != members.front()) {
          break;
        }
        std::optional<SegmentRef> ref = FindSegmentRow(cls, key);
        if (ref) ERBIUM_RETURN_NOT_OK(ref->table->Delete(ref->row));
        break;
      }
      case SegmentLocation::kFoldedInOwner: {
        size_t owner_len = cls.owner->key_names.size();
        SegmentRef owner = *FindSegmentRow(
            *cls.owner, IndexKey(key.begin(), key.begin() + owner_len));
        int col = cls.folded_column[owner.probe];
        Row row = owner.table->row(owner.row);
        int element = FindFoldedElement(*cls.def, row[col], key, owner_len);
        Value::ArrayData remaining(row[col].array().begin(),
                                   row[col].array().end());
        remaining.erase(remaining.begin() + element);
        row[col] = Value::Array(std::move(remaining));
        ERBIUM_RETURN_NOT_OK(owner.table->Update(owner.row, std::move(row)));
        break;
      }
      case SegmentLocation::kPairLeft:
        ERBIUM_RETURN_NOT_OK(cls.pair->EraseLeft(key));
        break;
      case SegmentLocation::kPairRight:
        ERBIUM_RETURN_NOT_OK(cls.pair->EraseRight(key));
        break;
      case SegmentLocation::kMaterializedLeft:
      case SegmentLocation::kMaterializedRight:
        break;  // detached from its relationship in step 2
    }
  }
  return Status::OK();
}

// ---- update / count ----------------------------------------------------------

Status MappedDatabase::UpdateAttributeImpl(const EntityLayout& e,
                                           const IndexKey& key,
                                           const std::string& attr,
                                           const Value& value) {
  ERBIUM_RETURN_NOT_OK(e.CheckVisible(attr));
  if (e.IsKey(attr)) {
    return Status::InvalidArgument("key attribute " + attr +
                                   " cannot be updated");
  }
  const EntityLayout& d = *e.declaring.at(attr);
  const AttrSlot& slot = d.own_attrs.at(attr);
  if (!EntityExists(d, key)) {
    return Status::NotFound("no " + d.def->name + " instance with given key");
  }
  ERBIUM_RETURN_NOT_OK(d.CheckKeyTypes(key));
  Value v = value;
  if (slot.def->multi_valued) {
    ERBIUM_RETURN_NOT_OK(CheckMultiValued(*slot.def, v));
    if (v.is_null()) v = Value::Array({});  // as an insert that omits it
  }
  if (slot.mv >= 0) {
    // Validate the new element rows before the old ones go.
    const MvTable& mv = d.mv_tables[slot.mv];
    std::vector<Row> rows;
    for (const Value& element : v.array()) {
      Row& row = rows.emplace_back(key);
      row.push_back(element);
      ERBIUM_RETURN_NOT_OK(mv.table->schema().ValidateRow(row));
    }
    for (RowId id : RowsWhere(*mv.table, mv.key, key)) {
      ERBIUM_RETURN_NOT_OK(mv.table->Delete(id));
    }
    for (Row& row : rows) {
      ERBIUM_RETURN_NOT_OK(mv.table->Insert(std::move(row)).status());
    }
    return Status::OK();
  }
  switch (d.location) {
    case SegmentLocation::kFoldedInOwner: {
      // Update the field inside the folded struct element.
      size_t owner_len = d.owner->key_names.size();
      SegmentRef owner = *FindSegmentRow(
          *d.owner, IndexKey(key.begin(), key.begin() + owner_len));
      int col = d.folded_column[owner.probe];
      Row row = owner.table->row(owner.row);
      int index = FindFoldedElement(*d.def, row[col], key, owner_len);
      Value::ArrayData elements(row[col].array().begin(),
                                row[col].array().end());
      Value::StructData fields(elements[index].struct_fields().begin(),
                               elements[index].struct_fields().end());
      for (auto& [name, field] : fields) {
        if (name == attr) field = v;
      }
      elements[index] = Value::Struct(std::move(fields));
      row[col] = Value::Array(std::move(elements));
      return owner.table->Update(owner.row, std::move(row));
    }
    case SegmentLocation::kPairLeft:
    case SegmentLocation::kPairRight: {
      bool left = d.location == SegmentLocation::kPairLeft;
      Row row = left ? d.pair->left_row(d.pair->FindLeft(key))
                     : d.pair->right_row(d.pair->FindRight(key));
      row[slot.columns.front()] = v;
      ERBIUM_RETURN_NOT_OK(d.segments.back().pair_schema.ValidateRow(row));
      return left ? d.pair->UpdateLeft(key, std::move(row))
                  : d.pair->UpdateRight(key, std::move(row));
    }
    case SegmentLocation::kMaterializedLeft:
    case SegmentLocation::kMaterializedRight: {
      // Duplicated storage: every row of this side must be updated (the
      // paper's M6 update-cost point). The rows share one column type, so
      // a rejected value fails on the first, before any change.
      const SegmentProbe& probe = d.probes.front();
      for (RowId id : RowsWhere(*probe.table, probe.key, key)) {
        Row row = probe.table->row(id);
        row[slot.columns.front()] = v;
        ERBIUM_RETURN_NOT_OK(probe.table->Update(id, std::move(row)));
      }
      return Status::OK();
    }
    default: {
      SegmentRef ref = *FindSegmentRow(d, key);
      Row row = ref.table->row(ref.row);
      row[slot.columns[ref.probe]] = v;
      return ref.table->Update(ref.row, std::move(row));
    }
  }
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
