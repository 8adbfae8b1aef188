#include "evolution/evolution.h"

#include <algorithm>
#include <map>

namespace erbium {
namespace evolution {

namespace {

Result<AttributeDef*> FindMutableAttribute(ERSchema* schema,
                                           const std::string& entity,
                                           const std::string& attr) {
  EntitySetDef* def = schema->MutableEntitySet(entity);
  if (def == nullptr) {
    return Status::NotFound("no entity set named " + entity);
  }
  for (AttributeDef& a : def->attributes) {
    if (a.name == attr) return &a;
  }
  return Status::NotFound("entity set " + entity + " has no attribute " +
                          attr);
}

}  // namespace

Status MakeAttributeMultiValued(ERSchema* schema, const std::string& entity,
                                const std::string& attr) {
  ERBIUM_ASSIGN_OR_RETURN(AttributeDef * def,
                          FindMutableAttribute(schema, entity, attr));
  const EntitySetDef* entity_def = schema->FindEntitySet(entity);
  if (std::find(entity_def->key.begin(), entity_def->key.end(), attr) !=
          entity_def->key.end() ||
      std::find(entity_def->partial_key.begin(),
                entity_def->partial_key.end(),
                attr) != entity_def->partial_key.end()) {
    return Status::InvalidArgument("key attribute " + attr +
                                   " cannot become multi-valued");
  }
  if (def->multi_valued) {
    return Status::InvalidArgument("attribute " + attr +
                                   " is already multi-valued");
  }
  def->multi_valued = true;
  def->nullable = true;
  return schema->Validate();
}

Status AddAttribute(ERSchema* schema, const std::string& entity,
                    AttributeDef attr) {
  EntitySetDef* def = schema->MutableEntitySet(entity);
  if (def == nullptr) {
    return Status::NotFound("no entity set named " + entity);
  }
  attr.nullable = true;  // existing instances have no value
  def->attributes.push_back(std::move(attr));
  return schema->Validate();
}

Status DropAttribute(ERSchema* schema, const std::string& entity,
                     const std::string& attr) {
  EntitySetDef* def = schema->MutableEntitySet(entity);
  if (def == nullptr) {
    return Status::NotFound("no entity set named " + entity);
  }
  if (std::find(def->key.begin(), def->key.end(), attr) != def->key.end() ||
      std::find(def->partial_key.begin(), def->partial_key.end(), attr) !=
          def->partial_key.end()) {
    return Status::InvalidArgument("key attribute " + attr +
                                   " cannot be dropped");
  }
  auto it = std::find_if(def->attributes.begin(), def->attributes.end(),
                         [&](const AttributeDef& a) { return a.name == attr; });
  if (it == def->attributes.end()) {
    return Status::NotFound("entity set " + entity + " has no attribute " +
                            attr);
  }
  def->attributes.erase(it);
  return schema->Validate();
}

Status ChangeRelationshipCardinality(ERSchema* schema, const std::string& rel,
                                     Cardinality left, Cardinality right) {
  RelationshipSetDef* def = schema->MutableRelationshipSet(rel);
  if (def == nullptr) {
    return Status::NotFound("no relationship set named " + rel);
  }
  auto tightens = [](Cardinality from, Cardinality to) {
    return from == Cardinality::kMany && to == Cardinality::kOne;
  };
  if (tightens(def->left.cardinality, left) ||
      tightens(def->right.cardinality, right)) {
    return Status::InvalidArgument(
        "tightening a cardinality requires a data check; relax only");
  }
  def->left.cardinality = left;
  def->right.cardinality = right;
  return schema->Validate();
}

Status AddSubclass(ERSchema* schema, const std::string& parent,
                   EntitySetDef subclass) {
  if (schema->FindEntitySet(parent) == nullptr) {
    return Status::NotFound("no entity set named " + parent);
  }
  subclass.parent = parent;
  subclass.key.clear();
  ERBIUM_RETURN_NOT_OK(schema->AddEntitySet(std::move(subclass)));
  return schema->Validate();
}

namespace {

/// Adapts one attribute value from the source schema's shape to the
/// destination's (scalar -> 1-element array when the attribute became
/// multi-valued; arrays collapse to their first element when it became
/// single-valued).
Value AdaptValue(const Value& v, bool src_multi, bool dst_multi) {
  if (src_multi == dst_multi) return v;
  if (dst_multi) {
    if (v.is_null()) return Value::Array({});
    return Value::Array({v});
  }
  if (v.kind() == TypeKind::kArray) {
    return v.array().empty() ? Value::Null() : v.array().front();
  }
  return v;
}

}  // namespace

Status MigrateData(MappedDatabase* src, MappedDatabase* dst) {
  const ERSchema& src_schema = src->schema();
  const ERSchema& dst_schema = dst->schema();

  // Entities: roots (and their hierarchies) first, then weak entity sets
  // ordered so owners precede the weak sets they own.
  std::vector<std::string> strong_roots;
  std::vector<std::string> weak_sets;
  for (const std::string& name : src_schema.EntitySetNames()) {
    const EntitySetDef* def = src_schema.FindEntitySet(name);
    if (def->weak) {
      weak_sets.push_back(name);
    } else if (!def->is_subclass()) {
      strong_roots.push_back(name);
    }
  }
  std::stable_sort(weak_sets.begin(), weak_sets.end(),
                   [&](const std::string& a, const std::string& b) {
                     // Owner-depth ascending.
                     auto depth = [&](std::string cur) {
                       int d = 0;
                       while (true) {
                         const EntitySetDef* def =
                             src_schema.FindEntitySet(cur);
                         if (def == nullptr || !def->weak) break;
                         cur = def->owner;
                         ++d;
                       }
                       return d;
                     };
                     return depth(a) < depth(b);
                   });

  auto migrate_class_instances = [&](const std::string& set_name) -> Status {
    ERBIUM_ASSIGN_OR_RETURN(OperatorPtr scan, src->ScanEntity(set_name, {}));
    ERBIUM_ASSIGN_OR_RETURN(std::vector<Row> keys, CollectRows(scan.get()));
    for (const Row& key_row : keys) {
      IndexKey key(key_row.begin(), key_row.end());
      ERBIUM_ASSIGN_OR_RETURN(std::string specific,
                              src->SpecificClassOf(set_name, key));
      ERBIUM_ASSIGN_OR_RETURN(Value entity, src->GetEntity(specific, key));
      // Adapt attribute shapes to the destination schema; the _class
      // field from GetEntity is dropped.
      std::string dst_class = specific;
      if (dst_schema.FindEntitySet(dst_class) == nullptr) {
        // Class removed in the new schema: degrade to the nearest
        // surviving ancestor.
        Result<std::vector<std::string>> chain =
            src_schema.AncestryChain(specific);
        if (!chain.ok()) return chain.status();
        dst_class.clear();
        for (auto it = chain->rbegin(); it != chain->rend(); ++it) {
          if (dst_schema.FindEntitySet(*it) != nullptr) {
            dst_class = *it;
            break;
          }
        }
        if (dst_class.empty()) continue;  // whole hierarchy dropped
      }
      ERBIUM_ASSIGN_OR_RETURN(std::vector<AttributeDef> dst_attrs,
                              dst_schema.AllAttributes(dst_class));
      ERBIUM_ASSIGN_OR_RETURN(std::vector<AttributeDef> src_attrs,
                              src_schema.AllAttributes(specific));
      std::map<std::string, bool> src_multi;
      for (const AttributeDef& a : src_attrs) {
        src_multi[a.name] = a.multi_valued;
      }
      Value::StructData fields;
      // Key attributes first (names are shared between versions).
      ERBIUM_ASSIGN_OR_RETURN(std::vector<std::string> key_names,
                              dst_schema.FullKey(dst_class));
      for (const std::string& k : key_names) {
        const Value* v = entity.FindField(k);
        if (v == nullptr) {
          return Status::AnalysisError(
              "migration cannot derive key attribute " + k + " of " +
              dst_class);
        }
        fields.emplace_back(k, *v);
      }
      for (const AttributeDef& attr : dst_attrs) {
        bool is_key = std::find(key_names.begin(), key_names.end(),
                                attr.name) != key_names.end();
        if (is_key) continue;
        const Value* v = entity.FindField(attr.name);
        Value adapted =
            v == nullptr
                ? (attr.multi_valued ? Value::Array({}) : Value::Null())
                : AdaptValue(*v, src_multi.count(attr.name) > 0 &&
                                     src_multi[attr.name],
                             attr.multi_valued);
        fields.emplace_back(attr.name, std::move(adapted));
      }
      ERBIUM_RETURN_NOT_OK(
          dst->InsertEntity(dst_class, Value::Struct(std::move(fields))));
    }
    return Status::OK();
  };

  for (const std::string& root : strong_roots) {
    ERBIUM_RETURN_NOT_OK(migrate_class_instances(root));
  }
  for (const std::string& weak : weak_sets) {
    ERBIUM_RETURN_NOT_OK(migrate_class_instances(weak));
  }

  // Relationship instances, once every participant is in place.
  for (const std::string& rel_name : src_schema.RelationshipSetNames()) {
    const RelationshipSetDef* dst_rel =
        dst_schema.FindRelationshipSet(rel_name);
    if (dst_rel == nullptr) continue;  // dropped in the new schema
    const RelationshipSetDef* src_rel =
        src_schema.FindRelationshipSet(rel_name);
    ERBIUM_ASSIGN_OR_RETURN(OperatorPtr scan,
                            src->ScanRelationship(rel_name));
    ERBIUM_ASSIGN_OR_RETURN(std::vector<Row> rows, CollectRows(scan.get()));
    ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> left_key,
                            src->mapping().KeyColumns(src_rel->left.entity));
    ERBIUM_ASSIGN_OR_RETURN(std::vector<Column> right_key,
                            src->mapping().KeyColumns(src_rel->right.entity));
    for (const Row& row : rows) {
      IndexKey left(row.begin(), row.begin() + left_key.size());
      IndexKey right(row.begin() + left_key.size(),
                     row.begin() + left_key.size() + right_key.size());
      Value attrs = Value::Null();
      if (!src_rel->attributes.empty()) {
        Value::StructData fields;
        size_t base = left_key.size() + right_key.size();
        for (size_t i = 0; i < src_rel->attributes.size(); ++i) {
          fields.emplace_back(src_rel->attributes[i].name, row[base + i]);
        }
        attrs = Value::Struct(std::move(fields));
      }
      ERBIUM_RETURN_NOT_OK(dst->InsertRelationship(rel_name, left, right, attrs));
    }
  }
  return Status::OK();
}

}  // namespace evolution

Result<std::unique_ptr<VersionedDatabase>> VersionedDatabase::Create(
    ERSchema initial_schema, MappingSpec spec) {
  std::unique_ptr<VersionedDatabase> db(new VersionedDatabase());
  ERBIUM_RETURN_NOT_OK(db->PushVersion(std::move(initial_schema),
                                       std::move(spec), "initial schema",
                                       /*migrate=*/false));
  return db;
}

std::vector<VersionedDatabase::VersionInfo> VersionedDatabase::History()
    const {
  std::vector<VersionInfo> out;
  for (size_t i = 0; i < versions_.size(); ++i) {
    out.push_back(VersionInfo{static_cast<int>(i), versions_[i].description,
                              versions_[i].db->mapping().spec().name});
  }
  return out;
}

Status VersionedDatabase::PushVersion(ERSchema schema, MappingSpec spec,
                                      std::string description, bool migrate) {
  Version version;
  version.schema = std::make_shared<ERSchema>(std::move(schema));
  ERBIUM_ASSIGN_OR_RETURN(
      version.db, MappedDatabase::Create(version.schema.get(), std::move(spec)));
  version.description = std::move(description);
  if (migrate) {
    ERBIUM_RETURN_NOT_OK(
        evolution::MigrateData(versions_.back().db.get(), version.db.get()));
  }
  versions_.push_back(std::move(version));
  return Status::OK();
}

Status VersionedDatabase::Evolve(const std::function<Status(ERSchema*)>& change,
                                 std::string description) {
  return EvolveWithMapping(change, versions_.back().db->mapping().spec(),
                           std::move(description));
}

Status VersionedDatabase::EvolveWithMapping(
    const std::function<Status(ERSchema*)>& change, MappingSpec new_spec,
    std::string description) {
  ERSchema next = *versions_.back().schema;
  ERBIUM_RETURN_NOT_OK(change(&next));
  return PushVersion(std::move(next), std::move(new_spec),
                     std::move(description), /*migrate=*/true);
}

Status VersionedDatabase::Remap(MappingSpec new_spec, std::string description) {
  ERSchema same = *versions_.back().schema;
  return PushVersion(std::move(same), std::move(new_spec),
                     std::move(description), /*migrate=*/true);
}

Status VersionedDatabase::Rollback() {
  if (versions_.size() <= 1) {
    return Status::InvalidArgument("no prior version to roll back to");
  }
  versions_.pop_back();
  return Status::OK();
}

}  // namespace erbium
