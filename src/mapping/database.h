#ifndef ERBIUM_MAPPING_DATABASE_H_
#define ERBIUM_MAPPING_DATABASE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "exec/operator.h"
#include "factorized/factorized.h"
#include "mapping/durability_hook.h"
#include "mapping/physical_mapping.h"
#include "storage/catalog.h"

namespace erbium {

/// A database instance = an E/R schema + a chosen physical mapping +
/// the physical storage it compiles to. This is the runtime object of
/// the paper's Figure 3: CRUD statements against entities/relationships
/// are compiled into updates on the physical tables, and the query layer
/// obtains physical access plans for logical constructs from it.
///
/// Entity values are structs keyed by attribute name; multi-valued
/// attributes are arrays; composite attributes are structs. Weak entity
/// values must also include their owner's key attributes (the inherited
/// part of their full key).
class MappedDatabase {
 public:
  static Result<std::unique_ptr<MappedDatabase>> Create(const ERSchema* schema,
                                                        MappingSpec spec);

  const ERSchema& schema() const { return mapping_.schema(); }
  const PhysicalMapping& mapping() const { return mapping_; }
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  FactorizedPair* pair(const std::string& name);
  const FactorizedPair* pair(const std::string& name) const;

  /// Total approximate bytes across tables and pairs.
  size_t ApproximateDataBytes() const;

  /// Name of the catalog table holding the active mapping as JSON (the
  /// paper persists the chosen mapping inside the database).
  static constexpr const char* kMappingCatalogTable = "_erbium_mappings";

  /// Reads the persisted mapping spec back from the catalog table.
  Result<MappingSpec> LoadPersistedSpec() const;

  /// Attaches (or detaches, with nullptr) the write-ahead-log sink. Every
  /// successfully applied logical CRUD operation below is reported to the
  /// hook and made durable before being acknowledged; these five methods
  /// are the single choke point all writers (EntityStore, workloads,
  /// migration) funnel through. Not owned.
  void set_durability_hook(DurabilityHook* hook) { durability_ = hook; }
  DurabilityHook* durability_hook() const { return durability_; }

  // ---- Entity CRUD -----------------------------------------------------------

  /// Inserts an instance whose most-specific class is `class_name`.
  /// `entity` must provide non-null values for all full-key attributes;
  /// other attributes default to null / empty arrays.
  Status InsertEntity(const std::string& class_name, const Value& entity);

  /// Assembles the full logical view of an instance: every visible
  /// attribute (inherited + own), multi-valued ones as arrays. The
  /// instance must belong to `class_name` (or a descendant).
  Result<Value> GetEntity(const std::string& class_name, const IndexKey& key);

  /// True if an instance with this key belongs to the class (or below).
  Result<bool> EntityExists(const std::string& class_name,
                            const IndexKey& key);

  /// Most-specific class of the instance.
  Result<std::string> SpecificClassOf(const std::string& class_name,
                                      const IndexKey& key);

  /// Entity-centric delete (paper Section 1.1(2)): removes all segments,
  /// multi-valued rows, relationship instances touching the entity, and
  /// (recursively) owned weak entities.
  Status DeleteEntity(const std::string& class_name, const IndexKey& key);

  /// Replaces the value of one attribute (multi-valued: pass the whole
  /// new array). Key attributes cannot be updated.
  Status UpdateAttribute(const std::string& class_name, const IndexKey& key,
                         const std::string& attr, const Value& value);

  /// Number of instances of the class (including descendant instances).
  Result<size_t> CountEntities(const std::string& class_name);

  // ---- Relationship CRUD -------------------------------------------------------

  /// Connects two existing instances. Enforces cardinality constraints
  /// and referential existence of both sides (note: this is enforceable
  /// under every mapping here, unlike the raw relational schemas the
  /// paper discusses for M3). `attrs` may be a null Value when the
  /// relationship has no attributes.
  Status InsertRelationship(const std::string& rel_name,
                            const IndexKey& left_key, const IndexKey& right_key,
                            const Value& attrs = Value::Null());

  Status DeleteRelationship(const std::string& rel_name,
                            const IndexKey& left_key,
                            const IndexKey& right_key);

  Result<size_t> CountRelationships(const std::string& rel_name);

  // ---- Access plans for the query layer -----------------------------------------

  /// Stream of instances of the class: output columns are the full-key
  /// attributes followed by `attrs` in order (multi-valued as arrays).
  /// Every requested attribute must be visible at the class.
  Result<OperatorPtr> ScanEntity(const std::string& class_name,
                                 const std::vector<std::string>& attrs);

  /// Point-access variant of ScanEntity driven through key indexes.
  Result<OperatorPtr> LookupEntity(const std::string& class_name,
                                   const IndexKey& key,
                                   const std::vector<std::string>& attrs);
  /// Same, with the key given as expressions evaluated when the plan is
  /// opened (statement parameters of a cached plan).
  Result<OperatorPtr> LookupEntity(const std::string& class_name,
                                   const std::vector<ExprPtr>& key,
                                   const std::vector<std::string>& attrs);

  /// Unnested multi-valued attribute stream: full key columns + one
  /// element column named after the attribute.
  Result<OperatorPtr> ScanMultiValued(const std::string& class_name,
                                      const std::string& attr);

  /// Relationship instance stream: role-prefixed key columns of both
  /// sides ("<role>_<keyattr>") followed by relationship attributes.
  Result<OperatorPtr> ScanRelationship(const std::string& rel_name);

  /// Fused scan over a relationship *and* both participants' attributes
  /// in a single pass — only available when the relationship is stored
  /// joined (kMaterializedJoin: one scan of the wide table;
  /// kFactorized: pointer-chasing join enumeration). Output columns:
  /// left full key, `left_attrs` in order, right full key, `right_attrs`
  /// in order. Returns NotImplemented for other storages or for
  /// separately-stored multi-valued attributes (callers fall back to
  /// composing ScanEntity + ScanRelationship).
  Result<OperatorPtr> ScanRelationshipJoined(
      const std::string& rel_name, const std::vector<std::string>& left_attrs,
      const std::vector<std::string>& right_attrs);

  /// Stream of a weak entity set's instances belonging to one owner
  /// instance, through the owner-key index (own-table storage) or the
  /// owner's folded array (folded storage). Columns as ScanEntity.
  Result<OperatorPtr> LookupWeakByOwner(const std::string& weak_entity,
                                        const IndexKey& owner_key,
                                        const std::vector<std::string>& attrs);

 private:
  /// Bumps the named logical-CRUD counter when the operation succeeded,
  /// so counters reflect applied changes, not attempts.
  static Status Counted(Status s, const char* counter_name);

  /// The body of the five public CRUD entry points. Under the construct's
  /// lock domain, `apply` changes memory and `log` (only when a hook is
  /// attached) writes the WAL record, so WAL order equals apply order
  /// within a domain. The domain is released *before* waiting for the
  /// record to become durable (early lock release): writers of one domain
  /// then share a group-commit sync instead of queueing one fsync each.
  template <typename Apply, typename Log>
  Status ApplyAndLog(const std::string& construct, const char* counter_name,
                     Apply apply, Log log);

  Status InsertEntityImpl(const std::string& class_name, const Value& entity);
  Status DeleteEntityImpl(const std::string& class_name, const IndexKey& key);
  Status UpdateAttributeImpl(const std::string& class_name,
                             const IndexKey& key, const std::string& attr,
                             const Value& value);
  Status InsertRelationshipImpl(const std::string& rel_name,
                                const IndexKey& left_key,
                                const IndexKey& right_key, const Value& attrs);
  Status DeleteRelationshipImpl(const std::string& rel_name,
                                const IndexKey& left_key,
                                const IndexKey& right_key);

  explicit MappedDatabase(PhysicalMapping mapping)
      : mapping_(std::move(mapping)) {}

  Status Initialize();

  // -- helpers (database.cc) --
  Result<const AttributeDef*> FindVisibleAttribute(
      const std::string& class_name, const std::string& attr) const;
  /// Class (in the ancestry chain of `class_name`) that declares `attr`.
  Result<std::string> DeclaringClass(const std::string& class_name,
                                     const std::string& attr) const;
  Result<IndexKey> ExtractFullKey(const std::string& class_name,
                                  const Value& entity) const;
  /// Positions of the key columns in a table, by key column names.
  Result<std::vector<int>> ColumnPositions(
      const Table& table, const std::vector<std::string>& names) const;
  Result<std::vector<std::string>> KeyColumnNames(
      const std::string& class_name) const;

  /// Segment row ids of an instance in its own-segment table, "" table ok.
  struct SegmentRef {
    Table* table = nullptr;
    RowId row = 0;
  };
  Result<SegmentRef> FindSegmentRow(const std::string& class_name,
                                    const IndexKey& key);

  // -- scan helpers (database_scan.cc) --
  /// Base stream over instances of the class: full key columns plus the
  /// own-location columns needed for `needed_attrs` that are inline
  /// (arrays / scalars / FK cols are handled by the callers). The
  /// `key_filter` (may be null) restricts to one key for point access.
  Result<OperatorPtr> BuildSegmentStream(
      const std::string& class_name, const std::vector<std::string>& attrs,
      const std::vector<ExprPtr>* key_filter);

  Result<OperatorPtr> BuildEntityPlan(
      const std::string& class_name, const std::vector<std::string>& attrs,
      const std::vector<ExprPtr>* key_filter);

  // -- CRUD helpers (database.cc / database_rel.cc) --
  Status InsertSegments(const std::string& class_name, const Value& entity,
                        const IndexKey& key);
  Status InsertMultiValued(const std::string& class_name, const Value& entity,
                           const IndexKey& key);
  Status DeleteWhereKey(Table* table, const std::vector<std::string>& key_cols,
                        const IndexKey& key);
  Status ClearForeignKeysReferencing(const std::string& one_class,
                                     const IndexKey& key);

  /// The writer lock domain of an entity or relationship set. Unknown
  /// names (analysis errors surface inside the Impl) fall back to one
  /// shared mutex.
  std::mutex& LockDomain(const std::string& construct);

  /// Partitions the schema graph into connected components (edges: ISA
  /// parent, weak→owner, relationship→both participants) and assigns one
  /// shared mutex per component. Called at the end of Initialize.
  void BuildLockDomains();

  PhysicalMapping mapping_;
  Catalog catalog_;
  std::map<std::string, std::unique_ptr<FactorizedPair>> pairs_;
  DurabilityHook* durability_ = nullptr;
  /// Writer serialization: the five public CRUD entry points lock their
  /// construct's domain — every physical structure one logical mutation
  /// can reach (hierarchy segments, weak cascades, FK clears, pair
  /// edges) lives inside a single domain, so writers in unrelated parts
  /// of the schema run in parallel. Readers never take these locks: they
  /// pin published versions.
  std::unordered_map<std::string, std::shared_ptr<std::mutex>> lock_domains_;
  std::shared_ptr<std::mutex> fallback_domain_ =
      std::make_shared<std::mutex>();
};

}  // namespace erbium

#endif  // ERBIUM_MAPPING_DATABASE_H_
