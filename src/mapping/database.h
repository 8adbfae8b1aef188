#ifndef ERBIUM_MAPPING_DATABASE_H_
#define ERBIUM_MAPPING_DATABASE_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
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

 private:
  /// Bumps the named logical-CRUD counter when the operation succeeded,
  /// so counters reflect applied changes, not attempts.
  static Status Counted(Status s, const char* counter_name);

  // ---- compiled layouts ----------------------------------------------------
  //
  // Initialize resolves, once per entity set and relationship set, every
  // name the CRUD paths and the access-plan builders need: tables, pairs,
  // side tables, key/FK/role column positions, declaring classes, the
  // uniqueness scope and the writer lock domain. Reads and writes both
  // start from one layout lookup and then work on positions. A
  // MappedDatabase is rebuilt on every DDL, REMAP and ATTACH, so the
  // layouts live and die with it and are never invalidated.

  /// A table holding an entity set's own segment, with the positions of
  /// the full key in it (role-prefixed in a materialized join table).
  struct SegmentProbe {
    Table* table = nullptr;
    std::vector<int> key;
  };

  /// Where an insert takes one physical column's value from: a full-key
  /// position, else the named attribute of the entity value, else
  /// `fallback` (the `_type` name, or null / an empty array).
  struct ColumnSource {
    int key = -1;
    std::string field;
    Value fallback;
  };

  /// One row an insert writes: into `table`, or into one side of `pair`
  /// (validated against `pair_schema`, since pairs check only arity).
  struct SegmentWrite {
    Table* table = nullptr;
    FactorizedPair* pair = nullptr;
    bool left = false;
    TableSchema pair_schema;
    std::vector<ColumnSource> sources;
    const TableSchema& schema() const {
      return pair != nullptr ? pair_schema : table->schema();
    }
  };

  /// A separately stored multi-valued attribute: its side table.
  struct MvTable {
    const AttributeDef* attr = nullptr;
    Table* table = nullptr;
    std::vector<int> key;
  };

  /// Where UpdateAttribute writes one own attribute: a multi-valued side
  /// table (`mv` indexes `mv_tables`), else the column per probe (or the
  /// pair-side position in `columns[0]`); folded weak sets use the field.
  struct AttrSlot {
    const AttributeDef* def = nullptr;
    int mv = -1;
    std::vector<int> columns;
  };

  struct RelationshipLayout;

  struct EntityLayout {
    const EntitySetDef* def = nullptr;
    SegmentLocation location = SegmentLocation::kOwnTable;
    std::vector<std::string> key_names;
    std::vector<TypePtr> key_types;
    /// Hierarchy-wide uniqueness scope: the root (weak sets: self).
    const EntityLayout* scope = nullptr;
    const EntityLayout* owner = nullptr;  // weak sets only
    std::mutex* domain = nullptr;

    // Finding an instance.
    std::vector<SegmentProbe> probes;    // disjoint: self + descendants
    FactorizedPair* pair = nullptr;      // kPairLeft / kPairRight
    const RelationshipLayout* joined = nullptr;  // kMaterialized*
    int type_column = -1;                // kHierarchySingle
    std::vector<int> folded_column;      // kFoldedInOwner: per owner probe

    // Writing one.
    std::vector<const EntityLayout*> chain;  // root .. self
    std::vector<SegmentWrite> segments;      // ancestry order
    std::vector<MvTable> mv_tables;          // own attributes only
    std::vector<const AttributeDef*> multi_valued;  // visible ones
    std::unordered_map<std::string, const EntityLayout*> declaring;
    std::unordered_map<std::string, AttrSlot> own_attrs;
    std::vector<std::string> value_attrs;    // visible, non-key

    // Deleting one.
    std::vector<const EntityLayout*> self_and_descendants;
    std::vector<const EntityLayout*> children;
    std::vector<const EntityLayout*> owned_weak;
    std::vector<int> owner_key;  // own-table weak: owner key positions
    std::vector<std::pair<const RelationshipLayout*, bool>> sides;  // left?

    /// Lookups match keys across numeric kinds; a write that stores a key
    /// takes it only with the declared types, under every mapping.
    Status CheckKeyTypes(const IndexKey& key) const;
    bool IsKey(const std::string& attr) const;
    /// AnalysisError unless `attr` is visible (declared here or above).
    Status CheckVisible(const std::string& attr) const;
    /// The side table of a visible attribute stored in one; else null.
    const MvTable* SideTable(const std::string& attr) const;
  };

  struct RelationshipLayout {
    const RelationshipSetDef* def = nullptr;
    RelationshipStorage storage = RelationshipStorage::kJoinTable;
    const EntityLayout* left = nullptr;
    const EntityLayout* right = nullptr;
    std::mutex* domain = nullptr;
    Table* table = nullptr;           // join or materialized join table
    FactorizedPair* pair = nullptr;
    std::vector<int> left_key, right_key;          // role key positions
    /// Joined storages: each side's own-segment columns (unprefixed) and
    /// their positions in a joined row (a materialized table row, or a
    /// FactorizedJoinScan row: left side, then right side).
    std::vector<Column> left_segment, right_segment;
    std::vector<int> left_columns, right_columns;
    std::vector<int> attributes;  // per def->attributes; -1 when absent
    /// ScanRelationship's output: role-prefixed keys, then attributes.
    std::vector<Column> columns;
    /// Foreign-key storage: the FK and attribute columns on each table
    /// of the many side, aligned with that side's probes.
    bool many_is_left = false;
    struct FkCarrier {
      std::vector<int> key;
      std::vector<int> attributes;
    };
    std::vector<FkCarrier> carriers;
  };

  /// The layout of a named set; NotFound with the historical text.
  Result<const EntityLayout*> EntityLayoutOf(const std::string& name) const;
  Result<const RelationshipLayout*> RelationshipLayoutOf(
      const std::string& name) const;

  /// The body of the five public CRUD entry points. Under the construct's
  /// lock domain, `apply` changes memory and `log` (only when a hook is
  /// attached) writes the WAL record, so WAL order equals apply order
  /// within a domain. The domain is released *before* waiting for the
  /// record to become durable (early lock release): writers of one domain
  /// then share a group-commit sync instead of queueing one fsync each.
  template <typename Apply, typename Log>
  Status ApplyAndLog(std::mutex* domain, const char* counter_name,
                     Apply apply, Log log);

  Status InsertEntityImpl(const EntityLayout& e, const Value& entity);
  Status DeleteEntityImpl(const EntityLayout& e, const IndexKey& key);
  Status UpdateAttributeImpl(const EntityLayout& e, const IndexKey& key,
                             const std::string& attr, const Value& value);
  Status InsertRelationshipImpl(const RelationshipLayout& r,
                                const IndexKey& left_key,
                                const IndexKey& right_key, const Value& attrs);
  Status DeleteRelationshipImpl(const RelationshipLayout& r,
                                const IndexKey& left_key,
                                const IndexKey& right_key);

  explicit MappedDatabase(PhysicalMapping mapping)
      : mapping_(std::move(mapping)) {}

  Status Initialize();
  /// Builds entity_layouts_, relationship_layouts_ and the lock domains.
  Status BuildLayouts();

  // -- helpers (database.cc) --
  /// Positions of the named columns in a table (layout compilation only).
  Result<std::vector<int>> ColumnPositions(
      const Table& table, const std::vector<std::string>& names) const;

  bool EntityExists(const EntityLayout& e, const IndexKey& key) const;
  Result<const EntityLayout*> SpecificLayout(const EntityLayout& e,
                                             const IndexKey& key) const;

  /// The row holding an instance's own segment, and which probe found it.
  struct SegmentRef {
    Table* table = nullptr;
    RowId row = 0;
    size_t probe = 0;
  };
  std::optional<SegmentRef> FindSegmentRow(const EntityLayout& e,
                                          const IndexKey& key) const;

  // -- scan helpers (database_scan.cc) --
  /// Base stream over instances of the class: the full key columns plus
  /// every column of `inline_attrs` (visible, non-key attributes stored
  /// in the segment rows, not in side tables). The `key_filter` (may be
  /// null) restricts to one key for point access.
  Result<OperatorPtr> BuildSegmentStream(
      const EntityLayout& e, const std::vector<std::string>& inline_attrs,
      const std::vector<ExprPtr>* key_filter) const;

  /// Full key followed by `attrs` (each visible at `e`; multi-valued ones
  /// as arrays, side tables grouped and joined in).
  Result<OperatorPtr> BuildEntityPlan(
      const EntityLayout& e, const std::vector<std::string>& attrs,
      const std::vector<ExprPtr>* key_filter) const;

  /// Index-joins to `base` the class-table segment of every ancestor of
  /// `e` that declares one of `attrs` (non-key), once each in first-use
  /// order, probing with the key columns at `key` in `base`.
  static Result<OperatorPtr> JoinAncestors(
      OperatorPtr base, const std::vector<int>& key, const EntityLayout& e,
      const std::vector<std::string>& attrs);

  // -- CRUD helpers (database.cc / database_rel.cc) --
  /// Ids of the working rows whose `positions` columns equal `key`.
  static std::vector<RowId> RowsWhere(const Table& table,
                                      const std::vector<int>& positions,
                                      const IndexKey& key);
  /// Sets the columns at `positions` (negative ones skipped) to null.
  static void NullOut(const std::vector<int>& positions, Row* row);
  /// Keys of the weak instances of `weak` owned by the owner `key`.
  Result<std::vector<IndexKey>> OwnedWeakKeys(const EntityLayout& weak,
                                              const IndexKey& key);
  /// Nulls the FK (and folded attribute) columns referencing `key`.
  Status ClearForeignKeys(const RelationshipLayout& r, const IndexKey& key);
  /// Removes one side's instance `key` from a materialized join table.
  Status DetachSide(const RelationshipLayout& r, bool left,
                    const IndexKey& key);

  PhysicalMapping mapping_;
  Catalog catalog_;
  std::map<std::string, std::unique_ptr<FactorizedPair>> pairs_;
  DurabilityHook* durability_ = nullptr;
  std::unordered_map<std::string, EntityLayout> entity_layouts_;
  std::unordered_map<std::string, RelationshipLayout> relationship_layouts_;
  /// Writer serialization: the five public CRUD entry points lock their
  /// construct's domain — every physical structure one logical mutation
  /// can reach (hierarchy segments, weak cascades, FK clears, pair
  /// edges) lives inside a single domain, so writers in unrelated parts
  /// of the schema run in parallel. Readers never take these locks: they
  /// pin published versions. One mutex per connected schema component
  /// (edges: ISA parent, weak owner, relationship participants).
  std::vector<std::unique_ptr<std::mutex>> domains_;
};

}  // namespace erbium

#endif  // ERBIUM_MAPPING_DATABASE_H_
