#ifndef ERBIUM_EVOLUTION_EVOLUTION_H_
#define ERBIUM_EVOLUTION_EVOLUTION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "er/er_schema.h"
#include "mapping/database.h"

namespace erbium {

/// Schema-evolution operations (paper Section 3). Each produces a
/// modified copy of a schema; VersionedDatabase applies them together
/// with data migration. The operations are deliberately E/R-level: the
/// "single-valued city becomes multi-valued" change is one call here,
/// whereas on a raw relational schema it forces a table split and a
/// rewrite of every query touching the attribute.
namespace evolution {

/// attr becomes multi-valued; existing scalars migrate to 1-element
/// arrays (nulls to empty arrays).
Status MakeAttributeMultiValued(ERSchema* schema, const std::string& entity,
                                const std::string& attr);

/// Adds an attribute (nullable; existing instances get null / []).
Status AddAttribute(ERSchema* schema, const std::string& entity,
                    AttributeDef attr);

/// Drops a non-key attribute.
Status DropAttribute(ERSchema* schema, const std::string& entity,
                     const std::string& attr);

/// Changes participation cardinalities (e.g. many-to-one advisor becomes
/// many-to-many). Existing instances always satisfy the relaxed
/// constraint; tightening is rejected here (it would need data checks).
Status ChangeRelationshipCardinality(ERSchema* schema, const std::string& rel,
                                     Cardinality left, Cardinality right);

/// Adds a new subclass under `parent`.
Status AddSubclass(ERSchema* schema, const std::string& parent,
                   EntitySetDef subclass);

/// Copies every entity (with its most-specific class) and every
/// relationship instance from `src` into `dst`. Schemas may differ:
/// attributes are matched by name; newly multi-valued attributes wrap
/// scalars into arrays; attributes missing in dst are dropped; new
/// attributes start null. This is the generic migration path enabled by
/// mapping reversibility (paper Section 4 requirement 1).
Status MigrateData(MappedDatabase* src, MappedDatabase* dst);

}  // namespace evolution

/// A database with native schema/mapping versioning (paper Sections 3
/// and 5): every Evolve/Remap produces a new version with migrated data;
/// prior versions stay readable and Rollback reinstates them.
class VersionedDatabase {
 public:
  struct VersionInfo {
    int version;
    std::string description;
    std::string mapping_name;
  };

  static Result<std::unique_ptr<VersionedDatabase>> Create(
      ERSchema initial_schema, MappingSpec spec);

  MappedDatabase* current() { return versions_.back().db.get(); }
  const ERSchema& schema() const { return *versions_.back().schema; }
  int version() const { return static_cast<int>(versions_.size()) - 1; }
  std::vector<VersionInfo> History() const;

  /// Applies a schema change (mutating a copy of the current schema),
  /// optionally switches the physical mapping, migrates all data, and
  /// makes the result the new current version.
  Status Evolve(const std::function<Status(ERSchema*)>& change,
                std::string description);
  Status EvolveWithMapping(const std::function<Status(ERSchema*)>& change,
                           MappingSpec new_spec, std::string description);

  /// Keeps the schema, changes only the physical mapping — the pure
  /// logical-data-independence move (no query changes needed).
  Status Remap(MappingSpec new_spec, std::string description);

  /// Discards the newest version and reinstates the previous one.
  Status Rollback();

 private:
  struct Version {
    std::shared_ptr<ERSchema> schema;
    std::unique_ptr<MappedDatabase> db;
    std::string description;
  };

  VersionedDatabase() = default;

  Status PushVersion(ERSchema schema, MappingSpec spec,
                     std::string description, bool migrate);

  std::vector<Version> versions_;
};

}  // namespace erbium

#endif  // ERBIUM_EVOLUTION_EVOLUTION_H_
