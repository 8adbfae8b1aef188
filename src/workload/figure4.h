#ifndef ERBIUM_WORKLOAD_FIGURE4_H_
#define ERBIUM_WORKLOAD_FIGURE4_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "er/er_schema.h"
#include "mapping/database.h"
#include "mapping/mapping_spec.h"

namespace erbium {

/// The synthetic E/R schema of paper Figure 4: 8 entity sets including a
/// 5-member type hierarchy (R with subclasses R1, R2; R1 with subclasses
/// R3, R4) and two weak entity sets (S1, S2 owned by S); relationships
/// RS (R:S many-to-many with one attribute), R2S1 (R2:S1, many-to-many at
/// the schema level but nearly one-to-one in the generated data — the M6
/// factorization target), and R1R3 (a 1:N parent/child relationship
/// inside the hierarchy, the paper's constraint example).
Result<ERSchema> MakeFigure4Schema();

/// The DDL text used by MakeFigure4Schema (exposed for examples/tests).
const char* Figure4Ddl();

/// The paper's six mappings (Section 6) against the Figure 4 schema.
MappingSpec Figure4M1();  // fully normalized
MappingSpec Figure4M2();  // multi-valued attrs as arrays
MappingSpec Figure4M3();  // hierarchy in a single table + type column
MappingSpec Figure4M4();  // hierarchy as 5 disjoint full-width tables
MappingSpec Figure4M5();  // S1/S2 folded into S as arrays of composites
MappingSpec Figure4M6();  // R2 joined with S1 in a factorized structure
/// PostgreSQL-flavoured M6: the same joined storage as one wide table
/// with duplication — the variant the paper actually measured, and the
/// reason it calls for compressed multi-relational formats.
MappingSpec Figure4M6Pg();

/// All of M1..M6 (factorized M6), for parameterized tests.
std::vector<MappingSpec> Figure4AllMappings();

/// Scale and shape knobs for the generator. Defaults give ~5k entities —
/// tests use this; benchmarks scale `num_r`/`num_s` up.
struct Figure4Config {
  uint64_t seed = 42;
  int num_r = 2000;        // instances across the R hierarchy
  int num_s = 600;         // S instances
  int mv_min = 0;          // per-entity multi-valued attr element counts
  int mv_max = 6;
  int mv_domain = 1000;    // element value domain (intersections non-empty)
  int s1_max_per_s = 3;    // weak entities per owner
  int s2_max_per_s = 2;
  int rs_per_r = 2;        // RS partners per R instance
  double r2s1_link_prob = 0.8;  // fraction of R2s linked ~1:1 to an S1
  double r1r3_link_prob = 0.7;  // fraction of R3s with an R1 parent
  // Specific-class split of the num_r instances (fractions of R, R1, R2,
  // R3, R4 as most-specific class); remainder goes to plain R.
  double frac_r1 = 0.15, frac_r2 = 0.25, frac_r3 = 0.15, frac_r4 = 0.15;
};

/// Populates a database (any mapping) with deterministic synthetic data:
/// the logical content depends only on `config.seed` and the counts, so
/// two databases with different mappings hold identical logical data.
Status PopulateFigure4(MappedDatabase* db, const Figure4Config& config);

/// Insert sinks for hosts that observe or redirect the generated stream
/// (e.g. counting rows while loading a durable database). The rng
/// stream is consumed identically whatever the sinks do, so the logical
/// dataset for a given seed is the same as the single-database overload.
struct Figure4Sinks {
  std::function<Status(const std::string& cls, Value fields)> insert_entity;
  std::function<Status(const std::string& rel, IndexKey left, IndexKey right,
                       Value attrs)>
      insert_relationship;
};
Status PopulateFigure4(const Figure4Sinks& sinks, const Figure4Config& config);

/// Convenience: build schema + database + data in one call. The returned
/// unique_ptr owns the database; `schema_out` receives the schema the
/// database points into (must stay alive as long as the database).
Result<std::unique_ptr<MappedDatabase>> MakeFigure4Database(
    const MappingSpec& spec, const Figure4Config& config,
    std::shared_ptr<ERSchema>* schema_out);

}  // namespace erbium

#endif  // ERBIUM_WORKLOAD_FIGURE4_H_
