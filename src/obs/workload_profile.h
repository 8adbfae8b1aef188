#ifndef ERBIUM_OBS_WORKLOAD_PROFILE_H_
#define ERBIUM_OBS_WORKLOAD_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace erbium {
namespace obs {

/// Always-on workload profiler: records *what* statements touch at the
/// E/R level (which entity sets, relationship sets, and attributes, and
/// how — full scan vs index probe vs join side vs CRUD kind) plus a
/// normalized query-shape table, so the mapping advisor can be fed from
/// live traffic instead of a hand-written workload.
///
/// One store behind one mutex: a recorded statement or CRUD call takes
/// the mutex once and bumps exactly one count per fact. The profile is
/// read through Snapshot() (SHOW WORKLOAD, EXPORT WORKLOAD, ADVISE); it
/// has no registry mirror. The profiler performs no clock reads of its
/// own: statement wall time arrives from the query engine's existing
/// measurement.

/// How one statement reached one entity set.
enum class EntityPath { kScan, kProbe, kJoinSide };

/// CRUD verbs fed from the statement layer.
enum class CrudKind { kInsert, kDelete, kUpdate };

struct EntityAccess {
  uint64_t scans = 0;       // full entity-set scans
  uint64_t probes = 0;      // key point lookups (index probe)
  uint64_t join_sides = 0;  // appeared as the probe/build side of a join
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t updates = 0;
};

struct RelationshipAccess {
  uint64_t joins = 0;        // traversed by a relationship join
  uint64_t fused_scans = 0;  // served by a fused joined-storage scan
  uint64_t inserts = 0;
  uint64_t deletes = 0;
};

struct AttributeAccess {
  uint64_t predicates = 0;   // referenced by WHERE / ON
  uint64_t projections = 0;  // referenced by SELECT / GROUP BY / ORDER BY
};

/// The E/R access footprint of one compiled statement, assembled by the
/// translator while it plans and stored alongside the compiled plan, so
/// plan-cache hits replay it without re-deriving anything.
struct StatementFootprint {
  struct EntityTouch {
    std::string entity;
    EntityPath path;
  };
  struct RelationshipTouch {
    std::string relationship;
    bool fused = false;
  };
  struct AttributeTouch {
    std::string entity;
    std::string attribute;
    bool predicate = false;  // else projection
  };

  /// Literal-stripped statement text (NormalizeShape), stamped by the
  /// query engine once per compile.
  std::string shape;
  std::vector<EntityTouch> entities;
  std::vector<RelationshipTouch> relationships;
  std::vector<AttributeTouch> attributes;
};

/// Point-in-time copy of a profile. Maps are key-sorted and shapes are
/// ordered by weight (total wall time) descending then shape text
/// ascending, so ToJson() is byte-deterministic for a given state.
struct WorkloadSnapshot {
  struct Shape {
    std::string shape;   // normalized text (literals stripped)
    std::string sample;  // one concrete statement matching the shape
    std::string kind;    // statement kind tag ("select", "trace", ...)
    uint64_t count = 0;
    uint64_t total_wall_ns = 0;
    /// frequency x mean latency == accumulated wall time.
    uint64_t weight_ns() const { return total_wall_ns; }
  };

  uint64_t statements = 0;  // profiled statements recorded
  std::map<std::string, EntityAccess> entities;
  std::map<std::string, RelationshipAccess> relationships;
  std::map<std::string, AttributeAccess> attributes;  // key "Entity.attr"
  std::vector<Shape> shapes;

  /// Canonical JSON encoding (parseable by tests/mini_json.h). Two equal
  /// snapshots always render byte-identically.
  std::string ToJson() const;
};

/// Rewrites statement text into its shape: tokens re-joined with single
/// spaces, identifiers lowercased, every literal (integer, float, string)
/// replaced by '?', trailing ';' dropped. Text that fails to tokenize
/// falls back to whitespace collapsing so the profiler never rejects a
/// statement the parser itself accepted.
std::string NormalizeShape(const std::string& text);

class WorkloadProfile {
 public:
  /// The process-wide profile. Intentionally leaked, like the metrics
  /// registry.
  static WorkloadProfile& Global();

  /// `shape_capacity` bounds the number of distinct shapes kept across
  /// the whole table. At capacity, a new shape is admitted only by
  /// arriving with more wall time than the lightest resident (which it
  /// then evicts) — heavy hitters survive streams of one-off shapes.
  explicit WorkloadProfile(size_t shape_capacity = kDefaultShapeCapacity);

  WorkloadProfile(const WorkloadProfile&) = delete;
  WorkloadProfile& operator=(const WorkloadProfile&) = delete;

  /// Runtime kill switch; capture entry points become near-free loads.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Records one executed statement: its footprint (may be null for
  /// statements with no compiled plan) and its shape weighted by the wall
  /// time the engine already measured. Only plan-executing kinds
  /// ("select", "explain_analyze", "trace") are profiled; introspection
  /// statements (SHOW/EXPORT/LOAD WORKLOAD, ADVISE) observe the profile
  /// without perturbing it.
  void RecordStatement(const StatementFootprint* footprint,
                       const std::string& kind, const std::string& text,
                       uint64_t wall_ns);

  /// CRUD feed from the statement layer (api::StatementRunner), so
  /// internal bulk paths (REMAP migration, recovery replay, advisor
  /// candidate population) never pollute the captured workload.
  void RecordEntityCrud(const std::string& entity, CrudKind kind);
  void RecordRelationshipCrud(const std::string& relationship, CrudKind kind);

  WorkloadSnapshot Snapshot() const;

  /// Forgets everything captured so far.
  void Clear();

  /// Snapshot().ToJson() — the EXPORT WORKLOAD INTO payload.
  std::string ToJson() const { return Snapshot().ToJson(); }

  /// Replaces the profile contents with a previously exported snapshot.
  /// Loading S then exporting again reproduces S byte-for-byte.
  Status LoadJson(const std::string& json);

  static constexpr size_t kDefaultShapeCapacity = 128;

 private:
  /// Adds one statement to `shape`'s entry, admitting or evicting at
  /// capacity. Caller holds mu_.
  void RecordShapeLocked(const std::string& shape, const std::string& kind,
                         const std::string& sample, uint64_t wall_ns);

  const size_t shape_capacity_;
  std::atomic<bool> enabled_{true};

  mutable std::mutex mu_;
  uint64_t statements_ = 0;
  std::map<std::string, EntityAccess> entities_;
  std::map<std::string, RelationshipAccess> relationships_;
  std::map<std::string, AttributeAccess> attributes_;  // key "Entity.attr"
  std::unordered_map<std::string, WorkloadSnapshot::Shape> shapes_;  // by .shape
};

}  // namespace obs
}  // namespace erbium

#endif  // ERBIUM_OBS_WORKLOAD_PROFILE_H_
