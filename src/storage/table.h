#ifndef ERBIUM_STORAGE_TABLE_H_
#define ERBIUM_STORAGE_TABLE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/reentrant_check.h"
#include "common/status.h"
#include "common/value.h"
#include "obs/metrics.h"
#include "storage/index.h"
#include "storage/schema.h"
#include "storage/versioned_bank.h"

namespace erbium {

/// One immutable published version of a table: a frozen row bank plus its
/// live count, tagged with the epoch that produced it. Readers pin a
/// version (Table::PinVersion) and read it without synchronization for as
/// long as they hold the pin; a null row slot is a tombstone (or a slot
/// appended after this version was published).
struct TableVersion {
  CowBank<Row>::Snapshot rows;
  size_t live_count = 0;
  uint64_t epoch = 0;

  size_t size() const { return live_count; }
  size_t slot_count() const { return rows.bound; }
  const Row* row(RowId id) const { return rows.Get(id); }
  bool IsLive(RowId id) const { return rows.Get(id) != nullptr; }
};

/// An in-memory heap table with stable row ids, tombstoned deletes,
/// attached indexes, and MVCC snapshot reads.
///
/// Concurrency contract (see DESIGN.md "Threading model"):
///   - Exactly one writer thread may mutate the table at a time (callers
///     hold the entity-set's writer-domain lock; a WriterCheck aborts
///     loudly in debug builds if two mutators race). Each mutation
///     publishes a new immutable TableVersion before returning.
///   - Any number of reader threads may concurrently PinVersion() and
///     read the pinned version, including LookupEqualIn index probes —
///     these never block behind the writer and never observe a
///     half-applied mutation.
///   - Index entries for deleted/updated rows are erased *deferred*: a
///     probe may surface a stale candidate, so both probe paths verify
///     liveness and key equality against their row view. Deferred
///     erasures are applied once no pinned version can still see the row
///     (epoch-based reclamation, swept on the writer's thread).
///   - The working-state accessors (row, IsLive, LookupEqual) are for
///     writer/exclusive contexts; concurrent readers must go through a
///     pinned version.
class Table {
 public:
  /// For generic version pinning (exec::ReadSnapshot).
  using VersionType = TableVersion;

  explicit Table(TableSchema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }

  /// Number of live rows in the latest published version. Safe to call
  /// from any thread.
  size_t size() const {
    return published_live_.load(std::memory_order_acquire);
  }
  /// Upper bound on row ids (including tombstones) in the latest
  /// published version. Safe to call from any thread.
  size_t slot_count() const {
    return published_slots_.load(std::memory_order_acquire);
  }

  /// Pins the latest published version. Cheap (one lock + shared_ptr
  /// copy); holding the pin delays index-entry reclamation for rows it
  /// can see, nothing else.
  std::shared_ptr<const TableVersion> PinVersion() const {
    std::lock_guard<std::mutex> lock(version_mu_);
    return current_;
  }

  /// Working-state liveness/row access — writer/exclusive contexts only.
  bool IsLive(RowId id) const { return bank_.Get(id) != nullptr; }
  /// Row at `id`; dead or out-of-range slots yield an empty row (the
  /// historical tombstone representation).
  const Row& row(RowId id) const;

  /// Validates the row, checks unique constraints against live working
  /// state, appends, maintains indexes, and publishes a new version.
  /// Returns the new row's id.
  Result<RowId> Insert(Row row);

  /// Replaces the row at `id` (must be live); index entries for changed
  /// keys are added now and the old ones erased once unreferenced.
  Status Update(RowId id, Row row);

  /// Tombstones the row at `id` (must be live); index erasure deferred.
  Status Delete(RowId id);

  /// Creates a hash index over the named columns, backfilling existing
  /// rows. Exclusive contexts only (schema build / DDL barrier).
  Status CreateIndex(const std::string& index_name,
                     const std::vector<std::string>& column_names,
                     bool unique);

  /// Point lookup against *working* state — writer/exclusive contexts
  /// only. Falls back to a full scan when no matching index exists.
  /// Appends ids of live rows whose key columns equal `key` (candidates
  /// are deduplicated and key-verified: deferred erasure means the index
  /// may hold stale entries).
  void LookupEqual(const std::vector<int>& column_indexes, const IndexKey& key,
                   std::vector<RowId>* out) const;

  /// Snapshot point lookup: like LookupEqual but filtered against the
  /// pinned `version` and safe to call concurrently with the writer
  /// (probes take the index lock shared).
  void LookupEqualIn(const TableVersion& version,
                     const std::vector<int>& column_indexes,
                     const IndexKey& key, std::vector<RowId>* out) const;

  /// Approximate bytes consumed by live row data in the latest published
  /// version (cost model / storage-size reporting; counts Value payloads,
  /// not allocator slack). Safe to call from any thread.
  size_t ApproximateDataBytes() const;

 private:
  /// One index: its key entries plus the metadata the table checks.
  struct TableIndex {
    TableIndex(std::string name, std::vector<int> columns, bool unique);

    std::string name;
    std::vector<int> columns;
    bool unique;
    obs::Counter probes;  // "index.<name>.probes": lookups served
    KeyIndex entries;
  };

  /// The index whose column list is exactly `column_indexes`
  /// (order-sensitive), or nullptr. The index *set* is frozen outside
  /// DDL barriers, so this needs no lock.
  const TableIndex* FindIndex(const std::vector<int>& column_indexes) const;
  /// Shared body of LookupEqual and LookupEqualIn; `row_at(id)` yields
  /// the row visible at `id` (nullptr when dead) for ids below `bound`.
  template <typename RowAt>
  void LookupRows(const std::vector<int>& column_indexes, const IndexKey& key,
                  size_t bound, const RowAt& row_at,
                  std::vector<RowId>* out) const;
  /// True when a live working row other than `self` carries `key` in
  /// `columns` (uniqueness must be checked against live state — the
  /// index alone can hold stale and not-yet-visible entries).
  bool HasLiveDuplicate(const std::vector<int>& columns, const IndexKey& key,
                        RowId self) const;
  /// Publishes the working state as a new immutable version and sweeps
  /// deferred index erasures whose rows no pinned version can see.
  void Publish();
  /// Queues (key, id) for erasure from `index` once every version
  /// published up to now (epoch <= current) is unpinned.
  void DeferErase(TableIndex* index, IndexKey key, RowId id);

  TableSchema schema_;
  CowBank<Row> bank_;       // working row state (single writer)
  size_t live_count_ = 0;   // working live count
  uint64_t epoch_ = 0;      // epoch of the latest published version

  /// Latest published version; guarded by version_mu_ (pin = copy).
  mutable std::mutex version_mu_;
  std::shared_ptr<const TableVersion> current_;
  /// Published bounds mirrored as atomics so size()/slot_count() never
  /// tear (readers planning scans, morsel cursors).
  std::atomic<size_t> published_slots_{0};
  std::atomic<size_t> published_live_{0};

  /// Index contents: probes lock shared, writer entry mutations (Add /
  /// swept Erase) lock unique.
  mutable std::shared_mutex index_mu_;
  std::vector<std::unique_ptr<TableIndex>> indexes_;

  /// Epoch-based index reclamation (writer-thread only): erasures queued
  /// FIFO with the epoch whose readers may still need the entry, applied
  /// once the minimum pinned epoch passes it.
  struct PendingErase {
    uint64_t epoch;
    TableIndex* index;
    IndexKey key;
    RowId id;
  };
  std::deque<PendingErase> pending_erases_;
  struct TrackedVersion {
    uint64_t epoch;
    std::weak_ptr<const TableVersion> version;
  };
  std::vector<TrackedVersion> live_versions_;

  /// Debug-build guard: aborts loudly when two threads mutate the same
  /// table concurrently (a writer-domain locking bug).
  WriterCheck writer_check_;

  // Per-physical-table mutation counters ("table.<name>.inserts" etc.),
  // bumped only after the mutation succeeds.
  obs::Counter inserts_;
  obs::Counter updates_;
  obs::Counter deletes_;
};

/// Approximate payload size of one value in bytes (recursive).
size_t ApproximateValueBytes(const Value& v);

}  // namespace erbium

#endif  // ERBIUM_STORAGE_TABLE_H_
