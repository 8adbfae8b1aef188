#ifndef ERBIUM_DURABILITY_DURABLE_DB_H_
#define ERBIUM_DURABILITY_DURABLE_DB_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "durability/fault.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "er/er_schema.h"
#include "mapping/database.h"
#include "mapping/durability_hook.h"

namespace erbium {
namespace durability {

/// A MappedDatabase bound to a directory on disk. Opening runs recovery
/// (latest valid snapshot + WAL tail replay); afterwards every logical
/// CRUD operation, DDL statement, and remap is appended to the WAL via
/// the DurabilityHook choke points and made durable before being
/// acknowledged (CRUD shares fdatasyncs through the WalWriter's group
/// commit), and CHECKPOINT collapses the log into a fresh snapshot.
///
/// Recovery invariants (the fault-injection tests assert these under
/// every mapping M1–M6 and every crash point):
///   1. Every acknowledged operation survives reopen.
///   2. No operation is half-applied after reopen: replay goes through
///      the same logical choke points as the original execution, so a
///      record either replays fully or (torn/corrupt tail) not at all.
///   3. A crash at any point of the checkpoint protocol loses nothing:
///      until the WAL is truncated, records with lsn <= the snapshot's
///      last_lsn are simply skipped during replay.
class DurableDatabase : public DurabilityHook {
 public:
  struct Options {
    /// Mapping and schema used when the directory has no snapshot yet
    /// (a brand-new database). Ignored on reopen — the persisted state
    /// wins.
    MappingSpec spec = MappingSpec::Normalized("M1");
    std::string initial_ddl;
    WalWriter::SyncMode sync = WalWriter::SyncMode::kNone;
    /// Crash-point hooks for tests; not owned, may be null.
    FaultInjector* faults = nullptr;
  };

  /// What recovery found and did, for logs/tests.
  struct RecoveryInfo {
    bool had_snapshot = false;
    uint64_t snapshot_gen = 0;
    uint64_t snapshot_lsn = 0;
    size_t snapshots_skipped = 0;  // newer generations that failed to decode
    size_t records_replayed = 0;
    size_t records_skipped = 0;  // lsn <= snapshot_lsn (pre-truncate crash)
    bool wal_clean = true;
    std::string wal_stop_reason;
  };

  static Result<std::unique_ptr<DurableDatabase>> Open(const std::string& dir,
                                                       Options options);
  ~DurableDatabase() override;

  DurableDatabase(const DurableDatabase&) = delete;
  DurableDatabase& operator=(const DurableDatabase&) = delete;

  MappedDatabase* db() { return db_.get(); }
  const ERSchema& schema() const { return *schema_; }
  const std::string& dir() const { return dir_; }
  /// Accumulated DDL text (initial + every logged statement).
  const std::string& ddl() const { return ddl_; }
  const MappingSpec& spec() const { return spec_; }
  const RecoveryInfo& recovery_info() const { return recovery_; }
  uint64_t wal_bytes() const { return wal_->bytes(); }
  uint64_t next_lsn() const { return wal_->next_lsn(); }
  /// Newest on-disk snapshot generation (recovered, then advanced by
  /// every finished checkpoint).
  uint64_t latest_snapshot_gen() const { return latest_snapshot_gen_; }

  /// Applies DDL to the live schema, rebuilds the physical database
  /// (migrating data), and logs the statement so reopen replays it.
  Status ExecuteDdl(const std::string& ddl);

  /// Switches the physical mapping (migrating data) and logs the new
  /// spec. Recovery replays the remap at the same point in the stream.
  Status Remap(MappingSpec new_spec);

  // ---- DurabilityHook ------------------------------------------------------
  Result<uint64_t> LogInsertEntity(const std::string& class_name,
                                   const Value& entity) override;
  Result<uint64_t> LogDeleteEntity(const std::string& class_name,
                                   const IndexKey& key) override;
  Result<uint64_t> LogUpdateAttribute(const std::string& class_name,
                                      const IndexKey& key,
                                      const std::string& attr,
                                      const Value& value) override;
  Result<uint64_t> LogInsertRelationship(const std::string& rel_name,
                                         const IndexKey& left_key,
                                         const IndexKey& right_key,
                                         const Value& attrs) override;
  Result<uint64_t> LogDeleteRelationship(const std::string& rel_name,
                                         const IndexKey& left_key,
                                         const IndexKey& right_key) override;
  Status WaitDurable(uint64_t lsn) override;

  /// Everything CHECKPOINT's write phase needs, captured under the
  /// exclusive barrier: immutable version pins of every table and pair
  /// (freezing a consistent image at `last_lsn`), plus copies of the
  /// schema DDL / mapping JSON and the reserved snapshot generation.
  struct CheckpointPins {
    uint64_t last_lsn = 0;
    uint64_t gen = 0;
    std::string ddl;
    std::string spec_json;
    std::vector<std::pair<std::string, std::shared_ptr<const TableVersion>>>
        tables;
    std::vector<std::pair<std::string, std::shared_ptr<const PairVersion>>>
        pairs;
  };

  /// Non-blocking CHECKPOINT, three phases (each step crash-safe):
  ///   A. PrepareCheckpoint  — caller holds the exclusive statement
  ///      barrier; pins versions, records the WAL horizon, reserves the
  ///      generation. O(#tables), no IO.        [checkpoint.begin]
  ///   B. WriteSnapshotPhase — runs with ONLY a shared statement lock:
  ///      concurrent SELECTs and CRUD proceed while the image is
  ///      encoded and written to snapshot-<g>.erbsnap.tmp. Returns the
  ///      summary string.                       [checkpoint.tmp_written]
  ///   C. FinishCheckpoint   — exclusive barrier again: rename tmp into
  ///      place, compact the WAL keeping records with lsn > last_lsn
  ///      (appended during B), delete older generations.
  ///                                 [checkpoint.renamed, checkpoint.done]
  /// A failed B/C must be followed by AbortCheckpoint so a later
  /// CHECKPOINT can start.
  Result<CheckpointPins> PrepareCheckpoint();
  Result<std::string> WriteSnapshotPhase(const CheckpointPins& pins);
  Status FinishCheckpoint(const CheckpointPins& pins);
  /// Clears the in-progress flag after a failed write/finish phase.
  void AbortCheckpoint() { checkpoint_running_.store(false); }

  /// Legacy single-call form: A + B + C back to back (callers that hold
  /// the database exclusively anyway, e.g. tests and the hook interface).
  Result<std::string> Checkpoint() override;

 private:
  DurableDatabase(std::string dir, Options options)
      : dir_(std::move(dir)), options_(std::move(options)) {}

  Status Recover();
  /// Rebuilds db_ against `next_schema` + the current spec_, migrating
  /// data from the previous instance (if any), then swaps schema_ and
  /// re-attaches the hook. The new schema must be a separate object:
  /// the old instance keeps reading its own schema during migration.
  Status Rebuild(std::shared_ptr<ERSchema> next_schema);
  Status ReplayRecord(const WalRecord& record);

  std::string dir_;
  Options options_;
  std::shared_ptr<ERSchema> schema_ = std::make_shared<ERSchema>();
  MappingSpec spec_;
  std::string ddl_;
  std::unique_ptr<MappedDatabase> db_;
  std::unique_ptr<WalWriter> wal_;
  RecoveryInfo recovery_;
  uint64_t latest_snapshot_gen_ = 0;
  /// Set from PrepareCheckpoint until FinishCheckpoint/AbortCheckpoint:
  /// only one checkpoint may be in flight (the reserved generation and
  /// the WAL horizon are checkpoint-local state).
  std::atomic<bool> checkpoint_running_{false};
};

}  // namespace durability
}  // namespace erbium

#endif  // ERBIUM_DURABILITY_DURABLE_DB_H_
