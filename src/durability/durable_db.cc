#include "durability/durable_db.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "er/ddl_parser.h"
#include "evolution/evolution.h"
#include "obs/metrics.h"

namespace erbium {
namespace durability {

namespace {

std::string WalPath(const std::string& dir) { return dir + "/wal.erblog"; }

obs::Counter RecoveryCounter(const char* name) {
  return obs::MetricsRegistry::Global().counter(name);
}

Status WriteFileDurably(const std::string& path, const std::string& bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create " + path + ": " +
                           std::strerror(errno));
  }
  const char* data = bytes.data();
  size_t size = bytes.size();
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return Status::IOError("write to " + path + " failed: " +
                             std::strerror(err));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IOError("fsync of " + path + " failed: " +
                           std::strerror(err));
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<DurableDatabase>> DurableDatabase::Open(
    const std::string& dir, Options options) {
  // Every directory created here must reach disk, through its parent's
  // entry, before anything inside it is acknowledged. Reopening an
  // existing database creates nothing and syncs nothing.
  std::vector<std::string> created;
  std::error_code ec;
  for (auto p = std::filesystem::absolute(dir, ec);
       !ec && !p.empty() && !std::filesystem::exists(p, ec);
       p = p.parent_path()) {
    created.push_back(p.string());
  }
  if (!ec) std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create database directory " + dir + ": " +
                           ec.message());
  }
  for (auto it = created.rbegin(); it != created.rend(); ++it) {
    ERBIUM_RETURN_NOT_OK(SyncDirectory(ParentDirectory(*it), options.faults));
  }
  std::unique_ptr<DurableDatabase> durable(
      new DurableDatabase(dir, std::move(options)));
  ERBIUM_RETURN_NOT_OK(durable->Recover());
  return durable;
}

DurableDatabase::~DurableDatabase() {
  if (db_ != nullptr) db_->set_durability_hook(nullptr);
}

Status DurableDatabase::Recover() {
  // 1. Newest snapshot that still decodes wins; a corrupt newer
  //    generation (e.g. torn tmp-rename) falls back to the one before.
  SnapshotData snapshot;
  std::vector<uint64_t> gens = ListSnapshotGens(dir_);
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    Result<SnapshotData> loaded = LoadSnapshotFile(SnapshotPath(dir_, *it));
    if (loaded.ok()) {
      snapshot = std::move(loaded).value();
      recovery_.had_snapshot = true;
      recovery_.snapshot_gen = *it;
      recovery_.snapshot_lsn = snapshot.last_lsn;
      latest_snapshot_gen_ = gens.back();
      break;
    }
    ++recovery_.snapshots_skipped;
  }

  // 2. Schema + mapping: from the snapshot when there is one, otherwise
  //    from the open options (brand-new database).
  if (recovery_.had_snapshot) {
    ddl_ = snapshot.ddl;
    ERBIUM_ASSIGN_OR_RETURN(spec_, MappingSpec::FromJson(snapshot.spec_json));
  } else {
    ddl_ = options_.initial_ddl;
    spec_ = options_.spec;
  }
  if (!ddl_.empty()) {
    ERBIUM_RETURN_NOT_OK(DdlParser::Execute(ddl_, schema_.get()));
  }
  ERBIUM_ASSIGN_OR_RETURN(db_, MappedDatabase::Create(schema_.get(), spec_));
  if (recovery_.had_snapshot) {
    ERBIUM_RETURN_NOT_OK(LoadIntoDatabase(snapshot, db_.get()));
  }

  // 3. Replay the WAL tail through the normal logical choke points. The
  //    hook stays detached so replay does not re-log.
  ERBIUM_ASSIGN_OR_RETURN(WalReadResult wal, ReadWal(WalPath(dir_)));
  uint64_t max_lsn = snapshot.last_lsn;
  for (const WalRecord& record : wal.records) {
    if (record.lsn <= snapshot.last_lsn) {
      // Checkpoint crashed after the rename but before the truncate:
      // these records are already inside the snapshot.
      ++recovery_.records_skipped;
      continue;
    }
    ERBIUM_RETURN_NOT_OK(ReplayRecord(record));
    ++recovery_.records_replayed;
    max_lsn = record.lsn;
  }
  recovery_.wal_clean = wal.clean;
  recovery_.wal_stop_reason = wal.stop_reason;

  RecoveryCounter("recovery.opens").Increment();
  RecoveryCounter("recovery.records_replayed")
      .Increment(recovery_.records_replayed);
  RecoveryCounter("recovery.records_skipped")
      .Increment(recovery_.records_skipped);
  if (!wal.clean) RecoveryCounter("recovery.torn_tails").Increment();
  if (recovery_.snapshots_skipped > 0) {
    RecoveryCounter("recovery.snapshots_skipped")
        .Increment(recovery_.snapshots_skipped);
  }

  // 4. Append after the valid prefix (chopping any torn tail) and start
  //    numbering after everything recovered.
  ERBIUM_ASSIGN_OR_RETURN(
      wal_, WalWriter::Open(WalPath(dir_), wal.valid_bytes, max_lsn + 1,
                            options_.sync, options_.faults));
  db_->set_durability_hook(this);
  return Status::OK();
}

Status DurableDatabase::Rebuild(std::shared_ptr<ERSchema> next_schema) {
  // The old db_ points into the *current* schema_ object, so the new
  // schema must live in its own object until migration is done — mutating
  // schema_ in place would make the old instance claim entity sets its
  // catalog has no tables for.
  auto fresh_result = MappedDatabase::Create(next_schema.get(), spec_);
  if (!fresh_result.ok()) {
    if (db_ != nullptr && wal_ != nullptr) db_->set_durability_hook(this);
    return fresh_result.status();
  }
  std::unique_ptr<MappedDatabase> fresh = std::move(fresh_result).value();
  if (db_ != nullptr) {
    // Migration reads through the old instance's logical interface; make
    // sure it does not try to log.
    db_->set_durability_hook(nullptr);
    Status migrated = evolution::MigrateData(db_.get(), fresh.get());
    if (!migrated.ok()) {
      if (wal_ != nullptr) db_->set_durability_hook(this);
      return migrated;
    }
  }
  db_ = std::move(fresh);
  schema_ = std::move(next_schema);
  if (wal_ != nullptr) db_->set_durability_hook(this);
  return Status::OK();
}

Status DurableDatabase::ReplayRecord(const WalRecord& record) {
  switch (record.type) {
    case WalRecord::Type::kInsertEntity:
      return db_->InsertEntity(record.name, record.value);
    case WalRecord::Type::kDeleteEntity:
      return db_->DeleteEntity(record.name, record.key);
    case WalRecord::Type::kUpdateAttribute:
      return db_->UpdateAttribute(record.name, record.key, record.attr,
                                  record.value);
    case WalRecord::Type::kInsertRelationship:
      return db_->InsertRelationship(record.name, record.key, record.right_key,
                                     record.value);
    case WalRecord::Type::kDeleteRelationship:
      return db_->DeleteRelationship(record.name, record.key,
                                     record.right_key);
    case WalRecord::Type::kDdl: {
      auto next = std::make_shared<ERSchema>(*schema_);
      ERBIUM_RETURN_NOT_OK(DdlParser::Execute(record.name, next.get()));
      ERBIUM_RETURN_NOT_OK(Rebuild(std::move(next)));
      ddl_ += "\n";
      ddl_ += record.name;
      return Status::OK();
    }
    case WalRecord::Type::kRemap: {
      ERBIUM_ASSIGN_OR_RETURN(spec_, MappingSpec::FromJson(record.name));
      return Rebuild(schema_);
    }
  }
  return Status::IOError("unreachable WAL record type");
}

Status DurableDatabase::ExecuteDdl(const std::string& ddl) {
  // DDL rebuilds the physical database; callers hold the exclusive
  // statement barrier (StatementRunner) or own the database outright.
  if (options_.faults != nullptr) {
    ERBIUM_RETURN_NOT_OK(options_.faults->Check());
  }
  auto next = std::make_shared<ERSchema>(*schema_);
  ERBIUM_RETURN_NOT_OK(DdlParser::Execute(ddl, next.get()));
  ERBIUM_RETURN_NOT_OK(Rebuild(std::move(next)));
  WalRecord record;
  record.type = WalRecord::Type::kDdl;
  record.name = ddl;
  ERBIUM_RETURN_NOT_OK(wal_->Append(std::move(record)));
  ddl_ += "\n";
  ddl_ += ddl;
  return Status::OK();
}

Status DurableDatabase::Remap(MappingSpec new_spec) {
  // Same exclusivity contract as ExecuteDdl.
  if (options_.faults != nullptr) {
    ERBIUM_RETURN_NOT_OK(options_.faults->Check());
  }
  MappingSpec old = spec_;
  spec_ = std::move(new_spec);
  Status rebuilt = Rebuild(schema_);
  if (!rebuilt.ok()) {
    spec_ = std::move(old);
    return rebuilt;
  }
  WalRecord record;
  record.type = WalRecord::Type::kRemap;
  record.name = spec_.ToJson();
  return wal_->Append(std::move(record));
}

// The CRUD hooks only write their record (under the caller's lock
// domain); the choke point waits for durability after releasing it.
// Concurrent CRUD statements interleave freely — the WalWriter's
// internal mutex orders their records.

Result<uint64_t> DurableDatabase::LogInsertEntity(
    const std::string& class_name, const Value& entity) {
  WalRecord record;
  record.type = WalRecord::Type::kInsertEntity;
  record.name = class_name;
  record.value = entity;
  return wal_->Write(std::move(record));
}

Result<uint64_t> DurableDatabase::LogDeleteEntity(
    const std::string& class_name, const IndexKey& key) {
  WalRecord record;
  record.type = WalRecord::Type::kDeleteEntity;
  record.name = class_name;
  record.key = key;
  return wal_->Write(std::move(record));
}

Result<uint64_t> DurableDatabase::LogUpdateAttribute(
    const std::string& class_name, const IndexKey& key,
    const std::string& attr, const Value& value) {
  WalRecord record;
  record.type = WalRecord::Type::kUpdateAttribute;
  record.name = class_name;
  record.key = key;
  record.attr = attr;
  record.value = value;
  return wal_->Write(std::move(record));
}

Result<uint64_t> DurableDatabase::LogInsertRelationship(
    const std::string& rel_name, const IndexKey& left_key,
    const IndexKey& right_key, const Value& attrs) {
  WalRecord record;
  record.type = WalRecord::Type::kInsertRelationship;
  record.name = rel_name;
  record.key = left_key;
  record.right_key = right_key;
  record.value = attrs;
  return wal_->Write(std::move(record));
}

Result<uint64_t> DurableDatabase::LogDeleteRelationship(
    const std::string& rel_name, const IndexKey& left_key,
    const IndexKey& right_key) {
  WalRecord record;
  record.type = WalRecord::Type::kDeleteRelationship;
  record.name = rel_name;
  record.key = left_key;
  record.right_key = right_key;
  return wal_->Write(std::move(record));
}

Result<DurableDatabase::CheckpointPins> DurableDatabase::PrepareCheckpoint() {
  if (checkpoint_running_.exchange(true)) {
    return Status::Unavailable("another checkpoint is already in progress");
  }
  FaultInjector* faults = options_.faults;
  if (faults != nullptr) {
    Status alive = faults->Check();
    if (!alive.ok()) {
      checkpoint_running_.store(false);
      return alive;
    }
    if (faults->ShouldCrash("checkpoint.begin")) {
      checkpoint_running_.store(false);
      return faults->Crash();
    }
  }
  CheckpointPins pins;
  // Records up to here are inside the pinned image; anything appended
  // while the write phase runs stays in the compacted WAL.
  pins.last_lsn = wal_->next_lsn() - 1;
  pins.gen = latest_snapshot_gen_ + 1;
  pins.ddl = ddl_;
  pins.spec_json = db_->mapping().spec().ToJson();
  for (const std::string& name : db_->catalog().TableNames()) {
    if (name == MappedDatabase::kMappingCatalogTable) continue;
    pins.tables.emplace_back(name,
                             db_->catalog().GetTable(name)->PinVersion());
  }
  for (const auto& def : db_->mapping().pairs()) {
    const FactorizedPair* pair = db_->pair(def.name);
    if (pair != nullptr) pins.pairs.emplace_back(def.name, pair->PinVersion());
  }
  return pins;
}

Result<std::string> DurableDatabase::WriteSnapshotPhase(
    const CheckpointPins& pins) {
  FaultInjector* faults = options_.faults;
  if (faults != nullptr) {
    ERBIUM_RETURN_NOT_OK(faults->Check());
    // Test hook: park here (pins held, nothing on disk yet) so tests can
    // prove reads and writes proceed mid-checkpoint.
    faults->MaybeBlock("checkpoint.writing");
  }
  SnapshotData data = CaptureSnapshotFromPins(pins.tables, pins.pairs,
                                              pins.last_lsn, pins.ddl,
                                              pins.spec_json);
  std::string bytes = EncodeSnapshot(data);
  if (bytes.size() - kSnapshotHeaderBytes > kMaxSnapshotPayloadBytes) {
    // Fail here, before anything is renamed or compacted: a snapshot the
    // decode side would reject (or whose size wraps the u32 length field)
    // must never supersede the WAL, or the next recovery silently falls
    // back to an older generation and everything since is lost.
    return Status::IOError(
        "snapshot payload of " +
        std::to_string(bytes.size() - kSnapshotHeaderBytes) +
        " bytes exceeds the " + std::to_string(kMaxSnapshotPayloadBytes) +
        "-byte format limit; checkpoint aborted (WAL left intact)");
  }
  std::string tmp_path = SnapshotPath(dir_, pins.gen) + ".tmp";
  ERBIUM_RETURN_NOT_OK(WriteFileDurably(tmp_path, bytes));
  if (faults != nullptr && faults->ShouldCrash("checkpoint.tmp_written")) {
    return faults->Crash();
  }

  obs::MetricsRegistry::Global().counter("checkpoint.count").Increment();
  obs::MetricsRegistry::Global()
      .counter("checkpoint.bytes")
      .Increment(bytes.size());
  size_t rows = 0;
  for (const auto& table : data.tables) rows += table.rows.size();
  char summary[160];
  std::snprintf(summary, sizeof(summary),
                "checkpoint gen=%llu lsn=%llu tables=%zu rows=%zu bytes=%zu",
                static_cast<unsigned long long>(pins.gen),
                static_cast<unsigned long long>(pins.last_lsn),
                data.tables.size(), rows, bytes.size());
  return std::string(summary);
}

Status DurableDatabase::FinishCheckpoint(const CheckpointPins& pins) {
  // Whatever happens below, the next checkpoint may start once we return.
  struct ClearFlag {
    std::atomic<bool>* flag;
    ~ClearFlag() { flag->store(false); }
  } clear{&checkpoint_running_};
  FaultInjector* faults = options_.faults;
  if (faults != nullptr) {
    ERBIUM_RETURN_NOT_OK(faults->Check());
  }
  std::string final_path = SnapshotPath(dir_, pins.gen);
  std::string tmp_path = final_path + ".tmp";
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::IOError("snapshot rename failed: " + ec.message());
  }
  ERBIUM_RETURN_NOT_OK(SyncDirectory(dir_));
  if (faults != nullptr && faults->ShouldCrash("checkpoint.renamed")) {
    return faults->Crash();
  }

  // Keep records appended during the write phase: only what the snapshot
  // covers (lsn <= last_lsn) is dropped.
  ERBIUM_RETURN_NOT_OK(wal_->CompactThrough(pins.last_lsn));
  latest_snapshot_gen_ = pins.gen;
  for (uint64_t old : ListSnapshotGens(dir_)) {
    if (old < pins.gen) std::filesystem::remove(SnapshotPath(dir_, old), ec);
  }
  if (faults != nullptr && faults->ShouldCrash("checkpoint.done")) {
    return faults->Crash();
  }
  return Status::OK();
}

Status DurableDatabase::WaitDurable(uint64_t lsn) {
  return wal_->WaitDurable(lsn);
}

Result<std::string> DurableDatabase::Checkpoint() {
  ERBIUM_ASSIGN_OR_RETURN(CheckpointPins pins, PrepareCheckpoint());
  Result<std::string> summary = WriteSnapshotPhase(pins);
  if (!summary.ok()) {
    AbortCheckpoint();
    return summary.status();
  }
  ERBIUM_RETURN_NOT_OK(FinishCheckpoint(pins));
  return summary;
}

}  // namespace durability
}  // namespace erbium
