#ifndef ERBIUM_DURABILITY_WAL_H_
#define ERBIUM_DURABILITY_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "durability/fault.h"
#include "storage/index.h"

namespace erbium {
namespace durability {

/// One logical redo record. The WAL logs *logical* CRUD operations (the
/// paper's entity/relationship abstraction), not physical table writes:
/// replaying a record through the normal MappedDatabase choke points
/// reproduces the same physical state under any mapping, and the same
/// log stays valid when the mapping or schema evolves mid-stream.
struct WalRecord {
  enum class Type : uint8_t {
    kInsertEntity = 1,        // name=class, value=entity struct
    kDeleteEntity = 2,        // name=class, key
    kUpdateAttribute = 3,     // name=class, key, attr, value
    kInsertRelationship = 4,  // name=rel, key=left, right_key, value=attrs
    kDeleteRelationship = 5,  // name=rel, key=left, right_key
    kDdl = 6,                 // name=DDL statement text
    kRemap = 7,               // name=mapping spec JSON
  };

  Type type = Type::kInsertEntity;
  uint64_t lsn = 0;
  std::string name;
  std::string attr;
  Value value;
  IndexKey key;
  IndexKey right_key;
};

/// On-disk framing: [u32 payload_len][u32 crc32(payload)][payload] with
/// payload = [u8 type][u64 lsn][type-specific body]. Exposed for tests
/// that reason about byte offsets.
constexpr size_t kWalHeaderBytes = 8;

/// Largest payload the reader accepts; a longer length field is assumed
/// to be garbage (a corrupted header), not a real record. Append enforces
/// the same cap on the write side so no acknowledged record is ever
/// mistaken for corruption on recovery.
constexpr uint32_t kMaxWalRecordBytes = 64u << 20;

/// Serializes a record into its on-disk bytes (header + payload).
std::string EncodeWalRecord(const WalRecord& record);

/// Result of scanning a WAL file front to back. Recovery replays
/// `records` and treats `clean == false` as a torn/corrupt tail: the scan
/// stopped at the first record whose length, checksum, or body failed to
/// validate, and everything before it is still good.
struct WalReadResult {
  std::vector<WalRecord> records;
  uint64_t valid_bytes = 0;  // file offset just past the last valid record
  bool clean = true;
  std::string stop_reason;
};

/// Reads every valid record. A missing file is an empty, clean log.
Result<WalReadResult> ReadWal(const std::string& path);

/// Fsyncs a directory so that entries created or renamed inside it
/// survive power loss. `faults` may inject a failure (`dir.sync.error`).
Status SyncDirectory(const std::string& dir, FaultInjector* faults = nullptr);

/// The directory holding `path` ("." for a bare file name).
std::string ParentDirectory(const std::string& path);

/// Append-only writer over a POSIX fd. Assigns consecutive LSNs starting
/// at the `next_lsn` it was opened with. All fault-injection points of
/// the append path live here.
///
/// Thread-safe, with group commit: writing a record (Write) and waiting
/// for it to become durable (WaitDurable) are separate steps. Write holds
/// the internal mutex only to assign the LSN and write(2) the bytes, so
/// the file order of records is their Write order. WaitDurable returns
/// once a sync covers the record: one waiter at a time runs fdatasync
/// *outside* the mutex on behalf of every record written before the sync
/// started, while other threads keep writing; the next waiter whose
/// record is still uncovered leads the next sync. Concurrent CRUD
/// statements (which hold only their construct's mapping lock domain, and
/// only across Write) thus share one fdatasync per batch.
class WalWriter {
 public:
  enum class SyncMode {
    kNone,   // write(2) only: survives process death, not OS death
    kFsync,  // fdatasync before acknowledging: survives power loss
  };

  /// Opens (creating if needed) the log for appending at `append_offset`
  /// — recovery passes the valid-prefix length so a torn tail from a
  /// previous life is chopped off before new records go in.
  static Result<std::unique_ptr<WalWriter>> Open(const std::string& path,
                                                 uint64_t append_offset,
                                                 uint64_t next_lsn,
                                                 SyncMode sync,
                                                 FaultInjector* faults);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Write + WaitDurable: appends one record (assigning its LSN) and makes
  /// it as durable as the sync mode promises before returning.
  Status Append(WalRecord record);

  /// Assigns the record's LSN, writes its bytes and returns the LSN
  /// without waiting for durability. Payloads larger than
  /// kMaxWalRecordBytes are rejected before anything reaches the file. On
  /// a write failure the file is truncated back to the end of the last
  /// fully written record (records other threads wrote and are waiting on
  /// stay intact) and the LSN is not consumed; if even that fails the
  /// writer poisons itself and every later call fails, so a record can
  /// never land after torn bytes the reader would stop at.
  Result<uint64_t> Write(WalRecord record);

  /// Blocks until the record `lsn` (and with it every earlier record) is
  /// durable. An fdatasync failure truncates the file back to the durable
  /// prefix, fails every waiter whose record lies above it, and poisons
  /// the writer: the failed records' changes may already be applied in
  /// memory, and only a reopen brings memory and log back in line.
  Status WaitDurable(uint64_t lsn);

  /// Drops every record with lsn <= `last_lsn` (they are covered by a
  /// snapshot) and keeps the rest: records appended *while* the snapshot
  /// was being written are not yet durable anywhere else. Waits for any
  /// in-flight sync first, then rewrites the file via tmp + fsync +
  /// rename + directory fsync so a crash mid-compaction leaves either the
  /// old or the new log, never a mix. Every kept record is durable
  /// afterwards. An empty survivor set degenerates to a plain truncation.
  Status CompactThrough(uint64_t last_lsn);

  uint64_t next_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_lsn_;
  }
  /// Bytes of fully written records currently in the file.
  uint64_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return written_offset_;
  }
  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, int fd, uint64_t offset, uint64_t next_lsn,
            SyncMode sync, FaultInjector* faults)
      : path_(std::move(path)),
        fd_(fd),
        written_offset_(offset),
        durable_offset_(offset),
        next_lsn_(next_lsn),
        durable_lsn_(next_lsn - 1),
        sync_(sync),
        faults_(faults) {}

  Status WriteAll(const char* data, size_t size);
  Status MaybeSync();
  Status Poisoned() const;
  /// Rolls the file back to written_offset_ after a failed write;
  /// poisons the writer when the rollback itself fails. Returns `cause`
  /// either way. Called with mu_ held.
  Status RestoreAfterFailure(Status cause);
  /// Runs one group fdatasync with mu_ released, covering every record
  /// written before it started. Called with `lock` held and no sync in
  /// flight; returns with `lock` held.
  Status LeadSync(std::unique_lock<std::mutex>& lock);

  mutable std::mutex mu_;  // guards everything below
  /// Signalled when a group sync finishes; WaitDurable and
  /// CompactThrough wait on it while `syncing_` is set.
  std::condition_variable synced_cv_;
  std::string path_;
  int fd_;
  uint64_t written_offset_;  // end of the last fully written record
  uint64_t durable_offset_;  // end of the durable prefix
  uint64_t next_lsn_;
  uint64_t durable_lsn_;  // every record with lsn <= this is durable
  bool syncing_ = false;  // a waiter is in fdatasync outside mu_
  SyncMode sync_;
  FaultInjector* faults_;  // not owned; may be null
  bool failed_ = false;    // set when the file state is unknown
};

}  // namespace durability
}  // namespace erbium

#endif  // ERBIUM_DURABILITY_WAL_H_
