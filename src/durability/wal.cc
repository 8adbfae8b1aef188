#include "durability/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "durability/serde.h"
#include "obs/metrics.h"

namespace erbium {
namespace durability {

namespace {

std::string EncodePayload(const WalRecord& record) {
  std::string payload;
  PutU8(static_cast<uint8_t>(record.type), &payload);
  PutU64(record.lsn, &payload);
  switch (record.type) {
    case WalRecord::Type::kInsertEntity:
      PutString(record.name, &payload);
      PutValue(record.value, &payload);
      break;
    case WalRecord::Type::kDeleteEntity:
      PutString(record.name, &payload);
      PutValues(record.key, &payload);
      break;
    case WalRecord::Type::kUpdateAttribute:
      PutString(record.name, &payload);
      PutValues(record.key, &payload);
      PutString(record.attr, &payload);
      PutValue(record.value, &payload);
      break;
    case WalRecord::Type::kInsertRelationship:
      PutString(record.name, &payload);
      PutValues(record.key, &payload);
      PutValues(record.right_key, &payload);
      PutValue(record.value, &payload);
      break;
    case WalRecord::Type::kDeleteRelationship:
      PutString(record.name, &payload);
      PutValues(record.key, &payload);
      PutValues(record.right_key, &payload);
      break;
    case WalRecord::Type::kDdl:
    case WalRecord::Type::kRemap:
      PutString(record.name, &payload);
      break;
  }
  return payload;
}

Result<WalRecord> DecodePayload(const char* data, size_t size) {
  ByteReader reader(data, size);
  WalRecord record;
  ERBIUM_ASSIGN_OR_RETURN(uint8_t type, reader.U8());
  if (type < 1 || type > 7) {
    return Status::IOError("unknown WAL record type " + std::to_string(type));
  }
  record.type = static_cast<WalRecord::Type>(type);
  ERBIUM_ASSIGN_OR_RETURN(record.lsn, reader.U64());
  switch (record.type) {
    case WalRecord::Type::kInsertEntity: {
      ERBIUM_ASSIGN_OR_RETURN(record.name, reader.String());
      ERBIUM_ASSIGN_OR_RETURN(record.value, reader.ReadValue());
      break;
    }
    case WalRecord::Type::kDeleteEntity: {
      ERBIUM_ASSIGN_OR_RETURN(record.name, reader.String());
      ERBIUM_ASSIGN_OR_RETURN(record.key, reader.ReadValues());
      break;
    }
    case WalRecord::Type::kUpdateAttribute: {
      ERBIUM_ASSIGN_OR_RETURN(record.name, reader.String());
      ERBIUM_ASSIGN_OR_RETURN(record.key, reader.ReadValues());
      ERBIUM_ASSIGN_OR_RETURN(record.attr, reader.String());
      ERBIUM_ASSIGN_OR_RETURN(record.value, reader.ReadValue());
      break;
    }
    case WalRecord::Type::kInsertRelationship: {
      ERBIUM_ASSIGN_OR_RETURN(record.name, reader.String());
      ERBIUM_ASSIGN_OR_RETURN(record.key, reader.ReadValues());
      ERBIUM_ASSIGN_OR_RETURN(record.right_key, reader.ReadValues());
      ERBIUM_ASSIGN_OR_RETURN(record.value, reader.ReadValue());
      break;
    }
    case WalRecord::Type::kDeleteRelationship: {
      ERBIUM_ASSIGN_OR_RETURN(record.name, reader.String());
      ERBIUM_ASSIGN_OR_RETURN(record.key, reader.ReadValues());
      ERBIUM_ASSIGN_OR_RETURN(record.right_key, reader.ReadValues());
      break;
    }
    case WalRecord::Type::kDdl:
    case WalRecord::Type::kRemap: {
      ERBIUM_ASSIGN_OR_RETURN(record.name, reader.String());
      break;
    }
  }
  if (!reader.AtEnd()) {
    return Status::IOError("trailing bytes inside WAL record payload");
  }
  return record;
}

uint32_t ReadLeU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

}  // namespace

std::string EncodeWalRecord(const WalRecord& record) {
  std::string payload = EncodePayload(record);
  std::string out;
  PutU32(static_cast<uint32_t>(payload.size()), &out);
  PutU32(Crc32(payload.data(), payload.size()), &out);
  out += payload;
  return out;
}

Result<WalReadResult> ReadWal(const std::string& path) {
  WalReadResult result;
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return result;  // no log yet: empty and clean
  // One sized read: the string is allocated once at the file's size.
  const std::streamoff size = file.tellg();
  if (size < 0) {
    return Status::IOError("failed reading WAL file " + path);
  }
  std::string contents(static_cast<size_t>(size), '\0');
  file.seekg(0);
  file.read(contents.data(), size);
  if (file.bad() || file.gcount() != size) {
    return Status::IOError("failed reading WAL file " + path);
  }
  size_t offset = 0;
  auto stop = [&](std::string reason) {
    result.clean = false;
    result.stop_reason = std::move(reason);
    return result;
  };
  while (offset < contents.size()) {
    if (contents.size() - offset < kWalHeaderBytes) {
      return stop("torn header at offset " + std::to_string(offset));
    }
    uint32_t len = ReadLeU32(contents.data() + offset);
    uint32_t crc = ReadLeU32(contents.data() + offset + 4);
    if (len > kMaxWalRecordBytes) {
      return stop("implausible record length at offset " +
                  std::to_string(offset));
    }
    if (contents.size() - offset - kWalHeaderBytes < len) {
      return stop("torn payload at offset " + std::to_string(offset));
    }
    const char* payload = contents.data() + offset + kWalHeaderBytes;
    if (Crc32(payload, len) != crc) {
      return stop("checksum mismatch at offset " + std::to_string(offset));
    }
    Result<WalRecord> record = DecodePayload(payload, len);
    if (!record.ok()) {
      return stop("undecodable record at offset " + std::to_string(offset) +
                  ": " + record.status().message());
    }
    result.records.push_back(std::move(record).value());
    offset += kWalHeaderBytes + len;
    result.valid_bytes = offset;
  }
  return result;
}

Status SyncDirectory(const std::string& dir, FaultInjector* faults) {
  if (faults != nullptr && faults->ShouldFail("dir.sync.error")) {
    return Status::IOError("fsync of directory " + dir +
                           " failed: injected fault");
  }
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("cannot open directory " + dir + " to fsync it: " +
                           std::strerror(errno));
  }
  int rc = ::fsync(fd);
  int err = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync of directory " + dir + " failed: " +
                           std::strerror(err));
  }
  return Status::OK();
}

std::string ParentDirectory(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  return dir.empty() ? "." : dir;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& path,
                                                   uint64_t append_offset,
                                                   uint64_t next_lsn,
                                                   SyncMode sync,
                                                   FaultInjector* faults) {
  int fd = ::open(path.c_str(), O_WRONLY);
  const bool created = fd < 0 && errno == ENOENT;
  if (created) fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open WAL " + path + ": " +
                           std::strerror(errno));
  }
  // A new log's directory entry is not durable until its directory is
  // synced; until then, power loss could drop acknowledged records.
  if (created) {
    Status synced = SyncDirectory(ParentDirectory(path), faults);
    if (!synced.ok()) {
      ::close(fd);
      return synced;
    }
  }
  // Chop any torn tail left by a previous life so new records append
  // right after the last valid one.
  if (::ftruncate(fd, static_cast<off_t>(append_offset)) != 0 ||
      ::lseek(fd, 0, SEEK_END) < 0) {
    int err = errno;
    ::close(fd);
    return Status::IOError("cannot position WAL " + path + ": " +
                           std::strerror(err));
  }
  return std::unique_ptr<WalWriter>(
      new WalWriter(path, fd, append_offset, next_lsn, sync, faults));
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::WriteAll(const char* data, size_t size) {
  while (size > 0) {
    ssize_t n = ::write(fd_, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("WAL write failed: " +
                             std::string(std::strerror(errno)));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WalWriter::MaybeSync() {
  if (sync_ == SyncMode::kFsync && ::fdatasync(fd_) != 0) {
    return Status::IOError("WAL fdatasync failed: " +
                           std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Status WalWriter::Poisoned() const {
  return Status::IOError("WAL writer disabled after an earlier write "
                         "failure on " +
                         path_);
}

Status WalWriter::RestoreAfterFailure(Status cause) {
  // A failed write may have left torn bytes after the last fully written
  // record; the fd offset sits past written_offset_. Chop the file back
  // so the next Write cannot place a record after bytes recovery will
  // stop at (and so its LSN is not a duplicate of the failed record's).
  // An in-flight group sync only covers bytes below written_offset_, so
  // cutting above it cannot disturb that sync.
  if (::ftruncate(fd_, static_cast<off_t>(written_offset_)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(written_offset_), SEEK_SET) < 0 ||
      (sync_ == SyncMode::kFsync && ::fdatasync(fd_) != 0)) {
    // The file state is now unknown; refuse all future appends rather
    // than risk acknowledging a record behind garbage.
    failed_ = true;
  }
  return cause;
}

Status WalWriter::Append(WalRecord record) {
  ERBIUM_ASSIGN_OR_RETURN(uint64_t lsn, Write(std::move(record)));
  return WaitDurable(lsn);
}

Result<uint64_t> WalWriter::Write(WalRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_) return Poisoned();
  if (faults_ != nullptr) {
    ERBIUM_RETURN_NOT_OK(faults_->Check());
  }
  record.lsn = next_lsn_;
  std::string bytes = EncodeWalRecord(record);
  if (bytes.size() - kWalHeaderBytes > kMaxWalRecordBytes) {
    // Never acknowledge a record the reader would reject as garbage on
    // recovery; nothing reaches the file.
    return Status::IOError(
        "WAL record payload of " +
        std::to_string(bytes.size() - kWalHeaderBytes) +
        " bytes exceeds the " + std::to_string(kMaxWalRecordBytes) +
        "-byte limit");
  }
  if (faults_ != nullptr) {
    if (faults_->ShouldCrash("wal.append.before")) return faults_->Crash();
    if (faults_->ShouldCrash("wal.append.torn")) {
      // Simulate the process dying mid-write: a strict prefix of the
      // record reaches the file.
      size_t partial = static_cast<size_t>(faults_->partial_bytes());
      if (partial >= bytes.size()) partial = bytes.size() - 1;
      ERBIUM_RETURN_NOT_OK(WriteAll(bytes.data(), partial));
      return faults_->Crash();
    }
    if (faults_->ShouldFail("wal.append.error")) {
      // Simulate a non-fatal IO error (ENOSPC/EIO) mid-write: torn bytes
      // reach the file, the process stays alive, and Write must leave
      // the log as if the record was never attempted.
      size_t partial = static_cast<size_t>(faults_->error_partial_bytes());
      if (partial >= bytes.size()) partial = bytes.size() - 1;
      ERBIUM_RETURN_NOT_OK(WriteAll(bytes.data(), partial));
      return RestoreAfterFailure(
          Status::IOError("injected WAL append error"));
    }
  }
  Status written = WriteAll(bytes.data(), bytes.size());
  if (!written.ok()) return RestoreAfterFailure(std::move(written));
  uint64_t lsn = next_lsn_++;
  written_offset_ += bytes.size();
  if (sync_ == SyncMode::kNone) {
    // Nothing further to wait for: write(2) is all this mode promises.
    durable_lsn_ = lsn;
    durable_offset_ = written_offset_;
  }
  obs::MetricsRegistry::Global().counter("wal.appends").Increment();
  obs::MetricsRegistry::Global().counter("wal.bytes").Increment(bytes.size());
  return lsn;
}

Status WalWriter::WaitDurable(uint64_t lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  while (durable_lsn_ < lsn) {
    if (failed_) return Poisoned();
    if (syncing_) {
      // Another waiter's sync is in flight; it may or may not cover us.
      synced_cv_.wait(lock, [this] { return !syncing_; });
      continue;
    }
    ERBIUM_RETURN_NOT_OK(LeadSync(lock));
  }
  if (faults_ != nullptr && faults_->ShouldCrash("wal.append.after")) {
    // The record is durable but the caller never hears the ack.
    return faults_->Crash();
  }
  return Status::OK();
}

Status WalWriter::LeadSync(std::unique_lock<std::mutex>& lock) {
  syncing_ = true;
  const int fd = fd_;
  const uint64_t target_lsn = next_lsn_ - 1;
  const uint64_t target_offset = written_offset_;
  const bool inject_failure =
      faults_ != nullptr && faults_->ShouldFail("wal.sync.error");
  lock.unlock();
  if (faults_ != nullptr) faults_->MaybeBlock("wal.sync");
  int rc = inject_failure ? -1 : ::fdatasync(fd);
  int err = inject_failure ? EIO : errno;
  lock.lock();
  syncing_ = false;
  synced_cv_.notify_all();
  if (rc != 0) {
    // The kernel may have dropped the pages it failed to write, so
    // nothing past the durable prefix can be trusted: cut the file back
    // to it and fail every record above it (their waiters see failed_).
    // Poison unconditionally — those records' changes may already be
    // applied in memory with no durable log behind them.
    if (::ftruncate(fd_, static_cast<off_t>(durable_offset_)) == 0 &&
        ::lseek(fd_, static_cast<off_t>(durable_offset_), SEEK_SET) >= 0) {
      written_offset_ = durable_offset_;
    }
    failed_ = true;
    return Status::IOError("WAL fdatasync failed: " +
                           std::string(std::strerror(err)));
  }
  durable_lsn_ = target_lsn;
  durable_offset_ = target_offset;
  obs::MetricsRegistry::Global().counter("wal.syncs").Increment();
  return Status::OK();
}

Status WalWriter::CompactThrough(uint64_t last_lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  // The group sync runs on fd_ outside the mutex; never swap or cut the
  // file under it.
  synced_cv_.wait(lock, [this] { return !syncing_; });
  if (failed_) return Poisoned();
  if (faults_ != nullptr) {
    ERBIUM_RETURN_NOT_OK(faults_->Check());
  }
  // Re-read the written prefix and keep only records past the snapshot
  // horizon. Writes are blocked while we hold the mutex, so the file
  // cannot grow under the scan.
  Result<WalReadResult> read = ReadWal(path_);
  if (!read.ok()) return read.status();
  std::string survivors;
  for (const WalRecord& record : read.value().records) {
    if (record.lsn <= last_lsn) continue;
    survivors += EncodeWalRecord(record);
  }
  // On success every kept record is durable. No waiter is blocked
  // meanwhile: they only wait while a sync is in flight.
  auto all_durable = [this](uint64_t size) {
    written_offset_ = durable_offset_ = size;
    durable_lsn_ = next_lsn_ - 1;
  };
  if (survivors.empty()) {
    // Nothing appended past the snapshot horizon: plain truncation.
    if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0) {
      failed_ = true;
      return Status::IOError("WAL truncate failed: " +
                             std::string(std::strerror(errno)));
    }
    ERBIUM_RETURN_NOT_OK(MaybeSync());
    all_durable(0);
    obs::MetricsRegistry::Global().counter("wal.truncations").Increment();
    return Status::OK();
  }
  // Rewrite via tmp + fsync + rename: a crash mid-compaction leaves
  // either the old log or the new one, never a mix.
  const std::string tmp = path_ + ".compact.tmp";
  int tmp_fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (tmp_fd < 0) {
    return Status::IOError("cannot open " + tmp + ": " +
                           std::strerror(errno));
  }
  const char* data = survivors.data();
  size_t size = survivors.size();
  while (size > 0) {
    ssize_t n = ::write(tmp_fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(tmp_fd);
      ::unlink(tmp.c_str());
      return Status::IOError("WAL compaction write failed: " +
                             std::string(std::strerror(err)));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  if (::fdatasync(tmp_fd) != 0) {
    int err = errno;
    ::close(tmp_fd);
    ::unlink(tmp.c_str());
    return Status::IOError("WAL compaction fdatasync failed: " +
                           std::string(std::strerror(err)));
  }
  ::close(tmp_fd);
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    int err = errno;
    ::unlink(tmp.c_str());
    return Status::IOError("WAL compaction rename failed: " +
                           std::string(std::strerror(err)));
  }
  // The old fd now points at the unlinked previous file; reattach to the
  // compacted one, positioned at its end.
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY, 0644);
  if (fd_ < 0 || ::lseek(fd_, 0, SEEK_END) < 0) {
    failed_ = true;  // no usable fd; refuse future appends
    return Status::IOError("cannot reopen compacted WAL " + path_ + ": " +
                           std::strerror(errno));
  }
  // Later records go to the new inode: until the rename itself is on
  // disk, a power failure would bring back the old file without them.
  Status dir_synced = SyncDirectory(ParentDirectory(path_));
  if (!dir_synced.ok()) {
    failed_ = true;
    return dir_synced;
  }
  all_durable(survivors.size());
  obs::MetricsRegistry::Global().counter("wal.compactions").Increment();
  return Status::OK();
}

}  // namespace durability
}  // namespace erbium
