#ifndef ERBIUM_DURABILITY_FAULT_H_
#define ERBIUM_DURABILITY_FAULT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"

namespace erbium {
namespace durability {

/// Crash-point hooks for the fault-injection tests. The durability code
/// calls `ShouldCrash("<point>")` at every point where a real process
/// could die with work half done; an armed injector fires at the Nth hit
/// of its point and then simulates death: the injector stays "crashed"
/// and every subsequent durability operation fails with
/// Status::IOError("simulated crash ..."), exactly as if the process had
/// been killed — the test then reopens the directory and checks what
/// recovery reconstructs.
///
/// Crash points:
///   wal.append.before    nothing of the record reaches the file
///   wal.append.torn      only `partial_bytes` of the record are written
///   wal.append.after     the record is durable, but the operation is
///                        never acknowledged to the caller
///   checkpoint.begin     before the snapshot temp file is written
///   checkpoint.tmp_written   temp file durable, final rename not done
///   checkpoint.renamed   snapshot in place, WAL not yet truncated
///   checkpoint.done      after WAL truncation (checkpoint fully applied)
class FaultInjector {
 public:
  /// Arms a crash at the `countdown`-th future hit of `point` (1 = next).
  void Arm(std::string point, int countdown = 1, uint64_t partial_bytes = 0) {
    point_ = std::move(point);
    countdown_ = countdown;
    partial_bytes_ = partial_bytes;
    crashed_ = false;
  }

  /// True exactly when the armed point fires (and from then on the
  /// injector reports itself crashed).
  bool ShouldCrash(const char* point) {
    if (crashed_) return false;  // already dead; Check() gates everything
    if (point_ != point) return false;
    if (--countdown_ > 0) return false;
    crashed_ = true;
    return true;
  }

  /// Arms a one-shot non-fatal IO error (ENOSPC/EIO-style) at the
  /// `countdown`-th future hit of `point`. Unlike Arm, the process stays
  /// alive: the operation fails, and later operations proceed as the
  /// failing code path leaves them.
  ///
  /// Error points:
  ///   wal.append.error   torn bytes reach the file; the write fails and
  ///                      is rolled back, later appends proceed
  ///   wal.sync.error     a group fdatasync fails: every record it was to
  ///                      cover fails and the WAL writer is poisoned
  ///   dir.sync.error     a directory fsync fails (SyncDirectory callers
  ///                      that pass the injector: opening a new database
  ///                      or WAL), failing the operation that needed it
  void ArmError(std::string point, int countdown = 1,
                uint64_t partial_bytes = 0) {
    error_point_ = std::move(point);
    error_countdown_ = countdown;
    error_partial_bytes_ = partial_bytes;
  }

  /// True exactly when the armed error point fires (then disarms).
  bool ShouldFail(const char* point) {
    if (crashed_) return false;
    if (error_point_ != point) return false;
    if (--error_countdown_ > 0) return false;
    error_point_.clear();
    return true;
  }

  /// Gate called at the top of every durability operation: once crashed,
  /// everything fails the way syscalls fail in a dead process.
  Status Check() const {
    if (crashed_) {
      return Status::IOError("simulated crash (" + point_ + ")");
    }
    return Status::OK();
  }

  Status Crash() const {
    return Status::IOError("simulated crash (" + point_ + ")");
  }

  bool crashed() const { return crashed_; }
  uint64_t partial_bytes() const { return partial_bytes_; }
  uint64_t error_partial_bytes() const { return error_partial_bytes_; }

  // ---- Blocking gate ---------------------------------------------------------
  // Unlike the crash/error hooks above (armed and fired on one thread),
  // the gate is cross-thread by design: a test arms it, a background
  // operation parks on it at MaybeBlock, the test observes the frozen
  // system via WaitUntilBlocked, then ReleaseGate lets the operation
  // finish. Used to pin CHECKPOINT mid-snapshot-write and prove reads
  // don't stall behind it.
  //
  // Gate points:
  //   checkpoint.writing   inside the shared snapshot-write phase, after
  //                        versions are pinned but before bytes hit disk
  //   wal.sync             inside a group commit's fdatasync, with the
  //                        WAL mutex and every lock domain released
  //   server.execute       on a server pool worker, before a pooled
  //                        statement executes

  /// Arms the gate at `point`; the next MaybeBlock(point) parks.
  void ArmGate(std::string point) {
    std::lock_guard<std::mutex> lock(gate_mu_);
    gate_point_ = std::move(point);
    gate_open_ = false;
    gate_blocked_ = false;
  }

  /// Blocks the calling test until some thread is parked on the gate;
  /// returns false if none does within a minute, so a test whose code
  /// never reaches the gate fails instead of hanging.
  bool WaitUntilBlocked() {
    std::unique_lock<std::mutex> lock(gate_mu_);
    return gate_cv_.wait_for(lock, std::chrono::minutes(1),
                             [this] { return gate_blocked_; });
  }

  /// Opens the gate; the parked thread (and any future MaybeBlock on the
  /// armed point) proceeds.
  void ReleaseGate() {
    std::lock_guard<std::mutex> lock(gate_mu_);
    gate_open_ = true;
    gate_point_.clear();
    gate_cv_.notify_all();
  }

  /// Called by durability code: parks when the gate is armed at `point`,
  /// no-op otherwise.
  void MaybeBlock(const char* point) {
    std::unique_lock<std::mutex> lock(gate_mu_);
    if (gate_point_ != point) return;
    gate_blocked_ = true;
    gate_cv_.notify_all();
    gate_cv_.wait(lock, [this] { return gate_open_; });
    gate_blocked_ = false;
  }

 private:
  std::string point_;
  int countdown_ = 0;
  uint64_t partial_bytes_ = 0;
  std::string error_point_;
  int error_countdown_ = 0;
  uint64_t error_partial_bytes_ = 0;
  bool crashed_ = false;

  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  std::string gate_point_;
  bool gate_open_ = false;
  bool gate_blocked_ = false;
};

}  // namespace durability
}  // namespace erbium

#endif  // ERBIUM_DURABILITY_FAULT_H_
