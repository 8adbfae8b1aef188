#ifndef ERBIUM_EXEC_SNAPSHOT_H_
#define ERBIUM_EXEC_SNAPSHOT_H_

#include <memory>
#include <mutex>
#include <unordered_map>

namespace erbium {
namespace exec {

/// The per-statement read snapshot: a cache of pinned versions, one per
/// versioned object (Table / FactorizedPair), installed as a
/// thread-local scope for the duration of a statement.
///
/// QueryEngine::Execute installs one at its top, so every operator a
/// statement opens — across all its tables — resolves the *same* pinned
/// version per table: one statement, one consistent view of each table,
/// unaffected by concurrent writers.
///
/// Operators resolve versions through ResolveVersion() below at Open()
/// time and keep only the raw pointer; the snapshot owns the pins and
/// outlives execution. A raw pointer cached inside a checked-in plan
/// therefore dangles once the statement finishes — harmless, because the
/// next Open() re-resolves before anything dereferences it. Contexts
/// without an installed snapshot (migration scans, recovery, direct
/// operator use in tests) fall back to an operator-owned pin.
///
/// Pool workers must not resolve versions themselves: worker pipelines
/// are Open()ed on the statement thread, and ParallelContext pins the
/// scanned versions for the workers' (possibly detached) lifetime. The
/// one exception is a join build run as a pool task while the statement
/// thread waits for it (ParallelContext::PrebuildJoins): it Adopts the
/// statement's snapshot, so it reads the same versions.
class ReadSnapshot {
 public:
  ReadSnapshot() : prev_(tls_current_) { tls_current_ = this; }
  ~ReadSnapshot() { tls_current_ = prev_; }

  ReadSnapshot(const ReadSnapshot&) = delete;
  ReadSnapshot& operator=(const ReadSnapshot&) = delete;

  /// The snapshot installed on this thread, or nullptr.
  static ReadSnapshot* Current() { return tls_current_; }

  /// Installs another thread's snapshot (or none) on this thread for the
  /// scope's lifetime. The snapshot must outlive the scope.
  class Adopt {
   public:
    explicit Adopt(ReadSnapshot* snapshot) : prev_(tls_current_) {
      tls_current_ = snapshot;
    }
    ~Adopt() { tls_current_ = prev_; }
    Adopt(const Adopt&) = delete;
    Adopt& operator=(const Adopt&) = delete;

   private:
    ReadSnapshot* prev_;
  };

  /// The pinned version of `obj` (Table or FactorizedPair), pinning on
  /// first touch. The pointer stays valid while this snapshot lives.
  /// Thread-safe: adopting threads may pin concurrently.
  template <typename Versioned>
  std::shared_ptr<const typename Versioned::VersionType> Pin(
      const Versioned* obj) {
    const void* key = obj;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pins_.find(key);
    if (it == pins_.end()) {
      it = pins_.emplace(key, obj->PinVersion()).first;
    }
    return std::static_pointer_cast<const typename Versioned::VersionType>(
        it->second);
  }

 private:
  // constinit: other translation units read it directly instead of
  // through a TLS init wrapper, which GCC 12's -fsanitize=undefined
  // reports as a load of a null pointer.
  static constinit thread_local ReadSnapshot* tls_current_;

  std::mutex mu_;
  std::unordered_map<const void*, std::shared_ptr<const void>> pins_;
  ReadSnapshot* prev_;
};

/// Resolves the version an operator should read: the ambient snapshot's
/// pin when one is installed (shared per statement; `owned` is cleared —
/// the snapshot keeps it alive), else a fresh pin stored into `owned`.
template <typename Versioned>
const typename Versioned::VersionType* ResolveVersion(
    const Versioned* obj,
    std::shared_ptr<const typename Versioned::VersionType>* owned) {
  if (ReadSnapshot* snapshot = ReadSnapshot::Current()) {
    owned->reset();
    return snapshot->Pin(obj).get();
  }
  *owned = obj->PinVersion();
  return owned->get();
}

/// Shared-ownership variant for holders that must keep the version alive
/// beyond the statement scope (ParallelContext pinning scan versions for
/// detached pool workers). Resolves through the ambient snapshot so the
/// pinned version matches what the statement's operators resolved.
template <typename Versioned>
std::shared_ptr<const typename Versioned::VersionType> SharedVersion(
    const Versioned* obj) {
  if (ReadSnapshot* snapshot = ReadSnapshot::Current()) {
    return snapshot->Pin(obj);
  }
  return obj->PinVersion();
}

}  // namespace exec
}  // namespace erbium

#endif  // ERBIUM_EXEC_SNAPSHOT_H_
