#ifndef ERBIUM_OBS_SESSION_H_
#define ERBIUM_OBS_SESSION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace erbium {
namespace obs {

/// One live client session as the observability layer sees it. The
/// network server registers a SessionInfo per connection; the shell
/// registers one for itself, so SHOW SESSIONS always has at least the
/// local session to report. Everything here is presentation state —
/// the server's own Session object owns the socket and the lifecycle.
struct SessionInfo {
  uint64_t id = 0;          // assigned by Register(), process-unique
  std::string name;         // attribution tag ("shell", "conn-3", ...)
  std::string peer;         // remote address, or "local"
  std::string state;        // "idle" / "executing" / "draining"
  uint64_t statements = 0;  // statements executed so far
  uint64_t errors = 0;      // of which failed
  std::string last_statement;
  uint64_t connected_ns = 0;    // MonotonicNowNs() at registration
  uint64_t last_active_ns = 0;  // MonotonicNowNs() of the last statement

  // Transport counters, synced by the reactor loop thread (zero for the
  // local shell session, which has no socket).
  uint64_t bytes_in = 0;             // payload bytes read off the socket
  uint64_t bytes_out = 0;            // payload bytes written to the socket
  uint64_t pipeline_depth = 0;       // statements queued or executing now
  uint64_t peak_write_buffer = 0;    // high-water mark of buffered response
                                     // bytes awaiting flush
};

/// Process-wide registry of live sessions, the data source of
/// SHOW SESSIONS. Mutations take one mutex — sessions update at
/// per-statement granularity, never per row, so contention is noise.
class SessionRegistry {
 public:
  /// The registry used by the server, the shell, and SHOW SESSIONS.
  /// Intentionally leaked, like MetricsRegistry::Global().
  static SessionRegistry& Global();

  SessionRegistry() = default;
  SessionRegistry(const SessionRegistry&) = delete;
  SessionRegistry& operator=(const SessionRegistry&) = delete;

  /// Stores `info` (stamping info.id and connected_ns) and returns the
  /// assigned id. Deregister with the same id when the session ends.
  uint64_t Register(SessionInfo info);
  void Deregister(uint64_t id);

  /// Applies `fn` to the live record of session `id` under the registry
  /// lock; a no-op when the session is already gone.
  void Update(uint64_t id, const std::function<void(SessionInfo*)>& fn);

  /// Point-in-time copy of every live session, ordered by id.
  std::vector<SessionInfo> List() const;

  size_t ActiveCount() const;

 private:
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;
  std::map<uint64_t, SessionInfo> sessions_;
};

/// Tags every statement the current thread runs with a session name:
/// QueryTelemetry::Record() stamps the tag into QueryRecord::session,
/// which SHOW QUERIES renders — per-session attribution in the query
/// log. Scopes nest; each restores the previous tag on destruction.
class ScopedSessionTag {
 public:
  explicit ScopedSessionTag(std::string tag);
  ~ScopedSessionTag();

  ScopedSessionTag(const ScopedSessionTag&) = delete;
  ScopedSessionTag& operator=(const ScopedSessionTag&) = delete;

 private:
  std::string prev_;
};

/// The current thread's session tag; empty when untagged.
const std::string& CurrentSessionTag();

}  // namespace obs
}  // namespace erbium

#endif  // ERBIUM_OBS_SESSION_H_
