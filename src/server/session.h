#ifndef ERBIUM_SERVER_SESSION_H_
#define ERBIUM_SERVER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "api/statement_runner.h"
#include "common/status.h"

namespace erbium {
namespace server {

class SessionManager;

/// Per-connection engine state: an admission slot in the SessionManager,
/// an entry in the obs::SessionRegistry (so the session shows up in
/// SHOW SESSIONS and its statements carry attribution in SHOW QUERIES),
/// and the Execute() entry point the transport layer calls once per
/// kStatement frame. The transport (socket, read loop, frame encoding)
/// lives in Server; a Session knows nothing about the wire.
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The obs registry id — also the wire session_id in kHelloOk.
  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Runs one statement under this session's attribution tag and the
  /// engine's shared/exclusive statement lock. The per-request deadline
  /// is enforced cooperatively: execution is never interrupted mid-
  /// flight, but a statement that finishes past its deadline has its
  /// result discarded and returns kDeadlineExceeded — the client gets a
  /// typed error, never a silently late result.
  Result<api::StatementOutcome> Execute(const std::string& statement);

  /// Execute() through api::StatementRunner::TryExecuteInline: runs the
  /// statement only if it is a cached, short SELECT and the statement
  /// lock is free, else returns nullopt having touched no session state
  /// or metric — the caller then passes it to Execute(). A statement run
  /// here is short, so SHOW SESSIONS is told about it once, afterwards,
  /// rather than seeing the session "executing" first.
  std::optional<Result<api::StatementOutcome>> TryExecuteInline(
      const std::string& statement);

  /// Updates the session's SHOW SESSIONS state ("idle", "draining", ...).
  void SetState(const std::string& state);

 private:
  friend class SessionManager;
  Session(SessionManager* manager, uint64_t id, std::string name)
      : manager_(manager), id_(id), name_(std::move(name)) {}

  /// The shared tail of both entry points: applies the request deadline
  /// to a statement that started at `start_ns`, counts it, and marks the
  /// session idle again. `statement` is non-null when the start was not
  /// announced to the SessionRegistry (the inline path).
  Result<api::StatementOutcome> Finish(Result<api::StatementOutcome> outcome,
                                       uint64_t start_ns,
                                       const std::string* statement);

  SessionManager* manager_;
  uint64_t id_;
  std::string name_;
};

/// Engine-level concurrency control for a set of sessions sharing one
/// database: admission (bounded session count) plus the shared
/// StatementRunner whose internal shared/exclusive lock lets SELECT /
/// EXPLAIN / SHOW / TRACE from different sessions run concurrently
/// while CRUD, DDL, REMAP, ATTACH, and CHECKPOINT serialize. Used by
/// the network server; usable headless in tests.
class SessionManager {
 public:
  struct Options {
    api::StatementRunner::Options runner;
    /// Admission limit; OpenSession fails with kUnavailable beyond it.
    int max_sessions = 64;
    /// Per-statement budget in ms; <= 0 disables the deadline.
    int request_deadline_ms = 0;
  };

  static Result<std::unique_ptr<SessionManager>> Create(Options options);

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Admits one session (or fails with kUnavailable at the limit),
  /// registering it with obs. The returned Session must not outlive the
  /// manager; destroying it releases the slot and deregisters.
  Result<std::unique_ptr<Session>> OpenSession(const std::string& name,
                                               const std::string& peer);

  api::StatementRunner* runner() { return runner_.get(); }
  size_t active_sessions() const { return active_.load(); }
  int max_sessions() const { return options_.max_sessions; }

  /// Graceful-shutdown hook: CHECKPOINT when a database is attached.
  Status FinalCheckpoint() { return runner_->FinalCheckpoint(); }

 private:
  friend class Session;
  explicit SessionManager(Options options) : options_(std::move(options)) {}

  Options options_;
  std::unique_ptr<api::StatementRunner> runner_;
  std::atomic<size_t> active_{0};
};

}  // namespace server
}  // namespace erbium

#endif  // ERBIUM_SERVER_SESSION_H_
