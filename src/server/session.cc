#include "server/session.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/trace.h"

namespace erbium {
namespace server {

Session::~Session() {
  obs::SessionRegistry::Global().Deregister(id_);
  manager_->active_.fetch_sub(1);
  obs::MetricsRegistry::Global().gauge("server.sessions.active").Add(-1);
}

void Session::SetState(const std::string& state) {
  obs::SessionRegistry::Global().Update(
      id_, [&state](obs::SessionInfo* info) { info->state = state; });
}

Result<api::StatementOutcome> Session::Execute(const std::string& statement) {
  auto& registry = obs::SessionRegistry::Global();
  registry.Update(id_, [&statement](obs::SessionInfo* info) {
    info->state = "executing";
    info->last_statement = statement;
    info->last_active_ns = obs::MonotonicNowNs();
  });
  uint64_t start_ns = obs::MonotonicNowNs();
  Result<api::StatementOutcome> outcome = [&] {
    obs::ScopedSessionTag tag(name_);
    return manager_->runner_->Execute(statement);
  }();
  return Finish(std::move(outcome), start_ns, nullptr);
}

std::optional<Result<api::StatementOutcome>> Session::TryExecuteInline(
    const std::string& statement) {
  uint64_t start_ns = obs::MonotonicNowNs();
  std::optional<Result<api::StatementOutcome>> outcome;
  {
    obs::ScopedSessionTag tag(name_);
    outcome = manager_->runner_->TryExecuteInline(statement);
  }
  if (!outcome.has_value()) return std::nullopt;
  return Finish(std::move(*outcome), start_ns, &statement);
}

Result<api::StatementOutcome> Session::Finish(
    Result<api::StatementOutcome> outcome, uint64_t start_ns,
    const std::string* statement) {
  uint64_t wall_ns = obs::MonotonicNowNs() - start_ns;
  int deadline_ms = manager_->options_.request_deadline_ms;
  if (outcome.ok() && deadline_ms > 0 &&
      wall_ns > static_cast<uint64_t>(deadline_ms) * 1'000'000u) {
    outcome = Status::DeadlineExceeded(
        "statement exceeded the " + std::to_string(deadline_ms) +
        " ms request deadline (took " + std::to_string(wall_ns / 1'000'000u) +
        " ms); result discarded");
  }
  bool failed = !outcome.ok();
  if (failed) {
    // Resolved once (a registry lookup takes its mutex), on first use, so
    // the series appears only once it has something to count.
    static const obs::Counter errors =
        obs::MetricsRegistry::Global().counter("server.request_errors");
    errors.Increment();
  }
  obs::SessionRegistry::Global().Update(
      id_, [failed, statement](obs::SessionInfo* info) {
        if (statement != nullptr) info->last_statement = *statement;
        info->state = "idle";
        ++info->statements;
        if (failed) ++info->errors;
        info->last_active_ns = obs::MonotonicNowNs();
      });
  return outcome;
}

Result<std::unique_ptr<SessionManager>> SessionManager::Create(
    Options options) {
  std::unique_ptr<SessionManager> manager(
      new SessionManager(std::move(options)));
  ERBIUM_ASSIGN_OR_RETURN(manager->runner_,
                          api::StatementRunner::Create(manager->options_.runner));
  return manager;
}

Result<std::unique_ptr<Session>> SessionManager::OpenSession(
    const std::string& name, const std::string& peer) {
  // Reserve the slot optimistically; back off if we raced past the cap.
  size_t now_active = active_.fetch_add(1) + 1;
  if (options_.max_sessions > 0 &&
      now_active > static_cast<size_t>(options_.max_sessions)) {
    active_.fetch_sub(1);
    obs::MetricsRegistry::Global().counter("server.sessions.refused")
        .Increment();
    return Status::Unavailable(
        "server is at its limit of " + std::to_string(options_.max_sessions) +
        " concurrent sessions; retry later");
  }
  obs::SessionInfo info;
  info.name = name;
  info.peer = peer;
  info.state = "idle";
  uint64_t id = obs::SessionRegistry::Global().Register(std::move(info));
  auto& metrics = obs::MetricsRegistry::Global();
  metrics.counter("server.sessions.opened").Increment();
  metrics.gauge("server.sessions.active").Add(1);
  return std::unique_ptr<Session>(new Session(this, id, name));
}

}  // namespace server
}  // namespace erbium
