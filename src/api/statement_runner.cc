#include "api/statement_runner.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "common/lexer.h"
#include "er/ddl_parser.h"
#include "mapping/advisor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/workload_profile.h"
#include "erql/parser.h"
#include "evolution/evolution.h"
#include "workload/figure4.h"

namespace erbium {
namespace api {

namespace {

/// Leading keyword of a statement, lowercased ("" when none). Skips any
/// leading whitespace — including newlines and vertical whitespace — so
/// "  \n select" classifies exactly like "SELECT".
std::string LeadingKeyword(const std::string& statement) {
  size_t begin = 0;
  while (begin < statement.size() &&
         std::isspace(static_cast<unsigned char>(statement[begin]))) {
    ++begin;
  }
  std::string word;
  for (size_t i = begin; i < statement.size(); ++i) {
    char c = statement[i];
    if (!std::isalpha(static_cast<unsigned char>(c))) break;
    word.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  return word;
}

}  // namespace

StatementRunner::StatementClass StatementRunner::Classify(
    const std::string& statement) {
  std::string word = LeadingKeyword(statement);
  if (word == "select" || word == "explain" || word == "show" ||
      word == "trace" || word == "advise" || word == "export") {
    // ADVISE and EXPORT WORKLOAD only *read* the database (candidate
    // databases are populated by scanning the live one) and the workload
    // profile is internally synchronized, so both run shared.
    return StatementClass::kRead;
  }
  if (word == "insert" || word == "load" || word == "checkpoint") {
    // INSERT serializes per lock domain inside MappedDatabase — the
    // statement lock is only held shared so structural statements can
    // drain it. LOAD WORKLOAD replaces the internally synchronized
    // profile. CHECKPOINT spends almost all its time in the shared
    // snapshot-write phase (Execute routes it through its own
    // three-phase dance).
    return StatementClass::kCrud;
  }
  return StatementClass::kExclusive;
}

MappingSpec StatementRunner::PresetByName(const std::string& name) {
  if (name == "m2") return Figure4M2();
  if (name == "m3") return Figure4M3();
  if (name == "m4") return Figure4M4();
  if (name == "m5") return Figure4M5();
  if (name == "m6") return Figure4M6();
  if (name == "m6pg") return Figure4M6Pg();
  return MappingSpec::Normalized("m1");
}

Result<std::unique_ptr<StatementRunner>> StatementRunner::Create(
    Options options) {
  std::unique_ptr<StatementRunner> runner(new StatementRunner());
  runner->spec_ = std::move(options.spec);
  runner->sync_ = options.sync;
  runner->faults_ = options.faults;
  // Resolved once: cached plans are shaped by these options and the plan
  // cache key excludes them, so they must not change under the cache.
  runner->exec_options_ = ExecOptions::Default();
  if (options.plan_cache_capacity > 0) {
    runner->plan_cache_ =
        std::make_unique<erql::PlanCache>(options.plan_cache_capacity);
  }
  if (options.figure4) {
    ERBIUM_ASSIGN_OR_RETURN(ERSchema schema, MakeFigure4Schema());
    *runner->schema_ = std::move(schema);
    runner->ddl_history_ = Figure4Ddl();
  }
  ERBIUM_RETURN_NOT_OK(runner->Rebuild(runner->schema_));
  if (options.figure4) {
    Figure4Config config;
    config.num_r = options.figure4_num_r;
    config.num_s = options.figure4_num_s;
    ERBIUM_RETURN_NOT_OK(PopulateFigure4(runner->db_.get(), config));
  }
  if (!options.attach_dir.empty()) {
    std::string message;
    ERBIUM_RETURN_NOT_OK(runner->AttachDir(options.attach_dir, &message));
  }
  return runner;
}

Status StatementRunner::Rebuild(std::shared_ptr<ERSchema> next_schema) {
  auto fresh = MappedDatabase::Create(next_schema.get(), spec_);
  if (!fresh.ok()) return fresh.status();
  if (db_ != nullptr) {
    ERBIUM_RETURN_NOT_OK(evolution::MigrateData(db_.get(), fresh->get()));
  }
  db_ = std::move(fresh).value();
  schema_ = std::move(next_schema);
  return Status::OK();
}

namespace {

/// Acquires a deferred statement lock, attributing any blocking to the
/// statement.lock_wait_us histogram. The uncontended path is try_lock
/// only — no clock reads — so the statement clock-read budget (4 per
/// statement, all in the server) survives this instrumentation.
template <typename Lock>
void AcquireStatementLock(Lock* lock) {
  if (lock->try_lock()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.counter("statement.lock_contended").Increment();
  uint64_t start = obs::MonotonicNowNs();
  lock->lock();
  static const std::vector<double>* bounds = new std::vector<double>{
      10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000,
      50000, 100000, 250000, 1e6};
  registry.histogram("statement.lock_wait_us", *bounds)
      .Observe(static_cast<double>(obs::MonotonicNowNs() - start) / 1e3);
}

}  // namespace

Result<StatementOutcome> StatementRunner::Execute(
    const std::string& statement) {
  StatementClass cls = Classify(statement);
  if (LeadingKeyword(statement) == "checkpoint") {
    // CHECKPOINT alternates lock modes across its three phases; it
    // cannot run under one scoped acquisition.
    return CheckpointStatement();
  }
  if (cls == StatementClass::kExclusive) {
    std::unique_lock<std::shared_mutex> lock(statement_mu_, std::defer_lock);
    AcquireStatementLock(&lock);
    StatementScope scope(this);
    return ExecuteClassified(statement, cls);
  }
  // Reads and CRUD both run shared: readers execute against pinned
  // versions, CRUD serializes per mapping lock domain underneath.
  std::shared_lock<std::shared_mutex> lock(statement_mu_, std::defer_lock);
  AcquireStatementLock(&lock);
  StatementScope scope(this);
  return ExecuteClassified(statement, cls);
}

std::optional<Result<StatementOutcome>> StatementRunner::TryExecuteInline(
    const std::string& statement) {
  if (LeadingKeyword(statement) != "select") return std::nullopt;
  std::shared_lock<std::shared_mutex> lock(statement_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return std::nullopt;
  StatementScope scope(this);
  std::optional<Result<erql::QueryResult>> result =
      erql::QueryEngine::TryExecuteShort(current_db(), statement,
                                         exec_options_, plan_cache_.get(),
                                         mapping_generation());
  if (!result.has_value()) return std::nullopt;
  if (!result->ok()) return result->status();
  StatementOutcome outcome;
  outcome.shape = OutputShape::kTable;
  outcome.result = std::move(**result);
  return outcome;
}

Result<StatementOutcome> StatementRunner::ExecuteClassified(
    const std::string& statement, StatementClass cls) {
  std::string word = LeadingKeyword(statement);
  if (word == "create") return CreateLocked(statement);
  if (word == "insert") return InsertLocked(statement);
  if (word == "remap") return RemapLocked(statement);
  if (word == "attach") return AttachLocked(statement);
  if (word == "advise") return AdviseLocked(statement);
  if (cls != StatementClass::kExclusive) {
    // Only plain SELECTs go through the plan cache; SHOW/EXPLAIN/TRACE
    // would only pollute the hit/miss metrics with guaranteed misses.
    erql::PlanCache* cache = word == "select" ? plan_cache_.get() : nullptr;
    ERBIUM_ASSIGN_OR_RETURN(
        erql::QueryResult result,
        erql::QueryEngine::Execute(current_db(), statement, exec_options_,
                                   cache, mapping_generation()));
    StatementOutcome outcome;
    // EXPLAIN / TRACE / EXPORT / LOAD output is plain lines; SELECT and
    // SHOW render as tables.
    outcome.shape = (word == "explain" || word == "trace" ||
                     word == "export" || word == "load")
                        ? OutputShape::kLines
                        : OutputShape::kTable;
    outcome.result = std::move(result);
    return outcome;
  }
  return Status::InvalidArgument(
      "unsupported statement '" + word +
      "': expected CREATE / INSERT / REMAP / ATTACH DATABASE / CHECKPOINT / "
      "SELECT / EXPLAIN [ANALYZE] / SHOW / TRACE / ADVISE / "
      "EXPORT WORKLOAD / LOAD WORKLOAD");
}

Result<StatementOutcome> StatementRunner::CreateLocked(
    const std::string& statement) {
  if (durable_ != nullptr) {
    ERBIUM_RETURN_NOT_OK(durable_->ExecuteDdl(statement + ";"));
  } else {
    auto next = std::make_shared<ERSchema>(*schema_);
    ERBIUM_RETURN_NOT_OK(DdlParser::Execute(statement + ";", next.get()));
    ERBIUM_RETURN_NOT_OK(Rebuild(std::move(next)));
    ddl_history_ += statement + ";\n";
  }
  // Either branch rebuilt the physical tables; cached plans are stale.
  BumpMappingGeneration();
  StatementOutcome outcome;
  outcome.message = "ok (" +
                    std::to_string(current_db()->mapping().tables().size()) +
                    " physical tables)";
  return outcome;
}

/// INSERT <Entity> (attr = literal, ...): builds a struct value and goes
/// through the logical insert (which also WAL-logs it when a database is
/// attached).
Result<StatementOutcome> StatementRunner::InsertLocked(
    const std::string& statement) {
  ERBIUM_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                          Lexer::Tokenize(statement));
  TokenStream ts(std::move(tokens));
  if (!ts.ConsumeKeyword("insert")) {
    return Status::ParseError("expected INSERT");
  }
  ERBIUM_ASSIGN_OR_RETURN(std::string entity,
                          ts.ExpectIdentifier("entity set name"));
  ERBIUM_RETURN_NOT_OK(ts.ExpectSymbol("("));
  Value::StructData fields;
  while (true) {
    ERBIUM_ASSIGN_OR_RETURN(std::string attr,
                            ts.ExpectIdentifier("attribute name"));
    ERBIUM_RETURN_NOT_OK(ts.ExpectSymbol("="));
    bool negative = ts.ConsumeSymbol("-");
    const Token& tok = ts.Advance();
    Value value;
    switch (tok.kind) {
      case TokenKind::kInteger:
        value = Value::Int64(negative ? -tok.int_value : tok.int_value);
        break;
      case TokenKind::kFloat:
        value = Value::Float64(negative ? -tok.float_value : tok.float_value);
        break;
      case TokenKind::kString:
        value = Value::String(tok.text);
        break;
      case TokenKind::kIdentifier:
        if (tok.IsKeyword("true")) {
          value = Value::Bool(true);
        } else if (tok.IsKeyword("false")) {
          value = Value::Bool(false);
        } else if (tok.IsKeyword("null")) {
          value = Value::Null();
        } else {
          return Status::ParseError("unexpected value '" + tok.text + "'");
        }
        break;
      default:
        return Status::ParseError("expected a literal value");
    }
    if (negative && tok.kind != TokenKind::kInteger &&
        tok.kind != TokenKind::kFloat) {
      return Status::ParseError("'-' must precede a numeric literal");
    }
    fields.emplace_back(std::move(attr), std::move(value));
    if (ts.ConsumeSymbol(",")) continue;
    ERBIUM_RETURN_NOT_OK(ts.ExpectSymbol(")"));
    break;
  }
  if (!ts.AtEnd() && !ts.ConsumeSymbol(";")) {
    return Status::ParseError("unexpected trailing input after INSERT");
  }
  ERBIUM_RETURN_NOT_OK(
      current_db()->InsertEntity(entity, Value::Struct(std::move(fields))));
  // Feed the workload profiler at the statement level (not inside
  // MappedDatabase) so REMAP migration, recovery replay, and ADVISE
  // candidate population never pollute the CRUD counters.
  obs::WorkloadProfile::Global().RecordEntityCrud(entity,
                                                  obs::CrudKind::kInsert);
  StatementOutcome outcome;
  outcome.message = "ok";
  return outcome;
}

/// REMAP <preset>: switch the physical mapping, migrating data.
Result<StatementOutcome> StatementRunner::RemapLocked(
    const std::string& statement) {
  ERBIUM_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                          Lexer::Tokenize(statement));
  TokenStream ts(std::move(tokens));
  if (!ts.ConsumeKeyword("remap")) {
    return Status::ParseError("expected REMAP");
  }
  ERBIUM_ASSIGN_OR_RETURN(std::string name,
                          ts.ExpectIdentifier("mapping preset name"));
  if (!ts.AtEnd() && !ts.ConsumeSymbol(";")) {
    return Status::ParseError("unexpected trailing input after REMAP");
  }
  MappingSpec next = PresetByName(name);
  ERBIUM_RETURN_NOT_OK(RemapSpec(next));
  StatementOutcome outcome;
  outcome.message = "remapped to " + next.ToString() + " (data migrated)";
  return outcome;
}

Status StatementRunner::RemapSpec(const MappingSpec& next) {
  if (durable_ != nullptr) {
    ERBIUM_RETURN_NOT_OK(durable_->Remap(next));
    BumpMappingGeneration();
    return Status::OK();
  }
  MappingSpec old = spec_;
  spec_ = next;
  Status st = Rebuild(schema_);
  if (!st.ok()) {
    spec_ = std::move(old);
    return st;
  }
  BumpMappingGeneration();
  return Status::OK();
}

Status StatementRunner::RemapPreset(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(statement_mu_);
  StatementScope scope(this);
  return RemapSpec(PresetByName(name));
}

Result<StatementOutcome> StatementRunner::AttachLocked(
    const std::string& statement) {
  ERBIUM_ASSIGN_OR_RETURN(erql::Query query, erql::Parser::Parse(statement));
  if (query.statement != erql::StatementKind::kAttach) {
    return Status::ParseError("expected ATTACH DATABASE '<dir>'");
  }
  if (durable_ != nullptr) {
    return Status::InvalidArgument("already attached to " + durable_->dir());
  }
  StatementOutcome outcome;
  ERBIUM_RETURN_NOT_OK(AttachDir(query.attach_path, &outcome.message));
  return outcome;
}

Status StatementRunner::AttachDir(const std::string& dir,
                                  std::string* message) {
  durability::DurableDatabase::Options options;
  options.spec = spec_;
  options.initial_ddl = ddl_history_;
  options.sync = sync_;
  options.faults = faults_;
  auto opened = durability::DurableDatabase::Open(dir, std::move(options));
  if (!opened.ok()) return opened.status();
  durable_ = std::move(opened).value();
  db_.reset();
  // The in-memory database (and every plan bound to it) just got
  // replaced by the recovered one.
  BumpMappingGeneration();
  const auto& info = durable_->recovery_info();
  *message = "attached " + dir + " (snapshot gen " +
             std::to_string(info.snapshot_gen) + ", " +
             std::to_string(info.records_replayed) + " records replayed" +
             (info.wal_clean ? "" : ", torn WAL tail discarded") + ")";
  return Status::OK();
}

namespace {

/// Fixed-point milliseconds for the ADVISE table ("1.234").
std::string FormatMs(double ms) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", ms);
  return buffer;
}

}  // namespace

Result<StatementOutcome> StatementRunner::AdviseLocked(
    const std::string& statement) {
  ERBIUM_ASSIGN_OR_RETURN(erql::Query query, erql::Parser::Parse(statement));
  if (query.statement != erql::StatementKind::kAdvise) {
    return Status::ParseError("expected ADVISE [LIMIT n]");
  }
  obs::WorkloadSnapshot snapshot = obs::WorkloadProfile::Global().Snapshot();
  Workload workload = WorkloadFromProfile(snapshot);
  if (workload.queries.empty()) {
    std::string hint = obs::WorkloadProfile::Global().enabled()
                           ? ""
                           : " (capture is disabled)";
    return Status::InvalidArgument(
        "ADVISE: no captured SELECT traffic to advise from" + hint +
        " — run queries first, or LOAD WORKLOAD FROM a snapshot");
  }
  // The active spec goes in as candidate #0 (deduped out of the
  // enumeration) so every row has a well-defined delta against what the
  // system is running right now.
  const MappingSpec& active =
      durable_ != nullptr ? durable_->spec() : spec_;
  std::vector<MappingSpec> candidates;
  candidates.push_back(active);
  const std::string active_json = active.ToJson();
  std::vector<MappingSpec> enumerated =
      MappingAdvisor::EnumerateCandidates(*current_schema(), /*limit=*/16);
  for (MappingSpec& spec : enumerated) {
    if (spec.ToJson() == active_json) continue;
    candidates.push_back(std::move(spec));
  }
  MappedDatabase* live = current_db();
  auto populate = [live](MappedDatabase* dst) {
    return evolution::MigrateData(live, dst);
  };
  ERBIUM_ASSIGN_OR_RETURN(
      MappingAdvisor::Advice advice,
      MappingAdvisor::Advise(current_schema(), candidates, populate, workload,
                             /*repetitions=*/2));

  // Rank: valid candidates by measured cost, invalid ones last.
  std::vector<size_t> order(advice.candidates.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const MappingAdvisor::Candidate& ca = advice.candidates[a];
    const MappingAdvisor::Candidate& cb = advice.candidates[b];
    if (ca.valid != cb.valid) return ca.valid;
    return ca.total_cost_ms < cb.total_cost_ms;
  });
  const MappingAdvisor::Candidate& active_candidate = advice.candidates[0];

  erql::QueryResult result;
  result.columns = {"rank", "mapping", "cost_ms", "vs_active", "note"};
  int64_t limit = query.show_limit;
  size_t rank = 0;
  for (size_t index : order) {
    if (limit >= 0 && static_cast<int64_t>(rank) >= limit) break;
    const MappingAdvisor::Candidate& candidate = advice.candidates[index];
    ++rank;
    std::string cost = candidate.valid ? FormatMs(candidate.total_cost_ms)
                                       : "n/a";
    std::string delta = "n/a";
    if (candidate.valid && active_candidate.valid) {
      double d = candidate.total_cost_ms - active_candidate.total_cost_ms;
      delta = (d >= 0 ? "+" : "") + FormatMs(d);
    }
    std::string note;
    if (index == advice.best_index) note = "best";
    if (index == 0) note += note.empty() ? "active" : ", active";
    if (!candidate.valid) note = "invalid: " + candidate.invalid_reason;
    result.rows.push_back({Value::Int64(static_cast<int64_t>(rank)),
                           Value::String(candidate.spec.ToString()),
                           Value::String(std::move(cost)),
                           Value::String(std::move(delta)),
                           Value::String(std::move(note))});
  }
  StatementOutcome outcome;
  outcome.shape = OutputShape::kTable;
  outcome.result = std::move(result);
  return outcome;
}

void StatementRunner::BumpMappingGeneration() {
  uint64_t next =
      mapping_generation_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (plan_cache_ != nullptr) plan_cache_->InvalidateBelow(next);
}

Result<StatementOutcome> StatementRunner::CheckpointStatement() {
  // One CHECKPOINT at a time; later ones queue here (not on the
  // statement lock, which phase B only holds shared).
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  durability::DurableDatabase::CheckpointPins pins;
  {
    // Phase A — brief exclusive barrier: pin every table/pair version and
    // fix the WAL horizon. O(#tables), no IO.
    std::unique_lock<std::shared_mutex> lock(statement_mu_, std::defer_lock);
    AcquireStatementLock(&lock);
    StatementScope scope(this);
    if (durable_ == nullptr) {
      return Status::InvalidArgument(
          "CHECKPOINT requires a durable database — ATTACH DATABASE "
          "'<dir>' first");
    }
    ERBIUM_ASSIGN_OR_RETURN(pins, durable_->PrepareCheckpoint());
  }
  // Phase B — shared lock: encode the pinned image and write it to disk
  // while concurrent SELECTs and CRUD proceed. (ATTACH refuses when
  // already attached, so durable_ cannot change between phases.)
  Result<std::string> summary = [&]() -> Result<std::string> {
    std::shared_lock<std::shared_mutex> lock(statement_mu_, std::defer_lock);
    AcquireStatementLock(&lock);
    StatementScope scope(this);
    return durable_->WriteSnapshotPhase(pins);
  }();
  if (!summary.ok()) {
    durable_->AbortCheckpoint();
    return summary.status();
  }
  {
    // Phase C — also shared: rename the snapshot into place and compact
    // the WAL down to the records appended during phase B. Readers never
    // touch snapshot files or the WAL at runtime; concurrent appends
    // order against the compaction on the WAL's internal mutex, and any
    // record they add carries lsn > the checkpoint horizon, so the
    // compaction keeps it. Only phase A's pin grab needs exclusivity.
    std::shared_lock<std::shared_mutex> lock(statement_mu_, std::defer_lock);
    AcquireStatementLock(&lock);
    StatementScope scope(this);
    ERBIUM_RETURN_NOT_OK(durable_->FinishCheckpoint(pins));
  }
  StatementOutcome outcome;
  outcome.shape = OutputShape::kLines;
  outcome.result.columns = {"checkpoint"};
  outcome.result.rows.push_back(Row{Value::String(std::move(summary).value())});
  return outcome;
}

void StatementRunner::AssertQuiescent(const char* what) const {
#ifndef NDEBUG
  int active = active_statements_.load(std::memory_order_relaxed);
  if (active != 0) {
    std::fprintf(stderr,
                 "FATAL: StatementRunner::%s called while %d statement(s) "
                 "are in flight — the unlocked introspection accessors are "
                 "only safe on a quiescent runner\n",
                 what, active);
    std::abort();
  }
#else
  (void)what;
#endif
}

Status StatementRunner::FinalCheckpoint() {
  std::lock_guard<std::mutex> checkpoint_lock(checkpoint_mu_);
  std::unique_lock<std::shared_mutex> lock(statement_mu_);
  StatementScope scope(this);
  if (durable_ == nullptr) return Status::OK();
  return durable_->Checkpoint().status();
}

}  // namespace api
}  // namespace erbium
