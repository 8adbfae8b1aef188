#ifndef ERBIUM_API_STATEMENT_RUNNER_H_
#define ERBIUM_API_STATEMENT_RUNNER_H_

#include <atomic>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>

#include "common/status.h"
#include "durability/durable_db.h"
#include "er/er_schema.h"
#include "erql/plan_cache.h"
#include "erql/query_engine.h"
#include "mapping/database.h"
#include "mapping/mapping_spec.h"

namespace erbium {
namespace api {

/// How a statement's output should be rendered by a text front end. The
/// numeric values travel over the server wire protocol — stable, append
/// only.
enum class OutputShape : uint8_t {
  kMessage = 0,  // a one-line acknowledgement (CREATE, INSERT, REMAP, ...)
  kTable = 1,    // result rows as a bordered table (SELECT, SHOW)
  kLines = 2,    // one-column plain lines (EXPLAIN, TRACE, CHECKPOINT)
};

/// The result of one statement: either an acknowledgement message or a
/// materialized QueryResult plus how to render it.
struct StatementOutcome {
  OutputShape shape = OutputShape::kMessage;
  std::string message;        // kMessage: the acknowledgement text
  erql::QueryResult result;   // kTable / kLines: the rows
};

/// The statement-dispatch core shared by the interactive shell and the
/// network server: one object owning the database state (in-memory or
/// durable) and one Execute() entry point for every statement the system
/// understands —
///
///   CREATE ...                      DDL (rebuilds the database, migrates)
///   INSERT <Entity> (a = 1, ...)    one entity instance
///   REMAP <preset>                  switch mapping preset (m1..m6, m6pg)
///   ATTACH DATABASE '<dir>'         bind to disk (recovery + WAL)
///   CHECKPOINT                      snapshot + WAL truncate
///   SELECT / EXPLAIN [ANALYZE] / SHOW ... / TRACE ...
///   ADVISE [LIMIT n]                rank candidate mappings by captured traffic
///   EXPORT WORKLOAD INTO '<file>'   snapshot the workload profile as JSON
///   LOAD WORKLOAD FROM '<file>'     replace the profile from a snapshot
///
/// Concurrency: Execute() classifies the statement into three lock
/// classes —
///   - Reads (SELECT / EXPLAIN / SHOW / TRACE / ADVISE / EXPORT) take the
///     statement lock shared and execute against pinned immutable
///     versions (exec::ReadSnapshot): they never block behind writers and
///     never observe a half-applied mutation.
///   - CRUD (INSERT, and LOAD WORKLOAD) also takes the lock *shared*:
///     writers serialize against each other per entity-set/relationship-
///     set inside MappedDatabase (lock domains), not through this lock,
///     so writers to unrelated schema parts run in parallel with each
///     other and with all readers. A durable INSERT holds its domain only
///     while it applies and writes its WAL record; it waits for the
///     group-commit fdatasync after releasing it.
///   - Structural statements (CREATE / REMAP / ATTACH, and anything
///     unrecognized) take the lock exclusively: they replace the physical
///     database, so every other statement drains first.
/// CHECKPOINT is its own dance: pin versions under a brief exclusive
/// barrier (the only exclusive moment), then write the snapshot and
/// finish (rename + WAL compaction) under shared locks — reads and CRUD
/// proceed for the whole disk phase, so reads no longer stall for the
/// duration of the snapshot write.
class StatementRunner {
 public:
  struct Options {
    MappingSpec spec = MappingSpec::Normalized("m1");
    /// Preload the paper's Figure 4 schema and synthetic data.
    bool figure4 = false;
    int figure4_num_r = 1000;
    int figure4_num_s = 300;
    /// When non-empty, ATTACH DATABASE to this directory at startup.
    std::string attach_dir;
    durability::WalWriter::SyncMode sync =
        durability::WalWriter::SyncMode::kNone;
    /// Prepared-statement plan cache capacity (distinct SELECT shapes,
    /// see erql::Query::cache_key); 0 disables caching entirely.
    size_t plan_cache_capacity = 1024;
    /// Crash/gate hooks passed through to the durable database on
    /// ATTACH; not owned, may be null. For the fault-injection tests.
    durability::FaultInjector* faults = nullptr;
  };

  /// Lock class of a statement (see the class comment): reads and CRUD
  /// run shared, structural statements exclusive.
  enum class StatementClass { kRead, kCrud, kExclusive };
  /// Classification by leading keyword — insensitive to case and to any
  /// leading whitespace (spaces, tabs, newlines). Unknown statements
  /// classify as exclusive (they fail under the exclusive lock, which is
  /// always safe).
  static StatementClass Classify(const std::string& statement);

  static Result<std::unique_ptr<StatementRunner>> Create(Options options);

  /// Runs one statement (no trailing ';' required) under the statement
  /// lock and returns its outcome. Statement failures are returned as
  /// error Status — the runner stays usable.
  Result<StatementOutcome> Execute(const std::string& statement);

  /// Execute() for a caller that must never block, such as the server's
  /// event loop. Runs the statement only when it is a plain SELECT, the
  /// statement lock is free to take shared at once (try_lock_shared: a
  /// held or spuriously failing lock is never waited on), and its plan
  /// is cached and short (erql::QueryEngine::TryExecuteShort). Otherwise
  /// returns nullopt having run and recorded nothing; the caller then
  /// runs the statement through Execute() on a thread that may wait.
  std::optional<Result<StatementOutcome>> TryExecuteInline(
      const std::string& statement);

  /// Switches the mapping preset (m1..m6, m6pg), migrating data. Takes
  /// the exclusive lock; equivalent to Execute("REMAP <name>").
  Status RemapPreset(const std::string& name);

  /// Final CHECKPOINT for graceful shutdown; a no-op when no database is
  /// attached. Takes the exclusive lock.
  Status FinalCheckpoint();

  /// The preset specs selectable by REMAP. Unknown names yield m1.
  static MappingSpec PresetByName(const std::string& name);

  // ---- Unlocked introspection ----------------------------------------------
  // For single-threaded hosts (the shell's backslash commands). Callers
  // must not run concurrent statements around these — a debug-build
  // assert (WriterCheck-style: abort loudly, never corrupt silently)
  // fires if any statement is in flight when one is called.
  MappedDatabase* db() {
    AssertQuiescent("db()");
    return current_db();
  }
  const ERSchema* SchemaView() const {
    AssertQuiescent("SchemaView()");
    return current_schema();
  }
  durability::DurableDatabase* durable() {
    AssertQuiescent("durable()");
    return durable_.get();
  }
  bool attached() const { return durable_ != nullptr; }
  const MappingSpec& spec() const { return spec_; }

  /// The prepared-statement plan cache (null when disabled) and the
  /// mapping generation its entries are keyed by. The generation counts
  /// every rebuild of the underlying database — DDL, REMAP, ATTACH —
  /// i.e. every event that dangles a compiled plan's Table bindings.
  erql::PlanCache* plan_cache() { return plan_cache_.get(); }
  uint64_t mapping_generation() const {
    return mapping_generation_.load(std::memory_order_relaxed);
  }

 private:
  StatementRunner() = default;

  /// In-flight statement accounting for the debug asserts above. Scoped
  /// inside Execute's lock acquisition.
  struct StatementScope {
    explicit StatementScope(StatementRunner* r) : runner(r) {
      runner->active_statements_.fetch_add(1, std::memory_order_relaxed);
    }
    ~StatementScope() {
      runner->active_statements_.fetch_sub(1, std::memory_order_relaxed);
    }
    StatementScope(const StatementScope&) = delete;
    StatementScope& operator=(const StatementScope&) = delete;
    StatementRunner* runner;
  };

  /// Aborts (debug builds) when a statement is in flight: the unlocked
  /// introspection accessors are only safe on a quiescent runner.
  void AssertQuiescent(const char* what) const;

  /// Accessors for statement-execution paths (which legitimately run
  /// with active_statements_ > 0).
  MappedDatabase* current_db() {
    return durable_ ? durable_->db() : db_.get();
  }
  const ERSchema* current_schema() const {
    return durable_ ? &durable_->schema() : schema_.get();
  }

  Result<StatementOutcome> ExecuteClassified(const std::string& statement,
                                             StatementClass cls);
  /// The CHECKPOINT lock dance (see the class comment): exclusive
  /// prepare, shared snapshot write, shared finish.
  Result<StatementOutcome> CheckpointStatement();
  /// ADVISE [LIMIT n]: feeds the captured workload profile through
  /// MappingAdvisor against live data and renders the ranked candidates.
  /// Runs under the shared lock — candidate databases are populated by
  /// *reading* the live one via evolution::MigrateData.
  Result<StatementOutcome> AdviseLocked(const std::string& statement);
  Result<StatementOutcome> CreateLocked(const std::string& statement);
  Result<StatementOutcome> InsertLocked(const std::string& statement);
  Result<StatementOutcome> RemapLocked(const std::string& statement);
  Result<StatementOutcome> AttachLocked(const std::string& statement);
  Status AttachDir(const std::string& dir, std::string* message);
  Status RemapSpec(const MappingSpec& next);

  /// Re-creates the database under `next_schema` (a separate object —
  /// the old instance keeps reading the old schema while data migrates)
  /// and the current spec, then swaps the schema in. Pass the existing
  /// schema for a pure remap.
  Status Rebuild(std::shared_ptr<ERSchema> next_schema);

  /// Advances the mapping generation and purges now-stale cached plans.
  /// Must be called with the exclusive statement lock held (or before
  /// the runner is shared), after any rebuild of the database object.
  void BumpMappingGeneration();

  /// Shared/exclusive statement lock (see class comment).
  std::shared_mutex statement_mu_;
  /// Serializes whole CHECKPOINT statements (all three phases): without
  /// it, concurrent CHECKPOINTs would race PrepareCheckpoint and the
  /// losers would fail with "already in progress" instead of queueing.
  /// Always acquired before statement_mu_.
  std::mutex checkpoint_mu_;

  std::shared_ptr<ERSchema> schema_ = std::make_shared<ERSchema>();
  std::unique_ptr<MappedDatabase> db_;
  std::unique_ptr<durability::DurableDatabase> durable_;
  MappingSpec spec_ = MappingSpec::Normalized("m1");
  durability::WalWriter::SyncMode sync_ =
      durability::WalWriter::SyncMode::kNone;
  durability::FaultInjector* faults_ = nullptr;
  /// Every DDL statement executed so far; an ATTACH seeds the durable
  /// database's schema with it.
  std::string ddl_history_;

  /// Prepared-statement support: compiled SELECT plans keyed by
  /// (query shape, mapping_generation_). Readers check plans out
  /// under the shared lock; DDL/REMAP/ATTACH bump the generation under
  /// the exclusive lock, so a stale plan can never execute.
  std::unique_ptr<erql::PlanCache> plan_cache_;
  std::atomic<uint64_t> mapping_generation_{1};
  /// ExecOptions::Default() as of Create, for every statement: plan shape
  /// depends on it and the plan cache key does not.
  ExecOptions exec_options_;
  /// Statements currently inside Execute (any lock class); the unlocked
  /// introspection accessors assert this is zero in debug builds.
  mutable std::atomic<int> active_statements_{0};
};

}  // namespace api
}  // namespace erbium

#endif  // ERBIUM_API_STATEMENT_RUNNER_H_
