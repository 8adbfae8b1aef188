// Plan-cache tests: cache keys, LRU + checkout/check-in mechanics, and
// — the parts that matter — literal safety and invalidation. A cached
// SELECT, rebound to each statement's WHERE literals, must answer exactly
// like a fresh compile, and stay correct across every event that
// rebuilds the physical tables under it (REMAP m1→m6, DDL, ATTACH
// recovery), including while readers hammer the cache concurrently with
// remaps.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/statement_runner.h"
#include "erql/parser.h"
#include "erql/plan_cache.h"
#include "erql/query_engine.h"
#include "exec/explain.h"
#include "obs/metrics.h"
#include "workload/figure4.h"

namespace erbium {
namespace erql {
namespace {

uint64_t Hits() {
  return obs::MetricsRegistry::Global().counter("plan_cache.hits").Value();
}
uint64_t Misses() {
  return obs::MetricsRegistry::Global().counter("plan_cache.misses").Value();
}

// ---- Cache keys -----------------------------------------------------------

std::string Key(const std::string& text) {
  auto query = Parser::Parse(text);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  return query.ok() ? query->cache_key : std::string();
}

TEST(PlanCacheKeyTest, WhitespaceAndSemicolonVariantsShareAKey) {
  EXPECT_EQ(Key("SELECT r_id FROM R WHERE r_id = 1"),
            Key("  SELECT\t r_id \n FROM  R\nWHERE r_id=1 ; "));
}

TEST(PlanCacheKeyTest, WhitespaceInsideQuotesStaysSignificant) {
  std::string a = Key("SELECT 'a  b' FROM R");
  EXPECT_NE(a, Key("SELECT 'a b' FROM R"));
  EXPECT_NE(a.find("'a  b'"), std::string::npos) << a;
  // Verbatim strings are re-quoted with '' escapes, so one string that
  // spells out two never shares a key with the two.
  EXPECT_NE(Key("SELECT 'a'' , ''b' FROM R"),
            Key("SELECT 'a' , 'b' FROM R"));
  EXPECT_NE(Key("SELECT '?i' FROM R"),
            Key("SELECT r_id FROM R WHERE r_id = 1"));
}

TEST(PlanCacheKeyTest, WhereLiteralsOfOneTypeClassShareAKey) {
  const std::string ints = Key("SELECT r_id FROM R WHERE r_id = 1");
  EXPECT_EQ(ints, Key("SELECT r_id FROM R WHERE r_id = 2"));
  EXPECT_EQ(ints, Key("SELECT r_id FROM R WHERE r_id = -3"));
  EXPECT_EQ(ints, "SELECT r_id FROM R WHERE r_id = ?i");
  EXPECT_EQ(Key("SELECT r_id FROM R WHERE r_a3 = 'x' AND r_a2 < 1.5"),
            Key("SELECT r_id FROM R WHERE r_a3 = 'it''s' AND r_a2 < -2.0e3"));
  auto query = Parser::Parse(
      "SELECT r_id FROM R WHERE r_id = -3 AND r_a3 = 'it''s' AND r_a2 < 0.5");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->params.size(), 3u);
  EXPECT_EQ(query->params[0], Value::Int64(-3));
  EXPECT_EQ(query->params[1], Value::String("it's"));
  EXPECT_EQ(query->params[2], Value::Float64(0.5));
}

TEST(PlanCacheKeyTest, TypeCaseSelectLiteralsAndLimitChangeTheKey) {
  const std::string base = Key("SELECT r_id FROM R WHERE r_id = 1");
  EXPECT_NE(base, Key("SELECT r_id FROM R WHERE r_id = '1'"));
  EXPECT_NE(base, Key("SELECT r_id FROM R WHERE r_id = 1.0"));
  EXPECT_NE(base, Key("SELECT r_id FROM R WHERE r_id = null"));
  EXPECT_NE(base, Key("SELECT r_id FROM r WHERE r_id = 1"));
  EXPECT_NE(base, Key("SELECT R_ID FROM R WHERE r_id = 1"));
  EXPECT_NE(Key("SELECT r_a1 + 1 FROM R"), Key("SELECT r_a1 + 2 FROM R"));
  EXPECT_NE(Key("SELECT r_id FROM R LIMIT 3"),
            Key("SELECT r_id FROM R LIMIT 5"));
  EXPECT_NE(Key("SELECT r_id FROM R WHERE r_id IN (1, 2)"),
            Key("SELECT r_id FROM R WHERE r_id IN (1, 3)"));
  EXPECT_NE(Key("SELECT r_id FROM R WHERE r_mv1 = [1, 2]"),
            Key("SELECT r_id FROM R WHERE r_mv1 = [1, 3]"));
}

// ---- Checkout / check-in mechanics ----------------------------------------

TEST(PlanCacheTest, CheckoutIsExclusive) {
  PlanCache cache(4);
  cache.CheckIn("k", 1, std::make_unique<CompiledQuery>());
  EXPECT_EQ(cache.size(), 1u);
  auto plan = cache.Checkout("k", 1);
  ASSERT_NE(plan, nullptr);
  // The instance left the cache: a concurrent reader of the same
  // statement misses instead of sharing an operator tree.
  EXPECT_EQ(cache.Checkout("k", 1), nullptr);
  cache.CheckIn("k", 1, std::move(plan));
  EXPECT_NE(cache.Checkout("k", 1), nullptr);
}

TEST(PlanCacheTest, PerKeyPoolDeepensUpToLimit) {
  PlanCache cache(4);
  for (size_t i = 0; i < PlanCache::kPlansPerKey + 3; ++i) {
    cache.CheckIn("k", 1, std::make_unique<CompiledQuery>());
  }
  size_t got = 0;
  while (cache.Checkout("k", 1) != nullptr) ++got;
  EXPECT_EQ(got, PlanCache::kPlansPerKey);
}

TEST(PlanCacheTest, LruEvictsTheColdestKey) {
  PlanCache cache(2);
  cache.CheckIn("a", 1, std::make_unique<CompiledQuery>());
  cache.CheckIn("b", 1, std::make_unique<CompiledQuery>());
  // Touch "a" so "b" is the coldest, then insert "c".
  auto a = cache.Checkout("a", 1);
  ASSERT_NE(a, nullptr);
  cache.CheckIn("a", 1, std::move(a));
  cache.CheckIn("c", 1, std::make_unique<CompiledQuery>());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Checkout("b", 1), nullptr);
  EXPECT_NE(cache.Checkout("a", 1), nullptr);
  EXPECT_NE(cache.Checkout("c", 1), nullptr);
}

TEST(PlanCacheTest, StaleGenerationNeverServes) {
  PlanCache cache(4);
  cache.CheckIn("k", 1, std::make_unique<CompiledQuery>());
  EXPECT_EQ(cache.Checkout("k", 2), nullptr);  // purged on sight
  EXPECT_EQ(cache.size(), 0u);
  // A check-in from a reader that raced a generation bump is dropped.
  cache.CheckIn("k", 1, std::make_unique<CompiledQuery>());
  cache.InvalidateBelow(2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Checkout("k", 1), nullptr);
}

TEST(PlanCacheTest, ZeroIsHandledByOwnerNotCache) {
  // StatementRunner with plan_cache_capacity = 0 simply has no cache.
  api::StatementRunner::Options options;
  options.figure4 = true;
  options.figure4_num_r = 10;
  options.figure4_num_s = 5;
  options.plan_cache_capacity = 0;
  auto runner = api::StatementRunner::Create(std::move(options));
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  EXPECT_EQ((*runner)->plan_cache(), nullptr);
  EXPECT_TRUE((*runner)->Execute("SELECT r_id FROM R WHERE r_id = 1").ok());
}

TEST(PlanCacheTest, CheckoutShortServesOnlyShortPlansAndCountsOnlyHits) {
  PlanCache cache(4);
  uint64_t hits = Hits(), misses = Misses();
  EXPECT_EQ(cache.CheckoutShort("k", 1, 4), nullptr);  // absent
  // A plan that reads three rows: short under a threshold of 4, not 3.
  auto plan = std::make_unique<CompiledQuery>();
  plan->plan = std::make_unique<ValuesOp>(
      std::vector<Column>{}, std::vector<Row>(3));
  cache.CheckIn("k", 1, std::move(plan));
  EXPECT_EQ(cache.CheckoutShort("k", 1, 3), nullptr);  // pooled, not short
  EXPECT_EQ(cache.CheckoutShort("k", 2, 4), nullptr);  // stale generation
  // Declining touched neither the pool nor the counters.
  EXPECT_EQ(Hits(), hits);
  EXPECT_EQ(Misses(), misses);
  EXPECT_EQ(cache.size(), 1u);

  plan = cache.CheckoutShort("k", 1, 4);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(Hits(), hits + 1);
  EXPECT_EQ(cache.CheckoutShort("k", 1, 4), nullptr);  // checked out
  EXPECT_EQ(Misses(), misses);
}

// ---- Runner integration: correctness across invalidation events -----------

class PlanCacheRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    api::StatementRunner::Options options;
    options.figure4 = true;
    options.figure4_num_r = 60;
    options.figure4_num_s = 30;
    auto runner = api::StatementRunner::Create(std::move(options));
    ASSERT_TRUE(runner.ok()) << runner.status().ToString();
    runner_ = std::move(runner).value();
  }

  size_t RowCount(const std::string& statement) {
    auto outcome = runner_->Execute(statement);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return outcome.ok() ? outcome->result.rows.size() : static_cast<size_t>(-1);
  }

  std::unique_ptr<api::StatementRunner> runner_;
};

TEST_F(PlanCacheRunnerTest, RepeatedSelectHitsTheCache) {
  const std::string q = "SELECT r_id, r_a1 FROM R WHERE r_id < 10";
  uint64_t hits_before = Hits();
  size_t first = RowCount(q);
  // Formatting variants share the entry through the cache key.
  size_t second = RowCount("  SELECT r_id,  r_a1 FROM R  WHERE r_id < 10 ;");
  size_t third = RowCount(q);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, third);
  EXPECT_GE(Hits(), hits_before + 2);
}

TEST_F(PlanCacheRunnerTest, CachedSelectSurvivesRemapM1ToM6) {
  const std::string q = "SELECT r_id, r_a1 FROM R WHERE r_id < 25";
  const size_t expected = RowCount(q);
  uint64_t gen = runner_->mapping_generation();
  for (const char* preset : {"m2", "m3", "m4", "m5", "m6", "m1"}) {
    RowCount(q);  // make sure a plan for the *old* mapping is cached
    ASSERT_TRUE(runner_->Execute(std::string("REMAP ") + preset).ok());
    EXPECT_GT(runner_->mapping_generation(), gen);
    gen = runner_->mapping_generation();
    // The remap dangled every cached plan; this must recompile, not
    // execute a plan bound to freed tables.
    EXPECT_EQ(RowCount(q), expected) << "after REMAP " << preset;
    EXPECT_EQ(RowCount(q), expected) << "cached re-read after " << preset;
  }
}

TEST_F(PlanCacheRunnerTest, DdlInvalidatesCachedPlans) {
  const std::string q = "SELECT r_id FROM R WHERE r_id < 25";
  size_t expected = RowCount(q);
  RowCount(q);  // cached now
  uint64_t gen = runner_->mapping_generation();
  ASSERT_TRUE(
      runner_->Execute("CREATE ENTITY Widget (w_id INT KEY, w_name STRING)")
          .ok());
  EXPECT_GT(runner_->mapping_generation(), gen);
  EXPECT_EQ(RowCount(q), expected);
  ASSERT_TRUE(runner_->Execute("INSERT Widget (w_id = 1, w_name = 'x')").ok());
  EXPECT_EQ(RowCount("SELECT w_id FROM Widget"), 1u);
}

TEST_F(PlanCacheRunnerTest, AttachInvalidatesCachedPlans) {
  const std::string q = "SELECT r_id FROM R WHERE r_id < 25";
  size_t expected = RowCount(q);
  RowCount(q);  // cached against the in-memory database
  uint64_t gen = runner_->mapping_generation();
  std::string dir = ::testing::TempDir() + "/erbium_plan_cache_attach";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(runner_->Execute("ATTACH DATABASE '" + dir + "'").ok());
  EXPECT_GT(runner_->mapping_generation(), gen);
  // The database object was replaced wholesale; a cached plan would
  // read freed memory. (The attach starts empty of figure4 data only
  // if DDL didn't replay — either way the count must be consistent
  // with a fresh compile.)
  EXPECT_EQ(RowCount(q), RowCount(q));
  (void)expected;
}

TEST_F(PlanCacheRunnerTest, InsertIsVisibleThroughACachedPlan) {
  const std::string q = "SELECT r_id FROM R WHERE r_id >= 90000";
  EXPECT_EQ(RowCount(q), 0u);
  ASSERT_TRUE(
      runner_
          ->Execute(
              "INSERT R (r_id = 90001, r_a1 = 7, r_a2 = 0.5, r_a3 = 'n', "
              "r_a4 = 2)")
          .ok());
  // Same generation — the cached plan is reused, and re-opening it must
  // observe the new row (plans bind tables, not snapshots).
  EXPECT_EQ(RowCount(q), 1u);
}

// ---- Literal safety: a cached plan answers like a fresh compile ------------

// Runs statement sequences on a cached runner and on an uncached one
// (plan_cache_capacity = 0) over the same generated data, and requires
// the same canonical result or the same error for every statement.
class PlanCacheLiteralSafetyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cached_ = MakeRunner(1024);
    uncached_ = MakeRunner(0);
    ASSERT_NE(cached_, nullptr);
    ASSERT_NE(uncached_, nullptr);
  }

  static std::unique_ptr<api::StatementRunner> MakeRunner(size_t capacity) {
    api::StatementRunner::Options options;
    options.figure4 = true;
    options.figure4_num_r = 60;
    options.figure4_num_s = 30;
    options.plan_cache_capacity = capacity;
    auto runner = api::StatementRunner::Create(std::move(options));
    EXPECT_TRUE(runner.ok()) << runner.status().ToString();
    return runner.ok() ? std::move(runner).value() : nullptr;
  }

  static std::string Answer(api::StatementRunner* runner,
                            const std::string& statement) {
    auto outcome = runner->Execute(statement);
    return outcome.ok() ? outcome->result.ToCanonicalString()
                        : "error: " + outcome.status().ToString();
  }

  /// Runs each statement on both runners, in order, and returns the
  /// cached runner's answers for further checks.
  std::vector<std::string> ExpectSameAnswers(
      const std::vector<std::string>& statements) {
    std::vector<std::string> answers;
    for (const std::string& statement : statements) {
      std::string cached = Answer(cached_.get(), statement);
      EXPECT_EQ(cached, Answer(uncached_.get(), statement)) << statement;
      answers.push_back(std::move(cached));
    }
    return answers;
  }

  void ExecuteOnBoth(const std::string& statement) {
    ASSERT_TRUE(cached_->Execute(statement).ok()) << statement;
    ASSERT_TRUE(uncached_->Execute(statement).ok()) << statement;
  }

  size_t CachedKeys() { return cached_->plan_cache()->size(); }

  static bool IsError(const std::string& answer) {
    return answer.rfind("error: ", 0) == 0;
  }

  std::unique_ptr<api::StatementRunner> cached_;
  std::unique_ptr<api::StatementRunner> uncached_;
};

TEST_F(PlanCacheLiteralSafetyTest, IntegerAndStringLiteralsGetTwoKeys) {
  size_t keys = CachedKeys();
  std::vector<std::string> answers =
      ExpectSameAnswers({"SELECT r_id, r_a1 FROM R WHERE r_id = 1",
                         "SELECT r_id, r_a1 FROM R WHERE r_id = '1'",
                         "SELECT r_id, r_a1 FROM R WHERE r_id = 1",
                         "SELECT r_id, r_a1 FROM R WHERE r_id = '2'"});
  EXPECT_NE(answers[0], "");
  EXPECT_EQ(CachedKeys(), keys + 2);
}

TEST_F(PlanCacheLiteralSafetyTest, NullStaysVerbatimAndNegativesShareAPlan) {
  ExecuteOnBoth(
      "INSERT R (r_id = -3, r_a1 = 4, r_a2 = 0.5, r_a3 = 'neg', r_a4 = 1)");
  size_t keys = CachedKeys();
  uint64_t misses = Misses();
  std::vector<std::string> answers =
      ExpectSameAnswers({"SELECT r_id, r_a3 FROM R WHERE r_a1 = null",
                         "SELECT r_id, r_a3 FROM R WHERE r_a1 = 4",
                         "SELECT r_id, r_a3 FROM R WHERE r_id = -3",
                         "SELECT r_id, r_a3 FROM R WHERE r_id = 3",
                         "SELECT r_id, r_a3 FROM R WHERE r_id = - 3",
                         "SELECT r_id, r_a3 FROM R WHERE r_a1 = null"});
  EXPECT_EQ(answers[0], "");
  EXPECT_NE(answers[1].find("neg"), std::string::npos) << answers[1];
  EXPECT_EQ(answers[2], "-3 | 'neg'\n");
  EXPECT_NE(answers[2], answers[3]);
  EXPECT_EQ(answers[2], answers[4]);
  // null is a shape of its own; 4, -3, 3 and "- 3" bind into the plans
  // of r_a1 = ?i and r_id = ?i, so only the first of each shape misses.
  EXPECT_EQ(CachedKeys(), keys + 3);
  EXPECT_EQ(Misses(), misses + 3);
}

TEST_F(PlanCacheLiteralSafetyTest, OutOfRangeIntegerFailsLikeAFreshCompile) {
  size_t keys = CachedKeys();
  std::vector<std::string> answers = ExpectSameAnswers(
      {"SELECT r_id FROM R WHERE r_id = 5",
       "SELECT r_id FROM R WHERE r_id = 9223372036854775807",
       "SELECT r_id FROM R WHERE r_id = 9223372036854775808",
       "SELECT r_id FROM R WHERE r_id = -9223372036854775807",
       "SELECT r_id FROM R WHERE r_id = 5"});
  EXPECT_EQ(answers[0], "5\n");
  EXPECT_EQ(answers[1], "");
  EXPECT_TRUE(IsError(answers[2])) << answers[2];
  EXPECT_EQ(answers[3], "");
  EXPECT_EQ(answers[4], "5\n");
  EXPECT_EQ(CachedKeys(), keys + 1);
}

TEST_F(PlanCacheLiteralSafetyTest, EmbeddedQuotesBindTheUnescapedString) {
  ExecuteOnBoth(
      "INSERT R (r_id = 9001, r_a1 = 1, r_a2 = 0.5, r_a3 = 'it''s', "
      "r_a4 = 1)");
  ExecuteOnBoth(
      "INSERT R (r_id = 9002, r_a1 = 1, r_a2 = 0.5, r_a3 = 'it''s''', "
      "r_a4 = 1)");
  std::vector<std::string> answers = ExpectSameAnswers(
      {"SELECT r_id FROM R WHERE r_a3 = 'it''s'",
       "SELECT r_id FROM R WHERE r_a3 = 'it''s'''",
       "SELECT r_id FROM R WHERE r_a3 = 'its'",
       "SELECT 'a'' , ''b' AS x FROM R WHERE r_id = 9001",
       "SELECT 'a' , 'b' AS x FROM R WHERE r_id = 9001"});
  EXPECT_EQ(answers[0], "9001\n");
  EXPECT_EQ(answers[1], "9002\n");
  EXPECT_EQ(answers[2], "");
  EXPECT_NE(answers[3], answers[4]);
}

TEST_F(PlanCacheLiteralSafetyTest, EntityNamesStayCaseSensitive) {
  std::vector<std::string> answers =
      ExpectSameAnswers({"SELECT r_id FROM R WHERE r_id < 5",
                         "SELECT r_id FROM r WHERE r_id < 5",
                         "SELECT r_id FROM R WHERE r_id < 7"});
  EXPECT_EQ(answers[0], "1\n2\n3\n4\n");
  EXPECT_TRUE(IsError(answers[1])) << answers[1];
}

TEST_F(PlanCacheLiteralSafetyTest, GroupByMismatchStaysAnErrorAfterAMatch) {
  std::vector<std::string> answers = ExpectSameAnswers(
      {"SELECT r_a1 + 1 AS k, count(*) AS n FROM R GROUP BY r_a1 + 1",
       "SELECT r_a1 + 1 AS k, count(*) AS n FROM R GROUP BY r_a1 + 2",
       "SELECT r_a1 + 1 AS k, count(*) AS n FROM R GROUP BY r_a1 + 1"});
  EXPECT_FALSE(IsError(answers[0])) << answers[0];
  EXPECT_TRUE(IsError(answers[1])) << answers[1];
}

TEST_F(PlanCacheLiteralSafetyTest, LimitStaysPartOfThePlan) {
  std::vector<std::string> answers = ExpectSameAnswers(
      {"SELECT r_id FROM R WHERE r_id > 10 ORDER BY r_id LIMIT 3",
       "SELECT r_id FROM R WHERE r_id > 10 ORDER BY r_id LIMIT 5",
       "SELECT r_id FROM R WHERE r_id > 20 ORDER BY r_id LIMIT 3"});
  EXPECT_EQ(answers[0], "11\n12\n13\n");
  EXPECT_EQ(answers[1], "11\n12\n13\n14\n15\n");
  EXPECT_EQ(answers[2], "21\n22\n23\n");
}

TEST_F(PlanCacheLiteralSafetyTest, ConcurrentFiltersMatchSerialUncached) {
  auto statement = [](int64_t bound) {
    return "SELECT r_id, r_a1 FROM R WHERE r_a1 < " + std::to_string(bound);
  };
  // Expected answers for every bound, computed serially without a cache.
  std::vector<int64_t> bounds;
  std::vector<std::string> expected;
  for (int64_t bound = -50; bound <= 10500; bound += 350) {
    bounds.push_back(bound);
    expected.push_back(Answer(uncached_.get(), statement(bound)));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < 300; ++i) {
        size_t pick = (i * 7 + static_cast<size_t>(t) * 13) % bounds.size();
        if (Answer(cached_.get(), statement(bounds[pick])) != expected[pick]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---- Concurrency: readers hammer the cache while remaps invalidate --------

// Restores an environment variable on scope exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

TEST(PlanCacheOptionsTest, EnvChangesAfterCreateDoNotReshapePlans) {
  // The cache key excludes ExecOptions, so the runner resolves them once
  // at Create: a later ERBIUM_THREADS change must neither reshape new
  // plans nor mix plan shapes inside the cache.
  ScopedEnv threads("ERBIUM_THREADS", "4");
  ScopedEnv threshold("ERBIUM_PARALLEL_THRESHOLD", "0");
  api::StatementRunner::Options options;
  options.figure4 = true;
  options.figure4_num_r = 200;
  options.figure4_num_s = 60;
  auto created = api::StatementRunner::Create(options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  api::StatementRunner* runner = created->get();
  const std::string q = "SELECT r_id, r_mv1, r_mv2 FROM R WHERE r_a1 < 900";
  auto plan_text = [&](api::StatementRunner* r) {
    auto explained = r->Execute("EXPLAIN " + q);
    EXPECT_TRUE(explained.ok()) << explained.status().ToString();
    std::string text;
    if (explained.ok()) {
      for (const Row& row : explained->result.rows) {
        text += row[0].ToString() + "\n";
      }
    }
    return text;
  };
  const std::string plan = plan_text(runner);
  EXPECT_NE(plan.find("Gather(threads=4"), std::string::npos) << plan;
  auto first = runner->Execute(q);  // compiles and caches a 4-thread plan
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  ScopedEnv serial("ERBIUM_THREADS", "1");
  EXPECT_EQ(plan_text(runner), plan);
  uint64_t hits_before = Hits();
  auto cached = runner->Execute(q);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_EQ(Hits(), hits_before + 1);
  EXPECT_EQ(cached->result.ToCanonicalString(),
            first->result.ToCanonicalString());

  // A runner created now picks the new value up: the env var is read at
  // Create, not per statement.
  auto fresh = api::StatementRunner::Create(options);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(plan_text(fresh->get()).find("Gather"), std::string::npos);
  auto serial_result = (*fresh)->Execute(q);
  ASSERT_TRUE(serial_result.ok()) << serial_result.status().ToString();
  EXPECT_EQ(serial_result->result.ToCanonicalString(),
            first->result.ToCanonicalString());
}

// ---- Short plans: what the server may run on its event loop ---------------

TEST(ShortPlanTest, SerialPlansUnderTheThresholdAreShort) {
  std::shared_ptr<ERSchema> schema;
  Figure4Config config;
  config.num_r = 300;
  config.num_s = 100;
  auto db = MakeFigure4Database(Figure4M1(), config, &schema);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto is_short = [&](const std::string& text, ExecOptions opts) {
    auto compiled = QueryEngine::Compile(db->get(), text, opts);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    return compiled.ok() &&
           IsShortPlan(*compiled->plan, opts.parallel_row_threshold);
  };
  const std::string point = "SELECT r_a1 FROM R WHERE r_id = 7";
  const std::string scan = "SELECT r_id, r_mv1 FROM R WHERE r_a1 < 900";
  ExecOptions serial = ExecOptions::Serial();
  EXPECT_TRUE(is_short(point, serial));
  EXPECT_TRUE(is_short(scan, serial));
  // Serial but over the threshold: the leaves (R and its r_mv1 side
  // table) estimate more rows than 100.
  serial.parallel_row_threshold = 100;
  EXPECT_FALSE(is_short(scan, serial));
  EXPECT_TRUE(is_short(point, serial));  // an index probe estimates 0
  // An index join reads its table once per input row, and a nested-loop
  // join tests every row pair: both count, though neither is a leaf.
  const std::string chain = "SELECT r_id, r_a1, r1_a1, r3_a1 FROM R3";
  auto r3 = QueryEngine::Execute(db->get(), "SELECT r_id FROM R3");
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  const size_t n = r3->rows.size();  // the chain's one leaf scans R3
  auto chain_plan = QueryEngine::Compile(db->get(), chain, serial);
  ASSERT_TRUE(chain_plan.ok()) << chain_plan.status().ToString();
  ASSERT_NE(RenderPlanTree(*chain_plan->plan).find("IndexJoin"),
            std::string::npos);
  serial.parallel_row_threshold = 3 * n;  // R3, then one probe each of R, R1
  EXPECT_FALSE(is_short(chain, serial));
  serial.parallel_row_threshold = 3 * n + 1;
  EXPECT_TRUE(is_short(chain, serial));
  const std::string theta =
      "SELECT r.r_id, s.s_id FROM R r JOIN S s ON r.r_a1 < s.s_a1";
  auto theta_plan = QueryEngine::Compile(db->get(), theta, serial);
  ASSERT_TRUE(theta_plan.ok()) << theta_plan.status().ToString();
  ASSERT_NE(RenderPlanTree(*theta_plan->plan).find("NestedLoop"),
            std::string::npos);
  serial.parallel_row_threshold = 8192;  // 300 x 100 pairs exceed it
  EXPECT_FALSE(is_short(theta, serial));
  // A factorized join scan (M6 stores R2S1 as adjacency lists) counts
  // the edges it walks.
  std::shared_ptr<ERSchema> m6_schema;
  auto m6 = MakeFigure4Database(Figure4M6(), config, &m6_schema);
  ASSERT_TRUE(m6.ok()) << m6.status().ToString();
  const std::string walk = "SELECT r.r_id, s.s_id FROM R2 r JOIN S1 s ON R2S1";
  auto walk_plan = QueryEngine::Compile(m6->get(), walk, serial);
  ASSERT_TRUE(walk_plan.ok()) << walk_plan.status().ToString();
  ASSERT_NE(RenderPlanTree(*walk_plan->plan).find("FactorizedJoinScan"),
            std::string::npos);
  auto edges = QueryEngine::Execute(m6->get(), walk, serial);
  ASSERT_TRUE(edges.ok()) << edges.status().ToString();
  ASSERT_GT(edges->rows.size(), 0u);
  auto m6_short = [&](size_t threshold) {
    ExecOptions opts = ExecOptions::Serial();
    opts.parallel_row_threshold = threshold;
    auto compiled = QueryEngine::Compile(m6->get(), walk, opts);
    return compiled.ok() && IsShortPlan(*compiled->plan, threshold);
  };
  EXPECT_FALSE(m6_short(edges->rows.size()));
  EXPECT_TRUE(m6_short(edges->rows.size() + 1));
  // Parallel: a Gather is never short, whatever the threshold says.
  ExecOptions parallel;
  parallel.num_threads = 4;
  parallel.parallel_row_threshold = 0;
  auto compiled = QueryEngine::Compile(db->get(), scan, parallel);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_NE(RenderPlanTree(*compiled->plan).find("Gather"), std::string::npos);
  EXPECT_FALSE(
      IsShortPlan(*compiled->plan, parallel.parallel_row_threshold));
}

TEST(ShortPlanTest, TablesGrownAfterCachingSendThePlanOffTheLoop) {
  std::shared_ptr<ERSchema> schema;
  Figure4Config config;
  config.num_r = 60;
  config.num_s = 30;
  auto db = MakeFigure4Database(Figure4M1(), config, &schema);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  PlanCache cache(16);
  const ExecOptions serial = ExecOptions::Serial();
  const std::string read = "SELECT r_id, r_a1 FROM R WHERE r_a1 < 100000";
  auto first = QueryEngine::Execute(db->get(), read, serial, &cache, 1);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto small = QueryEngine::TryExecuteShort(db->get(), read, serial, &cache, 1);
  ASSERT_TRUE(small.has_value());
  ASSERT_TRUE(small->ok()) << small->status().ToString();
  EXPECT_EQ((*small)->rows.size(), 60u);

  constexpr int kGrowth = 20'000;
  for (int i = 0; i < kGrowth; ++i) {
    Value::StructData fields;
    fields.emplace_back("r_id", Value::Int64(100'000 + i));
    fields.emplace_back("r_a1", Value::Int64(1));
    fields.emplace_back("r_a2", Value::Float64(0.5));
    fields.emplace_back("r_a3", Value::String("g"));
    fields.emplace_back("r_a4", Value::Int64(1));
    ASSERT_TRUE(
        (*db)->InsertEntity("R", Value::Struct(std::move(fields))).ok());
  }
  // The cached plan now reads more rows than the threshold: the loop
  // declines it without counting anything, and the pool path serves it.
  uint64_t hits = Hits(), misses = Misses();
  EXPECT_FALSE(
      QueryEngine::TryExecuteShort(db->get(), read, serial, &cache, 1)
          .has_value());
  EXPECT_EQ(Hits(), hits);
  EXPECT_EQ(Misses(), misses);
  auto grown = QueryEngine::Execute(db->get(), read, serial, &cache, 1);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  EXPECT_EQ(grown->rows.size(), 60u + kGrowth);
  EXPECT_EQ(Hits(), hits + 1);
}

TEST(ShortPlanTest, TryExecuteInlineRunsOnlyCachedShortSelects) {
  api::StatementRunner::Options options;
  options.figure4 = true;
  options.figure4_num_r = 60;
  options.figure4_num_s = 30;
  auto created = api::StatementRunner::Create(std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  api::StatementRunner* runner = created->get();
  const std::string read = "SELECT r_id, r_a1 FROM R WHERE r_id = 5";
  auto recorded = [] {
    return obs::MetricsRegistry::Global().CounterValue("erql.queries");
  };

  // Declined, with nothing recorded: not a SELECT, a plan-cache miss, a
  // parse error.
  uint64_t queries = recorded(), hits = Hits(), misses = Misses();
  EXPECT_FALSE(runner->TryExecuteInline("SHOW SESSIONS").has_value());
  EXPECT_FALSE(runner->TryExecuteInline("EXPLAIN " + read).has_value());
  EXPECT_FALSE(runner->TryExecuteInline(
                        "INSERT R (r_id = 9001, r_a1 = 1, r_a2 = 0.5, "
                        "r_a3 = 'i', r_a4 = 1)")
                   .has_value());
  EXPECT_FALSE(runner->TryExecuteInline(read).has_value());
  EXPECT_FALSE(runner->TryExecuteInline("SELECT FROM WHERE").has_value());
  EXPECT_EQ(recorded(), queries);
  EXPECT_EQ(Hits(), hits);
  EXPECT_EQ(Misses(), misses);
  auto not_inserted = runner->Execute("SELECT r_id FROM R WHERE r_id = 9001");
  ASSERT_TRUE(not_inserted.ok());
  EXPECT_TRUE(not_inserted->result.rows.empty());

  // Cached by a full Execute, the read runs inline — rebound to its own
  // literal — and is recorded once.
  auto fresh = runner->Execute(read);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  queries = recorded();
  auto inlined = runner->TryExecuteInline(
      "SELECT r_id, r_a1 FROM R WHERE r_id = 6");
  ASSERT_TRUE(inlined.has_value());
  ASSERT_TRUE(inlined->ok()) << inlined->status().ToString();
  EXPECT_EQ(recorded(), queries + 1);
  auto expected = runner->Execute("SELECT r_id, r_a1 FROM R WHERE r_id = 6");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ((*inlined)->shape, api::OutputShape::kTable);
  EXPECT_EQ((*inlined)->result.ToCanonicalString(),
            expected->result.ToCanonicalString());
  EXPECT_EQ((*inlined)->result.columns, expected->result.columns);
}

/// Paces a REMAP storm against concurrent readers. glibc's rwlock
/// prefers readers: a REMAP waits for the exclusive statement lock until
/// no reader holds it, and four busy readers seldom all let go at once.
/// Under TSan a REMAP costs ~0.8 s of CPU, yet the first hammer below
/// spent 87 s in its 30 REMAPs, 62 s of them off-CPU waiting for the
/// lock. So readers hold off while a REMAP waits (BeforeRead), and each
/// REMAP first waits until the readers have run kReadsPerMapping
/// statements since the previous one (Remap): every mapping still serves
/// concurrent reads, and no REMAP waits on more than the reads in flight.
class RemapStorm {
 public:
  static constexpr uint64_t kReadsPerMapping = 32;

  explicit RemapStorm(int readers) : readers_(readers) {}

  void BeforeRead() const {
    while (remap_waiting_.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  void AfterRead() { reads_.fetch_add(1); }
  /// A reader that stops early (a wrong answer) must say so, or Remap
  /// would wait for reads that never come.
  void ReaderDone() { readers_done_.fetch_add(1); }

  Status Remap(api::StatementRunner* runner, const char* preset) {
    const uint64_t target = reads_at_last_remap_ + kReadsPerMapping;
    while (reads_.load() < target && readers_done_.load() < readers_) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    remap_waiting_.store(true);
    Status status = runner->RemapPreset(preset);
    remap_waiting_.store(false);
    reads_at_last_remap_ = reads_.load();
    return status;
  }

 private:
  const int readers_;
  std::atomic<bool> remap_waiting_{false};
  std::atomic<uint64_t> reads_{0};
  std::atomic<int> readers_done_{0};
  uint64_t reads_at_last_remap_ = 0;  // the REMAP thread's own
};

TEST(PlanCacheHammerTest, ConcurrentReadersSurviveRemapStorm) {
  api::StatementRunner::Options options;
  options.figure4 = true;
  options.figure4_num_r = 40;
  options.figure4_num_s = 20;
  auto created = api::StatementRunner::Create(std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  api::StatementRunner* runner = created->get();

  const std::string queries[] = {
      "SELECT r_id, r_a1 FROM R WHERE r_id < 15",
      "SELECT r_id FROM R WHERE r_id < 15",
      "SELECT s_id FROM S WHERE s_id < 9",
  };
  const size_t expected[] = {14, 14, 8};

  constexpr int kReaders = 4;
  RemapStorm storm(kReaders);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      // The cap bounds the test regardless.
      for (int i = 0; i < 200'000 && !stop.load(std::memory_order_relaxed);
           ++i) {
        storm.BeforeRead();
        size_t pick = static_cast<size_t>(t + i) % 3;
        auto outcome = runner->Execute(queries[pick]);
        if (!outcome.ok() ||
            outcome->result.rows.size() != expected[pick]) {
          failures.fetch_add(1);
          break;
        }
        storm.AfterRead();
      }
      storm.ReaderDone();
    });
  }
  for (int round = 0; round < 6; ++round) {
    for (const char* preset : {"m2", "m5", "m6", "m3", "m1"}) {
      ASSERT_TRUE(storm.Remap(runner, preset).ok());
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(PlanCacheHammerTest, ConcurrentBindingsSurviveRemapStorm) {
  // One shape, many literals: every reader binds its own key into a
  // checked-out plan while REMAPs keep invalidating the cache.
  api::StatementRunner::Options options;
  options.figure4 = true;
  options.figure4_num_r = 40;
  options.figure4_num_s = 20;
  auto created = api::StatementRunner::Create(std::move(options));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  api::StatementRunner* runner = created->get();
  auto statement = [](int64_t id) {
    return "SELECT r_id, r_a1, r_a3 FROM R WHERE r_id = " +
           std::to_string(id);
  };
  // ids -5..44: the out-of-range ones answer empty, the rest one row.
  const int64_t first_id = -5;
  std::vector<std::string> expected;
  for (int64_t id = first_id; id < 45; ++id) {
    auto outcome = runner->Execute(statement(id));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    expected.push_back(outcome->result.ToCanonicalString());
  }

  constexpr int kReaders = 4;
  RemapStorm storm(kReaders);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t state = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(t + 1);
      for (int i = 0; i < 200'000 && !stop.load(std::memory_order_relaxed);
           ++i) {
        storm.BeforeRead();
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        size_t pick = static_cast<size_t>(state >> 33) % expected.size();
        auto outcome = runner->Execute(
            statement(first_id + static_cast<int64_t>(pick)));
        if (!outcome.ok() ||
            outcome->result.ToCanonicalString() != expected[pick]) {
          failures.fetch_add(1);
          break;
        }
        storm.AfterRead();
      }
      storm.ReaderDone();
    });
  }
  for (int round = 0; round < 6; ++round) {
    for (const char* preset : {"m2", "m5", "m6", "m3", "m1"}) {
      ASSERT_TRUE(storm.Remap(runner, preset).ok());
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace erql
}  // namespace erbium
