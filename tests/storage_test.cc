// Unit tests for the storage substrate: schemas, tables, indexes,
// constraints, catalog.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "storage/catalog.h"
#include "storage/index.h"

namespace erbium {
namespace {

TableSchema PersonSchema() {
  return TableSchema("person",
                     {Column{"id", Type::Int64(), false},
                      Column{"name", Type::String(), true},
                      Column{"tags", Type::Array(Type::Int64()), true}},
                     {0});
}

TEST(TableSchemaTest, ColumnLookupAndValidation) {
  TableSchema schema = PersonSchema();
  EXPECT_EQ(schema.ColumnIndex("name"), 1);
  EXPECT_EQ(schema.ColumnIndex("nope"), -1);
  EXPECT_TRUE(schema
                  .ValidateRow({Value::Int64(1), Value::String("a"),
                                Value::Array({Value::Int64(2)})})
                  .ok());
  // Arity mismatch.
  EXPECT_FALSE(schema.ValidateRow({Value::Int64(1)}).ok());
  // Null in non-null column.
  EXPECT_EQ(schema
                .ValidateRow({Value::Null(), Value::Null(), Value::Null()})
                .code(),
            StatusCode::kConstraintViolation);
  // Type mismatch.
  EXPECT_FALSE(schema
                   .ValidateRow({Value::String("x"), Value::Null(),
                                 Value::Null()})
                   .ok());
  // Array element type mismatch.
  EXPECT_FALSE(schema
                   .ValidateRow({Value::Int64(1), Value::Null(),
                                 Value::Array({Value::String("x")})})
                   .ok());
}

TEST(ValidateValueTest, StructShape) {
  TypePtr t = Type::Struct({{"a", Type::Int64()}, {"b", Type::String()}});
  EXPECT_TRUE(ValidateValue(Value::Struct({{"a", Value::Int64(1)},
                                           {"b", Value::String("x")}}),
                            t, false)
                  .ok());
  // Wrong field order/name.
  EXPECT_FALSE(ValidateValue(Value::Struct({{"b", Value::String("x")},
                                            {"a", Value::Int64(1)}}),
                             t, false)
                   .ok());
  // Missing field.
  EXPECT_FALSE(
      ValidateValue(Value::Struct({{"a", Value::Int64(1)}}), t, false).ok());
}

TEST(TableTest, InsertUpdateDelete) {
  Table table(PersonSchema());
  ASSERT_TRUE(table.CreateIndex("pk", {"id"}, /*unique=*/true).ok());
  auto id1 = table.Insert({Value::Int64(1), Value::String("ann"),
                           Value::Array({})});
  ASSERT_TRUE(id1.ok());
  auto id2 = table.Insert({Value::Int64(2), Value::String("bob"),
                           Value::Array({})});
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(table.size(), 2u);

  // Duplicate key rejected.
  auto dup = table.Insert({Value::Int64(1), Value::Null(), Value::Null()});
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraintViolation);

  // Update changes data and index entries.
  ASSERT_TRUE(table
                  .Update(*id1, {Value::Int64(10), Value::String("ann"),
                                 Value::Array({})})
                  .ok());
  std::vector<RowId> hits;
  table.LookupEqual({0}, {Value::Int64(10)}, &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], *id1);
  hits.clear();
  table.LookupEqual({0}, {Value::Int64(1)}, &hits);
  EXPECT_TRUE(hits.empty());

  // Update to an existing key is rejected.
  Status st = table.Update(*id1, {Value::Int64(2), Value::Null(),
                                  Value::Null()});
  EXPECT_EQ(st.code(), StatusCode::kConstraintViolation);

  // Delete tombstones and cleans the index.
  ASSERT_TRUE(table.Delete(*id2).ok());
  EXPECT_EQ(table.size(), 1u);
  EXPECT_FALSE(table.IsLive(*id2));
  hits.clear();
  table.LookupEqual({0}, {Value::Int64(2)}, &hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(table.Delete(*id2).code(), StatusCode::kNotFound);
}

TEST(TableTest, NullsNotIndexedAndNotUnique) {
  Table table(TableSchema("t", {Column{"a", Type::Int64(), true}}, {}));
  ASSERT_TRUE(table.CreateIndex("a_idx", {"a"}, /*unique=*/true).ok());
  // Two null keys do not violate uniqueness (SQL semantics).
  ASSERT_TRUE(table.Insert({Value::Null()}).ok());
  ASSERT_TRUE(table.Insert({Value::Null()}).ok());
  // Lookup via index misses nulls; fallback scan path finds them.
  std::vector<RowId> hits;
  table.LookupEqual({0}, {Value::Null()}, &hits);
  EXPECT_TRUE(hits.empty());  // null != null through the index
}

TEST(TableTest, BackfillingIndexCreation) {
  Table table(PersonSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table
                    .Insert({Value::Int64(i), Value::String("p"),
                             Value::Array({})})
                    .ok());
  }
  ASSERT_TRUE(table.CreateIndex("pk", {"id"}, true).ok());
  std::vector<RowId> hits;
  table.LookupEqual({0}, {Value::Int64(7)}, &hits);
  EXPECT_EQ(hits.size(), 1u);
  // Backfilling a unique index over duplicate data fails.
  Table dup_table(TableSchema("d", {Column{"a", Type::Int64(), true}}, {}));
  ASSERT_TRUE(dup_table.Insert({Value::Int64(1)}).ok());
  ASSERT_TRUE(dup_table.Insert({Value::Int64(1)}).ok());
  EXPECT_FALSE(dup_table.CreateIndex("u", {"a"}, true).ok());
}

TEST(TableTest, UniqueKeyFlipWhilePinnedKeepsEntry) {
  Table table(TableSchema("t",
                          {Column{"k", Type::Int64(), false},
                           Column{"v", Type::Int64(), true}},
                          {0}));
  ASSERT_TRUE(table.CreateIndex("pk", {"k"}, /*unique=*/true).ok());
  auto id = table.Insert({Value::Int64(1), Value::Int64(0)});
  ASSERT_TRUE(id.ok());
  {
    // The pin defers both erasures, so (1, id) is posted twice until the
    // sweep drops one copy.
    std::shared_ptr<const TableVersion> pin = table.PinVersion();
    ASSERT_TRUE(table.Update(*id, {Value::Int64(2), Value::Int64(0)}).ok());
    ASSERT_TRUE(table.Update(*id, {Value::Int64(1), Value::Int64(0)}).ok());
  }
  // The next publication sweeps the deferred erasures.
  ASSERT_TRUE(table.Insert({Value::Int64(3), Value::Int64(0)}).ok());
  std::vector<RowId> hits;
  table.LookupEqual({0}, {Value::Int64(1)}, &hits);
  EXPECT_EQ(hits, std::vector<RowId>{*id});
  hits.clear();
  table.LookupEqualIn(*table.PinVersion(), {0}, {Value::Int64(1)}, &hits);
  EXPECT_EQ(hits, std::vector<RowId>{*id});
  hits.clear();
  table.LookupEqual({0}, {Value::Int64(2)}, &hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_EQ(table.Insert({Value::Int64(1), Value::Int64(9)}).status().code(),
            StatusCode::kConstraintViolation);
}

TEST(TableTest, ProbesMatchAcrossNumericKindsAndSignedZero) {
  Table table(TableSchema("t",
                          {Column{"i", Type::Int64(), false},
                           Column{"f", Type::Float64(), false}},
                          {}));
  ASSERT_TRUE(table.CreateIndex("i_idx", {"i"}, /*unique=*/true).ok());
  ASSERT_TRUE(table.CreateIndex("f_idx", {"f"}, /*unique=*/true).ok());
  auto id = table.Insert({Value::Int64(2), Value::Float64(0.0)});
  ASSERT_TRUE(id.ok());
  std::shared_ptr<const TableVersion> version = table.PinVersion();
  std::vector<RowId> hits;
  table.LookupEqualIn(*version, {0}, {Value::Float64(2.0)}, &hits);
  EXPECT_EQ(hits, std::vector<RowId>{*id});
  hits.clear();
  table.LookupEqualIn(*version, {1}, {Value::Float64(-0.0)}, &hits);
  EXPECT_EQ(hits, std::vector<RowId>{*id});
  // The same equality makes them duplicates under the unique indexes.
  EXPECT_EQ(table.Insert({Value::Int64(5), Value::Float64(-0.0)})
                .status()
                .code(),
            StatusCode::kConstraintViolation);
}

// KeyIndex against a std::multimap reference (ordered by Value::Compare,
// so Int64(2) and Float64(2.0) are one key there too). Random Add/Erase
// streams post duplicate (key, id) pairs and null-bearing keys; a drain
// phase deletes most keys so dead entries must be compacted away.
TEST(KeyIndexTest, MatchesMultimapReference) {
  using Reference = std::multimap<IndexKey, RowId>;
  for (uint32_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    KeyIndex index(2);
    Reference reference;
    size_t compactions_seen = 0;
    auto random_key = [&](int key_range) {
      int64_t a = static_cast<int64_t>(rng() % key_range);
      IndexKey key{rng() % 2 == 0 ? Value::Int64(a)
                                  : Value::Float64(static_cast<double>(a)),
                   Value::String("s" + std::to_string(rng() % 3))};
      if (rng() % 20 == 0) key[rng() % 2] = Value::Null();
      return key;
    };
    auto add = [&](const IndexKey& key, RowId id) {
      index.Add(key.data(), id);
      if (!key[0].is_null() && !key[1].is_null()) reference.emplace(key, id);
    };
    auto erase = [&](const IndexKey& key, RowId id) {
      index.Erase(key.data(), id);
      auto [begin, end] = reference.equal_range(key);
      for (auto it = begin; it != end; ++it) {
        if (it->second == id) {
          reference.erase(it);
          break;
        }
      }
    };
    auto verify = [&](const std::vector<IndexKey>& probes) {
      ASSERT_EQ(index.size(), reference.size());
      size_t live_keys = 0;
      for (auto it = reference.begin(); it != reference.end();
           it = reference.upper_bound(it->first)) {
        ++live_keys;
        std::vector<RowId> got;
        index.Lookup(it->first.data(), &got);
        std::vector<RowId> want;
        auto [begin, end] = reference.equal_range(it->first);
        for (auto r = begin; r != end; ++r) want.push_back(r->second);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        ASSERT_EQ(got, want) << it->first[0].ToString();
        ASSERT_NE(index.First(it->first.data()), KeyIndex::kNoRow);
      }
      for (const IndexKey& key : probes) {
        std::vector<RowId> got;
        index.Lookup(key.data(), &got);
        ASSERT_EQ(got.size(), reference.count(key));
      }
      ASSERT_LE(index.entry_count(), 2 * live_keys + 8);
    };
    // Three phases: fill, drain to a few keys (forcing compaction), refill.
    for (int phase = 0; phase < 3; ++phase) {
      const int key_range = phase == 1 ? 400 : 200;
      std::vector<IndexKey> probes;
      for (int step = 0; step < 3000; ++step) {
        const size_t entries_before = index.entry_count();
        bool do_add = phase == 1 ? rng() % 10 == 0 : rng() % 4 != 0;
        if (do_add || reference.empty()) {
          if (!reference.empty() && rng() % 8 == 0) {
            auto it = std::next(reference.begin(),
                                rng() % reference.size());
            add(IndexKey(it->first), it->second);  // duplicate posting
          } else {
            add(random_key(key_range), rng() % 64);
          }
        } else if (rng() % 10 == 0) {
          erase(random_key(key_range), rng() % 64);  // often absent
        } else {
          auto it = std::next(reference.begin(), rng() % reference.size());
          IndexKey key = it->first;
          // Probe the erase through an equal key of the other numeric kind.
          if (key[0].kind() == TypeKind::kInt64) {
            key[0] = Value::Float64(static_cast<double>(key[0].as_int64()));
          }
          erase(key, it->second);
        }
        if (probes.size() < 64) probes.push_back(random_key(key_range));
        if (index.entry_count() < entries_before) ++compactions_seen;
        if (step % 500 == 499) {
          ASSERT_NO_FATAL_FAILURE(verify(probes));
        }
      }
      ASSERT_NO_FATAL_FAILURE(verify(probes));
    }
    EXPECT_GT(compactions_seen, 0u);
    Value null_key[2] = {Value::Null(), Value::String("s0")};
    std::vector<RowId> got;
    index.Lookup(null_key, &got);
    EXPECT_TRUE(got.empty());
  }
}

// Readers probe pinned versions while the writer churns a unique index
// (updates and deletes whose swept erasures compact it). Every hit must
// be a row of the pinned version carrying the probed key, and a unique
// key has at most one. Run under -DERBIUM_SANITIZE=thread as well.
TEST(TableTest, ConcurrentProbesDuringIndexChurn) {
  Table table(TableSchema("t",
                          {Column{"k", Type::Int64(), false},
                           Column{"v", Type::Int64(), true}},
                          {0}));
  ASSERT_TRUE(table.CreateIndex("pk", {"k"}, /*unique=*/true).ok());
  constexpr int kKeys = 64;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937 rng(100 + r);
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const TableVersion> version = table.PinVersion();
        const int64_t k = static_cast<int64_t>(rng() % kKeys);
        std::vector<RowId> hits;
        table.LookupEqualIn(*version, {0}, {Value::Int64(k)}, &hits);
        if (hits.size() > 1) failures.fetch_add(1);
        for (RowId id : hits) {
          const Row* row = version->row(id);
          if (row == nullptr || (*row)[0] != Value::Int64(k)) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  // The writer stops at its first failure rather than asserting, so the
  // readers are always joined.
  std::mt19937 rng(7);
  std::map<int64_t, RowId> live;
  Status writer_status;
  for (int step = 0; step < 4000 && writer_status.ok(); ++step) {
    const int64_t k = static_cast<int64_t>(rng() % kKeys);
    auto it = live.find(k);
    if (it == live.end()) {
      auto id = table.Insert({Value::Int64(k), Value::Int64(step)});
      writer_status = id.status();
      if (id.ok()) live[k] = *id;
    } else if (rng() % 2 == 0) {
      writer_status = table.Delete(it->second);
      live.erase(it);
    } else {
      const int64_t to = static_cast<int64_t>(rng() % kKeys);
      if (live.count(to) > 0) continue;
      writer_status =
          table.Update(it->second, {Value::Int64(to), Value::Int64(step)});
      live[to] = it->second;
      live.erase(it);
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  ASSERT_TRUE(writer_status.ok()) << writer_status.ToString();
  EXPECT_EQ(failures.load(), 0);
  for (const auto& [k, id] : live) {
    std::vector<RowId> hits;
    table.LookupEqual({0}, {Value::Int64(k)}, &hits);
    EXPECT_EQ(hits, std::vector<RowId>{id});
  }
}

TEST(CatalogTest, CreateDropLookup) {
  Catalog catalog;
  auto t1 = catalog.CreateTable(PersonSchema());
  ASSERT_TRUE(t1.ok());
  EXPECT_EQ((*t1)->name(), "person");
  EXPECT_TRUE(catalog.HasTable("person"));
  EXPECT_EQ(catalog.GetTable("person"), *t1);
  EXPECT_EQ(catalog.CreateTable(PersonSchema()).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(catalog.DropTable("person").ok());
  EXPECT_FALSE(catalog.HasTable("person"));
  EXPECT_EQ(catalog.DropTable("person").code(), StatusCode::kNotFound);
}

TEST(TableTest, ApproximateBytesGrowWithData) {
  Table table(PersonSchema());
  size_t empty = table.ApproximateDataBytes();
  ASSERT_TRUE(table
                  .Insert({Value::Int64(1), Value::String("somebody"),
                           Value::Array({Value::Int64(1), Value::Int64(2)})})
                  .ok());
  EXPECT_GT(table.ApproximateDataBytes(), empty);
}

}  // namespace
}  // namespace erbium
