// Durability subsystem tests: WAL record round-trips, CRC behavior,
// snapshot encode/decode, recovery-on-open, checkpoint compaction, DDL
// and remap replay, the CHECKPOINT/ATTACH statement wiring, and the
// durability metrics.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "durability/durable_db.h"
#include "durability/serde.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "durability_testlib.h"
#include "erql/query_engine.h"
#include "obs/metrics.h"
#include "workload/figure4.h"

namespace erbium {
namespace {

using durability::DurableDatabase;
using durability::SnapshotData;
using durability::WalRecord;
using durability_test::FaultScript;
using durability_test::LogicalDigest;
using durability_test::MakeStruct;
using durability_test::Op;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/erbium_durability_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

DurableDatabase::Options Figure4Options(
    MappingSpec spec = Figure4M1(),
    durability::FaultInjector* faults = nullptr) {
  DurableDatabase::Options options;
  options.spec = std::move(spec);
  options.initial_ddl = Figure4Ddl();
  options.faults = faults;
  return options;
}

std::string MustDigest(MappedDatabase* db) {
  auto digest = LogicalDigest(db);
  EXPECT_TRUE(digest.ok()) << digest.status().ToString();
  return digest.ok() ? *digest : "";
}

TEST(Crc32Test, KnownVector) {
  // The classic CRC-32 check value.
  EXPECT_EQ(durability::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(durability::Crc32("", 0), 0u);
}

/// Reference CRC-32: one byte at a time, one bit at a time, no tables.
uint32_t BytewiseCrc32(const unsigned char* p, size_t size, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return ~crc;
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  std::mt19937 rng(20261020);
  std::vector<unsigned char> buf(1024 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng());
  size_t mismatches = 0;
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const unsigned char* p = buf.data() + offset;
      if (durability::Crc32(p, len) != BytewiseCrc32(p, len, 0)) ++mismatches;
      // Chained: any seed, and a split anywhere continues the same CRC.
      uint32_t seed = static_cast<uint32_t>(rng());
      if (durability::Crc32(p, len, seed) != BytewiseCrc32(p, len, seed)) {
        ++mismatches;
      }
      size_t split = len == 0 ? 0 : rng() % (len + 1);
      uint32_t chained =
          durability::Crc32(p + split, len - split, durability::Crc32(p, split));
      if (chained != BytewiseCrc32(p, len, 0)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(SerdeTest, ValueRoundTrip) {
  Value nested = MakeStruct(
      {{"i", Value::Int64(-42)},
       {"f", Value::Float64(2.5)},
       {"s", Value::String("hello")},
       {"b", Value::Bool(true)},
       {"n", Value::Null()},
       {"a", Value::Array({Value::Int64(1), Value::String("two")})},
       {"nested", MakeStruct({{"x", Value::Int64(7)}})}});
  std::string bytes;
  durability::PutValue(nested, &bytes);
  durability::ByteReader reader(bytes.data(), bytes.size());
  auto back = reader.ReadValue();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ToString(), nested.ToString());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SerdeTest, TruncatedInputFailsCleanly) {
  std::string bytes;
  durability::PutValue(Value::String("some longer string"), &bytes);
  for (size_t len = 0; len < bytes.size(); ++len) {
    durability::ByteReader reader(bytes.data(), len);
    auto result = reader.ReadValue();
    EXPECT_FALSE(result.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  }
}

TEST(SerdeTest, CorruptCountDoesNotOverallocate) {
  // An array claiming 2^32-1 elements but holding no bytes must fail
  // instead of reserving gigabytes.
  std::string bytes;
  durability::PutU8(5, &bytes);           // kTagArray
  durability::PutU32(0xFFFFFFFFu, &bytes);  // absurd element count
  durability::ByteReader reader(bytes.data(), bytes.size());
  auto result = reader.ReadValue();
  ASSERT_FALSE(result.ok());
}

TEST(SerdeTest, DeepNestingFailsCleanly) {
  // [kTagArray][count=1] repeated L times around a null: L levels of
  // nesting. One level under the cap decodes; at the cap it must fail
  // with IOError instead of recursing off the stack.
  auto nested_array_bytes = [](int levels) {
    std::string bytes;
    for (int i = 0; i < levels; ++i) {
      durability::PutU8(5, &bytes);  // kTagArray
      durability::PutU32(1, &bytes);
    }
    durability::PutU8(0, &bytes);  // kTagNull
    return bytes;
  };
  {
    std::string ok_bytes = nested_array_bytes(durability::kMaxValueDepth - 1);
    durability::ByteReader reader(ok_bytes.data(), ok_bytes.size());
    EXPECT_TRUE(reader.ReadValue().ok());
  }
  {
    std::string bad_bytes = nested_array_bytes(durability::kMaxValueDepth);
    durability::ByteReader reader(bad_bytes.data(), bad_bytes.size());
    auto result = reader.ReadValue();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  }
}

TEST(WalTest, AppendReadRoundTrip) {
  std::string dir = FreshDir("wal_roundtrip");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal.erblog";
  {
    auto writer = durability::WalWriter::Open(
        path, 0, 1, durability::WalWriter::SyncMode::kNone, nullptr);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    WalRecord insert;
    insert.type = WalRecord::Type::kInsertEntity;
    insert.name = "R";
    insert.value = MakeStruct({{"r_id", Value::Int64(1)}});
    ASSERT_TRUE((*writer)->Append(insert).ok());
    WalRecord update;
    update.type = WalRecord::Type::kUpdateAttribute;
    update.name = "R";
    update.key = {Value::Int64(1)};
    update.attr = "r_a1";
    update.value = Value::Int64(9);
    ASSERT_TRUE((*writer)->Append(update).ok());
    WalRecord ddl;
    ddl.type = WalRecord::Type::kDdl;
    ddl.name = "CREATE ENTITY T ( t_id INT KEY );";
    ASSERT_TRUE((*writer)->Append(ddl).ok());
    EXPECT_EQ((*writer)->next_lsn(), 4u);
  }
  auto read = durability::ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->clean);
  ASSERT_EQ(read->records.size(), 3u);
  EXPECT_EQ(read->records[0].type, WalRecord::Type::kInsertEntity);
  EXPECT_EQ(read->records[0].lsn, 1u);
  EXPECT_EQ(read->records[1].type, WalRecord::Type::kUpdateAttribute);
  EXPECT_EQ(read->records[1].attr, "r_a1");
  EXPECT_EQ(read->records[1].key.size(), 1u);
  EXPECT_EQ(read->records[2].name, "CREATE ENTITY T ( t_id INT KEY );");
}

TEST(WalTest, MissingFileIsEmptyCleanLog) {
  auto read = durability::ReadWal(FreshDir("wal_missing") + "/nope.erblog");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->clean);
  EXPECT_TRUE(read->records.empty());
  EXPECT_EQ(read->valid_bytes, 0u);
}

TEST(WalTest, GarbageTailStopsCleanly) {
  std::string dir = FreshDir("wal_garbage");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal.erblog";
  WalRecord record;
  record.type = WalRecord::Type::kDeleteEntity;
  record.lsn = 1;
  record.name = "R";
  record.key = {Value::Int64(5)};
  std::string bytes = durability::EncodeWalRecord(record);
  {
    std::ofstream out(path, std::ios::binary);
    out << bytes << "garbage-not-a-record";
  }
  auto read = durability::ReadWal(path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->clean);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->valid_bytes, bytes.size());
  EXPECT_FALSE(read->stop_reason.empty());
}

TEST(WalTest, OversizedRecordRejectedBeforeAnythingIsWritten) {
  std::string dir = FreshDir("wal_oversized");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal.erblog";
  {
    auto writer = durability::WalWriter::Open(
        path, 0, 1, durability::WalWriter::SyncMode::kNone, nullptr);
    ASSERT_TRUE(writer.ok());
    WalRecord small;
    small.type = WalRecord::Type::kDdl;
    small.name = "CREATE ENTITY T ( t_id INT KEY );";
    ASSERT_TRUE((*writer)->Append(small).ok());
    // A payload past the reader's cap must be rejected up front: if it
    // were acknowledged, recovery would treat it as a torn tail and drop
    // it plus everything after it.
    WalRecord huge;
    huge.type = WalRecord::Type::kUpdateAttribute;
    huge.name = "R";
    huge.key = {Value::Int64(1)};
    huge.attr = "r_a1";
    huge.value = Value::String(std::string(durability::kMaxWalRecordBytes, 'x'));
    uint64_t bytes_before = (*writer)->bytes();
    auto status = (*writer)->Append(huge);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ((*writer)->bytes(), bytes_before);
    // The writer is still healthy and LSNs stay consecutive.
    ASSERT_TRUE((*writer)->Append(small).ok());
    EXPECT_EQ((*writer)->next_lsn(), 3u);
  }
  auto read = durability::ReadWal(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->clean);
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[0].lsn, 1u);
  EXPECT_EQ(read->records[1].lsn, 2u);
}

TEST(WalTest, FailedAppendLeavesNoTornBytes) {
  std::string dir = FreshDir("wal_ioerror");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal.erblog";
  durability::FaultInjector faults;
  {
    auto writer = durability::WalWriter::Open(
        path, 0, 1, durability::WalWriter::SyncMode::kNone, &faults);
    ASSERT_TRUE(writer.ok());
    WalRecord record;
    record.type = WalRecord::Type::kDeleteEntity;
    record.name = "R";
    record.key = {Value::Int64(5)};
    ASSERT_TRUE((*writer)->Append(record).ok());
    // Mid-write IO error: 5 torn bytes reach the file, then the write
    // fails. Append must roll the file back so the next acknowledged
    // record does not land behind garbage the reader stops at.
    faults.ArmError("wal.append.error", 1, 5);
    uint64_t bytes_before = (*writer)->bytes();
    auto status = (*writer)->Append(record);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ((*writer)->bytes(), bytes_before);
    ASSERT_TRUE((*writer)->Append(record).ok());
    EXPECT_EQ((*writer)->next_lsn(), 3u);
  }
  auto read = durability::ReadWal(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->clean) << read->stop_reason;
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[0].lsn, 1u);
  EXPECT_EQ(read->records[1].lsn, 2u);
}

TEST(SnapshotTest, OverflowGenerationFilenameSkipped) {
  std::string dir = FreshDir("snapshot_overflow_gen");
  std::filesystem::create_directories(dir);
  // All digits but far past uint64_t: must be skipped, not abort Open
  // with an uncaught std::out_of_range.
  std::ofstream(dir + "/snapshot-99999999999999999999999.erbsnap") << "x";
  std::ofstream(dir + "/snapshot-7.erbsnap") << "x";
  EXPECT_EQ(durability::ListSnapshotGens(dir), (std::vector<uint64_t>{7}));
}

TEST(SnapshotTest, EncodeDecodeRoundTrip) {
  SnapshotData data;
  data.last_lsn = 17;
  data.ddl = "CREATE ENTITY R ( r_id INT KEY );";
  data.spec_json = Figure4M1().ToJson();
  SnapshotData::TableImage table;
  table.name = "R";
  table.rows = {{Value::Int64(1), Value::String("a")},
                {Value::Int64(2), Value::Null()}};
  data.tables.push_back(table);
  SnapshotData::PairImage pair;
  pair.name = "R2S1_pair";
  pair.left_rows = {{Value::Int64(1)}};
  pair.right_rows = {{Value::Int64(9)}, {Value::Int64(10)}};
  pair.edges = {{0, 1}};
  data.pairs.push_back(pair);
  std::string bytes = durability::EncodeSnapshot(data);
  auto back = durability::DecodeSnapshot(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->last_lsn, 17u);
  EXPECT_EQ(back->ddl, data.ddl);
  EXPECT_EQ(back->spec_json, data.spec_json);
  ASSERT_EQ(back->tables.size(), 1u);
  EXPECT_EQ(back->tables[0].rows.size(), 2u);
  ASSERT_EQ(back->pairs.size(), 1u);
  EXPECT_EQ(back->pairs[0].edges.size(), 1u);

  // Any single bit flip must be rejected whole.
  std::string corrupt = bytes;
  corrupt[bytes.size() / 2] ^= 0x01;
  EXPECT_FALSE(durability::DecodeSnapshot(corrupt).ok());
}

// ---- Golden bytes: the WAL record and snapshot formats are pinned --------

std::string ToHex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex += kDigits[c >> 4];
    hex += kDigits[c & 15];
  }
  return hex;
}

TEST(GoldenBytesTest, WalRecordBytesArePinned) {
  WalRecord record;
  record.type = WalRecord::Type::kInsertRelationship;
  record.lsn = 42;
  record.name = "RS";
  record.key = {Value::Int64(1)};
  record.right_key = {Value::String("s1")};
  record.value = MakeStruct({{"w", Value::Float64(0.5)}});
  const std::string bytes = durability::EncodeWalRecord(record);
  EXPECT_EQ(ToHex(bytes),
            "3a00000087a1b6ea042a00000000000000020000005253010000000201000000"
            "0000000001000000040200000073310601000000010000007703000000000000"
            "e03f");

  std::string dir = FreshDir("golden_wal");
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/wal.erblog", std::ios::binary) << bytes;
  auto read = durability::ReadWal(dir + "/wal.erblog");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->clean);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_EQ(read->records[0].lsn, 42u);
  EXPECT_EQ(read->records[0].value.ToString(), record.value.ToString());
}

TEST(GoldenBytesTest, SnapshotBytesArePinned) {
  SnapshotData data;
  data.last_lsn = 17;
  data.ddl = "CREATE ENTITY R ( r_id INT KEY );";
  data.spec_json = "{}";
  SnapshotData::TableImage table;
  table.name = "R";
  table.rows = {{Value::Int64(1), Value::String("a")},
                {Value::Int64(2), Value::Null()}};
  data.tables.push_back(table);
  SnapshotData::PairImage pair;
  pair.name = "P";
  pair.left_rows = {{Value::Int64(1)}};
  pair.right_rows = {{Value::Int64(9)}};
  pair.edges = {{0, 0}};
  data.pairs.push_back(pair);
  const std::string bytes = durability::EncodeSnapshot(data);
  EXPECT_EQ(ToHex(bytes),
            "455242534e503031b0000000351d3e0911000000000000002100000043524541"
            "544520454e544954592052202820725f696420494e54204b455920293b020000"
            "007b7d0100000001000000520200000000000000020000000201000000000000"
            "0004010000006102000000020200000000000000000100000001000000500100"
            "0000000000000100000002010000000000000001000000000000000100000002"
            "0900000000000000010000000000000000000000000000000000000000000000");

  std::string dir = FreshDir("golden_snapshot");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/snapshot-1.erbsnap";
  std::ofstream(path, std::ios::binary) << bytes;
  auto back = durability::LoadSnapshotFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ddl, data.ddl);
  ASSERT_EQ(back->tables.size(), 1u);
  EXPECT_EQ(back->tables[0].rows[1][1].is_null(), true);
  ASSERT_EQ(back->pairs.size(), 1u);
  EXPECT_EQ(back->pairs[0].right_rows[0][0].as_int64(), 9);
}

TEST(DurableDatabaseTest, InsertSurvivesReopen) {
  std::string dir = FreshDir("reopen");
  std::string digest;
  {
    auto db = DurableDatabase::Open(dir, Figure4Options());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_FALSE((*db)->recovery_info().had_snapshot);
    for (const Op& op : FaultScript()) {
      ASSERT_TRUE(op.apply((*db)->db()).ok()) << op.description;
    }
    EXPECT_GT((*db)->wal_bytes(), 0u);
    digest = MustDigest((*db)->db());
  }
  auto reopened = DurableDatabase::Open(dir, Figure4Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery_info().records_replayed,
            FaultScript().size());
  EXPECT_TRUE((*reopened)->recovery_info().wal_clean);
  EXPECT_EQ(MustDigest((*reopened)->db()), digest);
}

TEST(DurableDatabaseTest, FailedDirectorySyncFailsOpenOfANewDatabase) {
  // A brand-new database syncs two directory entries before it can
  // acknowledge a write: the database directory's (1st sync) and the new
  // WAL file's (2nd). Either failing must fail Open, so no write is ever
  // acknowledged into a log that power loss could drop.
  for (int countdown : {1, 2}) {
    SCOPED_TRACE("failing directory sync #" + std::to_string(countdown));
    std::string dir = FreshDir("dirsync" + std::to_string(countdown));
    durability::FaultInjector faults;
    faults.ArmError("dir.sync.error", countdown);
    auto db = DurableDatabase::Open(dir, Figure4Options(Figure4M1(), &faults));
    ASSERT_FALSE(db.ok());
    EXPECT_EQ(db.status().code(), StatusCode::kIOError);
    EXPECT_NE(db.status().ToString().find("fsync of directory"),
              std::string::npos)
        << db.status().ToString();
  }
}

TEST(DurableDatabaseTest, ReopeningAnExistingDatabaseSyncsNoDirectory) {
  std::string dir = FreshDir("dirsync_reopen");
  {
    auto db = DurableDatabase::Open(dir, Figure4Options());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(FaultScript().front().apply((*db)->db()).ok());
  }
  durability::FaultInjector faults;
  faults.ArmError("dir.sync.error");
  auto reopened =
      DurableDatabase::Open(dir, Figure4Options(Figure4M1(), &faults));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery_info().records_replayed, 1u);
  ASSERT_TRUE(FaultScript()[1].apply((*reopened)->db()).ok());
  // The armed failure never fired: nothing on the reopen path synced.
  EXPECT_TRUE(faults.ShouldFail("dir.sync.error"));
}

TEST(DurableDatabaseTest, CheckpointTruncatesAndCompacts) {
  std::string dir = FreshDir("checkpoint");
  std::string digest;
  {
    auto db = DurableDatabase::Open(dir, Figure4Options());
    ASSERT_TRUE(db.ok());
    for (const Op& op : FaultScript()) {
      ASSERT_TRUE(op.apply((*db)->db()).ok()) << op.description;
    }
    digest = MustDigest((*db)->db());
    auto summary = (*db)->Checkpoint();
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    EXPECT_NE(summary->find("gen=1"), std::string::npos) << *summary;
    EXPECT_EQ((*db)->wal_bytes(), 0u);
    // State unchanged by checkpointing.
    EXPECT_EQ(MustDigest((*db)->db()), digest);
    // Still writable afterwards.
    ASSERT_TRUE((*db)
                    ->db()
                    ->InsertEntity("S", MakeStruct({{"s_id", Value::Int64(50)},
                                                    {"s_a1", Value::Int64(5)},
                                                    {"s_a2", Value::String(
                                                                 "post")}}))
                    .ok());
    digest = MustDigest((*db)->db());
  }
  auto reopened = DurableDatabase::Open(dir, Figure4Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& info = (*reopened)->recovery_info();
  EXPECT_TRUE(info.had_snapshot);
  EXPECT_EQ(info.snapshot_gen, 1u);
  // Only the post-checkpoint insert replays from the log.
  EXPECT_EQ(info.records_replayed, 1u);
  EXPECT_EQ(MustDigest((*reopened)->db()), digest);

  // The deleted entity/relationship tombstones were compacted away: the
  // snapshot stores live rows only.
  auto snapshot = durability::LoadSnapshotFile(
      durability::SnapshotPath(dir, 1));
  ASSERT_TRUE(snapshot.ok());
  for (const auto& table : snapshot->tables) {
    if (table.name == "R") {
      // R 1 (updated), R2 2, R1 5, R3 4 segments — R 9 was deleted.
      EXPECT_EQ(table.rows.size(), 4u);
    }
  }
}

TEST(DurableDatabaseTest, SecondCheckpointSupersedesFirst) {
  std::string dir = FreshDir("checkpoint_gens");
  auto db = DurableDatabase::Open(dir, Figure4Options());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)
                  ->db()
                  ->InsertEntity("S", MakeStruct({{"s_id", Value::Int64(1)},
                                                  {"s_a1", Value::Int64(1)},
                                                  {"s_a2", Value::String("a")}}))
                  .ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());
  ASSERT_TRUE((*db)
                  ->db()
                  ->InsertEntity("S", MakeStruct({{"s_id", Value::Int64(2)},
                                                  {"s_a1", Value::Int64(2)},
                                                  {"s_a2", Value::String("b")}}))
                  .ok());
  auto summary = (*db)->Checkpoint();
  ASSERT_TRUE(summary.ok());
  EXPECT_NE(summary->find("gen=2"), std::string::npos);
  // Older generations are garbage-collected.
  EXPECT_EQ(durability::ListSnapshotGens(dir),
            (std::vector<uint64_t>{2}));
}

TEST(DurableDatabaseTest, DdlReplaysOnReopen) {
  std::string dir = FreshDir("ddl_replay");
  std::string digest;
  {
    auto db = DurableDatabase::Open(dir, Figure4Options());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)
                    ->db()
                    ->InsertEntity("S", MakeStruct({{"s_id", Value::Int64(1)},
                                                    {"s_a1", Value::Int64(1)},
                                                    {"s_a2", Value::String(
                                                                 "pre")}}))
                    .ok());
    ASSERT_TRUE(
        (*db)->ExecuteDdl("CREATE ENTITY T ( t_id INT KEY, t_a1 STRING );")
            .ok());
    ASSERT_TRUE((*db)
                    ->db()
                    ->InsertEntity("T", MakeStruct({{"t_id", Value::Int64(7)},
                                                    {"t_a1", Value::String(
                                                                 "new")}}))
                    .ok());
    digest = MustDigest((*db)->db());
  }
  auto reopened = DurableDatabase::Open(dir, Figure4Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_NE((*reopened)->schema().FindEntitySet("T"), nullptr);
  EXPECT_EQ(MustDigest((*reopened)->db()), digest);
}

TEST(DurableDatabaseTest, DdlSurvivesCheckpoint) {
  std::string dir = FreshDir("ddl_checkpoint");
  std::string digest;
  {
    auto db = DurableDatabase::Open(dir, Figure4Options());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(
        (*db)->ExecuteDdl("CREATE ENTITY T ( t_id INT KEY, t_a1 STRING );")
            .ok());
    ASSERT_TRUE((*db)
                    ->db()
                    ->InsertEntity("T", MakeStruct({{"t_id", Value::Int64(7)},
                                                    {"t_a1", Value::String(
                                                                 "x")}}))
                    .ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    digest = MustDigest((*db)->db());
  }
  // After the checkpoint the WAL is empty; the schema must come back
  // from the snapshot's accumulated DDL.
  auto reopened = DurableDatabase::Open(dir, Figure4Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->recovery_info().records_replayed, 0u);
  EXPECT_NE((*reopened)->schema().FindEntitySet("T"), nullptr);
  EXPECT_EQ(MustDigest((*reopened)->db()), digest);
}

TEST(DurableDatabaseTest, RemapReplaysOnReopen) {
  std::string dir = FreshDir("remap_replay");
  std::string digest;
  {
    auto db = DurableDatabase::Open(dir, Figure4Options());
    ASSERT_TRUE(db.ok());
    for (const Op& op : FaultScript()) {
      ASSERT_TRUE(op.apply((*db)->db()).ok()) << op.description;
    }
    ASSERT_TRUE((*db)->Remap(Figure4M5()).ok());
    EXPECT_EQ((*db)->spec().name, "M5");
    digest = MustDigest((*db)->db());
  }
  // Reopen still passes the M1 options; the logged remap must win.
  auto reopened = DurableDatabase::Open(dir, Figure4Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->spec().name, "M5");
  EXPECT_EQ(MustDigest((*reopened)->db()), digest);
}

TEST(DurableDatabaseTest, WalMetricsAdvance) {
  uint64_t appends_before =
      obs::MetricsRegistry::Global().CounterValue("wal.appends");
  uint64_t bytes_before =
      obs::MetricsRegistry::Global().CounterValue("wal.bytes");
  std::string dir = FreshDir("metrics");
  auto db = DurableDatabase::Open(dir, Figure4Options());
  ASSERT_TRUE(db.ok());
  for (const Op& op : FaultScript()) {
    ASSERT_TRUE(op.apply((*db)->db()).ok());
  }
  EXPECT_EQ(obs::MetricsRegistry::Global().CounterValue("wal.appends"),
            appends_before + FaultScript().size());
  EXPECT_GT(obs::MetricsRegistry::Global().CounterValue("wal.bytes"),
            bytes_before);
  ASSERT_TRUE((*db)->Checkpoint().ok());
  EXPECT_GE(obs::MetricsRegistry::Global().CounterValue("checkpoint.count"),
            1u);
}

TEST(StatementTest, CheckpointStatementRunsThroughEngine) {
  std::string dir = FreshDir("stmt_checkpoint");
  auto db = DurableDatabase::Open(dir, Figure4Options());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)
                  ->db()
                  ->InsertEntity("S", MakeStruct({{"s_id", Value::Int64(1)},
                                                  {"s_a1", Value::Int64(1)},
                                                  {"s_a2", Value::String("a")}}))
                  .ok());
  auto result = erql::QueryEngine::Execute((*db)->db(), "CHECKPOINT");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_NE(result->rows[0][0].as_string().find("gen=1"), std::string::npos);
  EXPECT_EQ((*db)->wal_bytes(), 0u);
}

TEST(StatementTest, CheckpointWithoutDurableDatabaseFails) {
  auto schema = std::make_shared<ERSchema>();
  auto made = MakeFigure4Schema();
  ASSERT_TRUE(made.ok());
  *schema = std::move(made).value();
  auto db = MappedDatabase::Create(schema.get(), Figure4M1());
  ASSERT_TRUE(db.ok());
  auto result = erql::QueryEngine::Execute(db->get(), "CHECKPOINT");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatementTest, AttachIsRejectedByEngine) {
  auto schema = std::make_shared<ERSchema>();
  auto made = MakeFigure4Schema();
  ASSERT_TRUE(made.ok());
  *schema = std::move(made).value();
  auto db = MappedDatabase::Create(schema.get(), Figure4M1());
  ASSERT_TRUE(db.ok());
  auto result =
      erql::QueryEngine::Execute(db->get(), "ATTACH DATABASE '/tmp/x'");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DurableDatabaseTest, TornTailDiscardedOnReopen) {
  std::string dir = FreshDir("torn_tail");
  std::string digest;
  {
    auto db = DurableDatabase::Open(dir, Figure4Options());
    ASSERT_TRUE(db.ok());
    for (const Op& op : FaultScript()) {
      ASSERT_TRUE(op.apply((*db)->db()).ok());
    }
    digest = MustDigest((*db)->db());
  }
  // Simulate a crash mid-append: garbage after the valid prefix.
  {
    std::ofstream out(dir + "/wal.erblog",
                      std::ios::binary | std::ios::app);
    out << "\x13\x00\x00\x00partial";
  }
  auto reopened = DurableDatabase::Open(dir, Figure4Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE((*reopened)->recovery_info().wal_clean);
  EXPECT_EQ((*reopened)->recovery_info().records_replayed,
            FaultScript().size());
  EXPECT_EQ(MustDigest((*reopened)->db()), digest);
  // The torn tail was chopped: appending and reopening again is clean.
  ASSERT_TRUE((*reopened)
                  ->db()
                  ->InsertEntity("S", MakeStruct({{"s_id", Value::Int64(60)},
                                                  {"s_a1", Value::Int64(6)},
                                                  {"s_a2", Value::String("t")}}))
                  .ok());
}

// ---- Group commit -------------------------------------------------------------
//
// Both cases park appender A inside its group fdatasync (the wal.sync
// gate) and then run appender B against the same lock domain (R), so
// each step of the early-lock-release protocol is observable.

/// Polls `done` for up to ten seconds.
bool Eventually(const std::function<bool()>& done) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

Value RRow(int64_t id) { return MakeStruct({{"r_id", Value::Int64(id)}}); }

bool Acknowledged(const std::future<Status>& op) {
  return op.wait_for(std::chrono::milliseconds(50)) ==
         std::future_status::ready;
}

DurableDatabase::Options FsyncOptions(durability::FaultInjector* faults) {
  DurableDatabase::Options options = Figure4Options(Figure4M1(), faults);
  options.sync = durability::WalWriter::SyncMode::kFsync;
  return options;
}

TEST(GroupCommitTest, WaiterReleasesTheDomainAndAcksOnlyWhenSynced) {
  std::string dir = FreshDir("group_commit");
  durability::FaultInjector faults;
  auto db = DurableDatabase::Open(dir, FsyncOptions(&faults));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  MappedDatabase* live = (*db)->db();
  const uint64_t first_lsn = (*db)->next_lsn();
  obs::Counter syncs = obs::MetricsRegistry::Global().counter("wal.syncs");
  const uint64_t syncs_before = syncs.Value();

  faults.ArmGate("wal.sync");
  std::future<Status> a = std::async(std::launch::async, [&] {
    return live->InsertEntity("R", RRow(900001));
  });
  // A's record is written and its sync is parked at the gate.
  bool a_parked = faults.WaitUntilBlocked();
  if (!a_parked) faults.ReleaseGate();
  ASSERT_TRUE(a_parked);

  std::future<Status> b = std::async(std::launch::async, [&] {
    return live->InsertEntity("R", RRow(900002));
  });
  // B applies and writes its record while A's sync is still in flight:
  // A holds neither R's lock domain nor the WAL mutex while it syncs.
  bool b_written =
      Eventually([&] { return (*db)->next_lsn() == first_lsn + 2; });
  if (!b_written) faults.ReleaseGate();  // unblock A and B, then fail
  ASSERT_TRUE(b_written);
  auto visible = live->EntityExists("R", {Value::Int64(900002)});
  EXPECT_TRUE(visible.ok() && *visible);
  // Neither is acknowledged: A's sync has not finished, and it started
  // before B's record existed, so it cannot cover B anyway.
  EXPECT_FALSE(Acknowledged(a));
  EXPECT_FALSE(Acknowledged(b));

  faults.ReleaseGate();
  Status a_status = a.get();
  Status b_status = b.get();
  EXPECT_TRUE(a_status.ok()) << a_status.ToString();
  EXPECT_TRUE(b_status.ok()) << b_status.ToString();
  // A's sync started before B's record existed, so B needed a second.
  EXPECT_EQ(syncs.Value() - syncs_before, 2u);
  db->reset();

  auto wal = durability::ReadWal(dir + "/wal.erblog");
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(wal->clean);
  ASSERT_EQ(wal->records.size(), 2u);
  EXPECT_EQ(wal->records[0].lsn, first_lsn);
  EXPECT_EQ(wal->records[1].lsn, first_lsn + 1);
  auto reopened = DurableDatabase::Open(dir, Figure4Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (int64_t id : {900001, 900002}) {
    auto exists = (*reopened)->db()->EntityExists("R", {Value::Int64(id)});
    ASSERT_TRUE(exists.ok());
    EXPECT_TRUE(*exists) << id;
  }
}

TEST(GroupCommitTest, SyncFailureFailsEveryWaiterAndPoisonsTheWriter) {
  std::string dir = FreshDir("group_commit_failure");
  durability::FaultInjector faults;
  auto db = DurableDatabase::Open(dir, FsyncOptions(&faults));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  MappedDatabase* live = (*db)->db();
  const uint64_t first_lsn = (*db)->next_lsn();

  faults.ArmGate("wal.sync");
  faults.ArmError("wal.sync.error");  // A's sync is the one that fails
  std::future<Status> a = std::async(std::launch::async, [&] {
    return live->InsertEntity("R", RRow(900011));
  });
  bool a_parked = faults.WaitUntilBlocked();
  if (!a_parked) faults.ReleaseGate();
  ASSERT_TRUE(a_parked);
  std::future<Status> b = std::async(std::launch::async, [&] {
    return live->InsertEntity("R", RRow(900012));
  });
  bool b_written =
      Eventually([&] { return (*db)->next_lsn() == first_lsn + 2; });
  faults.ReleaseGate();
  ASSERT_TRUE(b_written);
  EXPECT_FALSE(a.get().ok());
  EXPECT_FALSE(b.get().ok());
  // Both changes are applied in memory with no durable record behind
  // them, so the writer refuses everything from here on.
  EXPECT_FALSE(live->InsertEntity("R", RRow(900013)).ok());
  EXPECT_EQ((*db)->wal_bytes(), 0u);
  db->reset();

  auto reopened = DurableDatabase::Open(dir, Figure4Options());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->recovery_info().wal_clean);
  EXPECT_EQ((*reopened)->recovery_info().records_replayed, 0u);
  for (int64_t id : {900011, 900012, 900013}) {
    auto exists = (*reopened)->db()->EntityExists("R", {Value::Int64(id)});
    ASSERT_TRUE(exists.ok());
    EXPECT_FALSE(*exists) << id;
  }
}

}  // namespace
}  // namespace erbium
