// Fault-injection recovery tests (mapping M1–M6): crash the durable
// database at every WAL-append and checkpoint crash point, at every
// torn-tail truncation offset, and at every flipped byte, then reopen
// the directory and assert the recovered logical state equals a serial
// in-memory oracle that applied exactly the acknowledged operations.
//
// Invariants exercised (see DurableDatabase):
//   - no acknowledged write is ever lost,
//   - no operation is half-applied after recovery,
//   - a crash anywhere in the checkpoint protocol loses nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "durability/durable_db.h"
#include "durability/fault.h"
#include "durability/wal.h"
#include "durability_testlib.h"
#include "workload/figure4.h"

namespace erbium {
namespace {

using durability::DurableDatabase;
using durability::FaultInjector;
using durability_test::FaultScript;
using durability_test::LogicalDigest;
using durability_test::Op;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/erbium_fault_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

DurableDatabase::Options MakeOptions(const MappingSpec& spec,
                                     FaultInjector* faults = nullptr) {
  DurableDatabase::Options options;
  options.spec = spec;
  options.initial_ddl = Figure4Ddl();
  options.faults = faults;
  return options;
}

/// Serial oracle: a fresh in-memory database under `spec` with exactly the
/// first `n_ops` operations of the script applied. Digests are cached per
/// (mapping, prefix length) — the sweeps compare thousands of recoveries
/// against the same seventeen oracle states.
class OracleCache {
 public:
  const std::string& Digest(const MappingSpec& spec, size_t n_ops) {
    auto key = std::make_pair(spec.name, n_ops);
    auto it = digests_.find(key);
    if (it != digests_.end()) return it->second;
    auto schema = std::make_shared<ERSchema>();
    auto made = MakeFigure4Schema();
    EXPECT_TRUE(made.ok()) << made.status().ToString();
    *schema = std::move(made).value();
    auto db = MappedDatabase::Create(schema.get(), spec);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    const std::vector<Op>& ops = FaultScript();
    for (size_t i = 0; i < n_ops; ++i) {
      Status s = ops[i].apply(db->get());
      EXPECT_TRUE(s.ok()) << ops[i].description << ": " << s.ToString();
    }
    auto digest = LogicalDigest(db->get());
    EXPECT_TRUE(digest.ok()) << digest.status().ToString();
    return digests_.emplace(key, std::move(digest).value()).first->second;
  }

 private:
  std::map<std::pair<std::string, size_t>, std::string> digests_;
};

OracleCache& Oracles() {
  static OracleCache* cache = new OracleCache();
  return *cache;
}

std::string RecoverDigest(const std::string& dir, const MappingSpec& spec,
                          DurableDatabase::RecoveryInfo* info = nullptr) {
  auto reopened = DurableDatabase::Open(dir, MakeOptions(spec));
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
  if (!reopened.ok()) return "<open failed>";
  if (info != nullptr) *info = (*reopened)->recovery_info();
  auto digest = LogicalDigest((*reopened)->db());
  EXPECT_TRUE(digest.ok()) << digest.status().ToString();
  return digest.ok() ? std::move(digest).value() : "<digest failed>";
}

/// Runs the script against a durable database with `faults` armed,
/// stopping at the first failed (unacknowledged) operation — the
/// simulated process death. Returns how many operations were acked.
size_t RunUntilCrash(DurableDatabase* db) {
  const std::vector<Op>& ops = FaultScript();
  size_t acked = 0;
  for (const Op& op : ops) {
    if (!op.apply(db->db()).ok()) break;
    ++acked;
  }
  return acked;
}

/// Crash at the given WAL-append point while executing op `crash_index`,
/// then recover and compare against the oracle.
void CheckAppendCrash(const MappingSpec& spec, const char* point,
                      size_t crash_index, uint64_t partial_bytes,
                      const std::string& dir) {
  SCOPED_TRACE(spec.name + " " + point + " op=" +
               std::to_string(crash_index) + " partial=" +
               std::to_string(partial_bytes));
  FaultInjector faults;
  {
    auto db = DurableDatabase::Open(dir, MakeOptions(spec, &faults));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    faults.Arm(point, static_cast<int>(crash_index) + 1, partial_bytes);
    size_t acked = RunUntilCrash(db->get());
    ASSERT_TRUE(faults.crashed());
    ASSERT_EQ(acked, crash_index);
  }
  // A record is durable iff it was fully written: `before` and `torn`
  // crashes lose the in-flight (unacknowledged) op; an `after` crash
  // keeps it — the op persisted but the caller never heard back, the
  // classic commit-timeout ambiguity resolved in favor of durability.
  size_t expected_ops =
      crash_index + (std::string(point) == "wal.append.after" ? 1 : 0);
  DurableDatabase::RecoveryInfo info;
  std::string digest = RecoverDigest(dir, spec, &info);
  EXPECT_EQ(digest, Oracles().Digest(spec, expected_ops));
  EXPECT_EQ(info.records_replayed, expected_ops);
  if (std::string(point) == "wal.append.torn" && partial_bytes > 0) {
    EXPECT_FALSE(info.wal_clean);
  } else {
    EXPECT_TRUE(info.wal_clean) << info.wal_stop_reason;
  }
}

TEST(WalAppendCrashMatrix, EveryOpEveryMappingBeforeAndAfter) {
  for (const MappingSpec& spec : Figure4AllMappings()) {
    std::string dir = FreshDir("append_" + spec.name);
    for (size_t i = 0; i < FaultScript().size(); ++i) {
      for (const char* point : {"wal.append.before", "wal.append.after"}) {
        std::filesystem::remove_all(dir);
        CheckAppendCrash(spec, point, i, 0, dir);
      }
    }
  }
}

TEST(WalAppendCrashMatrix, TornWritesAtEveryOp) {
  // Partial lengths: inside the length field, inside the CRC field, just
  // into the payload, and "almost everything" (clamped to len-1).
  const uint64_t kPartials[] = {1, 5, 9, 1000000};
  for (const MappingSpec& spec : Figure4AllMappings()) {
    std::string dir = FreshDir("torn_" + spec.name);
    for (size_t i = 0; i < FaultScript().size(); ++i) {
      for (uint64_t partial : kPartials) {
        std::filesystem::remove_all(dir);
        CheckAppendCrash(spec, "wal.append.torn", i, partial, dir);
      }
    }
  }
}

TEST(CheckpointCrashMatrix, EveryPointEveryMapping) {
  // Crash the checkpoint protocol at each step, with 8 acked ops before
  // it. Whatever step dies, the 8 ops must survive: either the WAL still
  // has them (begin/tmp_written), or the snapshot has them and leftover
  // WAL records are skipped by LSN (renamed), or both checkpoint and WAL
  // truncation completed (done).
  const char* kPoints[] = {"checkpoint.begin", "checkpoint.tmp_written",
                           "checkpoint.renamed", "checkpoint.done"};
  const size_t kOpsBefore = 8;
  for (const MappingSpec& spec : Figure4AllMappings()) {
    for (const char* point : kPoints) {
      SCOPED_TRACE(spec.name + std::string(" ") + point);
      std::string dir = FreshDir("ckpt_" + spec.name);
      FaultInjector faults;
      {
        auto db = DurableDatabase::Open(dir, MakeOptions(spec, &faults));
        ASSERT_TRUE(db.ok()) << db.status().ToString();
        const std::vector<Op>& ops = FaultScript();
        for (size_t i = 0; i < kOpsBefore; ++i) {
          ASSERT_TRUE(ops[i].apply((*db)->db()).ok()) << ops[i].description;
        }
        faults.Arm(point);
        auto summary = (*db)->Checkpoint();
        ASSERT_FALSE(summary.ok()) << *summary;
        ASSERT_TRUE(faults.crashed());
        // The process is dead: nothing after the crash is acknowledged.
        EXPECT_FALSE(ops[kOpsBefore].apply((*db)->db()).ok());
      }
      DurableDatabase::RecoveryInfo info;
      std::string digest = RecoverDigest(dir, spec, &info);
      EXPECT_EQ(digest, Oracles().Digest(spec, kOpsBefore));
      bool snapshot_expected = std::string(point) == "checkpoint.renamed" ||
                               std::string(point) == "checkpoint.done";
      EXPECT_EQ(info.had_snapshot, snapshot_expected);
      if (std::string(point) == "checkpoint.renamed") {
        // Snapshot in place but WAL not truncated: every leftover record
        // is subsumed and must be skipped, not replayed twice.
        EXPECT_EQ(info.records_skipped, kOpsBefore);
        EXPECT_EQ(info.records_replayed, 0u);
      }
      if (std::string(point) == "checkpoint.done") {
        EXPECT_EQ(info.records_replayed, 0u);
        EXPECT_EQ(info.records_skipped, 0u);
      }
    }
  }
}

TEST(CheckpointCrashMatrix, CrashAfterSecondCheckpointRename) {
  // A successful checkpoint followed by one that dies between rename and
  // truncate: recovery must pick the *newer* snapshot and skip the WAL
  // records it subsumes.
  for (const MappingSpec& spec : Figure4AllMappings()) {
    SCOPED_TRACE(spec.name);
    std::string dir = FreshDir("ckpt2_" + spec.name);
    FaultInjector faults;
    const std::vector<Op>& ops = FaultScript();
    {
      auto db = DurableDatabase::Open(dir, MakeOptions(spec, &faults));
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      for (size_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(ops[i].apply((*db)->db()).ok());
      }
      ASSERT_TRUE((*db)->Checkpoint().ok());
      for (size_t i = 4; i < 8; ++i) {
        ASSERT_TRUE(ops[i].apply((*db)->db()).ok());
      }
      faults.Arm("checkpoint.renamed");
      ASSERT_FALSE((*db)->Checkpoint().ok());
    }
    DurableDatabase::RecoveryInfo info;
    std::string digest = RecoverDigest(dir, spec, &info);
    EXPECT_EQ(digest, Oracles().Digest(spec, 8));
    EXPECT_TRUE(info.had_snapshot);
    EXPECT_EQ(info.snapshot_gen, 2u);
    EXPECT_EQ(info.records_skipped, 4u);  // lsn 5..8, subsumed by gen 2
    EXPECT_EQ(info.records_replayed, 0u);
  }
}

/// Runs the full script cleanly and returns the WAL bytes plus the file
/// offset at which each operation's record ends.
struct RecordedWal {
  std::string bytes;
  std::vector<uint64_t> end_offsets;  // end_offsets[i] = end of op i's record
};

RecordedWal RecordWal(const MappingSpec& spec, const std::string& dir) {
  RecordedWal out;
  auto db = DurableDatabase::Open(dir, MakeOptions(spec));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  for (const Op& op : FaultScript()) {
    Status s = op.apply((*db)->db());
    EXPECT_TRUE(s.ok()) << op.description << ": " << s.ToString();
    out.end_offsets.push_back((*db)->wal_bytes());
  }
  std::ifstream in(dir + "/wal.erblog", std::ios::binary);
  out.bytes.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(out.bytes.size(), out.end_offsets.back());
  return out;
}

size_t OpsFullyBefore(const RecordedWal& wal, uint64_t offset) {
  size_t n = 0;
  while (n < wal.end_offsets.size() && wal.end_offsets[n] <= offset) ++n;
  return n;
}

void WriteWalFile(const std::string& dir, const std::string& bytes) {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir + "/wal.erblog",
                    std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(TornTailSweep, EveryTruncationOffsetEveryMapping) {
  // The strongest torn-write model: the log ends mid-write at an
  // arbitrary byte. For EVERY prefix length of the WAL, recovery must
  // reconstruct exactly the operations whose records fit the prefix.
  for (const MappingSpec& spec : Figure4AllMappings()) {
    std::string record_dir = FreshDir("sweep_record_" + spec.name);
    RecordedWal wal = RecordWal(spec, record_dir);
    ASSERT_FALSE(wal.bytes.empty());
    std::string dir = FreshDir("sweep_" + spec.name);
    for (uint64_t offset = 0; offset <= wal.bytes.size(); ++offset) {
      WriteWalFile(dir, wal.bytes.substr(0, offset));
      size_t expected_ops = OpsFullyBefore(wal, offset);
      DurableDatabase::RecoveryInfo info;
      std::string digest = RecoverDigest(dir, spec, &info);
      ASSERT_EQ(digest, Oracles().Digest(spec, expected_ops))
          << spec.name << " truncated at " << offset << " of "
          << wal.bytes.size();
      ASSERT_EQ(info.records_replayed, expected_ops);
      // A cut exactly on a record boundary looks like a clean shutdown;
      // anywhere else recovery must notice (and discard) the torn tail.
      bool at_boundary =
          offset == 0 ||
          (expected_ops > 0 && wal.end_offsets[expected_ops - 1] == offset);
      ASSERT_EQ(info.wal_clean, at_boundary)
          << spec.name << " truncated at " << offset << ": "
          << info.wal_stop_reason;
    }
  }
}

TEST(BitFlipSweep, EveryByteM1) {
  // Flip one bit at every byte of the log: recovery must stop at the
  // corrupted record (checksum or framing failure) and keep everything
  // before it. No corrupted record may ever half-apply.
  MappingSpec spec = Figure4M1();
  std::string record_dir = FreshDir("flip_record");
  RecordedWal wal = RecordWal(spec, record_dir);
  ASSERT_FALSE(wal.bytes.empty());
  std::string dir = FreshDir("flip");
  for (uint64_t offset = 0; offset < wal.bytes.size(); ++offset) {
    std::string corrupt = wal.bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x01);
    WriteWalFile(dir, corrupt);
    // The flipped byte invalidates the record containing it; all records
    // strictly before that one replay.
    size_t expected_ops = OpsFullyBefore(wal, offset);
    DurableDatabase::RecoveryInfo info;
    std::string digest = RecoverDigest(dir, spec, &info);
    ASSERT_EQ(digest, Oracles().Digest(spec, expected_ops))
        << "bit flip at " << offset << " of " << wal.bytes.size();
    ASSERT_EQ(info.records_replayed, expected_ops);
    ASSERT_FALSE(info.wal_clean) << "bit flip at " << offset;
  }
}

TEST(BitFlipSweep, RecordBoundariesAllMappings) {
  // Cheaper cross-mapping variant: flip bytes around every record
  // boundary (first/last bytes of each record) under every mapping.
  for (const MappingSpec& spec : Figure4AllMappings()) {
    if (spec.name == "M1") continue;  // covered exhaustively above
    std::string record_dir = FreshDir("flipb_record_" + spec.name);
    RecordedWal wal = RecordWal(spec, record_dir);
    std::vector<uint64_t> offsets;
    uint64_t start = 0;
    for (uint64_t end : wal.end_offsets) {
      offsets.push_back(start);              // first byte of record (length)
      offsets.push_back(start + 4);          // first byte of CRC
      offsets.push_back(start + 8);          // first byte of payload (type)
      offsets.push_back(end - 1);            // last byte of record
      start = end;
    }
    std::string dir = FreshDir("flipb_" + spec.name);
    for (uint64_t offset : offsets) {
      std::string corrupt = wal.bytes;
      corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x80);
      WriteWalFile(dir, corrupt);
      size_t expected_ops = OpsFullyBefore(wal, offset);
      std::string digest = RecoverDigest(dir, spec);
      ASSERT_EQ(digest, Oracles().Digest(spec, expected_ops))
          << spec.name << " bit flip at " << offset;
    }
  }
}

}  // namespace
}  // namespace erbium
