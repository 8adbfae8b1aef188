// Unit tests for the multi-relational compressed (factorized)
// representation: storage semantics, join enumeration, side scans, and
// aggregate push-down through the join.

#include <gtest/gtest.h>

#include "factorized/factorized.h"

namespace erbium {
namespace {

FactorizedPair MakePair() {
  return FactorizedPair(
      "test_pair",
      {Column{"l_id", Type::Int64(), false},
       Column{"l_v", Type::Int64(), true}},
      {0},
      {Column{"r_id", Type::Int64(), false},
       Column{"r_v", Type::Int64(), true}},
      {0});
}

Row IntRow(std::initializer_list<int64_t> values) {
  Row row;
  for (int64_t v : values) row.push_back(Value::Int64(v));
  return row;
}

TEST(FactorizedPairTest, InsertConnectLookup) {
  FactorizedPair pair = MakePair();
  ASSERT_TRUE(pair.InsertLeft(IntRow({1, 10})).ok());
  ASSERT_TRUE(pair.InsertLeft(IntRow({2, 20})).ok());
  ASSERT_TRUE(pair.InsertRight(IntRow({7, 70})).ok());
  EXPECT_EQ(pair.left_size(), 2u);
  EXPECT_EQ(pair.right_size(), 1u);
  // Duplicate keys rejected.
  EXPECT_EQ(pair.InsertLeft(IntRow({1, 99})).status().code(),
            StatusCode::kConstraintViolation);
  ASSERT_TRUE(pair.Connect({Value::Int64(1)}, {Value::Int64(7)}).ok());
  EXPECT_EQ(pair.edge_count(), 1u);
  EXPECT_EQ(pair.Connect({Value::Int64(1)}, {Value::Int64(7)}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(pair.Connect({Value::Int64(9)}, {Value::Int64(7)}).code(),
            StatusCode::kNotFound);
  EXPECT_GE(pair.FindLeft({Value::Int64(2)}), 0);
  EXPECT_LT(pair.FindRight({Value::Int64(2)}), 0);
}

TEST(FactorizedPairTest, KeysMatchAcrossNumericKindsAndSignedZero) {
  FactorizedPair pair = MakePair();
  auto left = pair.InsertLeft(IntRow({2, 10}));
  ASSERT_TRUE(left.ok());
  auto right = pair.InsertRight({Value::Float64(0.0), Value::Int64(70)});
  ASSERT_TRUE(right.ok());
  EXPECT_EQ(pair.FindLeft({Value::Float64(2.0)}), *left);
  EXPECT_EQ(pair.FindRight({Value::Float64(-0.0)}), *right);
  EXPECT_EQ(pair.InsertRight({Value::Float64(-0.0), Value::Int64(71)})
                .status()
                .code(),
            StatusCode::kConstraintViolation);
  // Null keys are never indexed, so they are rejected up front.
  EXPECT_EQ(pair.InsertLeft({Value::Null(), Value::Int64(1)}).status().code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(pair.FindLeft({Value::Int64(2), Value::Int64(10)}), -1);
  // An erased key can be inserted again, into a new slot.
  ASSERT_TRUE(pair.EraseLeft({Value::Int64(2)}).ok());
  EXPECT_EQ(pair.FindLeft({Value::Int64(2)}), -1);
  auto again = pair.InsertLeft(IntRow({2, 11}));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(pair.FindLeft({Value::Float64(2.0)}), *again);
}

TEST(FactorizedPairTest, JoinScanEnumeratesEdges) {
  FactorizedPair pair = MakePair();
  ASSERT_TRUE(pair.InsertLeft(IntRow({1, 10})).ok());
  ASSERT_TRUE(pair.InsertLeft(IntRow({2, 20})).ok());
  ASSERT_TRUE(pair.InsertRight(IntRow({7, 70})).ok());
  ASSERT_TRUE(pair.InsertRight(IntRow({8, 80})).ok());
  ASSERT_TRUE(pair.Connect({Value::Int64(1)}, {Value::Int64(7)}).ok());
  ASSERT_TRUE(pair.Connect({Value::Int64(1)}, {Value::Int64(8)}).ok());

  FactorizedJoinScan inner(&pair);
  auto rows = CollectRows(&inner);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);  // left 2 has no partner
  for (const Row& row : *rows) {
    ASSERT_EQ(row.size(), 4u);
    EXPECT_EQ(row[0], Value::Int64(1));
  }

  FactorizedJoinScan outer(&pair, /*left_outer=*/true);
  rows = CollectRows(&outer);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // lone left emitted with nulls
}

TEST(FactorizedPairTest, SideScansAreDeduplicated) {
  FactorizedPair pair = MakePair();
  ASSERT_TRUE(pair.InsertLeft(IntRow({1, 10})).ok());
  ASSERT_TRUE(pair.InsertRight(IntRow({7, 70})).ok());
  ASSERT_TRUE(pair.InsertRight(IntRow({8, 80})).ok());
  ASSERT_TRUE(pair.Connect({Value::Int64(1)}, {Value::Int64(7)}).ok());
  ASSERT_TRUE(pair.Connect({Value::Int64(1)}, {Value::Int64(8)}).ok());
  // Left row joined twice still stored (and scanned) once.
  FactorizedSideScan left(&pair, /*left_side=*/true);
  auto rows = CollectRows(&left);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  FactorizedSideScan right(&pair, /*left_side=*/false);
  rows = CollectRows(&right);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(FactorizedPairTest, EraseCleansEdges) {
  FactorizedPair pair = MakePair();
  ASSERT_TRUE(pair.InsertLeft(IntRow({1, 10})).ok());
  ASSERT_TRUE(pair.InsertRight(IntRow({7, 70})).ok());
  ASSERT_TRUE(pair.Connect({Value::Int64(1)}, {Value::Int64(7)}).ok());
  ASSERT_TRUE(pair.EraseRight({Value::Int64(7)}).ok());
  EXPECT_EQ(pair.edge_count(), 0u);
  EXPECT_LT(pair.FindRight({Value::Int64(7)}), 0);
  FactorizedJoinScan outer(&pair, true);
  auto rows = CollectRows(&outer);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_TRUE((*rows)[0][2].is_null());
}

TEST(FactorizedPairTest, DisconnectAndUpdate) {
  FactorizedPair pair = MakePair();
  ASSERT_TRUE(pair.InsertLeft(IntRow({1, 10})).ok());
  ASSERT_TRUE(pair.InsertRight(IntRow({7, 70})).ok());
  ASSERT_TRUE(pair.Connect({Value::Int64(1)}, {Value::Int64(7)}).ok());
  ASSERT_TRUE(pair.Disconnect({Value::Int64(1)}, {Value::Int64(7)}).ok());
  EXPECT_EQ(pair.Disconnect({Value::Int64(1)}, {Value::Int64(7)}).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(pair.UpdateLeft({Value::Int64(1)}, IntRow({1, 99})).ok());
  EXPECT_EQ(pair.left_row(0)[1], Value::Int64(99));
  // Key changes through update are rejected.
  EXPECT_FALSE(pair.UpdateLeft({Value::Int64(1)}, IntRow({5, 99})).ok());
}

TEST(FactorizedPairTest, GroupAggregatePushdown) {
  // Three right rows attached to left 1, none to left 2: sum/count per
  // left row without materializing the join.
  FactorizedPair pair = MakePair();
  ASSERT_TRUE(pair.InsertLeft(IntRow({1, 10})).ok());
  ASSERT_TRUE(pair.InsertLeft(IntRow({2, 20})).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pair.InsertRight(IntRow({i + 100, (i + 1) * 5})).ok());
    ASSERT_TRUE(
        pair.Connect({Value::Int64(1)}, {Value::Int64(i + 100)}).ok());
  }
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggKind::kCountStar, nullptr, "n", false});
  aggs.push_back({AggKind::kSum, MakeColumnRef(1, "r_v"), "total", false});
  FactorizedGroupAggregate agg(&pair, std::move(aggs));
  auto rows = CollectRows(&agg);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  for (const Row& row : *rows) {
    if (row[0] == Value::Int64(1)) {
      EXPECT_EQ(row[2], Value::Int64(3));
      EXPECT_EQ(row[3], Value::Int64(30));
    } else {
      EXPECT_EQ(row[2], Value::Int64(0));
      EXPECT_TRUE(row[3].is_null());
    }
  }
}

TEST(FactorizedPairTest, CompactnessVsMaterializedJoin) {
  // A left row with many partners stores its payload once; a
  // materialized join would duplicate it per edge. The byte accounting
  // should reflect that (the paper's argument for this format).
  FactorizedPair pair(
      "wide",
      {Column{"l_id", Type::Int64(), false},
       Column{"payload", Type::String(), true}},
      {0},
      {Column{"r_id", Type::Int64(), false}},
      {0});
  std::string big(1000, 'x');
  ASSERT_TRUE(
      pair.InsertLeft({Value::Int64(1), Value::String(big)}).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pair.InsertRight({Value::Int64(i)}).ok());
    ASSERT_TRUE(pair.Connect({Value::Int64(1)}, {Value::Int64(i)}).ok());
  }
  // Factorized: ~1KB payload + 50 edges. Materialized: ~50KB.
  EXPECT_LT(pair.ApproximateDataBytes(), 5000u);
}

}  // namespace
}  // namespace erbium
