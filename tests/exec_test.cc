// Unit tests for expressions and the volcano operators.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/aggregate.h"
#include "exec/join.h"
#include "exec/sort.h"
#include "storage/table.h"

namespace erbium {
namespace {

OperatorPtr MakeValues(std::vector<Column> cols, std::vector<Row> rows) {
  return std::make_unique<ValuesOp>(std::move(cols), std::move(rows));
}

std::vector<Column> IntCols(std::initializer_list<const char*> names) {
  std::vector<Column> cols;
  for (const char* name : names) {
    cols.push_back(Column{name, Type::Int64(), true});
  }
  return cols;
}

Row IntRow(std::initializer_list<int64_t> values) {
  Row row;
  for (int64_t v : values) row.push_back(Value::Int64(v));
  return row;
}

// ---- Expressions ------------------------------------------------------------

TEST(ExprTest, CompareThreeValuedLogic) {
  Row row{Value::Int64(5), Value::Null()};
  ExprPtr col0 = MakeColumnRef(0, "a");
  ExprPtr col1 = MakeColumnRef(1, "b");
  EXPECT_EQ(MakeCompare(CompareOp::kLt, col0, MakeLiteral(Value::Int64(9)))
                ->Eval(row),
            Value::Bool(true));
  // Comparison with null -> null.
  EXPECT_TRUE(MakeCompare(CompareOp::kEq, col0, col1)->Eval(row).is_null());
  // Cross-kind numeric comparison.
  EXPECT_EQ(MakeCompare(CompareOp::kEq, col0,
                        MakeLiteral(Value::Float64(5.0)))
                ->Eval(row),
            Value::Bool(true));
  // Incomparable kinds -> null.
  EXPECT_TRUE(MakeCompare(CompareOp::kEq, col0,
                          MakeLiteral(Value::String("x")))
                  ->Eval(row)
                  .is_null());
}

TEST(ExprTest, LogicalShortCircuitWithNulls) {
  Row row;
  ExprPtr t = MakeLiteral(Value::Bool(true));
  ExprPtr f = MakeLiteral(Value::Bool(false));
  ExprPtr n = MakeLiteral(Value::Null());
  EXPECT_EQ(MakeAnd(f, n)->Eval(row), Value::Bool(false));
  EXPECT_TRUE(MakeAnd(t, n)->Eval(row).is_null());
  EXPECT_EQ(MakeOr(t, n)->Eval(row), Value::Bool(true));
  EXPECT_TRUE(MakeOr(f, n)->Eval(row).is_null());
  EXPECT_EQ(MakeNot(f)->Eval(row), Value::Bool(true));
  EXPECT_TRUE(MakeNot(n)->Eval(row).is_null());
}

TEST(ExprTest, Arithmetic) {
  Row row;
  auto lit = [](int64_t v) { return MakeLiteral(Value::Int64(v)); };
  EXPECT_EQ(MakeArithmetic(ArithmeticOp::kAdd, lit(2), lit(3))->Eval(row),
            Value::Int64(5));
  EXPECT_EQ(MakeArithmetic(ArithmeticOp::kDiv, lit(7), lit(2))->Eval(row),
            Value::Int64(3));
  EXPECT_TRUE(
      MakeArithmetic(ArithmeticOp::kDiv, lit(7), lit(0))->Eval(row).is_null());
  EXPECT_EQ(MakeArithmetic(ArithmeticOp::kMod, lit(7), lit(4))->Eval(row),
            Value::Int64(3));
  // Mixed int/float promotes.
  EXPECT_EQ(MakeArithmetic(ArithmeticOp::kMul, lit(2),
                           MakeLiteral(Value::Float64(1.5)))
                ->Eval(row),
            Value::Float64(3.0));
  // String concatenation through +.
  EXPECT_EQ(MakeArithmetic(ArithmeticOp::kAdd,
                           MakeLiteral(Value::String("a")),
                           MakeLiteral(Value::String("b")))
                ->Eval(row),
            Value::String("ab"));
}

TEST(ExprTest, ArrayFunctions) {
  Row row{Value::Array({Value::Int64(1), Value::Int64(2), Value::Int64(2)}),
          Value::Array({Value::Int64(2), Value::Int64(3)})};
  ExprPtr a = MakeColumnRef(0, "a");
  ExprPtr b = MakeColumnRef(1, "b");
  EXPECT_EQ(MakeFunction(BuiltinFn::kCardinality, {a})->Eval(row),
            Value::Int64(3));
  EXPECT_EQ(MakeFunction(BuiltinFn::kArrayContains,
                         {a, MakeLiteral(Value::Int64(2))})
                ->Eval(row),
            Value::Bool(true));
  EXPECT_EQ(MakeFunction(BuiltinFn::kArrayContains,
                         {a, MakeLiteral(Value::Int64(9))})
                ->Eval(row),
            Value::Bool(false));
  Value inter = MakeFunction(BuiltinFn::kArrayIntersect, {a, b})->Eval(row);
  ASSERT_EQ(inter.kind(), TypeKind::kArray);
  EXPECT_EQ(inter.array().size(), 1u);  // deduplicated
  EXPECT_EQ(inter.array()[0], Value::Int64(2));
  EXPECT_EQ(MakeFunction(BuiltinFn::kArrayPosition,
                         {b, MakeLiteral(Value::Int64(3))})
                ->Eval(row),
            Value::Int64(2));
}

TEST(ExprTest, ArrayIntersectKeepsLeftOrderAndFirstOccurrences) {
  auto intersect = [](Value a, Value b) {
    Row row{std::move(a), std::move(b)};
    return MakeFunction(BuiltinFn::kArrayIntersect,
                        {MakeColumnRef(0, "a"), MakeColumnRef(1, "b")})
        ->Eval(row);
  };
  auto ints = [](std::initializer_list<int64_t> xs) {
    Value::ArrayData out;
    for (int64_t x : xs) out.push_back(Value::Int64(x));
    return Value::Array(std::move(out));
  };
  // Duplicates on both sides: left-array order, first occurrence only.
  EXPECT_EQ(intersect(ints({3, 1, 3, 2, 1, 3}), ints({1, 1, 3, 3, 9})),
            ints({3, 1}));
  // Int64 and Float64 are equal across kinds (the left element is the
  // one emitted), and -0.0 equals 0.0.
  Value mixed = intersect(
      Value::Array({Value::Int64(2), Value::Float64(3.0), Value::Int64(0),
                    Value::Int64(5)}),
      Value::Array({Value::Float64(2.0), Value::Int64(3),
                    Value::Float64(-0.0)}));
  ASSERT_EQ(mixed.array().size(), 3u);
  EXPECT_EQ(mixed.array()[0].kind(), TypeKind::kInt64);
  EXPECT_EQ(mixed.array()[1].kind(), TypeKind::kFloat64);
  EXPECT_EQ(mixed.array()[2], Value::Int64(0));
  // Inline and heap strings, each built separately on the two sides.
  const std::string long_text(40, 'q');
  EXPECT_EQ(intersect(Value::Array({Value::String("x"),
                                    Value::String(long_text),
                                    Value::String("y"),
                                    Value::String(long_text),
                                    Value::String("x")}),
                      Value::Array({Value::String(long_text + ""),
                                    Value::String("x"),
                                    Value::String(long_text + "!")})),
            Value::Array({Value::String("x"), Value::String(long_text)}));
  // Nulls match nulls, as under Value equality.
  EXPECT_EQ(intersect(Value::Array({Value::Null(), Value::Int64(1)}),
                      Value::Array({Value::Null()})),
            Value::Array({Value::Null()}));
  // Empty arrays on either side give an empty array; a non-array, null.
  EXPECT_EQ(intersect(Value::Array({}), ints({1})), Value::Array({}));
  EXPECT_EQ(intersect(ints({1}), Value::Array({})), Value::Array({}));
  EXPECT_EQ(intersect(Value::Array({}), Value::Array({})), Value::Array({}));
  EXPECT_TRUE(intersect(Value::Null(), ints({1})).is_null());
  // The per-thread scratch is reused: a large right side, then a small
  // one, leave nothing of the first behind.
  Value::ArrayData big;
  for (int64_t i = 0; i < 5000; ++i) big.push_back(Value::Int64(i));
  EXPECT_EQ(intersect(ints({4999, 7, 7}), Value::Array(big)),
            ints({4999, 7}));
  EXPECT_EQ(intersect(ints({4999, 7, 8}), ints({8})), ints({8}));
}

TEST(ExprTest, StructBuildAndAccess) {
  Row row{Value::Int64(1)};
  ExprPtr make = std::make_shared<MakeStructExpr>(
      std::vector<std::string>{"x", "y"},
      std::vector<ExprPtr>{MakeColumnRef(0, "a"),
                           MakeLiteral(Value::String("s"))});
  Value v = make->Eval(row);
  ASSERT_EQ(v.kind(), TypeKind::kStruct);
  ExprPtr access = std::make_shared<FieldAccessExpr>(make, "y");
  EXPECT_EQ(access->Eval(row), Value::String("s"));
  ExprPtr missing = std::make_shared<FieldAccessExpr>(make, "zzz");
  EXPECT_TRUE(missing->Eval(row).is_null());
}

TEST(ExprTest, InListAndCoalesce) {
  Row row{Value::Int64(2), Value::Null()};
  ExprPtr in = MakeInList(MakeColumnRef(0, "a"),
                          {Value::Int64(1), Value::Int64(2)});
  EXPECT_EQ(in->Eval(row), Value::Bool(true));
  ExprPtr coalesce = MakeFunction(
      BuiltinFn::kCoalesce,
      {MakeColumnRef(1, "b"), MakeLiteral(Value::Int64(42))});
  EXPECT_EQ(coalesce->Eval(row), Value::Int64(42));
}

// ---- Operators ----------------------------------------------------------------

TEST(OperatorTest, FilterProjectLimit) {
  auto values = MakeValues(IntCols({"a"}), {IntRow({1}), IntRow({2}),
                                            IntRow({3}), IntRow({4})});
  OperatorPtr plan = std::make_unique<FilterOp>(
      std::move(values),
      MakeCompare(CompareOp::kGt, MakeColumnRef(0, "a"),
                  MakeLiteral(Value::Int64(1))));
  plan = std::make_unique<ProjectOp>(
      std::move(plan), IntCols({"b"}),
      std::vector<ExprPtr>{MakeArithmetic(ArithmeticOp::kMul,
                                          MakeColumnRef(0, "a"),
                                          MakeLiteral(Value::Int64(10)))});
  plan = std::make_unique<LimitOp>(std::move(plan), 2);
  auto rows = CollectRows(plan.get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][0], Value::Int64(20));
  EXPECT_EQ((*rows)[1][0], Value::Int64(30));
}

TEST(OperatorTest, ReopenReexecutes) {
  auto values = MakeValues(IntCols({"a"}), {IntRow({1}), IntRow({2})});
  ASSERT_TRUE(values->Open().ok());
  Row row;
  int count = 0;
  while (values->Next(&row)) ++count;
  EXPECT_EQ(count, 2);
  ASSERT_TRUE(values->Open().ok());
  count = 0;
  while (values->Next(&row)) ++count;
  EXPECT_EQ(count, 2);
}

TEST(OperatorTest, HashJoinInnerAndLeftOuter) {
  auto left = MakeValues(IntCols({"a"}), {IntRow({1}), IntRow({2}),
                                          IntRow({3})});
  auto right = MakeValues(IntCols({"b", "c"}),
                          {IntRow({1, 10}), IntRow({1, 11}), IntRow({3, 30})});
  OperatorPtr join = std::make_unique<HashJoinOp>(
      std::move(left), std::move(right),
      std::vector<ExprPtr>{MakeColumnRef(0, "a")},
      std::vector<ExprPtr>{MakeColumnRef(0, "b")});
  auto rows = CollectRows(join.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // 1 matches twice, 3 once

  left = MakeValues(IntCols({"a"}), {IntRow({1}), IntRow({2})});
  right = MakeValues(IntCols({"b", "c"}), {IntRow({1, 10})});
  join = std::make_unique<HashJoinOp>(
      std::move(left), std::move(right),
      std::vector<ExprPtr>{MakeColumnRef(0, "a")},
      std::vector<ExprPtr>{MakeColumnRef(0, "b")}, JoinType::kLeftOuter);
  rows = CollectRows(join.get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  // Unmatched left row padded with nulls.
  bool found_padded = false;
  for (const Row& r : *rows) {
    if (r[0] == Value::Int64(2)) {
      EXPECT_TRUE(r[1].is_null());
      EXPECT_TRUE(r[2].is_null());
      found_padded = true;
    }
  }
  EXPECT_TRUE(found_padded);
}

TEST(OperatorTest, HashJoinNullKeysNeverMatch) {
  std::vector<Row> left_rows{{Value::Null()}, {Value::Int64(1)}};
  std::vector<Row> right_rows{{Value::Null()}, {Value::Int64(1)}};
  OperatorPtr join = std::make_unique<HashJoinOp>(
      MakeValues(IntCols({"a"}), left_rows),
      MakeValues(IntCols({"b"}), right_rows),
      std::vector<ExprPtr>{MakeColumnRef(0, "a")},
      std::vector<ExprPtr>{MakeColumnRef(0, "b")});
  auto rows = CollectRows(join.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST(OperatorTest, NestedLoopJoinPredicate) {
  OperatorPtr join = std::make_unique<NestedLoopJoinOp>(
      MakeValues(IntCols({"a"}), {IntRow({1}), IntRow({5})}),
      MakeValues(IntCols({"b"}), {IntRow({2}), IntRow({4})}),
      MakeCompare(CompareOp::kLt, MakeColumnRef(0, "a"),
                  MakeColumnRef(1, "b")));
  auto rows = CollectRows(join.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);  // (1,2), (1,4)
}

TEST(OperatorTest, NestedLoopThetaJoinsMatchHandComputedMultisets) {
  // Two columns per side, so each pair overwrites a multi-value suffix;
  // left row 9 matches nothing.
  auto left = [] {
    return MakeValues(IntCols({"a", "a_tag"}),
                      {IntRow({1, 10}), IntRow({5, 50}), IntRow({9, 90}),
                       IntRow({3, 30}), IntRow({1, 11})});
  };
  std::vector<Column> right_cols{Column{"b", Type::Int64(), true},
                                 Column{"label", Type::String(), true}};
  auto right = [&] {
    return MakeValues(right_cols,
                      {{Value::Int64(2), Value::String("two")},
                       {Value::Int64(4), Value::String("four")},
                       {Value::Int64(6), Value::String("six")}});
  };
  auto a_lt_b = [] {
    return MakeCompare(CompareOp::kLt, MakeColumnRef(0, "a"),
                       MakeColumnRef(2, "b"));
  };
  auto multiset = [](const std::vector<Row>& rows) {
    std::vector<std::string> out;
    for (const Row& row : rows) {
      std::string line;
      for (const Value& v : row) line += v.ToString() + " ";
      out.push_back(line);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<std::string> inner = {
      "1 10 2 'two' ",  "1 10 4 'four' ", "1 10 6 'six' ",
      "1 11 2 'two' ",  "1 11 4 'four' ", "1 11 6 'six' ",
      "3 30 4 'four' ", "3 30 6 'six' ",  "5 50 6 'six' ",
  };
  std::sort(inner.begin(), inner.end());

  OperatorPtr inner_join =
      std::make_unique<NestedLoopJoinOp>(left(), right(), a_lt_b());
  auto inner_rows = CollectRows(inner_join.get());
  ASSERT_TRUE(inner_rows.ok());
  EXPECT_EQ(multiset(*inner_rows), inner);

  std::vector<std::string> outer = inner;
  outer.push_back("9 90 null null ");
  std::sort(outer.begin(), outer.end());
  OperatorPtr outer_join = std::make_unique<NestedLoopJoinOp>(
      left(), right(), a_lt_b(), JoinType::kLeftOuter);
  auto outer_rows = CollectRows(outer_join.get());
  ASSERT_TRUE(outer_rows.ok());
  EXPECT_EQ(multiset(*outer_rows), outer);
  // A reopened join (the right side stays materialized) answers the same.
  auto again = CollectRows(outer_join.get());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(multiset(*again), outer);
}

TEST(OperatorTest, IndexJoinUsesTableIndex) {
  Table table(TableSchema("t", {Column{"k", Type::Int64(), false},
                                Column{"v", Type::Int64(), true}},
                          {0}));
  ASSERT_TRUE(table.CreateIndex("pk", {"k"}, true).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table.Insert(IntRow({i, i * 2})).ok());
  }
  OperatorPtr join = std::make_unique<IndexJoinOp>(
      MakeValues(IntCols({"a"}), {IntRow({7}), IntRow({999})}), &table,
      std::vector<ExprPtr>{MakeColumnRef(0, "a")}, std::vector<int>{0},
      JoinType::kLeftOuter);
  auto rows = CollectRows(join.get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][2], Value::Int64(14));
  EXPECT_TRUE((*rows)[1][1].is_null());
}

TEST(OperatorTest, UnnestInnerAndOuter) {
  std::vector<Column> cols{Column{"k", Type::Int64(), false},
                           Column{"arr", Type::Array(Type::Int64()), true}};
  std::vector<Row> rows{
      {Value::Int64(1), Value::Array({Value::Int64(10), Value::Int64(11)})},
      {Value::Int64(2), Value::Array({})},
      {Value::Int64(3), Value::Null()}};
  OperatorPtr inner = std::make_unique<UnnestOp>(MakeValues(cols, rows), 1,
                                                 "element");
  auto inner_rows = CollectRows(inner.get());
  ASSERT_TRUE(inner_rows.ok());
  EXPECT_EQ(inner_rows->size(), 2u);
  EXPECT_EQ(inner->output_columns()[1].name, "element");
  EXPECT_EQ(inner->output_columns()[1].type->kind(), TypeKind::kInt64);

  OperatorPtr outer = std::make_unique<UnnestOp>(MakeValues(cols, rows), 1,
                                                 "element", /*outer=*/true);
  auto outer_rows = CollectRows(outer.get());
  ASSERT_TRUE(outer_rows.ok());
  EXPECT_EQ(outer_rows->size(), 4u);  // empty/null arrays emit one null row
}

TEST(OperatorTest, DistinctAndUnion) {
  OperatorPtr plan = std::make_unique<UnionAllOp>([] {
    std::vector<OperatorPtr> children;
    children.push_back(
        MakeValues(IntCols({"a"}), {IntRow({1}), IntRow({2})}));
    children.push_back(
        MakeValues(IntCols({"a"}), {IntRow({2}), IntRow({3})}));
    return children;
  }());
  plan = std::make_unique<DistinctOp>(std::move(plan));
  auto rows = CollectRows(plan.get());
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST(OperatorTest, HashAggregate) {
  auto values = MakeValues(
      IntCols({"g", "v"}),
      {IntRow({1, 10}), IntRow({1, 20}), IntRow({2, 5}), IntRow({2, 5})});
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggKind::kCountStar, nullptr, "n", false});
  aggs.push_back({AggKind::kSum, MakeColumnRef(1, "v"), "total", false});
  aggs.push_back({AggKind::kAvg, MakeColumnRef(1, "v"), "mean", false});
  aggs.push_back({AggKind::kMin, MakeColumnRef(1, "v"), "lo", false});
  aggs.push_back({AggKind::kMax, MakeColumnRef(1, "v"), "hi", false});
  aggs.push_back({AggKind::kCount, MakeColumnRef(1, "v"), "nd", true});
  aggs.push_back({AggKind::kArrayAgg, MakeColumnRef(1, "v"), "all", false});
  OperatorPtr agg = std::make_unique<HashAggregateOp>(
      std::move(values), std::vector<ExprPtr>{MakeColumnRef(0, "g")},
      std::vector<std::string>{"g"}, std::move(aggs));
  auto rows = CollectRows(agg.get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  for (const Row& row : *rows) {
    if (row[0] == Value::Int64(1)) {
      EXPECT_EQ(row[1], Value::Int64(2));
      EXPECT_EQ(row[2], Value::Int64(30));
      EXPECT_EQ(row[3], Value::Float64(15.0));
      EXPECT_EQ(row[4], Value::Int64(10));
      EXPECT_EQ(row[5], Value::Int64(20));
      EXPECT_EQ(row[6], Value::Int64(2));  // distinct values
      EXPECT_EQ(row[7].array().size(), 2u);
    } else {
      EXPECT_EQ(row[6], Value::Int64(1));  // 5 appears twice, distinct = 1
    }
  }
}

TEST(OperatorTest, GlobalAggregateOverEmptyInput) {
  std::vector<AggregateSpec> aggs;
  aggs.push_back({AggKind::kCountStar, nullptr, "n", false});
  aggs.push_back({AggKind::kSum, MakeColumnRef(0, "a"), "s", false});
  OperatorPtr agg = std::make_unique<HashAggregateOp>(
      MakeValues(IntCols({"a"}), {}), std::vector<ExprPtr>{},
      std::vector<std::string>{}, std::move(aggs));
  auto rows = CollectRows(agg.get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value::Int64(0));
  EXPECT_TRUE((*rows)[0][1].is_null());
}

TEST(OperatorTest, SortStableMultiKey) {
  auto values = MakeValues(
      IntCols({"a", "b"}),
      {IntRow({2, 1}), IntRow({1, 2}), IntRow({2, 0}), IntRow({1, 1})});
  std::vector<SortKey> keys{{MakeColumnRef(0, "a"), true},
                            {MakeColumnRef(1, "b"), false}};
  OperatorPtr sort = std::make_unique<SortOp>(std::move(values),
                                              std::move(keys));
  auto rows = CollectRows(sort.get());
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);
  EXPECT_EQ((*rows)[0], IntRow({1, 2}));
  EXPECT_EQ((*rows)[1], IntRow({1, 1}));
  EXPECT_EQ((*rows)[2], IntRow({2, 1}));
  EXPECT_EQ((*rows)[3], IntRow({2, 0}));
}

TEST(OperatorTest, PlanPrinting) {
  OperatorPtr plan = std::make_unique<FilterOp>(
      MakeValues(IntCols({"a"}), {}),
      MakeCompare(CompareOp::kEq, MakeColumnRef(0, "a"),
                  MakeLiteral(Value::Int64(1))));
  std::string printed = PrintPlan(*plan);
  EXPECT_NE(printed.find("Filter"), std::string::npos);
  EXPECT_NE(printed.find("Values"), std::string::npos);
}

}  // namespace
}  // namespace erbium
