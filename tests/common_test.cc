// Unit tests for the common layer: Status/Result, Type, Value, lexer,
// string utilities.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <thread>

#include "common/key_table.h"
#include "common/lexer.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/type.h"
#include "common/value.h"

namespace erbium {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  Status err = Status::NotFound("missing thing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.ToString(), "NotFound: missing thing");
}

TEST(ResultTest, ValueAndStatusAlternatives) {
  Result<int> ok_result(7);
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 7);
  Result<int> err_result(Status::InvalidArgument("bad"));
  ASSERT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 5;
  };
  auto outer = [&](bool fail) -> Result<int> {
    ERBIUM_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 6);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kInternal);
}

TEST(TypeTest, ScalarInterningAndEquality) {
  EXPECT_EQ(Type::Int64().get(), Type::Int64().get());
  EXPECT_TRUE(TypeEquals(Type::Int64(), Type::Int64()));
  EXPECT_FALSE(TypeEquals(Type::Int64(), Type::Float64()));
}

TEST(TypeTest, NestedStructure) {
  TypePtr t = Type::Array(Type::Struct(
      {{"a", Type::Int64()}, {"b", Type::Array(Type::String())}}));
  EXPECT_EQ(t->ToString(), "array<struct<a: int64, b: array<string>>>");
  TypePtr same = Type::Array(Type::Struct(
      {{"a", Type::Int64()}, {"b", Type::Array(Type::String())}}));
  EXPECT_TRUE(TypeEquals(t, same));
  TypePtr different = Type::Array(Type::Struct(
      {{"a", Type::Int64()}, {"c", Type::Array(Type::String())}}));
  EXPECT_FALSE(TypeEquals(t, different));
}

TEST(TypeTest, FieldIndex) {
  TypePtr t = Type::Struct({{"x", Type::Int64()}, {"y", Type::String()}});
  EXPECT_EQ(t->FieldIndex("x"), 0);
  EXPECT_EQ(t->FieldIndex("y"), 1);
  EXPECT_EQ(t->FieldIndex("z"), -1);
}

TEST(TypeTest, ParseTypeNames) {
  EXPECT_EQ((*ParseTypeName("INT"))->kind(), TypeKind::kInt64);
  EXPECT_EQ((*ParseTypeName("double"))->kind(), TypeKind::kFloat64);
  EXPECT_EQ((*ParseTypeName("text"))->kind(), TypeKind::kString);
  EXPECT_EQ((*ParseTypeName("BOOLEAN"))->kind(), TypeKind::kBool);
  TypePtr nested = *ParseTypeName("array<array<int>>");
  EXPECT_EQ(nested->ToString(), "array<array<int64>>");
  EXPECT_FALSE(ParseTypeName("quux").ok());
}

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).kind(), TypeKind::kBool);
  EXPECT_EQ(Value::Int64(3).as_int64(), 3);
  EXPECT_DOUBLE_EQ(Value::Float64(2.5).as_float64(), 2.5);
  EXPECT_EQ(Value::String("x").as_string(), "x");
  Value arr = Value::Array({Value::Int64(1), Value::Int64(2)});
  EXPECT_EQ(arr.array().size(), 2u);
  Value s = Value::Struct({{"a", Value::Int64(1)}});
  ASSERT_NE(s.FindField("a"), nullptr);
  EXPECT_EQ(s.FindField("b"), nullptr);
}

TEST(ValueTest, NumericCrossKindComparison) {
  EXPECT_EQ(Value::Int64(2), Value::Float64(2.0));
  EXPECT_LT(Value::Int64(2), Value::Float64(2.5));
  EXPECT_EQ(Value::Int64(2).Hash(), Value::Float64(2.0).Hash());
}

TEST(ValueTest, TotalOrderAcrossKinds) {
  // null < bool < numeric < string < array < struct.
  std::vector<Value> ordered = {
      Value::Null(),      Value::Bool(false),      Value::Int64(0),
      Value::String(""),  Value::Array({}),        Value::Struct({})};
  for (size_t i = 0; i + 1 < ordered.size(); ++i) {
    EXPECT_LT(ordered[i], ordered[i + 1]) << i;
  }
}

TEST(ValueTest, ArrayLexicographicComparison) {
  Value a = Value::Array({Value::Int64(1), Value::Int64(2)});
  Value b = Value::Array({Value::Int64(1), Value::Int64(3)});
  Value c = Value::Array({Value::Int64(1)});
  EXPECT_LT(a, b);
  EXPECT_LT(c, a);
  EXPECT_EQ(a, Value::Array({Value::Int64(1), Value::Int64(2)}));
}

TEST(ValueTest, ToStringRendering) {
  Value v = Value::Struct(
      {{"name", Value::String("bob")},
       {"tags", Value::Array({Value::Int64(1), Value::Null()})}});
  EXPECT_EQ(v.ToString(), "{name: 'bob', tags: [1, null]}");
}

TEST(ValueTest, VectorHashAndEq) {
  std::vector<Value> a{Value::Int64(1), Value::String("x")};
  std::vector<Value> b{Value::Int64(1), Value::String("x")};
  std::vector<Value> c{Value::Int64(1), Value::String("y")};
  EXPECT_TRUE(KeyEquals(a.data(), b.data(), 2));
  EXPECT_FALSE(KeyEquals(a.data(), c.data(), 2));
  EXPECT_EQ(HashKey(a.data(), 2), HashKey(b.data(), 2));
  // Equal across numeric kinds and signed zeros, so equal hashes too.
  std::vector<Value> d{Value::Float64(1.0), Value::String("x")};
  EXPECT_TRUE(KeyEquals(a.data(), d.data(), 2));
  EXPECT_EQ(HashKey(a.data(), 2), HashKey(d.data(), 2));
  Value zero = Value::Float64(0.0);
  Value negative_zero = Value::Float64(-0.0);
  EXPECT_TRUE(KeyEquals(&zero, &negative_zero, 1));
  EXPECT_EQ(HashKey(&zero, 1), HashKey(&negative_zero, 1));
  Value null = Value::Null();
  EXPECT_TRUE(KeyHasNull(&null, 1));
  EXPECT_FALSE(KeyHasNull(a.data(), 2));
}

TEST(LexerTest, TokenKinds) {
  auto tokens = Lexer::Tokenize("SELECT a.b, 'it''s' 12 3.5 >= <> -- c\nx");
  ASSERT_TRUE(tokens.ok());
  const std::vector<Token>& t = *tokens;
  EXPECT_TRUE(t[0].IsKeyword("select"));
  EXPECT_EQ(t[1].text, "a");
  EXPECT_TRUE(t[2].IsSymbol("."));
  EXPECT_EQ(t[3].text, "b");
  EXPECT_TRUE(t[4].IsSymbol(","));
  EXPECT_EQ(t[5].kind, TokenKind::kString);
  EXPECT_EQ(t[5].text, "it's");
  EXPECT_EQ(t[6].int_value, 12);
  EXPECT_DOUBLE_EQ(t[7].float_value, 3.5);
  EXPECT_TRUE(t[8].IsSymbol(">="));
  EXPECT_TRUE(t[9].IsSymbol("<>"));
  EXPECT_EQ(t[10].text, "x");  // comment skipped
  EXPECT_EQ(t[11].kind, TokenKind::kEnd);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lexer::Tokenize("'unterminated").ok());
  EXPECT_FALSE(Lexer::Tokenize("@").ok());
}

TEST(TokenStreamTest, ExpectHelpers) {
  auto tokens = Lexer::Tokenize("create entity Foo");
  ASSERT_TRUE(tokens.ok());
  TokenStream ts(std::move(tokens).value());
  EXPECT_TRUE(ts.ExpectKeyword("CREATE").ok());
  EXPECT_TRUE(ts.ConsumeKeyword("entity"));
  auto ident = ts.ExpectIdentifier("entity name");
  ASSERT_TRUE(ident.ok());
  EXPECT_EQ(*ident, "Foo");
  EXPECT_TRUE(ts.AtEnd());
  EXPECT_FALSE(ts.ExpectSymbol("(").ok());
}

TEST(LexerTest, IntegerLiteralOverflow) {
  // Within range: int64 max parses fine.
  auto ok = Lexer::Tokenize("9223372036854775807");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)[0].int_value, INT64_MAX);
  // One past int64 max, and absurdly long digit strings, must be a clean
  // parse error — not an uncaught exception or a silently wrapped value.
  auto over = Lexer::Tokenize("9223372036854775808");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kParseError);
  EXPECT_FALSE(Lexer::Tokenize("99999999999999999999999999999999").ok());
}

TEST(LexerTest, FloatLiteralOverflow) {
  auto ok = Lexer::Tokenize("1.5e308");
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ((*ok)[0].float_value, 1.5e308);
  auto over = Lexer::Tokenize("1.5e400");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kParseError);
  EXPECT_FALSE(Lexer::Tokenize("1e999999").ok());
}

TEST(LexerTest, ExponentWithoutDigitsStaysInteger) {
  // "2e" is integer 2 followed by identifier e, not a malformed float.
  auto tokens = Lexer::Tokenize("2e + 3E- 4e5");
  ASSERT_TRUE(tokens.ok());
  const std::vector<Token>& t = *tokens;
  EXPECT_EQ(t[0].kind, TokenKind::kInteger);
  EXPECT_EQ(t[0].int_value, 2);
  EXPECT_EQ(t[1].text, "e");
  EXPECT_EQ(t[3].kind, TokenKind::kInteger);
  EXPECT_EQ(t[4].text, "E");
  EXPECT_EQ(t[6].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(t[6].float_value, 4e5);
}

TEST(GlobMatchTest, EdgeCases) {
  // Empty pattern matches only empty text; "*" matches everything.
  EXPECT_TRUE(GlobMatch("", ""));
  EXPECT_FALSE(GlobMatch("", "x"));
  EXPECT_TRUE(GlobMatch("*", ""));
  EXPECT_TRUE(GlobMatch("*", "anything"));
  EXPECT_TRUE(GlobMatch("**", "anything"));
  EXPECT_FALSE(GlobMatch("x", ""));
  // '?' matches exactly one character.
  EXPECT_TRUE(GlobMatch("?", "a"));
  EXPECT_FALSE(GlobMatch("?", ""));
  EXPECT_FALSE(GlobMatch("?", "ab"));
  // Backtracking to the last star: "a*ab" requires re-trying the star.
  EXPECT_TRUE(GlobMatch("a*ab", "aab"));
  EXPECT_TRUE(GlobMatch("a*ab", "axab"));
  EXPECT_TRUE(GlobMatch("a*ab", "aabab"));
  EXPECT_FALSE(GlobMatch("a*ab", "aba"));
  // Mixed wildcards, and stars that must absorb nothing.
  EXPECT_TRUE(GlobMatch("wal.*", "wal.appends"));
  EXPECT_FALSE(GlobMatch("wal.*", "recovery.opens"));
  EXPECT_TRUE(GlobMatch("*.?", "a.b"));
  EXPECT_TRUE(GlobMatch("a*", "a"));
  EXPECT_TRUE(GlobMatch("*a", "a"));
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.Submit([&count] { ++count; }));
  }
  for (auto& f : futures) f.wait();
  EXPECT_EQ(count.load(), 16);
  EXPECT_GE(pool.num_workers(), 2);
}

TEST(ThreadPoolTest, SubmitDuringShutdownStillCompletesFuture) {
  // Regression: a task submitted while the pool is stopping must still
  // run (inline on the submitter) and its future must become ready — a
  // queued-but-never-drained task would leave the caller waiting forever.
  auto* pool = new ThreadPool(1);
  std::promise<void> gate;
  std::shared_future<void> gate_future = gate.get_future().share();
  // Occupy the lone worker so the destructor blocks joining it, keeping
  // the pool alive in the "stopping" state while we submit into it.
  pool->Submit([gate_future] { gate_future.wait(); });
  std::thread destroyer([pool] { delete pool; });
  // Until the destructor flips stopping_, probes are queued behind the
  // blocked worker and stay pending; once it flips, Submit must run the
  // task inline, so the future is ready the moment Submit returns.
  std::atomic<int> ran{0};
  bool saw_inline = false;
  for (int i = 0; i < 5000 && !saw_inline; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::future<void> probe = pool->Submit([&ran] { ++ran; });
    saw_inline = probe.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready;
  }
  EXPECT_TRUE(saw_inline);
  EXPECT_GE(ran.load(), 1);
  gate.set_value();  // release the worker; destruction drains the queue
  destroyer.join();
}

TEST(StringUtilTest, Basics) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(Trim("  x \t"), "x");
  EXPECT_EQ(Split("a, b ,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Join({"a", "b"}, "-"), "a-b");
  EXPECT_TRUE(EqualsIgnoreCase("Select", "SELECT"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "ab"));
}

}  // namespace
}  // namespace erbium
