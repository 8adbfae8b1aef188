#include "erql/parser.h"

#include "common/lexer.h"
#include "common/string_util.h"

namespace erbium {
namespace erql {

namespace {

/// Keywords that terminate an expression context or may not be used as
/// bare identifiers in the FROM/alias positions.
bool IsReservedKeyword(const std::string& word) {
  static const char* kReserved[] = {
      "select", "from",  "where", "group", "order", "by",    "limit",
      "join",   "on",    "as",    "and",   "or",    "not",   "in",
      "is",     "null",  "true",  "false", "asc",   "desc",  "distinct",
  };
  for (const char* kw : kReserved) {
    if (EqualsIgnoreCase(word, kw)) return true;
  }
  return false;
}

class QueryParser {
 public:
  explicit QueryParser(TokenStream ts) : ts_(std::move(ts)) {}

  /// Parses one statement and attaches its plan-cache key and WHERE
  /// parameters (see Query::cache_key), both built as tokens are consumed.
  Result<Query> Parse() {
    ts_.RecordInto(&key_);
    ERBIUM_ASSIGN_OR_RETURN(Query query, ParseQuery());
    // A trailing ';' (shell habit) does not change the statement.
    if (!key_.empty() && key_.back() == ';') {
      key_.pop_back();
      if (!key_.empty() && key_.back() == ' ') key_.pop_back();
    }
    query.cache_key = std::move(key_);
    query.params = std::move(params_);
    return query;
  }

 private:
  Result<Query> ParseQuery() {
    Query query;
    if (ts_.ConsumeKeyword("show")) {
      return ParseShow();
    }
    if (ts_.ConsumeKeyword("checkpoint")) {
      query.statement = StatementKind::kCheckpoint;
      ERBIUM_RETURN_NOT_OK(ExpectEnd());
      return query;
    }
    if (ts_.ConsumeKeyword("attach")) {
      ERBIUM_RETURN_NOT_OK(ts_.ExpectKeyword("database"));
      if (ts_.Peek().kind != TokenKind::kString) {
        return ts_.ErrorHere("expected 'directory path' after ATTACH DATABASE");
      }
      query.statement = StatementKind::kAttach;
      query.attach_path = ts_.Advance().text;
      ERBIUM_RETURN_NOT_OK(ExpectEnd());
      return query;
    }
    if (ts_.ConsumeKeyword("advise")) {
      query.statement = StatementKind::kAdvise;
      if (ts_.ConsumeKeyword("limit")) {
        if (ts_.Peek().kind != TokenKind::kInteger) {
          return ts_.ErrorHere("expected integer after LIMIT");
        }
        query.show_limit = ts_.Advance().int_value;
      }
      ERBIUM_RETURN_NOT_OK(ExpectEnd());
      return query;
    }
    if (ts_.ConsumeKeyword("export")) {
      ERBIUM_RETURN_NOT_OK(ts_.ExpectKeyword("workload"));
      ERBIUM_RETURN_NOT_OK(ts_.ExpectKeyword("into"));
      if (ts_.Peek().kind != TokenKind::kString) {
        return ts_.ErrorHere("expected 'file path' after EXPORT WORKLOAD INTO");
      }
      query.statement = StatementKind::kExportWorkload;
      query.workload_path = ts_.Advance().text;
      ERBIUM_RETURN_NOT_OK(ExpectEnd());
      return query;
    }
    if (ts_.ConsumeKeyword("load")) {
      ERBIUM_RETURN_NOT_OK(ts_.ExpectKeyword("workload"));
      ERBIUM_RETURN_NOT_OK(ts_.ExpectKeyword("from"));
      if (ts_.Peek().kind != TokenKind::kString) {
        return ts_.ErrorHere("expected 'file path' after LOAD WORKLOAD FROM");
      }
      query.statement = StatementKind::kLoadWorkload;
      query.workload_path = ts_.Advance().text;
      ERBIUM_RETURN_NOT_OK(ExpectEnd());
      return query;
    }
    if (ts_.ConsumeKeyword("trace")) {
      query.statement = StatementKind::kTrace;
      if (ts_.ConsumeKeyword("into")) {
        if (ts_.Peek().kind != TokenKind::kString) {
          return ts_.ErrorHere("expected 'file path' after TRACE INTO");
        }
        query.trace_into = ts_.Advance().text;
      }
      if (ts_.Peek().IsKeyword("explain")) {
        return ts_.ErrorHere("TRACE cannot wrap EXPLAIN");
      }
    }
    if (ts_.ConsumeKeyword("explain")) {
      query.explain = ts_.ConsumeKeyword("analyze") ? ExplainMode::kAnalyze
                                                    : ExplainMode::kPlan;
    }
    ERBIUM_RETURN_NOT_OK(ts_.ExpectKeyword("select"));
    if (ts_.ConsumeKeyword("distinct")) query.distinct = true;
    while (true) {
      SelectItem item;
      ERBIUM_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (ts_.ConsumeKeyword("as")) {
        ERBIUM_ASSIGN_OR_RETURN(item.alias,
                                ts_.ExpectIdentifier("output column name"));
      }
      query.select.push_back(std::move(item));
      if (!ts_.ConsumeSymbol(",")) break;
    }
    ERBIUM_RETURN_NOT_OK(ts_.ExpectKeyword("from"));
    ERBIUM_ASSIGN_OR_RETURN(query.from, ParseFromItem());
    while (ts_.ConsumeKeyword("join")) {
      JoinClause join;
      ERBIUM_ASSIGN_OR_RETURN(join.item, ParseFromItem());
      ERBIUM_RETURN_NOT_OK(ts_.ExpectKeyword("on"));
      // A lone identifier (not followed by an operator or '.') names a
      // relationship; anything else is a theta-join expression.
      if (ts_.Peek().kind == TokenKind::kIdentifier &&
          !IsReservedKeyword(ts_.Peek().text) && LooksLikeRelationship()) {
        join.relationship = ts_.Advance().text;
      } else {
        ERBIUM_ASSIGN_OR_RETURN(join.on_expr, ParseExpr());
      }
      query.joins.push_back(std::move(join));
    }
    if (ts_.ConsumeKeyword("where")) {
      in_where_ = true;
      ERBIUM_ASSIGN_OR_RETURN(query.where, ParseExpr());
      in_where_ = false;
    }
    if (ts_.ConsumeKeyword("group")) {
      ERBIUM_RETURN_NOT_OK(ts_.ExpectKeyword("by"));
      query.explicit_group_by = true;
      while (true) {
        ERBIUM_ASSIGN_OR_RETURN(ExprAstPtr expr, ParseExpr());
        query.group_by.push_back(std::move(expr));
        if (!ts_.ConsumeSymbol(",")) break;
      }
    }
    if (ts_.ConsumeKeyword("order")) {
      ERBIUM_RETURN_NOT_OK(ts_.ExpectKeyword("by"));
      while (true) {
        OrderItem item;
        ERBIUM_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ts_.ConsumeKeyword("desc")) {
          item.ascending = false;
        } else {
          ts_.ConsumeKeyword("asc");
        }
        query.order_by.push_back(std::move(item));
        if (!ts_.ConsumeSymbol(",")) break;
      }
    }
    if (ts_.ConsumeKeyword("limit")) {
      if (ts_.Peek().kind != TokenKind::kInteger) {
        return ts_.ErrorHere("expected integer after LIMIT");
      }
      query.limit = ts_.Advance().int_value;
    }
    if (!ts_.AtEnd() && !ts_.ConsumeSymbol(";")) {
      return ts_.ErrorHere("unexpected trailing input");
    }
    return query;
  }

  Status ExpectEnd() {
    if (!ts_.AtEnd() && !ts_.ConsumeSymbol(";")) {
      return ts_.ErrorHere("unexpected trailing input");
    }
    return Status::OK();
  }

  /// After a consumed SHOW keyword: METRICS [LIKE '<glob>'],
  /// QUERIES [SLOW] [LIMIT n], SESSIONS, or WORKLOAD [LIMIT n].
  Result<Query> ParseShow() {
    Query query;
    if (ts_.ConsumeKeyword("sessions")) {
      query.statement = StatementKind::kShowSessions;
    } else if (ts_.ConsumeKeyword("workload")) {
      query.statement = StatementKind::kShowWorkload;
      if (ts_.ConsumeKeyword("limit")) {
        if (ts_.Peek().kind != TokenKind::kInteger) {
          return ts_.ErrorHere("expected integer after LIMIT");
        }
        query.show_limit = ts_.Advance().int_value;
      }
    } else if (ts_.ConsumeKeyword("metrics")) {
      query.statement = StatementKind::kShowMetrics;
      if (ts_.ConsumeKeyword("like")) {
        if (ts_.Peek().kind != TokenKind::kString) {
          return ts_.ErrorHere("expected 'glob pattern' after LIKE");
        }
        query.show_like = ts_.Advance().text;
      }
    } else if (ts_.ConsumeKeyword("queries")) {
      query.statement = StatementKind::kShowQueries;
      if (ts_.ConsumeKeyword("slow")) query.show_slow = true;
      if (ts_.ConsumeKeyword("limit")) {
        if (ts_.Peek().kind != TokenKind::kInteger) {
          return ts_.ErrorHere("expected integer after LIMIT");
        }
        query.show_limit = ts_.Advance().int_value;
      }
    } else {
      return ts_.ErrorHere(
          "expected METRICS, QUERIES, SESSIONS, or WORKLOAD after SHOW");
    }
    if (!ts_.AtEnd() && !ts_.ConsumeSymbol(";")) {
      return ts_.ErrorHere("unexpected trailing input");
    }
    return query;
  }

  /// After JOIN x ON, an identifier is a relationship name unless it is
  /// followed by '.', an operator, or '(' (expression shapes).
  bool LooksLikeRelationship() {
    const Token& next = ts_.Peek(1);
    if (next.IsSymbol(".") || next.IsSymbol("(") || next.IsSymbol("=") ||
        next.IsSymbol("!=") || next.IsSymbol("<>") || next.IsSymbol("<") ||
        next.IsSymbol("<=") || next.IsSymbol(">") || next.IsSymbol(">=") ||
        next.IsSymbol("+") || next.IsSymbol("-") || next.IsSymbol("*") ||
        next.IsSymbol("/") || next.IsSymbol("%")) {
      return false;
    }
    return true;
  }

  Result<FromItem> ParseFromItem() {
    FromItem item;
    ERBIUM_ASSIGN_OR_RETURN(item.entity,
                            ts_.ExpectIdentifier("entity set name"));
    if (ts_.Peek().kind == TokenKind::kIdentifier &&
        !IsReservedKeyword(ts_.Peek().text)) {
      item.alias = ts_.Advance().text;
    } else {
      item.alias = item.entity;
    }
    return item;
  }

  // Precedence climbing: or < and < not < comparison/is/in < add < mul.
  Result<ExprAstPtr> ParseExpr() { return ParseOr(); }

  Result<ExprAstPtr> ParseOr() {
    ERBIUM_ASSIGN_OR_RETURN(ExprAstPtr left, ParseAnd());
    while (ts_.ConsumeKeyword("or")) {
      ERBIUM_ASSIGN_OR_RETURN(ExprAstPtr right, ParseAnd());
      left = MakeBinary("or", std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprAstPtr> ParseAnd() {
    ERBIUM_ASSIGN_OR_RETURN(ExprAstPtr left, ParseNot());
    while (ts_.ConsumeKeyword("and")) {
      ERBIUM_ASSIGN_OR_RETURN(ExprAstPtr right, ParseNot());
      left = MakeBinary("and", std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprAstPtr> ParseNot() {
    if (ts_.ConsumeKeyword("not")) {
      ERBIUM_ASSIGN_OR_RETURN(ExprAstPtr child, ParseNot());
      auto ast = std::make_shared<ExprAst>();
      ast->kind = ExprAst::Kind::kNot;
      ast->children.push_back(std::move(child));
      return ExprAstPtr(ast);
    }
    return ParseComparison();
  }

  Result<ExprAstPtr> ParseComparison() {
    ERBIUM_ASSIGN_OR_RETURN(ExprAstPtr left, ParseAdditive());
    while (true) {
      if (ts_.ConsumeKeyword("is")) {
        bool negated = ts_.ConsumeKeyword("not");
        ERBIUM_RETURN_NOT_OK(ts_.ExpectKeyword("null"));
        auto ast = std::make_shared<ExprAst>();
        ast->kind = ExprAst::Kind::kIsNull;
        ast->negated = negated;
        ast->children.push_back(std::move(left));
        left = std::move(ast);
        continue;
      }
      bool negated_in = false;
      if (ts_.Peek().IsKeyword("not") && ts_.Peek(1).IsKeyword("in")) {
        ts_.Advance();
        negated_in = true;
      }
      if (ts_.ConsumeKeyword("in")) {
        ERBIUM_RETURN_NOT_OK(ts_.ExpectSymbol("("));
        auto ast = std::make_shared<ExprAst>();
        ast->kind = ExprAst::Kind::kInList;
        ast->negated = negated_in;
        ast->children.push_back(std::move(left));
        while (true) {
          ERBIUM_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
          ast->in_values.push_back(std::move(v));
          if (ts_.ConsumeSymbol(",")) continue;
          ERBIUM_RETURN_NOT_OK(ts_.ExpectSymbol(")"));
          break;
        }
        left = std::move(ast);
        continue;
      }
      const char* op = nullptr;
      for (const char* candidate : {"=", "!=", "<>", "<=", ">=", "<", ">"}) {
        if (ts_.Peek().IsSymbol(candidate)) {
          op = candidate;
          break;
        }
      }
      if (op == nullptr) break;
      ts_.Advance();
      ERBIUM_ASSIGN_OR_RETURN(ExprAstPtr right, ParseAdditive());
      left = MakeBinary(op == std::string("<>") ? "!=" : op, std::move(left),
                        std::move(right));
    }
    return left;
  }

  Result<ExprAstPtr> ParseAdditive() {
    ERBIUM_ASSIGN_OR_RETURN(ExprAstPtr left, ParseMultiplicative());
    while (ts_.Peek().IsSymbol("+") || ts_.Peek().IsSymbol("-")) {
      std::string op = ts_.Advance().text;
      ERBIUM_ASSIGN_OR_RETURN(ExprAstPtr right, ParseMultiplicative());
      left = MakeBinary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprAstPtr> ParseMultiplicative() {
    ERBIUM_ASSIGN_OR_RETURN(ExprAstPtr left, ParsePrimary());
    while (ts_.Peek().IsSymbol("*") || ts_.Peek().IsSymbol("/") ||
           ts_.Peek().IsSymbol("%")) {
      std::string op = ts_.Advance().text;
      ERBIUM_ASSIGN_OR_RETURN(ExprAstPtr right, ParsePrimary());
      left = MakeBinary(op, std::move(left), std::move(right));
    }
    return left;
  }

  Result<Value> ParseLiteralValue() {
    const Token& token = ts_.Peek();
    if (token.kind == TokenKind::kInteger) {
      ts_.Advance();
      return Value::Int64(token.int_value);
    }
    if (token.kind == TokenKind::kFloat) {
      ts_.Advance();
      return Value::Float64(token.float_value);
    }
    if (token.kind == TokenKind::kString) {
      ts_.Advance();
      return Value::String(token.text);
    }
    if (token.IsKeyword("true")) {
      ts_.Advance();
      return Value::Bool(true);
    }
    if (token.IsKeyword("false")) {
      ts_.Advance();
      return Value::Bool(false);
    }
    if (token.IsKeyword("null")) {
      ts_.Advance();
      return Value::Null();
    }
    if (token.IsSymbol("-") &&
        (ts_.Peek(1).kind == TokenKind::kInteger ||
         ts_.Peek(1).kind == TokenKind::kFloat)) {
      ts_.Advance();
      const Token& number = ts_.Advance();
      if (number.kind == TokenKind::kInteger) {
        return Value::Int64(-number.int_value);
      }
      return Value::Float64(-number.float_value);
    }
    return ts_.ErrorHere("expected literal");
  }

  Result<ExprAstPtr> ParsePrimary() {
    const Token& token = ts_.Peek();
    // Literals (incl. negative numbers).
    if (token.kind == TokenKind::kInteger || token.kind == TokenKind::kFloat ||
        token.kind == TokenKind::kString || token.IsKeyword("true") ||
        token.IsKeyword("false") || token.IsKeyword("null") ||
        (token.IsSymbol("-") && (ts_.Peek(1).kind == TokenKind::kInteger ||
                                 ts_.Peek(1).kind == TokenKind::kFloat))) {
      size_t key_mark = key_.size();
      ERBIUM_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
      auto ast = std::make_shared<ExprAst>();
      ast->kind = ExprAst::Kind::kLiteral;
      const char* marker = v.kind() == TypeKind::kInt64     ? " ?i"
                           : v.kind() == TypeKind::kFloat64 ? " ?f"
                           : v.kind() == TypeKind::kString  ? " ?s"
                                                            : nullptr;
      if (in_where_ && marker != nullptr) {
        // A WHERE literal becomes a parameter slot: the key keeps only
        // its type class (a folded leading '-' included), so one plan
        // serves every value. Literals elsewhere can steer plan choices
        // (GROUP BY matching, LIMIT) and stay verbatim.
        key_.resize(key_mark);
        key_ += marker;
        ast->slot = static_cast<int>(params_.size());
        params_.push_back(v);
      }
      ast->literal = std::move(v);
      return ExprAstPtr(ast);
    }
    // Array literal.
    if (ts_.ConsumeSymbol("[")) {
      Value::ArrayData elements;
      if (!ts_.ConsumeSymbol("]")) {
        while (true) {
          ERBIUM_ASSIGN_OR_RETURN(Value v, ParseLiteralValue());
          elements.push_back(std::move(v));
          if (ts_.ConsumeSymbol(",")) continue;
          ERBIUM_RETURN_NOT_OK(ts_.ExpectSymbol("]"));
          break;
        }
      }
      auto ast = std::make_shared<ExprAst>();
      ast->kind = ExprAst::Kind::kLiteral;
      ast->literal = Value::Array(std::move(elements));
      return ExprAstPtr(ast);
    }
    // Parenthesized expression.
    if (ts_.ConsumeSymbol("(")) {
      ERBIUM_ASSIGN_OR_RETURN(ExprAstPtr inner, ParseExpr());
      ERBIUM_RETURN_NOT_OK(ts_.ExpectSymbol(")"));
      return inner;
    }
    // struct(name: expr, ...) constructor.
    if (token.IsKeyword("struct")) {
      ts_.Advance();
      ERBIUM_RETURN_NOT_OK(ts_.ExpectSymbol("("));
      auto ast = std::make_shared<ExprAst>();
      ast->kind = ExprAst::Kind::kStruct;
      while (true) {
        // Either `name: expr` or a bare identifier expression whose name
        // doubles as the field name.
        std::string field_name;
        if (ts_.Peek().kind == TokenKind::kIdentifier &&
            ts_.Peek(1).IsSymbol(":")) {
          field_name = ts_.Advance().text;
          ts_.Advance();  // ':'
        }
        ERBIUM_ASSIGN_OR_RETURN(ExprAstPtr field, ParseExpr());
        if (field_name.empty()) {
          field_name = field->kind == ExprAst::Kind::kIdent
                           ? field->name
                           : "f" + std::to_string(ast->children.size() + 1);
        }
        ast->field_names.push_back(std::move(field_name));
        ast->children.push_back(std::move(field));
        if (ts_.ConsumeSymbol(",")) continue;
        ERBIUM_RETURN_NOT_OK(ts_.ExpectSymbol(")"));
        break;
      }
      return ExprAstPtr(ast);
    }
    // Identifier: column ref or function call.
    if (token.kind == TokenKind::kIdentifier) {
      std::string first = ts_.Advance().text;
      if (ts_.ConsumeSymbol("(")) {
        auto ast = std::make_shared<ExprAst>();
        ast->kind = ExprAst::Kind::kFunction;
        ast->name = ToLower(first);
        if (ts_.ConsumeSymbol("*")) {
          auto star = std::make_shared<ExprAst>();
          star->kind = ExprAst::Kind::kStar;
          ast->children.push_back(std::move(star));
          ERBIUM_RETURN_NOT_OK(ts_.ExpectSymbol(")"));
          return ExprAstPtr(ast);
        }
        if (ts_.ConsumeKeyword("distinct")) ast->distinct = true;
        if (!ts_.ConsumeSymbol(")")) {
          while (true) {
            ERBIUM_ASSIGN_OR_RETURN(ExprAstPtr arg, ParseExpr());
            ast->children.push_back(std::move(arg));
            if (ts_.ConsumeSymbol(",")) continue;
            ERBIUM_RETURN_NOT_OK(ts_.ExpectSymbol(")"));
            break;
          }
        }
        return ExprAstPtr(ast);
      }
      auto ast = std::make_shared<ExprAst>();
      ast->kind = ExprAst::Kind::kIdent;
      if (ts_.ConsumeSymbol(".")) {
        ast->qualifier = first;
        ERBIUM_ASSIGN_OR_RETURN(ast->name,
                                ts_.ExpectIdentifier("attribute name"));
      } else {
        ast->name = first;
      }
      return ExprAstPtr(ast);
    }
    return ts_.ErrorHere("expected expression");
  }

  static ExprAstPtr MakeBinary(std::string op, ExprAstPtr left,
                               ExprAstPtr right) {
    auto ast = std::make_shared<ExprAst>();
    ast->kind = ExprAst::Kind::kBinary;
    ast->op = std::move(op);
    ast->children.push_back(std::move(left));
    ast->children.push_back(std::move(right));
    return ast;
  }

  TokenStream ts_;
  std::string key_;
  std::vector<Value> params_;
  bool in_where_ = false;
};

}  // namespace

std::string ExprAst::ToString() const {
  switch (kind) {
    case Kind::kIdent:
      return qualifier.empty() ? name : qualifier + "." + name;
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kBinary:
      return "(" + children[0]->ToString() + " " + op + " " +
             children[1]->ToString() + ")";
    case Kind::kNot:
      return "NOT " + children[0]->ToString();
    case Kind::kIsNull:
      return children[0]->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
    case Kind::kInList: {
      std::string out = children[0]->ToString() +
                        (negated ? " NOT IN (" : " IN (");
      for (size_t i = 0; i < in_values.size(); ++i) {
        if (i > 0) out += ", ";
        out += in_values[i].ToString();
      }
      return out + ")";
    }
    case Kind::kFunction: {
      std::string out = name + "(";
      if (distinct) out += "DISTINCT ";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kStar:
      return "*";
    case Kind::kStruct: {
      std::string out = "struct(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += field_names[i] + ": " + children[i]->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

Result<Query> Parser::Parse(const std::string& text) {
  ERBIUM_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer::Tokenize(text));
  QueryParser parser{TokenStream(std::move(tokens))};
  return parser.Parse();
}

}  // namespace erql
}  // namespace erbium
