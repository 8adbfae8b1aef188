#ifndef ERBIUM_COMMON_LEXER_H_
#define ERBIUM_COMMON_LEXER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace erbium {

enum class TokenKind {
  kIdentifier,  // bare word; keyword matching is case-insensitive by text
  kInteger,
  kFloat,
  kString,      // single-quoted literal, quotes stripped
  kSymbol,      // punctuation / operator, text holds the exact symbol
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;    // identifier/symbol text or string contents
  int64_t int_value = 0;
  double float_value = 0;
  size_t position = 0;  // byte offset, for error messages

  bool IsSymbol(const char* s) const {
    return kind == TokenKind::kSymbol && text == s;
  }
  /// Case-insensitive keyword test (identifiers double as keywords).
  bool IsKeyword(const char* kw) const;
};

/// Tokenizes DDL and ERQL text. Symbols recognized:
///   ( ) , ; . * = != <> < <= > >= + - / % [ ] { } : ->
/// Comments: -- to end of line.
class Lexer {
 public:
  /// Tokenizes the whole input; returns ParseError with offset context on
  /// malformed input (unterminated string, bad number, stray character).
  static Result<std::vector<Token>> Tokenize(const std::string& input);
};

/// Cursor over a token stream with the usual recursive-descent helpers.
class TokenStream {
 public:
  explicit TokenStream(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  const Token& Peek(size_t ahead = 0) const;
  const Token& Advance();

  /// From now on, appends every consumed token to `*key`, one space
  /// apart: identifiers, symbols and numbers as written, strings
  /// re-quoted with '' escapes (the ERQL plan-cache key).
  void RecordInto(std::string* key) { key_ = key; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  /// If the next token is the given case-insensitive keyword, consumes it.
  bool ConsumeKeyword(const char* kw);
  /// If the next token is the given symbol, consumes it.
  bool ConsumeSymbol(const char* s);

  /// Consumes a required keyword/symbol or fails with a ParseError that
  /// names what was expected and what was found.
  Status ExpectKeyword(const char* kw);
  Status ExpectSymbol(const char* s);

  /// Consumes and returns an identifier token's text.
  Result<std::string> ExpectIdentifier(const char* what);

  /// Error mentioning the current token, e.g. "expected X, got 'Y'".
  Status ErrorHere(const std::string& message) const;

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  std::string* key_ = nullptr;
};

}  // namespace erbium

#endif  // ERBIUM_COMMON_LEXER_H_
