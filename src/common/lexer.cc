#include "common/lexer.h"

#include <cctype>

#include "common/string_util.h"

namespace erbium {

bool Token::IsKeyword(const char* kw) const {
  return kind == TokenKind::kIdentifier && EqualsIgnoreCase(text, kw);
}

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Lexer::Tokenize(const std::string& input) {
  std::vector<Token> tokens;
  size_t i = 0;
  size_t n = input.size();
  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    size_t start = i;
    if (IsIdentStart(c)) {
      while (i < n && IsIdentChar(input[i])) ++i;
      tokens.push_back(
          {TokenKind::kIdentifier, input.substr(start, i - start), 0, 0,
           start});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      bool is_float = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(input[i])) ||
                       input[i] == '.')) {
        if (input[i] == '.') {
          // ".." would be malformed; a single dot makes it a float.
          if (is_float) break;
          // Don't treat "1.x" (field access on a number) as float unless a
          // digit follows.
          if (i + 1 >= n ||
              !std::isdigit(static_cast<unsigned char>(input[i + 1]))) {
            break;
          }
          is_float = true;
        }
        ++i;
      }
      // Scientific notation: [eE][+-]?digits makes the literal a float.
      // Only consume the exponent when at least one digit follows, so
      // "2e" stays integer 2 + identifier e.
      if (i < n && (input[i] == 'e' || input[i] == 'E')) {
        size_t exp = i + 1;
        if (exp < n && (input[exp] == '+' || input[exp] == '-')) ++exp;
        if (exp < n && std::isdigit(static_cast<unsigned char>(input[exp]))) {
          i = exp;
          while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) {
            ++i;
          }
          is_float = true;
        }
      }
      std::string text = input.substr(start, i - start);
      Token token;
      token.text = text;
      token.position = start;
      if (is_float) {
        token.kind = TokenKind::kFloat;
        try {
          token.float_value = std::stod(text);
        } catch (...) {
          return Status::ParseError("float literal out of range: " + text);
        }
      } else {
        token.kind = TokenKind::kInteger;
        try {
          token.int_value = std::stoll(text);
        } catch (...) {
          return Status::ParseError("integer literal out of range: " + text);
        }
      }
      tokens.push_back(std::move(token));
      continue;
    }
    if (c == '\'') {
      std::string contents;
      ++i;
      bool closed = false;
      while (i < n) {
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {  // escaped quote ''
            contents.push_back('\'');
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        contents.push_back(input[i]);
        ++i;
      }
      if (!closed) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(start));
      }
      tokens.push_back(
          {TokenKind::kString, std::move(contents), 0, 0, start});
      continue;
    }
    // Multi-char symbols first.
    auto try_symbol = [&](const char* sym) -> bool {
      size_t len = std::char_traits<char>::length(sym);
      if (input.compare(i, len, sym) == 0) {
        tokens.push_back({TokenKind::kSymbol, sym, 0, 0, start});
        i += len;
        return true;
      }
      return false;
    };
    if (try_symbol("!=") || try_symbol("<>") || try_symbol("<=") ||
        try_symbol(">=") || try_symbol("->")) {
      continue;
    }
    static const char kSingle[] = "(),;.*=<>+-/%[]{}:";
    if (std::char_traits<char>::find(kSingle, sizeof(kSingle) - 1, c) !=
        nullptr) {
      tokens.push_back({TokenKind::kSymbol, std::string(1, c), 0, 0, start});
      ++i;
      continue;
    }
    return Status::ParseError("unexpected character '" + std::string(1, c) +
                              "' at offset " + std::to_string(start));
  }
  tokens.push_back({TokenKind::kEnd, "", 0, 0, n});
  return tokens;
}

const Token& TokenStream::Peek(size_t ahead) const {
  size_t idx = pos_ + ahead;
  if (idx >= tokens_.size()) idx = tokens_.size() - 1;  // kEnd sentinel
  return tokens_[idx];
}

const Token& TokenStream::Advance() {
  const Token& token = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  if (key_ != nullptr && token.kind != TokenKind::kEnd) {
    if (!key_->empty()) key_->push_back(' ');
    if (token.kind == TokenKind::kString) {
      key_->push_back('\'');
      for (char c : token.text) {
        if (c == '\'') key_->push_back('\'');
        key_->push_back(c);
      }
      key_->push_back('\'');
    } else {
      key_->append(token.text);
    }
  }
  return token;
}

bool TokenStream::ConsumeKeyword(const char* kw) {
  if (Peek().IsKeyword(kw)) {
    Advance();
    return true;
  }
  return false;
}

bool TokenStream::ConsumeSymbol(const char* s) {
  if (Peek().IsSymbol(s)) {
    Advance();
    return true;
  }
  return false;
}

Status TokenStream::ExpectKeyword(const char* kw) {
  if (ConsumeKeyword(kw)) return Status::OK();
  return ErrorHere(std::string("expected keyword '") + kw + "'");
}

Status TokenStream::ExpectSymbol(const char* s) {
  if (ConsumeSymbol(s)) return Status::OK();
  return ErrorHere(std::string("expected '") + s + "'");
}

Result<std::string> TokenStream::ExpectIdentifier(const char* what) {
  if (Peek().kind != TokenKind::kIdentifier) {
    return ErrorHere(std::string("expected ") + what);
  }
  return Advance().text;
}

Status TokenStream::ErrorHere(const std::string& message) const {
  const Token& token = Peek();
  std::string got = token.kind == TokenKind::kEnd
                        ? "end of input"
                        : "'" + token.text + "'";
  return Status::ParseError(message + ", got " + got + " (offset " +
                            std::to_string(token.position) + ")");
}

}  // namespace erbium
