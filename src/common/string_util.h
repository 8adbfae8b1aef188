#ifndef ERBIUM_COMMON_STRING_UTIL_H_
#define ERBIUM_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace erbium {

/// ASCII lower-casing (identifiers in DDL/ERQL are case-insensitive).
std::string ToLower(std::string_view s);

/// Strips leading/trailing whitespace.
std::string Trim(const std::string& s);

/// Splits on a single character, trimming each piece; empty pieces kept.
std::vector<std::string> Split(const std::string& s, char sep);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Case-insensitive equality for identifiers/keywords.
bool EqualsIgnoreCase(const std::string& a, const std::string& b);

/// Shell-style glob match: '*' matches any run (including empty), '?'
/// matches one character, everything else matches literally and
/// case-sensitively. Used by SHOW METRICS LIKE '<glob>'.
bool GlobMatch(const std::string& pattern, const std::string& text);

}  // namespace erbium

#endif  // ERBIUM_COMMON_STRING_UTIL_H_
