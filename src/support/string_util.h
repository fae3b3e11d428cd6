// Small string helpers shared across the library. We deliberately avoid a
// dependency on std::format (not universally available in older toolchains)
// and keep an ostream-based str_cat instead.
#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace ramiel {

/// Concatenates all arguments using operator<< into a single string.
template <typename... Args>
std::string str_cat(Args&&... args) {
  std::ostringstream os;
  if constexpr (sizeof...(Args) > 0) (os << ... << std::forward<Args>(args));
  return os.str();
}

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits `s` on arbitrary whitespace, dropping empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Escapes a string for embedding in the onnx-lite text format (quotes and
/// backslashes get a backslash prefix; newlines become \n).
std::string escape(std::string_view s);

/// Inverse of escape(). Throws ParseError on a dangling escape.
std::string unescape(std::string_view s);

}  // namespace ramiel
