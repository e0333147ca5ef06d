#include "util/stringutil.h"

#include <cctype>
#include <cstdint>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "util/error.h"

namespace specpart {

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::vector<std::string> split_char(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string quote_prefix(std::string_view s) {
  constexpr std::size_t kMaxQuoted = 64;
  std::string quoted = "'";
  quoted += s.substr(0, kMaxQuoted);
  if (s.size() > kMaxQuoted) quoted += "...";
  quoted += '\'';
  return quoted;
}

std::size_t parse_size(std::string_view s, std::string_view what) {
  s = trim(s);
  SP_CHECK_INPUT(!s.empty(), std::string(what) + ": empty integer field");
  std::size_t value = 0;
  for (char c : s) {
    SP_CHECK_INPUT(std::isdigit(static_cast<unsigned char>(c)),
                   std::string(what) + ": bad integer " + quote_prefix(s));
    const auto digit = static_cast<std::size_t>(c - '0');
    SP_CHECK_INPUT(value <= (SIZE_MAX - digit) / 10,
                   std::string(what) + ": integer overflow in " +
                       quote_prefix(s));
    value = value * 10 + digit;
  }
  return value;
}

double parse_double(std::string_view s, std::string_view what) {
  const std::string buf(trim(s));
  SP_CHECK_INPUT(!buf.empty(), std::string(what) + ": empty numeric field");
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  SP_CHECK_INPUT(end == buf.c_str() + buf.size(),
                 std::string(what) + ": bad number " + quote_prefix(buf));
  return v;
}

std::string strprintf(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

}  // namespace specpart
