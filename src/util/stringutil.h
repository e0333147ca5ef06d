// Small string helpers shared by the netlist parsers and table printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace specpart {

/// Splits on any run of whitespace; no empty tokens are produced.
std::vector<std::string> split_ws(std::string_view s);

/// Splits on a single-character delimiter; empty fields are kept.
std::vector<std::string> split_char(std::string_view s, char delim);

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view s);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// `s` in single quotes for an error message, cut to its first 64 bytes
/// plus "..." when longer, so no message echoes an unbounded input.
std::string quote_prefix(std::string_view s);

/// Parses a non-negative integer; throws specpart::Error on junk.
std::size_t parse_size(std::string_view s, std::string_view what);

/// Parses a double; throws specpart::Error on junk.
double parse_double(std::string_view s, std::string_view what);

/// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace specpart
