// Minimal command-line flag parsing for the bench/ and examples/ binaries.
//
// Supports `--flag value`, `--flag=value`, and boolean `--flag` (which
// takes the next token as its value only when it is `true` or `false`).
// Unknown flags raise specpart::Error so typos do not silently change
// experiments.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace specpart {

/// Parsed command line: declared flags with defaults, plus positionals.
class Cli {
 public:
  Cli(std::string program, std::string description);

  /// Declares a flag before parsing. `help` appears in usage output.
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& help);

  /// Parses argv. Throws specpart::Error on unknown or malformed flags.
  /// Recognizes --help: prints usage and returns false (caller should exit).
  bool parse(int argc, const char* const* argv);

  std::string get(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  const std::vector<std::string>& positionals() const { return positionals_; }

  /// Renders the usage/help text.
  std::string usage() const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string help;
  };
  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positionals_;
};

}  // namespace specpart
