#include "util/cli.h"

#include <cstdio>

#include "util/error.h"
#include "util/stringutil.h"

namespace specpart {

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void Cli::add_flag(const std::string& name, const std::string& default_value,
                   const std::string& help) {
  SP_REQUIRE(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{default_value, default_value, help};
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (!starts_with(arg, "--")) {
      positionals_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool have_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      have_value = true;
    }
    auto it = flags_.find(name);
    SP_CHECK_INPUT(it != flags_.end(), "unknown flag --" + name);
    if (!have_value) {
      // Boolean flags may omit the value: they consume the next token only
      // when it is true/false, so a positional after one stays positional.
      // Other flags always consume it.
      const bool bool_like = it->second.default_value == "true" ||
                             it->second.default_value == "false";
      const std::string next = i + 1 < argc ? argv[i + 1] : "";
      if (bool_like && next != "true" && next != "false") {
        value = "true";
      } else {
        SP_CHECK_INPUT(i + 1 < argc, "flag --" + name + " needs a value");
        value = argv[++i];
      }
    }
    it->second.value = value;
  }
  return true;
}

std::string Cli::get(const std::string& name) const {
  auto it = flags_.find(name);
  SP_REQUIRE(it != flags_.end(), "undeclared flag queried: " + name);
  return it->second.value;
}

std::int64_t Cli::get_int(const std::string& name) const {
  return static_cast<std::int64_t>(parse_double(get(name), "--" + name));
}

double Cli::get_double(const std::string& name) const {
  return parse_double(get(name), "--" + name);
}

bool Cli::get_bool(const std::string& name) const {
  const std::string v = get(name);
  SP_CHECK_INPUT(v == "true" || v == "false",
                 "--" + name + " expects true/false, got '" + v + "'");
  return v == "true";
}

std::string Cli::usage() const {
  std::string out = program_ + " — " + description_ + "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    out += strprintf("  --%-18s %s (default: %s)\n", name.c_str(),
                     flag.help.c_str(), flag.default_value.c_str());
  }
  return out;
}

}  // namespace specpart
