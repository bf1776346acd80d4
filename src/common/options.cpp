#include "common/options.h"

#include <algorithm>
#include <cstdlib>

#include "common/strings.h"
#include "common/units.h"

namespace sion {

Options::Options(int argc, const char* const* argv,
                 std::vector<std::string> known)
    : known_(std::move(known)) {
  if (argc > 0) program_ = argv[0];
  bool flags_done = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (flags_done || !starts_with(arg, "--")) {
      positional_.push_back(arg);
      continue;
    }
    if (arg == "--") {
      // Conventional end-of-flags separator: everything after it is
      // positional, and the "--" itself is consumed.
      flags_done = true;
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    const std::string name = body.substr(0, eq);
    if (unknown_.empty() && name != "help" &&
        std::find(known_.begin(), known_.end(), name) == known_.end()) {
      unknown_ = name;
    }
    if (eq != std::string::npos) {
      flags_[name] = body.substr(eq + 1);
    } else {
      // Bare --flag is boolean true. Values always use --name=value; a
      // space-separated form would be ambiguous against positionals.
      flags_[name] = "true";
    }
  }
}

std::optional<Options::Stop> Options::stop() const {
  if (!unknown_.empty()) {
    return Stop{2, program_ + ": unknown flag --" + unknown_ +
                       " (try --help)\n"};
  }
  if (!has("help")) return std::nullopt;
  std::string text = "usage: " + program_ + " [flags] [arguments]\nflags:\n";
  for (const std::string& name : known_) text += "  --" + name + "\n";
  text += "  --help\n";
  return Stop{0, std::move(text)};
}

bool Options::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string Options::get_string(const std::string& name,
                                const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::uint64_t Options::get_u64(const std::string& name,
                               std::uint64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return parse_size(it->second);
}

double Options::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool Options::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace sion
