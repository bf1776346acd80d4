// Tiny command-line option parser for the tools and benchmark binaries.
// Supports --name=value, bare --flag (boolean true), and positional
// arguments. Every binary declares the flags it reads; a flag outside that
// list (a typo such as --scal=0.05) stops the binary instead of being
// ignored. No external dependencies.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sion {

class Options {
 public:
  // `known` names the flags the binary reads, without the leading dashes;
  // --help is always known.
  Options(int argc, const char* const* argv, std::vector<std::string> known);

  // For a binary's main, right after parsing: set when the run must not go
  // on, with the exit code and the text to print. --help lists the known
  // flags (code 0, for stdout); a flag outside the known list is named
  // (code 2, for stderr).
  struct Stop {
    int code = 0;
    std::string text;
  };
  [[nodiscard]] std::optional<Stop> stop() const;
  // The first flag outside the known list, or empty.
  [[nodiscard]] const std::string& unknown_flag() const { return unknown_; }

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback = "") const;
  // Understands k/m/g/t suffixes via parse_size().
  [[nodiscard]] std::uint64_t get_u64(const std::string& name,
                                      std::uint64_t fallback = 0) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback = 0.0) const;
  [[nodiscard]] bool get_bool(const std::string& name,
                              bool fallback = false) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::vector<std::string> known_;
  std::string unknown_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace sion
