// Minimal command-line parsing for the bench/example binaries.
//
// Supports `--name=value`, `--name value` and boolean `--flag` arguments.
// Unknown arguments are collected so a binary can reject typos. Numeric
// getters accept only a whole, in-range number and otherwise throw
// std::invalid_argument naming the flag.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace la1::util {

/// A comma-separated list of positive integers ("1,2,4"); throws
/// std::invalid_argument naming `what` on a malformed, empty or
/// non-positive entry.
std::vector<int> parse_positive_list(const std::string& csv,
                                     const std::string& what);

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non --option) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Names seen on the command line that were never queried; call last.
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> options_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

}  // namespace la1::util
