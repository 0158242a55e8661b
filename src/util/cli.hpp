// Minimal command-line parsing for the tools and the bench/example binaries.
//
// Supports `--name=value`, `--name value` and boolean `--flag` arguments.
// Unknown arguments are collected so a binary can reject typos. Numeric
// getters accept only a whole, in-range number and otherwise throw
// std::invalid_argument naming the flag. A tool with subcommands declares
// them once, as a table of `Command` rows run by `run_command`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace la1::util {

/// A comma-separated list of positive integers ("1,2,4"); throws
/// std::invalid_argument naming `what` on a malformed, empty or
/// non-positive entry.
std::vector<int> parse_positive_list(const std::string& csv,
                                     const std::string& what);

/// One flag a subcommand reads. With a metavar it takes a value
/// (`--banks N` or `--banks=N`); without one it is boolean and never takes
/// the next argument as its value.
struct Flag {
  std::string_view name;
  std::string_view metavar;
};

class Cli;

/// One row of a tool's subcommand table.
struct Command {
  std::string_view name;
  std::string_view operand;  // metavar of the one positional (msc FILE)
  std::string_view summary;
  std::vector<Flag> flags;
  int (*run)(const Cli&);
};

class Cli {
 public:
  /// `booleans` names the flags that never take the next argument.
  Cli(int argc, const char* const* argv,
      const std::vector<std::string_view>& booleans = {});

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// get_int for a flag held in an int: a value outside [min, max] throws
  /// std::invalid_argument "--<name> must be at least <min>" (or "at most
  /// <max>") instead of wrapping when it is narrowed.
  int get_bounded(const std::string& name, int fallback, int min,
                  int max = std::numeric_limits<int>::max()) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non --option) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Names seen on the command line that were never queried; call last.
  std::vector<std::string> unused() const;

 private:
  friend int run_command(std::string_view, const std::vector<Command>&, int,
                         const char* const*);

  /// The value given for `name`, or null. Querying a flag outside
  /// `declared_` (when set) is a programming error and throws.
  const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> options_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
  const std::vector<Flag>* declared_ = nullptr;
};

/// Runs a command line against a subcommand table. `--help` or `help`
/// prints the usage generated from the table (exit 0); an unknown command
/// or operand count prints it to stderr (exit 2); a flag the command does
/// not declare prints "error: <command>: unknown option --<name>" (exit 2)
/// before any work. A std::exception from the command prints
/// "error: <what>" (exit 2).
int run_command(std::string_view tool, const std::vector<Command>& commands,
                int argc, const char* const* argv);

/// Inputs larger than this are refused before they are parsed.
inline constexpr std::size_t kMaxInputBytes = std::size_t{16} << 20;

/// The whole of the file at `path`. Throws std::runtime_error when it
/// cannot be opened or holds more than kMaxInputBytes.
std::string read_input(const std::string& path);

/// Writes `text` to `path`, or prints "cannot write <path>": false.
bool write_file(const std::string& path, const std::string& text);

/// The --json FILE|- sink: "-" prints `doc` to stdout, a path writes it and
/// says so, naming the contents `what`; empty writes nothing. False when the
/// file cannot be written.
bool write_json(const std::string& dest, const Json& doc, const char* what);

/// The tail every report shares: `text` on stdout unless --json is "-",
/// then `doc` to the --json sink (exit 2 when that fails), then `verdict()`
/// as the exit status.
int emit_report(const Cli& cli, const std::string& text, const Json& doc,
                const char* what, const std::function<int()>& verdict);

}  // namespace la1::util
