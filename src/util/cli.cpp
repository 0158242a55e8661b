#include "util/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "util/strings.hpp"

namespace la1::util {

namespace {

/// `parse(text, &end)` when it consumes all of a non-blank `text` and
/// leaves errno clear; otherwise std::invalid_argument naming `what`.
template <typename Parse>
auto whole(const std::string& text, const std::string& what, const char* kind,
           Parse parse) {
  errno = 0;
  char* end = nullptr;
  const auto v = parse(text.c_str(), &end);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      *end != '\0' || errno != 0) {
    throw std::invalid_argument(what + ": expected " + kind + ", got '" +
                                text + "'");
  }
  return v;
}

std::int64_t to_int(const char* s, char** end) {
  return std::strtoll(s, end, 0);
}

bool declares(const std::vector<Flag>& flags, std::string_view name) {
  return std::any_of(flags.begin(), flags.end(),
                     [&](const Flag& f) { return f.name == name; });
}

/// The `--help` text: the usage lines, then a `commands:` and an `options:`
/// section with one row per command, options wrapped under their command.
std::string render_usage(std::string_view tool,
                         const std::vector<Command>& commands) {
  std::size_t width = 0;
  for (const Command& c : commands) width = std::max(width, c.name.size());
  const auto column = [&](std::string_view name) {
    return cat({"  ", name, std::string(width + 2 - name.size(), ' ')});
  };
  const std::string name(tool);
  std::string usage = cat({"usage: ", name, " <command> [options]\n"});
  std::string summaries = "\ncommands:\n";
  std::string options = "\noptions:\n";
  const std::size_t indent = width + 4;
  for (const Command& c : commands) {
    if (!c.operand.empty()) {
      usage += cat(
          {"       ", name, " ", c.name, " ", c.operand, " [options]\n"});
    }
    summaries += column(c.name) + std::string(c.summary) + "\n";
    if (c.flags.empty()) continue;
    std::string line = column(c.name);
    for (const Flag& f : c.flags) {
      std::string text = cat({"--", f.name});
      if (!f.metavar.empty()) text += cat({" ", f.metavar});
      if (line.size() > indent && line.size() + 2 + text.size() > 79) {
        options += line + "\n";
        line = std::string(indent, ' ');
      }
      line += (line.size() > indent ? "  " : "") + text;
    }
    options += line + "\n";
  }
  return usage + summaries + options;
}

}  // namespace

std::vector<int> parse_positive_list(const std::string& csv,
                                     const std::string& what) {
  std::vector<int> out;
  for (const std::string& tok : split(csv, ',')) {
    out.push_back(static_cast<int>(
        whole(tok, what, "a positive integer", [](const char* s, char** end) {
          const std::int64_t v = to_int(s, end);
          if (v < 1 || v > std::numeric_limits<int>::max()) errno = ERANGE;
          return v;
        })));
  }
  return out;
}

Cli::Cli(int argc, const char* const* argv,
         const std::vector<std::string_view>& booleans) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--") &&
               std::find(booleans.begin(), booleans.end(), arg) ==
                   booleans.end()) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "true";
    }
  }
}

const std::string* Cli::find(const std::string& name) const {
  if (declared_ != nullptr && !declares(*declared_, name)) {
    throw std::logic_error("query of undeclared flag --" + name);
  }
  queried_[name] = true;
  auto it = options_.find(name);
  return it == options_.end() ? nullptr : &it->second;
}

bool Cli::has(const std::string& name) const { return find(name) != nullptr; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback
                          : whole(*value, "--" + name, "an integer", to_int);
}

std::int64_t in_range(const std::string& what, std::int64_t v,
                      std::int64_t min, std::int64_t max) {
  if (v < min) {
    throw std::invalid_argument(what + " must be at least " +
                                std::to_string(min));
  }
  if (v > max) {
    throw std::invalid_argument(what + " must be at most " +
                                std::to_string(max));
  }
  return v;
}

int Cli::get_bounded(const std::string& name, int fallback, int min,
                     int max) const {
  return static_cast<int>(
      in_range("--" + name, get_int(name, fallback), min, max));
}

std::uint64_t Cli::get_u64(const std::string& name,
                           std::uint64_t fallback) const {
  if (!has(name)) return fallback;
  return static_cast<std::uint64_t>(
      in_range("--" + name, get_int(name, 0), 0,
               std::numeric_limits<std::int64_t>::max()));
}

double Cli::get_double(const std::string& name, double fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  return whole(*value, "--" + name, "a finite number",
               [](const char* s, char** end) {
                 const double v = std::strtod(s, end);
                 if (!std::isfinite(v)) errno = ERANGE;
                 return v;
               });
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  return *value != "false" && *value != "0" && *value != "no";
}

std::vector<std::string> Cli::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : options_) {
    if (queried_.find(name) == queried_.end()) out.push_back(name);
  }
  return out;
}

int run_command(std::string_view tool, const std::vector<Command>& commands,
                int argc, const char* const* argv) {
  std::vector<std::string_view> booleans = {"help"};
  for (const Command& c : commands) {
    for (const Flag& f : c.flags) {
      if (f.metavar.empty()) booleans.push_back(f.name);
    }
  }
  Cli cli(argc, argv, booleans);
  const std::string usage = render_usage(tool, commands);
  const std::vector<std::string>& pos = cli.positional();
  if (cli.has("help") || (!pos.empty() && pos[0] == "help")) {
    std::fputs(usage.c_str(), stdout);
    return 0;
  }
  const auto row =
      std::find_if(commands.begin(), commands.end(), [&](const Command& c) {
        return !pos.empty() && c.name == pos[0];
      });
  if (row == commands.end() ||
      pos.size() != (row->operand.empty() ? 1u : 2u)) {
    std::fputs(usage.c_str(), stderr);
    return 2;
  }
  for (const auto& [name, _] : cli.options_) {
    if (!declares(row->flags, name)) {
      std::fprintf(stderr, "error: %s: unknown option --%s\n",
                   pos[0].c_str(), name.c_str());
      return 2;
    }
  }
  cli.declared_ = &row->flags;
  try {
    return row->run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

std::string read_input(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string text;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk), in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
    if (text.size() > kMaxInputBytes) {
      throw std::runtime_error(path + ": larger than the limit of " +
                               std::to_string(kMaxInputBytes) + " bytes");
    }
  }
  return text;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  f.flush();
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

bool write_json(const std::string& dest, const Json& doc, const char* what) {
  if (dest.empty()) return true;
  if (dest == "-") {
    std::fputs((doc.dump(2) + "\n").c_str(), stdout);
    return true;
  }
  if (!write_file(dest, doc.dump(2) + "\n")) return false;
  std::printf("wrote %s to %s\n", what, dest.c_str());
  return true;
}

int emit_report(const Cli& cli, const std::string& text, const Json& doc,
                const char* what, const std::function<int()>& verdict) {
  const std::string json = cli.get("json", "");
  if (json != "-") std::fputs(text.c_str(), stdout);
  return write_json(json, doc, what) ? verdict() : 2;
}

}  // namespace la1::util
