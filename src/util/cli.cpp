#include "util/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
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

Cli::Cli(int argc, const char* const* argv) {
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
    } else if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& name) const {
  queried_[name] = true;
  return options_.count(name) != 0;
}

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  queried_[name] = true;
  auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  queried_[name] = true;
  auto it = options_.find(name);
  return it == options_.end()
             ? fallback
             : whole(it->second, "--" + name, "an integer", to_int);
}

double Cli::get_double(const std::string& name, double fallback) const {
  queried_[name] = true;
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return whole(it->second, "--" + name, "a finite number",
               [](const char* s, char** end) {
                 const double v = std::strtod(s, end);
                 if (!std::isfinite(v)) errno = ERANGE;
                 return v;
               });
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  queried_[name] = true;
  auto it = options_.find(name);
  if (it == options_.end()) return fallback;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

std::vector<std::string> Cli::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : options_) {
    if (queried_.find(name) == queried_.end()) out.push_back(name);
  }
  return out;
}

}  // namespace la1::util
