#include "util/strings.hpp"

#include <cctype>
#include <cstdint>

namespace la1::util {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string cat(std::initializer_list<std::string_view> parts) {
  std::size_t size = 0;
  for (std::string_view p : parts) size += p.size();
  std::string out;
  out.reserve(size);
  for (std::string_view p : parts) out.append(p);
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string to_binary(std::uint64_t value, int bits) {
  std::string out(static_cast<std::size_t>(bits), '0');
  for (int i = 0; i < bits; ++i) {
    if ((value >> (bits - 1 - i)) & 1u) out[static_cast<std::size_t>(i)] = '1';
  }
  return out;
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace la1::util
