// Small string helpers shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace la1::util {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// True when `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Joins `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Renders an unsigned value as a fixed-width binary string, MSB first.
std::string to_binary(std::uint64_t value, int bits);

/// FNV-1a 64-bit hash. Used by the determinism tests to pin a golden hash
/// of a serialized trace: platform-independent, stable across runs, and
/// cheap enough to recompute on every CI run.
std::uint64_t fnv1a64(std::string_view text);

}  // namespace la1::util
