// Shared finding model for the static analyzers (src/lint).
//
// Both analyzer families — the netlist linter (netlist_lint.hpp) and the PSL
// property linter (psl_lint.hpp) — report through one `Finding` record and
// one `LintReport` container, so `la1check lint`, the refinement flow's
// pre-flight stage and the CI gate all render and serialize findings the
// same way: tables via util::Table, machine-readable output via util::Json.
#pragma once

#include <string>
#include <vector>

#include "util/json.hpp"

namespace la1::lint {

enum class Severity { kInfo, kWarning, kError };

const char* to_string(Severity s);
/// Accepts "info", "warn"/"warning", "error". Throws std::invalid_argument.
Severity severity_from_string(const std::string& text);

/// One diagnostic: which rule fired, how bad it is, where, and why.
struct Finding {
  std::string rule_id;   // stable catalog id, e.g. "NET-COMB-LOOP"
  Severity severity = Severity::kError;
  std::string location;  // net / property / expression the rule anchored on
  std::string message;

  bool operator==(const Finding& o) const = default;
};

/// A collection of findings with rendering and JSON round-trip. Findings
/// are kept in a canonical order (rule id, then location, then severity and
/// message) regardless of insertion order, so serialized reports diff
/// deterministically across analyzer passes and CI runs. Duplicates on
/// (rule, location, message) — the same diagnosis reached via two analyzer
/// paths — collapse to a single finding at the highest severity, both on
/// add() and on merge().
class LintReport {
 public:
  void add(std::string rule_id, Severity severity, std::string location,
           std::string message);
  void merge(LintReport other);

  const std::vector<Finding>& findings() const { return findings_; }
  bool empty() const { return findings_.empty(); }
  std::size_t size() const { return findings_.size(); }

  int count(Severity s) const;
  int errors() const { return count(Severity::kError); }
  int warnings() const { return count(Severity::kWarning); }

  bool has(const std::string& rule_id) const;
  /// First finding of `rule_id`; nullptr when the rule never fired.
  const Finding* first(const std::string& rule_id) const;

  /// True when any finding is at or above `threshold` (the --fail-on knob).
  bool fails(Severity threshold) const;

  /// ASCII table (rule / severity / location / message) plus a count line.
  std::string render() const;

  /// {"findings": [...], "counts": {"errors": E, "warnings": W, "infos": I}}
  util::Json to_json() const;

 private:
  std::vector<Finding> findings_;
};

}  // namespace la1::lint
