#include "lint/report.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "util/table.hpp"

namespace la1::lint {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

Severity severity_from_string(const std::string& text) {
  if (text == "info") return Severity::kInfo;
  if (text == "warn" || text == "warning") return Severity::kWarning;
  if (text == "error") return Severity::kError;
  throw std::invalid_argument("unknown severity: " + text);
}

namespace {

/// Canonical finding order: rule id, then location (net / property name),
/// then severity and message. Keeping the report sorted makes --json
/// output and CI diffs independent of analyzer pass order.
auto order_key(const Finding& f) {
  return std::tie(f.rule_id, f.location, f.severity, f.message);
}

}  // namespace

void LintReport::add(std::string rule_id, Severity severity,
                     std::string location, std::string message) {
  Finding f{std::move(rule_id), severity, std::move(location),
            std::move(message)};
  // The same rule can fire on the same net with the same diagnosis through
  // two analyzer passes (netlist + seq + flow run over one module, then
  // merge): collapse those to one finding, keeping the highest severity.
  const auto dup = std::find_if(
      findings_.begin(), findings_.end(), [&](const Finding& e) {
        return e.rule_id == f.rule_id && e.location == f.location &&
               e.message == f.message;
      });
  if (dup != findings_.end()) {
    if (f.severity <= dup->severity) return;
    findings_.erase(dup);  // re-insert below so the order stays canonical
  }
  const auto at = std::upper_bound(
      findings_.begin(), findings_.end(), f,
      [](const Finding& a, const Finding& b) {
        return order_key(a) < order_key(b);
      });
  findings_.insert(at, std::move(f));
}

void LintReport::merge(LintReport other) {
  for (Finding& f : other.findings_) {
    add(std::move(f.rule_id), f.severity, std::move(f.location),
        std::move(f.message));
  }
}

int LintReport::count(Severity s) const {
  int n = 0;
  for (const Finding& f : findings_) {
    if (f.severity == s) ++n;
  }
  return n;
}

bool LintReport::has(const std::string& rule_id) const {
  return first(rule_id) != nullptr;
}

const Finding* LintReport::first(const std::string& rule_id) const {
  for (const Finding& f : findings_) {
    if (f.rule_id == rule_id) return &f;
  }
  return nullptr;
}

bool LintReport::fails(Severity threshold) const {
  for (const Finding& f : findings_) {
    if (f.severity >= threshold) return true;
  }
  return false;
}

std::string LintReport::render() const {
  std::ostringstream out;
  if (findings_.empty()) {
    out << "lint: clean (no findings)\n";
    return out.str();
  }
  util::Table t({"Rule", "Severity", "Location", "Message"});
  for (const Finding& f : findings_) {
    t.add_row({f.rule_id, to_string(f.severity), f.location, f.message});
  }
  out << t.render();
  out << "lint: " << errors() << " error(s), " << warnings()
      << " warning(s), " << count(Severity::kInfo) << " note(s)\n";
  return out.str();
}

util::Json LintReport::to_json() const {
  util::Json arr = util::Json::array();
  for (const Finding& f : findings_) {
    util::Json item = util::Json::object();
    item.set("rule_id", f.rule_id);
    item.set("severity", to_string(f.severity));
    item.set("location", f.location);
    item.set("message", f.message);
    arr.push(std::move(item));
  }
  util::Json counts = util::Json::object();
  counts.set("errors", errors());
  counts.set("warnings", warnings());
  counts.set("infos", count(Severity::kInfo));
  util::Json j = util::Json::object();
  j.set("findings", std::move(arr));
  j.set("counts", std::move(counts));
  return j;
}

}  // namespace la1::lint
