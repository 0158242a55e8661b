// Aggregated result of one flow analysis run: rule findings, per-label
// taint summaries, and per-property cone sizes. JSON round-trips like the
// lint and dfa reports so `la1check flowan --json`, the refinement flow and
// CI all consume the same artifact.
#pragma once

#include <string>
#include <vector>

#include "lint/report.hpp"
#include "util/json.hpp"

namespace la1::flow {

/// How far one taint label spread: seed size, reach, and which of the
/// watched sinks it touched.
struct LabelFlow {
  std::string label;
  int seed_bits = 0;
  int reached_bits = 0;
  std::vector<std::string> tainted_sinks;
};

/// Semantic-cone geometry of one property, as the model checker would
/// encode it under use_coi.
struct PropertyCone {
  std::string property;
  int cone_state_bits = 0;
  int total_state_bits = 0;
  int cone_inputs = 0;
  int total_inputs = 0;
  int substituted = 0;  // invariant substitutions applied
};

class FlowReport {
 public:
  std::string target;  // analyzed module name
  int banks = 0;       // isolation domains found (0 = non-banked)
  lint::LintReport findings;
  std::vector<LabelFlow> labels;
  std::vector<PropertyCone> cones;

  bool clean(lint::Severity threshold) const {
    return !findings.fails(threshold);
  }

  /// Findings table plus label/cone summary tables.
  std::string render() const;

  util::Json to_json() const;
};

}  // namespace la1::flow
