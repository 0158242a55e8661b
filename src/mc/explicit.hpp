// Explicit-state model checking of PSL properties over ASM machines —
// the paper's "model checking using AsmL" (§5.1, Table 1).
//
// The checker runs the AsmL-style exploration and the PSL monitor in
// lock-step as a product construction: a product state is (ASM state,
// monitor state). The monitor carries the paper's (P_status, P_value)
// encoding; a product state with P_status && !P_value is the stop filter,
// and the BFS tree path to it is the counterexample.
//
// This is the one breadth-first explorer of ASM state spaces. Plain
// reachability (the generated-FSM size) is a check of the always-true
// property, whose monitor has a single state, so product states and
// transitions are exactly the machine's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asml/machine.hpp"
#include "psl/monitor.hpp"

namespace la1::mc {

/// PSL Env over an ASM state. Signal names resolve as:
///   "loc"        -> boolean location `loc`
///   "loc=value"  -> true iff location `loc` prints as `value`
///                   (enums, ints and words compare by printed form)
class StateEnv : public psl::Env {
 public:
  explicit StateEnv(const asml::State& s) : state_(&s) {}
  bool sample(const std::string& signal) const override;

 private:
  const asml::State* state_;
};

struct ExplicitOptions {
  std::size_t max_states = 1u << 20;       // product-state budget
  std::size_t max_transitions = 1u << 22;
  std::vector<std::string> enabled_rules;  // empty = all
};

struct ExplicitResult {
  bool holds = false;        // no violation in the explored region
  bool complete = false;     // region not truncated by a budget
  bool violated = false;
  std::uint64_t product_states = 0;
  std::uint64_t product_transitions = 0;
  std::uint64_t fsm_states = 0;        // distinct ASM states seen
  double cpu_seconds = 0.0;
  /// Rule labels from the initial state to the violating state.
  std::vector<std::string> counterexample;
};

/// Checks `prop` over the reachable states of `machine`. The monitor samples
/// each ASM state as one evaluation cycle (the initial state is cycle 0).
ExplicitResult check(const asml::Machine& machine, const psl::PropPtr& prop,
                     const ExplicitOptions& options = {});

/// Convenience: checks each property separately over the same machine and
/// reports one outcome per property.
struct PropertyOutcome {
  std::string name;
  bool holds = false;
  bool complete = false;
  std::vector<std::string> counterexample;
};

std::vector<PropertyOutcome> check_all(
    const asml::Machine& machine,
    const std::vector<std::pair<std::string, psl::PropPtr>>& props,
    const ExplicitOptions& options = {});

}  // namespace la1::mc
