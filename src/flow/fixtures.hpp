// Deliberately leaky / vacuous mini devices for exercising the flow rules.
//
// Each fixture is a flattened LA-1-shaped module (dotted bank-prefixed
// names, the standard write-data / read-data register names) that trips
// exactly one FLOW-* rule. `la1check flowan --inject <name>` runs them from
// the command line, the CI gate asserts each one fails with its expected
// rule id, and flow_test uses them directly.
#pragma once

#include <vector>

#include "flow/report.hpp"
#include "lint/fixtures.hpp"
#include "rtl/netlist.hpp"

namespace la1::flow {

/// Two banks whose read paths are cross-wired: bank1's read-data register
/// mixes in bank0's write beat (FLOW-BANK-LEAK).
rtl::Module broken_bank_leak();

/// A read-data register that captures the R_n control level into its low
/// data bit (FLOW-CTRL-IN-DATA).
rtl::Module broken_ctrl_in_data();

/// A free-running toggle register sampled by a property: no primary input
/// anywhere in its fan-in cone (FLOW-UNDRIVEN-ATOM).
rtl::Module broken_undriven_atom();

/// A register that can never leave reset, sampled by a property: the atom
/// is statically constant (FLOW-DEAD-ATOM).
rtl::Module broken_dead_atom();

/// The fixture catalog, in a stable order for CI iteration. Each row runs
/// the flow analyzer on its fixture, with the fixture's bundled property
/// where the rule is about property atoms.
const std::vector<lint::Defect<FlowReport>>& injected_defects();

}  // namespace la1::flow
