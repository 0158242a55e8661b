// Deliberately broken netlists and properties for exercising the linter.
//
// Each fixture passes the Module builder's local checks (so it could reach
// the simulator / bit-blaster / model checker and break them late) but trips
// exactly one lint rule family. `la1check lint --inject <name>` runs them
// from the command line, the CI gate asserts each one fails with its
// expected rule id, and lint_test uses them directly.
//
// The flow and plan fixture catalogs use the same row type and lookup.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "lint/report.hpp"
#include "rtl/netlist.hpp"

namespace la1::lint {

/// a = !b, b = a & en: a combinational cycle CycleSim's levelization would
/// reject with a bare throw.
rtl::Module broken_comb_loop();

/// A bus with a tristate driver AND a continuous assign (the builder checks
/// assign-then-tristate but not tristate-then-assign).
rtl::Module broken_double_driver();

/// A memory whose read/write address ports are wider than the depth needs;
/// out-of-range addresses alias silently in the expanded form.
rtl::Module broken_width_mismatch();

/// A register initialized to X: legal IR, rejected by the bit-blaster.
rtl::Module broken_missing_reset();

/// Two nets whose names collide after Verilog identifier sanitization.
rtl::Module broken_name_collision();

/// A register whose only update re-ands itself with data: it can never
/// leave its reset value (sequential lint: NET-CONST).
rtl::Module broken_stuck_reg();

/// A register with an X init whose update preserves the X forever
/// (sequential lint: NET-X-RESET; also trips structural NET-NO-RESET).
rtl::Module broken_x_reset();

/// A combinational cone gated by a register stuck at 1: the cone provably
/// evaluates to 0 in every reachable state (sequential lint:
/// NET-DEAD-LOGIC).
rtl::Module broken_dead_logic();

/// Two registers with identical init and identical update expression, both
/// read downstream: inductively equivalent, one redundant (sequential
/// lint: NET-EQUIV-REG).
rtl::Module broken_dup_reg();

/// PSL text whose consequent SERE has the empty language.
std::string broken_unsat_sere_text();

/// PSL text sampling signals that exist in no LA-1 model.
std::string broken_missing_net_text();

/// One injected defect: a fixture built to trip exactly one rule, and the
/// analyzer run that must report it.
template <typename Report>
struct Defect {
  std::string name;           // --inject argument
  std::string expected_rule;  // the one rule the fixture must trip
  Report (*run)();            // builds the fixture and analyzes it
};

/// The catalog row named `name`. Throws std::invalid_argument listing the
/// catalog's names when there is none.
template <typename Report>
const Defect<Report>& find_defect(const std::vector<Defect<Report>>& catalog,
                                  const std::string& name) {
  std::string known;
  for (const Defect<Report>& d : catalog) {
    if (d.name == name) return d;
    known += (known.empty() ? "" : ", ") + d.name;
  }
  throw std::invalid_argument("unknown injected defect '" + name +
                              "' (known: " + known + ")");
}

/// The lint catalog, in a stable order. Netlist defects lint the broken
/// module with the structural and sequential rules; property defects lint
/// the property against the stock 1-bank LA-1 RTL.
const std::vector<Defect<LintReport>>& injected_defects();

}  // namespace la1::lint
