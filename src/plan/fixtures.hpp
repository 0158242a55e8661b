// Injected-defect fixtures for the compile-plan legality rules.
//
// Same contract as the lint and flow fixture catalogs: each defect is a
// small LA-1-shaped netlist built to trip exactly one PLAN-* rule, so the
// CI gate can assert both directions — the stock device analyzes clean,
// and every rule actually fires on the defect designed for it.
#pragma once

#include <vector>

#include "lint/fixtures.hpp"
#include "plan/plan.hpp"

namespace la1::plan {

/// The catalog, in stable order. Each row runs the full analysis on its
/// fixture ("sched-diverge" additionally validates the deliberately
/// tampered evaluation order the fixture emits).
const std::vector<lint::Defect<CompilePlan>>& injected_defects();

}  // namespace la1::plan
