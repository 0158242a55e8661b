// The end-to-end design & verification flow of paper Figure 2:
//
//   MSC spec -> ASM (model checking, PSL) -> behavioural model (conformance +
//   ABV with compiled PSL monitors) -> RTL (lockstep + symbolic model
//   checking + OVL) -> Verilog emission.
//
// `run_flow` executes every stage in order, collecting a per-stage report;
// the refinement_flow example and the Figure-2 bench print it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "la1/properties.hpp"

namespace la1::refine {

struct FlowStage {
  std::string name;
  bool ok = false;
  double seconds = 0.0;
  std::string detail;
};

struct FlowReport {
  bool ok = true;
  std::vector<FlowStage> stages;
  std::string verilog;  // the emitted RTL of the final stage
  /// Every catalog property at each level: checked there, or unobservable
  /// with the first tap the level lacks.
  std::vector<core::MatrixRow> properties;

  std::string render() const;
};

struct FlowOptions {
  int banks = 1;
  std::uint64_t seed = 7;
  int abv_ticks = 4000;          // behavioural ABV run length
  int conformance_steps = 2000;  // ASM co-execution edges
  int lockstep_transactions = 500;
  std::size_t explore_max_states = 60000;  // ASM model-checking budget
  double closure_target = 0.95;      // coverage-closure stop threshold
  double closure_fail_under = 0.9;   // stage fails below this coverage
  int closure_epochs = 20;           // coverage-closure epoch budget
  int closure_transactions = 250;    // transactions per closure epoch
};

FlowReport run_flow(const FlowOptions& options);

}  // namespace la1::refine
