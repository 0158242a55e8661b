// The lowering-legality compile plan (la1check plan).
//
// One static pass over an elaborated rtl::Module that answers the question
// the bit-parallel backend (ROADMAP: compiled simulator) has to ask before
// it can lower the netlist to straight-line word operations:
//
//   1. which net bits are provably two-state, which only transiently X
//      during the reset prologue (with a proven settle depth), and which
//      need a permanent X/Z sideband (plan/xsafety.hpp);
//   2. in what order the combinational cloud evaluates, how deep the
//      dependency levels are, and how many 64-bit word slots a greedy
//      liveness-driven allocator needs at peak;
//   3. whether any netlist shape is outright illegal or hostile to the
//      lowering (the PLAN-* rules in plan/rules.hpp);
//   4. what the evaluation should cost per cycle — a static model whose
//      ranking across bank counts must match measured interpreter time
//      (bench_plan).
//
// The whole artifact round-trips through JSON so CI can archive one run
// and diff the next against it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lint/report.hpp"
#include "plan/rules.hpp"
#include "plan/xsafety.hpp"
#include "rtl/schedule.hpp"
#include "util/json.hpp"

namespace la1::plan {

/// Per-net classification summary: one class character per bit (P/T/L,
/// LSB-first, see plan/xsafety.hpp) plus the worst settle depth.
struct NetSafetySummary {
  std::string net;
  int width = 0;
  bool is_state = false;  // register bit or memory summary word
  std::string classes;
  int settle = 0;
};

struct ScheduleSummary {
  int nodes = 0;        // evaluation steps (assigns + tristate groups)
  int depth = 0;        // ASAP levels (longest dependency chain)
  int comb_ops = 0;     // distinct expression nodes per full settle
  int seq_ops = 0;      // distinct expression nodes across all processes
  int resident_slots = 0;   // 64-bit words pinned for inputs/state/memories
  int peak_temp_slots = 0;  // allocator high-water for combinational temps
  int peak_slots = 0;       // resident + peak temp
};

/// Static cost model. `predicted` only has to *rank* configurations the
/// same way measured interpreter time does (bench_plan checks this); the
/// absolute scale is arbitrary.
struct CostModel {
  double ops_per_cycle = 0;        // comb_ops * edges per round + seq_ops
  double slot_pressure = 0;        // peak_slots
  double x_sideband_fraction = 0;  // x-live bits / all net bits
  double predicted = 0;            // ops_per_cycle * (1 + sideband fraction)
};

struct CompilePlan {
  std::string target;  // module name
  int banks = 0;       // distinct "bank<i>." net prefixes (0 = unbanked)
  int cycles_analyzed = 0;
  bool periodic = false;
  int period_start = 0;
  std::vector<NetSafetySummary> nets;  // every net, then memory summaries
  ScheduleSummary schedule;
  CostModel cost;
  lint::LintReport findings;

  struct BitCounts {
    std::int64_t proven = 0;
    std::int64_t transient = 0;
    std::int64_t live = 0;
    std::int64_t total() const { return proven + transient + live; }
  };
  /// Aggregated over all bits, or only state-holding ones (registers and
  /// memory summaries — the CI gate's ≥90% denominator).
  BitCounts bit_counts(bool state_only) const;
  /// proven / total (1.0 on an empty selection).
  double two_state_fraction(bool state_only) const;

  /// Human-facing summary: classification counts, schedule shape, cost,
  /// findings table.
  std::string render() const;
  util::Json to_json() const;
};

struct PlanOptions {
  /// Clock-edge schedule for the per-cycle X/Z proof. Empty = derive one
  /// from the module: every distinct (clock, edge) pair in process
  /// declaration order.
  std::vector<rtl::ClockStep> schedule;
  int max_cycles = 256;
};

/// Runs the full analysis. Throws std::invalid_argument on a hierarchical
/// module. Never throws on legality violations — those become findings.
CompilePlan analyze(const rtl::Module& flat, const PlanOptions& opt = {});

/// The schedule the planner derives when PlanOptions::schedule is empty.
std::vector<rtl::ClockStep> default_schedule(const rtl::Module& flat);

}  // namespace la1::plan
