// Mutation-coverage campaigns over the verification stack.
//
// The campaign engine derives a deterministic fault plan (fault.hpp), runs
// every mutant through the full detection stack, and emits a per
// (fault × checker) caught/missed/timeout matrix:
//
//   psl       compiled PSL monitors sampling the mutant's harness taps
//   ovl       OVL monitor logic instantiated into the mutant netlist
//   lockstep  co-execution against a pristine reference (taps, read-data
//             bus, end-of-run memory image)
//   mc        symbolic model checking of the reduced geometry under a
//             resource Budget (mc/verdict.hpp); structural faults only,
//             each checked on the properties whose cone holds its
//             register (McSuite)
//
// The simulation checkers (psl, ovl, lockstep) run in lane batches: lane 0
// the golden OVL-instrumented device, lanes 1.. the mutants of consecutive
// plan entries, stepped together (harness/lane_batch.hpp). On the compiled
// backend a batch is one csim::Machine of up to 63 mutants with every
// structural fault a per-lane force (fault::lane_force); the interpreted
// backend runs the same loop one fault per batch over one CycleSim per
// lane, the oracle for the forces.
//
// A control run of the unmutated device under the identical stimulus —
// the same loop over the uninstrumented device (lane 0) and the golden
// lane (lane 1) — guards against false alarms: a checker that fires on
// the pristine device invalidates the whole campaign. Reports render as util::Table and
// round-trip through util::Json.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "fault/fault.hpp"
#include "harness/adapters.hpp"
#include "mc/symbolic.hpp"
#include "mc/verdict.hpp"
#include "rtl/bitblast.hpp"
#include "util/json.hpp"

namespace la1::fault {

enum class CellOutcome { kCaught, kMissed, kTimeout, kNotApplicable };

const char* to_string(CellOutcome outcome);
CellOutcome cell_outcome_from_string(const std::string& name);

/// One (fault, checker) matrix cell.
struct CampaignCell {
  std::string checker;
  CellOutcome outcome = CellOutcome::kMissed;
  std::string detail;
};

/// One fault's row: the spec plus a cell per checker.
struct CampaignRow {
  FaultSpec fault;
  std::vector<CampaignCell> cells;

  bool caught() const;
  const CampaignCell* cell(const std::string& checker) const;
};

struct CampaignOptions {
  int banks = 1;
  std::uint64_t seed = 1;
  /// K cycles of seeded traffic per mutant (plus drain).
  int transactions = 300;
  int drain_ticks = 16;
  /// Full simulation geometry (the lockstep/ABV side).
  int data_bits = 8;
  int mem_addr_bits = 4;
  PlanOptions plan;
  /// Run the symbolic-MC column (reduced geometry, budgeted). Protocol
  /// faults are kNotApplicable there regardless.
  bool run_mc = true;
  /// Budget for each symbolic check; exhaustion marks the cell kTimeout
  /// instead of wedging the campaign.
  mc::Budget mc_budget{/*wall_ms=*/5000, /*bdd_nodes=*/500'000,
                       /*max_cycles=*/64};
  /// Cooperative cancellation (e.g. the SIGINT token in exec/signal.hpp):
  /// polled every simulated edge of a fault batch (not the control run)
  /// and between faults, and forwarded into every symbolic check's Budget.
  /// A cancelled run_campaign returns a valid *partial* report whose rows
  /// are a prefix of the full report's; in run_campaign_parallel a batch
  /// shard it stops reports cancelled and degrades like any failed shard.
  /// Non-owning.
  const std::atomic<bool>* cancel = nullptr;
  /// Simulator behind every RTL model (mutant, control, and lockstep
  /// reference alike). The report is required to be byte-identical across
  /// backends — tools_cli_test pins that with a fixed-seed hash.
  harness::RtlBackend backend = harness::RtlBackend::kInterpreted;
};

/// Scheduling knobs for run_campaign_parallel (the control run, one shard
/// per lane batch, one per symbolic check). The merged report is
/// byte-identical to the sequential run_campaign at any worker count /
/// steal seed as long as no shard is degraded by a deadline, crash, or
/// cancellation.
struct ParallelOptions {
  int workers = 1;
  std::uint64_t steal_seed = 1;
  /// Per-shard cooperative wall deadline; 0 = none. A shard that overruns
  /// is retried (exponential backoff) and finally degraded: its cells turn
  /// kTimeout (a lane batch's psl/ovl/lockstep cells, a symbolic check's
  /// mc cell) — the campaign itself never wedges.
  std::uint64_t shard_wall_ms = 0;
  int max_retries = 1;
  std::uint64_t backoff_ms = 10;
  const exec::CancelToken* cancel = nullptr;
};

struct CampaignReport {
  int banks = 1;
  std::uint64_t seed = 1;
  int transactions = 0;
  std::vector<std::string> checkers;
  std::vector<CampaignRow> rows;
  /// Control run of the unmutated device: true iff no checker fired.
  bool clean_ok = true;
  std::vector<std::string> clean_alarms;

  int caught_count() const;
  /// Fraction of faults caught by at least one checker.
  double mutation_score() const;

  util::Json to_json() const;
  std::string render() const;
};

/// The model-checking geometry's device (core::RtlConfig::model_checking),
/// mutated by `spec` when non-null, bit-blasted for the symbolic-MC column.
rtl::BitBlast mc_blast(int banks, const FaultSpec* spec);

/// One compiled row of the symbolic-MC suite.
struct McRow {
  std::string name;
  mc::Observer observer;
  /// Sorted names of the registers in the row's structural cone on the
  /// stock blast (flow::mc_cone with no substitutions, bit names folded to
  /// their register): a fault whose rewrite stays outside it cannot change
  /// the row's result.
  std::vector<std::string> cone;
  /// The row's check of the stock device under the suite's budget.
  mc::SymbolicResult stock;
};

/// The symbolic-MC column's suite, built once per campaign: one row per
/// core::rtl_properties entry in catalog order, each linted and
/// determinized against the stock blast, with its cone and its stock
/// result.
///
/// Pruning: a check of row R on a mutant whose fault rewrites only its
/// target register (rewrites_only_target), a register of the stock blast
/// outside R's cone, sees the stock cone — the closure never reaches the
/// rewritten next-state function — with the same conjuncts and the same
/// variable order, so it returns the stock result bit for bit. The
/// campaign takes row.stock for such rows and checks the mutant on the
/// rest.
struct McSuite {
  std::vector<McRow> rows;
  /// Sorted names of the registers of the stock blast.
  std::vector<std::string> registers;

  /// Lints (std::invalid_argument on a rejected row), determinizes, takes
  /// the cones and runs the stock checks under `budget`.
  McSuite(int banks, const mc::Budget& budget);
  McSuite() = default;

  /// False only when `row`'s result on `spec`'s mutant is row.stock, bit
  /// for bit; true leaves the mutant to be checked.
  bool must_check(const McRow& row, const FaultSpec& spec) const;
};

/// Runs the full campaign: plan, control run, one simulation pass per lane
/// batch, one symbolic check per structural fault.
CampaignReport run_campaign(const CampaignOptions& options);

/// The same campaign on the work-stealing executor: shard 0 is the control
/// run, then one shard per lane batch, then one per symbolic check; rows
/// merge back in plan order. Crashed or timed-out shards degrade to
/// quarantined cells instead of taking the campaign down. `stats`, when
/// non-null, receives pool telemetry.
CampaignReport run_campaign_parallel(const CampaignOptions& options,
                                     const ParallelOptions& parallel,
                                     exec::PoolStats* stats = nullptr);

}  // namespace la1::fault
