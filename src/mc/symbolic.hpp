// Symbolic (RuleBase-style) model checking of PSL properties on the RTL.
//
// Pipeline (paper §5.2, Table 2):
//   1. `build_observer` — the PSL property's monitor is determinized into a
//      finite safety observer over its boolean atoms. The observer depends
//      only on the property, so it may come precompiled: a caller that
//      checks one suite on many designs (the fault campaign) builds each
//      observer once and passes it to the Observer overload of `check`,
//   2. the bit-blasted RTL (rtl::BitBlast) and the observer are encoded as
//      BDDs over an interleaved current/next variable order,
//   3. reachability by image computation — monolithic transition relation or
//      a partitioned one with early quantification (ablation A), whose
//      conjuncts are clustered once the reached set outgrows a cluster,
//   4. a reachable bad observer state yields a counterexample trace; a node
//      budget models RuleBase's state explosion (Table 2, 4 banks).
//
// Restriction: property atoms must be functions of the model's state bits
// (registered signals). The LA-1 RTL exposes registered taps for exactly
// this reason; atoms depending on free primary inputs are rejected.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "dfa/invariants.hpp"
#include "flow/mc_cone.hpp"
#include "mc/verdict.hpp"
#include "psl/dfa.hpp"
#include "psl/monitor.hpp"
#include "rtl/bitblast.hpp"

namespace la1::mc {

/// Deterministic safety observer compiled from a property monitor.
struct Observer {
  std::vector<std::string> atoms;     // signal names, letter = valuation
  int state_count = 0;
  int init_state = 0;
  std::vector<bool> bad;              // per state
  /// next[state * (1 << atoms.size()) + valuation] -> state
  std::vector<int> next;

  int step(int state, unsigned valuation) const {
    return next[static_cast<std::size_t>(state) * (1u << atoms.size()) +
                valuation];
  }
};

/// Determinizes `prop`'s monitor by subset-style BFS over atom valuations.
/// Throws std::invalid_argument if more than `max_states` observer states
/// are reachable (not expected for the supported fragment).
Observer build_observer(const psl::PropPtr& prop, int max_states = 1 << 12);

/// Static BDD variable order of the state bits.
enum class VarOrder {
  /// Bit-major: all lane-0 bits of every register, then lane 1, ... Keeps
  /// same-lane bits of related registers adjacent (the default; see the
  /// ordering comment in symbolic.cpp).
  kBitMajor,
  /// Register-major: each register's bits contiguous, instances grouped.
  /// The automatic-retry order — occasionally wins where bit-major blows
  /// up, and a cheap source of order diversity either way.
  kRegisterMajor,
};

struct SymbolicOptions {
  /// Live-BDD-node budget; 0 = unlimited. Exceeding it reports
  /// kStateExplosion (the Table-2 reproduction knob).
  std::uint64_t node_limit = 0;
  /// Resource budget (wall clock / live BDD nodes / reachability
  /// iterations). Nonzero fields tighten node_limit and max_iterations;
  /// exhaustion degrades to a qualified SymbolicResult::verdict
  /// (BoundedPass/Unknown) instead of aborting, and triggers one automatic
  /// retry under the alternate variable order. All-zero (the default) means
  /// unlimited and disables the retry, so stock behaviour is unchanged.
  Budget budget;
  /// Initial static variable order; the retry flips it.
  VarOrder var_order = VarOrder::kBitMajor;
  /// Partitioned transition relation with early quantification vs one
  /// monolithic relation BDD (ablation A). The partitioned image clusters
  /// its conjuncts at the first source set above a fixed node bound; the
  /// verdict and every reached set are the same either way.
  bool partitioned = true;
  /// Iteration cap; 0 = run to fixpoint.
  int max_iterations = 0;
  /// Cone-of-influence reduction: drop every register the property cannot
  /// observe (transitively; flow::mc_cone, folding in the substitutions
  /// of use_invariants). Exact for safety checking: a bit outside the cone
  /// never influences an atom. Disable to model a checker that carries the
  /// whole design (the Table-2 configuration).
  bool cone_of_influence = true;
  /// Prints per-iteration BDD sizes to stderr (debugging aid).
  bool verbose = false;
  /// Statically lint the property against the blasted design before any
  /// BDD work (`preflight_lint`); errors throw std::invalid_argument with
  /// the rendered findings instead of failing deep inside the encoder.
  /// Read only by the property overload of `check`: an observer passed in
  /// was compiled, and linted, by its caller.
  bool preflight_lint = true;
  /// Strengthen the encoding with sweep-proven sequential invariants
  /// (dfa/sweep.hpp) by *substitution*: a provably-constant state bit
  /// becomes a BDD constant, a provably equivalent/complementary twin
  /// collapses onto its representative's variable. Substituted bits lose
  /// their state variable and transition conjunct entirely, shrinking the
  /// relation before reachability. Sound for safety checking: the facts
  /// hold in every reachable state, so the reduced system's reachable set
  /// is the projection of the original and verdicts (and counterexample
  /// depths) are identical.
  bool use_invariants = false;
  /// Facts to apply when `use_invariants` is set; nullptr = run the sweep
  /// on the design internally. Entries naming unknown state bits, or
  /// inconsistent with the design's reset state, throw
  /// std::invalid_argument.
  const dfa::InvariantSet* invariants = nullptr;
  /// Semantic cone of influence (flow::mc_cone): the structural cone above
  /// folded together with the proven invariants — constants cut, alias
  /// twins merged into their representative so the twin's fan-in never
  /// enters the cone — and, new over both older knobs, the encoded
  /// *inputs* restricted to those the cone actually mentions (historically
  /// every primary input was encoded unconditionally). Uses `invariants`
  /// when provided, else runs the sweep internally. Subsumes
  /// `use_invariants` and takes precedence over `cone_of_influence` when
  /// set. Verdict-identical: the substitutions are inductive invariants
  /// and an out-of-cone input occurs in no conjunct (bench_coi measures
  /// the reduction).
  bool use_coi = false;
};

struct SymbolicResult {
  enum class Outcome { kHolds, kFails, kStateExplosion };
  Outcome outcome = Outcome::kHolds;

  int iterations = 0;
  double reachable_states = 0.0;     // |Reach| over model+observer state bits
  std::uint64_t peak_bdd_nodes = 0;  // paper's "Number of BDDs" analogue
  std::uint64_t created_bdd_nodes = 0;
  double memory_mb = 0.0;
  double cpu_seconds = 0.0;
  /// BDD engine counters of the attempt reported here (computed-cache hit
  /// rate, unique-table load, GC). A diagnostic: it depends on the cache
  /// layout, so no hashed report includes it.
  bdd::Stats bdd_stats;
  int state_bits = 0;
  int input_bits = 0;
  /// State bits substituted away by use_invariants (0 when disabled).
  int invariants_applied = 0;
  /// Parts the last image conjoined: one per conjunct (state_bits), fewer
  /// once the partitioned relation is clustered, 1 for the monolithic
  /// relation, 0 when no image ran. A diagnostic like bdd_stats: no hashed
  /// report includes it.
  int image_parts = 0;
  /// Qualified verdict: kHolds -> Proven, kFails -> Falsified,
  /// kStateExplosion -> BoundedPass (bound established before exhaustion)
  /// or Unknown (died during encoding), with the exhaustion reason and the
  /// number of automatic variable-order retries recorded.
  Verdict verdict;

  /// Counterexample: per step, the state-variable assignment (by name).
  std::vector<std::map<std::string, bool>> trace;
};

/// Statically lints `prop` against the blasted design: errors (missing
/// signals, empty-language SEREs, nesting the monitor compiler rejects)
/// throw std::invalid_argument with the rendered findings.
void preflight_lint(const rtl::BitBlast& design, const psl::PropPtr& prop);

/// Checks the safety property `observer` tracks on the blasted design: the
/// one engine, with its automatic variable-order retry. Atoms the design
/// does not export throw std::invalid_argument.
SymbolicResult check(const rtl::BitBlast& design, const Observer& observer,
                     const SymbolicOptions& options = {});

/// Checks `prop` as a safety property of the blasted design: the preflight
/// lint (when enabled), `build_observer`, then the Observer overload.
/// `cpu_seconds` includes the lint and the observer build.
SymbolicResult check(const rtl::BitBlast& design, const psl::PropPtr& prop,
                     const SymbolicOptions& options = {});

}  // namespace la1::mc
