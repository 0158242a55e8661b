// Two-state X/Z-safety proof for the bit-parallel lowering.
//
// The compiled backend wants to evaluate each net bit as plain two-state
// boolean words; a bit that can be X or Z at runtime needs a sideband
// (mask) word and slower masked operators. This pass decides, per net bit,
// which of three regimes applies:
//
//   proven2state — never X/Z in any reachable cycle: lower to bare words.
//   x-transient  — X/Z only during a bounded reset prologue; the proof
//                  carries the settle depth d: from abstract cycle d on the
//                  bit is two-state forever, so the backend can drop the
//                  sideband after d cycles (or pre-run d cycles at load).
//   x-live       — X/Z recurs in steady state (tristate Z on an idle bus,
//                  an enable that can float): the sideband is permanent.
//
// The engine is dfa::AbsSim driven *cycle by cycle*: the exact abstract
// transition is deterministic, so the per-cycle state sequence (register
// sets + memory summaries) eventually closes a loop. Once cycle t replays
// cycle t0, every later cycle replays [t0, t) — X/Z observed inside the
// loop recurs forever (x-live), X/Z observed only before it settles at a
// provable depth (x-transient). If the loop fails to close within the
// cycle budget the pass stays sound by demoting to x-live, unless the
// dfa::analyze fixpoint (a join over *all* schedules, so a superset of
// every per-cycle value) already proves the bit X/Z-free.
#pragma once

#include <cstdint>
#include <vector>

#include "dfa/abstract.hpp"
#include "rtl/bitblast.hpp"

namespace la1::plan {

enum class BitClass : std::uint8_t { kProven2State, kXTransient, kXLive };

/// One-letter rendering used by reports: P / T / L.
char to_char(BitClass c);
/// Inverse of to_char; throws std::invalid_argument on anything else.
BitClass bit_class_from_char(char c);

/// Per-bit verdicts for one net (LSB-first, parallel to rtl::LVec).
struct BitSafety {
  std::vector<BitClass> cls;
  /// Settle depth per bit: the abstract cycle index from which the bit is
  /// provably two-state. 0 for proven2state bits; meaningless (0) for
  /// x-live bits.
  std::vector<int> settle;
};

struct XSafety {
  std::vector<BitSafety> nets;  // per NetId
  std::vector<BitSafety> mems;  // per MemId (one summary word per memory)
  /// Abstract cycles actually simulated (cycle 0 = the reset settle).
  int cycles_analyzed = 0;
  /// Whether the per-cycle trajectory closed a loop within the budget.
  bool periodic = false;
  /// First cycle of the repeating regime (valid when periodic).
  int period_start = 0;
  /// Deepest x-transient settle depth across all bits.
  int max_settle = 0;

  bool net_any_live(rtl::NetId id) const;
};

struct XSafetyOptions {
  /// Abstract cycles to run before giving up on loop closure; past this
  /// every X/Z-touched bit is conservatively x-live.
  int max_cycles = 256;
};

/// Proves per-bit X/Z safety of `flat` (elaborated, instance-free) under
/// the repeating clock `schedule`. `facts` (optional) is the dfa::analyze
/// fixpoint of the same module, used to upgrade bits the schedule-free
/// join already proves two-state — primarily when the cycle budget runs
/// out. Throws std::invalid_argument on a hierarchical module.
XSafety prove_x_safety(const rtl::Module& flat,
                       const std::vector<rtl::ClockStep>& schedule,
                       const dfa::Facts* facts = nullptr,
                       const XSafetyOptions& opt = {});

}  // namespace la1::plan
