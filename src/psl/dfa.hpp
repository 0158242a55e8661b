// Static determinization of property monitors — the "compiled monitor"
// backend (the paper compiles its PSL-in-ASM properties to C# monitor
// modules; a determinized table is the same idea: all the automaton work is
// done once, the per-cycle step is a table lookup).
//
// The symbolic model checker's observer (mc/symbolic.hpp) is built on the
// same table.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "psl/monitor.hpp"

namespace la1::psl {

/// A determinized monitor: states are monitor-state classes, letters are
/// valuations of the property's atom set.
struct DfaTable {
  std::vector<std::string> atoms;  // letter bit i = atoms[i]
  int state_count = 0;
  int init_state = 0;
  std::vector<int> next;             // [state * 2^atoms + letter] -> state
  std::vector<Verdict> verdict;      // current() per state
  std::vector<Verdict> end_verdict;  // at_end() per state

  int step(int state, unsigned letter) const {
    return next[static_cast<std::size_t>(state) * (1u << atoms.size()) +
                letter];
  }
};

/// Determinizes `prop` by BFS over atom valuations. Throws
/// std::invalid_argument when the property has more than 16 atoms or more
/// than `max_states` distinct monitor states are reachable.
DfaTable determinize(const PropPtr& prop, int max_states = 1 << 12);

/// A Monitor backed by a (shared) DfaTable: O(atoms) per step. The atoms
/// are bound once per Env instance (Env::bind, keyed on Env::serial) and
/// sampled by id from then on; atoms the Env does not index are sampled by
/// name.
class DfaMonitor : public Monitor {
 public:
  explicit DfaMonitor(std::shared_ptr<const DfaTable> table);

  void reset() override;
  Verdict current() const override { return table_->verdict[state()]; }
  Verdict at_end() const override { return table_->end_verdict[state()]; }
  void encode_to(std::string& key) const override {
    key.append(reinterpret_cast<const char*>(&state_), sizeof state_);
  }
  std::unique_ptr<Monitor> clone() const override {
    return std::make_unique<DfaMonitor>(*this);
  }

 protected:
  void do_step(const Env& env) override;

 private:
  std::size_t state() const { return static_cast<std::size_t>(state_); }
  std::shared_ptr<const DfaTable> table_;
  int state_ = 0;
  std::uint64_t bound_serial_ = 0;  // Env the ids belong to; 0 = none
  std::vector<int> atom_ids_;       // per atom: Env::bind's id, or -1
};

/// Compiles `prop` to a DFA-backed monitor.
std::unique_ptr<Monitor> compile_dfa(const PropPtr& prop);

}  // namespace la1::psl
