// PSL SERE layer (Sequential Extended Regular Expressions).
//
// SEREs describe single- or multi-cycle behaviour built from Boolean
// expressions (paper §2.2). This module provides the SERE AST, the derived
// repetition forms ([*], [+], [*n], [*n:m], [=n], [->n]) and compilation to
// a guarded NFA with epsilon transitions, which the monitor layer runs by
// on-the-fly subset construction.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "psl/boolean.hpp"

namespace la1::psl {

struct Sere;
using SerePtr = std::shared_ptr<const Sere>;

struct Sere {
  enum class Kind {
    kBool,    // {b} — one cycle where b holds
    kConcat,  // a ; b
    kFusion,  // a : b — overlap by one cycle
    kOr,      // a | b
    kAnd,     // a && b — length-matching conjunction
    kStar     // a[*min:max] (max < 0 means unbounded)
  };
  Kind kind = Kind::kBool;
  BExprPtr expr;  // kBool
  SerePtr a;
  SerePtr b;
  int min = 0;    // kStar
  int max = -1;   // kStar
};

SerePtr s_bool(BExprPtr b);
SerePtr s_concat(SerePtr a, SerePtr b);
SerePtr s_fusion(SerePtr a, SerePtr b);
SerePtr s_or(SerePtr a, SerePtr b);
SerePtr s_and(SerePtr a, SerePtr b);
/// a[*min:max]; max == -1 means unbounded.
SerePtr s_star(SerePtr a, int min = 0, int max = -1);
/// a[+] == a[*1:inf]
SerePtr s_plus(SerePtr a);
/// b[*n] exactly n cycles of b.
SerePtr s_rep(BExprPtr b, int n);
/// b[->n] — goto: ends at the n-th occurrence of b ({!b[*]; b}[*n]).
SerePtr s_goto(BExprPtr b, int n);
/// b[=n] — n non-consecutive occurrences, tail of !b allowed.
SerePtr s_occurs(BExprPtr b, int n);
/// true[*n] — skip exactly n cycles.
SerePtr s_skip(int n);

std::string to_string(const Sere& s);
void collect_signals(const Sere& s, std::set<std::string>& out);

/// A set of NFA states, one bit per state id. Ids below 64 live in one
/// inline word, so stepping the catalog's automata allocates nothing;
/// higher ids spill into further words.
class StateSet {
 public:
  bool empty() const;
  bool contains(int s) const;
  void insert(int s);
  /// Removes and returns the smallest member; -1 when empty.
  int take_first();
  void unite(const StateSet& other);
  bool intersects(const StateSet& other) const;
  void clear() {
    low_ = 0;
    high_.clear();
  }
  /// Calls f(id) for every member, in increasing id order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words(); ++w) {
      for (std::uint64_t bits = word(w); bits != 0; bits &= bits - 1) {
        f(static_cast<int>(64 * w) + std::countr_zero(bits));
      }
    }
  }
  /// Appends the set as ceil(states / 8) bytes: over ids below `states`, a
  /// fixed-width key that two sets share exactly when they are equal.
  void append_key(std::string& out, int states) const;

  friend bool operator==(const StateSet& a, const StateSet& b);
  /// A strict total order (word by word), for sorted containers of sets.
  friend bool operator<(const StateSet& a, const StateSet& b);

 private:
  std::size_t words() const { return 1 + high_.size(); }
  std::uint64_t word(std::size_t w) const {
    if (w == 0) return low_;
    return w <= high_.size() ? high_[w - 1] : 0;
  }
  std::uint64_t low_ = 0;
  std::vector<std::uint64_t> high_;  // ids 64 and up; missing words are 0
};

/// A nondeterministic finite automaton with boolean-guarded transitions.
/// A transition with null guard is an epsilon edge.
class Nfa {
 public:
  struct Trans {
    int from = 0;
    BExprPtr guard;  // null = epsilon
    int to = 0;
  };

  int state_count() const { return state_count_; }
  const std::vector<int>& starts() const { return starts_; }
  const std::vector<int>& accepts() const { return accepts_; }
  const std::vector<Trans>& transitions() const { return transitions_; }

  /// Epsilon closure of a state set.
  StateSet closure(const StateSet& states) const;
  /// Start set (already closed).
  const StateSet& initial() const { return initial_; }
  /// One letter step: closed set -> closed set under `env`.
  StateSet step(const StateSet& from, const Env& env) const;
  /// True when the (closed) set contains an accepting state.
  bool accepting(const StateSet& states) const {
    return states.intersects(accept_set_);
  }
  /// True when the empty word matches (an accept is in the initial closure).
  bool nullable() const { return accepting(initial_); }

  /// All distinct boolean atoms used on guards (for static determinization).
  std::vector<BExprPtr> guards() const;

  /// Assembles an NFA from parts (construction helper; validates nothing).
  static Nfa assemble(int states, std::vector<int> starts,
                      std::vector<int> accepts, std::vector<Trans> trans);

 private:
  int state_count_ = 0;
  std::vector<int> starts_;
  std::vector<int> accepts_;
  std::vector<Trans> transitions_;
  // Adjacency and sets built on construction.
  void build_index();
  std::vector<std::vector<int>> eps_out_;    // per state: eps targets
  std::vector<std::vector<int>> trans_out_;  // per state: transition indices
  StateSet initial_;                         // closure of the starts
  StateSet accept_set_;
};

/// Compiles a SERE to an NFA (Thompson-style with epsilon edges; fusion and
/// length-matching && are built on the epsilon-free form internally).
Nfa build_nfa(const Sere& s);

/// Equivalent epsilon-free NFA (used by fusion/&& and by the DFA backend).
Nfa remove_epsilon(const Nfa& nfa);

}  // namespace la1::psl
