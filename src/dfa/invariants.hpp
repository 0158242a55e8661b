// Proven sequential invariants of a bit-blasted design.
//
// The register sweep (sweep.hpp) discharges candidate facts about state
// bits — stuck-at-constant, pairwise-equivalent, pairwise-complementary —
// by induction over the next-state functions. The surviving facts are
// collected here, keyed by the bit-blaster's variable names ("net[i]",
// "__phase[i]"), and consumed by:
//
//   * the sequential lint rules (lint/seq_lint.hpp), which report redundant
//     register pairs as NET-EQUIV-REG findings, and
//   * the symbolic model checker (mc::SymbolicOptions::use_invariants),
//     which substitutes the facts out of the BDD encoding — a constant
//     state bit becomes a BDD constant, a redundant twin collapses onto its
//     representative — shrinking the transition relation before
//     reachability.
//
// Every invariant holds in the initial state and in every reachable state
// of the blasted FSM (one step = one clock edge of the schedule).
#pragma once

#include <string>
#include <vector>

#include "util/json.hpp"

namespace la1::dfa {

struct Invariant {
  enum class Kind {
    kConst,       // state bit `a` holds `value` in every reachable state
    kEqual,       // state bit `b` always equals `a` (a = representative)
    kComplement,  // state bit `b` always equals NOT `a`
  };
  Kind kind = Kind::kConst;
  std::string a;        // representative state bit, "net[i]"
  std::string b;        // redundant twin (kEqual/kComplement), else empty
  bool value = false;   // kConst only
};

const char* to_string(Invariant::Kind k);

/// The set of facts one sweep proved; to_json() puts them in reports.
class InvariantSet {
 public:
  void add(Invariant inv) { invariants_.push_back(std::move(inv)); }

  const std::vector<Invariant>& invariants() const { return invariants_; }
  bool empty() const { return invariants_.empty(); }
  std::size_t size() const { return invariants_.size(); }
  int count(Invariant::Kind k) const;

  /// {"invariants": [{"kind": "...", "a": "...", ...}, ...]}
  util::Json to_json() const;

 private:
  std::vector<Invariant> invariants_;
};

}  // namespace la1::dfa
