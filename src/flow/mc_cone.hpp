// The model checker's cone of influence, and the atom resolver it shares.
//
// The structural cone closes the property atoms' support over the
// next-state functions: a state bit outside it never influences an atom, so
// dropping it leaves the reachable valuations of the atoms unchanged. The
// *semantic* cone starts from the same closure but consults proven
// invariants (dfa::sweep):
//
//   * a state bit proven constant is cut — it contributes a terminal, not a
//     variable, and its fan-in never enters the cone;
//   * of a proven equal/complement pair only the representative stays — the
//     twin is rewritten to (the negation of) the representative, so its
//     next-state function is dropped from the transition relation;
//   * primary inputs outside the resulting cone are not encoded at all.
//     mc historically encoded every input unconditionally; restricting them
//     shrinks the BDD variable universe per property.
//
// Soundness: the substitutions are inductive invariants (they hold in the
// reset state and are preserved by every transition — dfa::sweep proves
// exactly that), so rewriting twins/constants preserves the reachable set
// projected onto the surviving variables; and an out-of-cone input occurs
// in no transition conjunct and no atom, so quantifying over it is vacuous.
// Verdicts are therefore identical with the cone on or off.
//
// mc::check takes every cone and substitution table it encodes from here,
// and so does the fault campaign's pruning (DESIGN.md §10).
#pragma once

#include <string>
#include <vector>

#include "dfa/invariants.hpp"
#include "rtl/bitblast.hpp"

namespace la1::flow {

struct McCone {
  enum class SubstKind { kNone, kConst, kAlias };
  struct Subst {
    SubstKind kind = SubstKind::kNone;
    bool value = false;    // kConst
    std::size_t root = 0;  // kAlias: state position of the representative
    bool negate = false;   // kAlias: complement pair
  };

  /// Per state position (parallel to design.state_vars). A substituted bit
  /// is never in the cone; an alias's representative is whenever the alias
  /// is referenced.
  std::vector<Subst> subst;
  std::vector<char> state_in_cone;
  /// Per input position (parallel to design.input_vars).
  std::vector<char> input_in_cone;
  /// Substitutions that actually apply (kConst + kAlias entries).
  int substituted = 0;

  int state_bits() const;
  int input_bits() const;
};

/// Resolves a property atom against the blasted design: "net" (a 1-bit
/// net), "net[i]" (bit i) or "net.__conflict" (the tristate conflict flag
/// of net). Returns its BitGraph node; throws std::invalid_argument when
/// the name resolves to no single bit.
int atom_bit_node(const rtl::BitBlast& design, const std::string& name);

/// The bits `name` names under atom_bit_node's grammar, where a bare net
/// names all of its bits: 1 for "net[i]" and "net.__conflict", the net's
/// width for "net", -1 when the name resolves to nothing.
int atom_width(const rtl::BitBlast& design, const std::string& name);

/// Validates `invariants` against the design and returns the substitution
/// table, one entry per state position, with alias chains collapsed so
/// every alias points at a live representative. Throws
/// std::invalid_argument on invariants naming unknown state bits or
/// contradicting the reset state.
std::vector<McCone::Subst> mc_substitutions(
    const rtl::BitBlast& design, const dfa::InvariantSet& invariants);

/// The cone of `atoms` under `subst` (empty, or one entry per state
/// position): the atoms' support closed over the next-state function of
/// every bit the closure reaches, where a substituted bit never enters and
/// an alias pulls in its representative. One pass over the BitGraph.
/// Empty `subst` gives the structural cone. Throws like atom_bit_node.
McCone mc_cone(const rtl::BitBlast& design,
               const std::vector<std::string>& atoms,
               std::vector<McCone::Subst> subst);

/// The semantic cone: mc_cone under mc_substitutions(design, invariants).
McCone mc_cone(const rtl::BitBlast& design,
               const std::vector<std::string>& atoms,
               const dfa::InvariantSet& invariants);

}  // namespace la1::flow
