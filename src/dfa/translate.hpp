// BitGraph -> BDD translation, shared by the invariant sweep (sweep.cpp)
// and the symbolic model checker's encoding (mc/symbolic.cpp).
#pragma once

#include <vector>

#include "bdd/bdd.hpp"
#include "rtl/bitblast.hpp"

namespace la1::dfa {

/// Translates BitGraph nodes into BDDs, memoized per node for the
/// translator's lifetime. Operands are translated as the arguments of the
/// manager call (`apply_and(t(a), t(b))`), so the node-creation order — and
/// with it every pinned node count — is the compiler's argument order.
class BddTranslator {
 public:
  /// Marks "no node": an unfilled memo slot or a leaf without override.
  static constexpr bdd::NodeId kNone = ~bdd::NodeId{0};

  /// `var_map` (indexed by BitGraph variable) names each leaf's BDD
  /// variable, -1 for a variable that must not be reached (std::logic_error
  /// if it is); nullptr maps BitGraph variable v to BDD variable v.
  /// `leaf_override`, when non-null, replaces leaf v by any BDD other than
  /// kNone — the invariant-substitution hook that rewrites redundant state
  /// bits to constants or (negated) representative variables.
  BddTranslator(const rtl::BitGraph& graph, bdd::Manager& mgr,
                const std::vector<int>* var_map = nullptr,
                const std::vector<bdd::NodeId>* leaf_override = nullptr);

  bdd::NodeId operator()(int node);

 private:
  const rtl::BitGraph* graph_;
  bdd::Manager* mgr_;
  const std::vector<int>* var_map_;
  const std::vector<bdd::NodeId>* leaf_override_;
  std::vector<bdd::NodeId> memo_;  // per BitGraph node; kNone = not yet
};

}  // namespace la1::dfa
