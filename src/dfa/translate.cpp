#include "dfa/translate.hpp"

#include <stdexcept>

namespace la1::dfa {

BddTranslator::BddTranslator(const rtl::BitGraph& graph, bdd::Manager& mgr,
                             const std::vector<int>* var_map,
                             const std::vector<bdd::NodeId>* leaf_override)
    : graph_(&graph),
      mgr_(&mgr),
      var_map_(var_map),
      leaf_override_(leaf_override),
      memo_(static_cast<std::size_t>(graph.size()), kNone) {}

bdd::NodeId BddTranslator::operator()(int node) {
  bdd::NodeId& slot = memo_[static_cast<std::size_t>(node)];
  if (slot != kNone) return slot;
  const rtl::BitGraph::Node& n = graph_->node(node);
  bdd::NodeId out = bdd::kFalse;
  using Kind = rtl::BitGraph::Kind;
  switch (n.kind) {
    case Kind::kConst: out = mgr_->constant(node == graph_->true_node()); break;
    case Kind::kVar: {
      const auto v = static_cast<std::size_t>(n.var);
      if (leaf_override_ != nullptr && (*leaf_override_)[v] != kNone) {
        out = (*leaf_override_)[v];
        break;
      }
      const int bv = var_map_ == nullptr ? n.var : (*var_map_)[v];
      if (bv < 0) throw std::logic_error("unmapped BitGraph variable");
      out = mgr_->var(bv);
      break;
    }
    case Kind::kNot: out = mgr_->apply_not((*this)(n.a)); break;
    case Kind::kAnd: out = mgr_->apply_and((*this)(n.a), (*this)(n.b)); break;
    case Kind::kOr: out = mgr_->apply_or((*this)(n.a), (*this)(n.b)); break;
    case Kind::kXor: out = mgr_->apply_xor((*this)(n.a), (*this)(n.b)); break;
    case Kind::kMux:
      out = mgr_->ite((*this)(n.a), (*this)(n.b), (*this)(n.c));
      break;
  }
  return slot = out;  // memo_ never grows, so `slot` is still valid
}

}  // namespace la1::dfa
