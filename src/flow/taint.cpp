#include "flow/taint.hpp"

#include <stdexcept>

namespace la1::flow {

TaintFacts::TaintFacts(const DepGraph& g, std::vector<TaintSource> sources,
                       const TaintOptions& opt)
    : g_(&g), sources_(std::move(sources)) {
  if (sources_.size() > 64) {
    throw std::invalid_argument("flow::TaintFacts: more than 64 labels");
  }
  taint_.assign(static_cast<std::size_t>(g.node_count()), 0);
  ConeOptions cone_opt;
  cone_opt.data_only = !opt.implicit;
  cone_opt.max_cycles = opt.max_cycles;
  for (std::size_t l = 0; l < sources_.size(); ++l) {
    const DepGraph::Cone cone = g.fan_out(sources_[l].nodes, cone_opt);
    const LabelSet bit = LabelSet{1} << l;
    for (std::size_t n = 0; n < taint_.size(); ++n) {
      if (cone.in[n]) taint_[n] |= bit;
    }
  }
}

LabelSet TaintFacts::at(int node) const {
  return taint_.at(static_cast<std::size_t>(node));
}

LabelSet TaintFacts::net_taint(rtl::NetId net) const {
  LabelSet out = 0;
  for (int node : g_->net_bits(net)) out |= at(node);
  return out;
}

LabelSet TaintFacts::mem_taint(rtl::MemId mem) const {
  LabelSet out = 0;
  const int width =
      g_->module().memories()[static_cast<std::size_t>(mem)].width;
  for (int b = 0; b < width; ++b) out |= at(g_->mem_bit(mem, b));
  return out;
}

int TaintFacts::count_with(int label) const {
  const LabelSet bit = label_bit(label);
  int n = 0;
  for (LabelSet t : taint_) n += (t & bit) != 0;
  return n;
}

}  // namespace la1::flow
