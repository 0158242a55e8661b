// Taint / information-flow facts over the dependence graph.
//
// The lattice is the powerset of up to 64 labels (one bit per label in a
// LabelSet); propagation is forward union along DepGraph edges to the least
// fixpoint. Since labels propagate independently, the fixpoint of each
// label is exactly forward reachability from its seed set — the engine runs
// one cone per label and ORs the results.
//
// Two modes, matching the standard IFC split:
//   * implicit (default): control edges carry taint — any influence counts.
//     FLOW-BANK-LEAK uses this: a write that can change *whether* another
//     bank's data appears is still a leak.
//   * explicit (`implicit = false`): only data edges carry taint. A control
//     pin steering a mux select is then clean; the pin's *value* appearing
//     in a data path is not. FLOW-CTRL-IN-DATA uses this.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flow/depgraph.hpp"

namespace la1::flow {

/// One bit per label; label i of a TaintFacts run is bit (1 << i).
using LabelSet = std::uint64_t;

struct TaintSource {
  std::string label;
  std::vector<int> nodes;  // seed bit nodes in the DepGraph
};

struct TaintOptions {
  bool implicit = true;  // propagate through control edges too
  int max_cycles = -1;   // bound on register crossings; -1 = unbounded
};

class TaintFacts {
 public:
  /// At most 64 sources; throws std::invalid_argument beyond that.
  TaintFacts(const DepGraph& g, std::vector<TaintSource> sources,
             const TaintOptions& opt = {});

  LabelSet label_bit(int label) const { return LabelSet{1} << label; }

  LabelSet at(int node) const;
  /// Union over all bits of the net / the memory summary word.
  LabelSet net_taint(rtl::NetId net) const;
  LabelSet mem_taint(rtl::MemId mem) const;

  /// Number of graph nodes carrying the label (seeds included).
  int count_with(int label) const;

 private:
  const DepGraph* g_;
  std::vector<TaintSource> sources_;
  std::vector<LabelSet> taint_;  // per node
};

}  // namespace la1::flow
