// Property test: the taint engine's "untainted" verdict is a semantic
// guarantee, not a heuristic. On random small netlists, any net the engine
// leaves untainted by a set of source inputs must be cycle-for-cycle
// identical across two simulations that differ only in those inputs —
// including with dfa-facts edge pruning enabled, which is exactly where a
// too-aggressive cut would show up as a divergence. A second property pins
// the fan_in/fan_out duality the rule catalog relies on: a bit carries a
// label iff its fan-in cone contains one of that label's seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dfa/abstract.hpp"
#include "flow/depgraph.hpp"
#include "flow/taint.hpp"
#include "proptest.hpp"
#include "rtl/netlist.hpp"
#include "rtl/sim.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace la1 {
namespace {

struct RandomNetlist {
  rtl::Module module{"prop"};
  std::vector<rtl::NetId> inputs;   // excludes the clock
  std::vector<rtl::NetId> tainted;  // the varied subset of inputs
  std::uint64_t stream_seed = 0;
};

// Random expression over the given 1-bit operands: leaf, not, and, or,
// xor, mux, add (add of 1-bit values keeps everything single-bit and
// exercises the carry-chain edge collection).
rtl::ExprId random_expr(rtl::Module& m, util::Rng& rng,
                        const std::vector<rtl::NetId>& operands, int depth) {
  if (depth <= 0 || rng.below(3) == 0) {
    if (rng.below(6) == 0) return m.lit_uint(rng.below(2), 1);
    return m.ref(operands[rng.below(operands.size())]);
  }
  switch (rng.below(6)) {
    case 0:
      return m.op_not(random_expr(m, rng, operands, depth - 1));
    case 1:
      return m.op_and(random_expr(m, rng, operands, depth - 1),
                      random_expr(m, rng, operands, depth - 1));
    case 2:
      return m.op_or(random_expr(m, rng, operands, depth - 1),
                     random_expr(m, rng, operands, depth - 1));
    case 3:
      return m.op_xor(random_expr(m, rng, operands, depth - 1),
                      random_expr(m, rng, operands, depth - 1));
    case 4:
      return m.mux(random_expr(m, rng, operands, depth - 1),
                   random_expr(m, rng, operands, depth - 1),
                   random_expr(m, rng, operands, depth - 1));
    default:
      return m.add(random_expr(m, rng, operands, depth - 1),
                   random_expr(m, rng, operands, depth - 1));
  }
}

RandomNetlist random_netlist(util::Rng& rng) {
  RandomNetlist out;
  rtl::Module& m = out.module;
  const rtl::NetId k = m.input("K", 1);
  const int n_inputs = 1 + static_cast<int>(rng.below(3));
  for (int i = 0; i < n_inputs; ++i) {
    out.inputs.push_back(m.input(util::cat({"I", std::to_string(i)}), 1));
  }
  // Registers reset to defined values (no X): the dfa facts then prune
  // with full strength, which is the interesting configuration.
  std::vector<rtl::NetId> regs;
  const int n_regs = 1 + static_cast<int>(rng.below(3));
  for (int r = 0; r < n_regs; ++r) {
    regs.push_back(m.reg(util::cat({"R", std::to_string(r)}), 1, rng.below(2)));
  }
  std::vector<rtl::NetId> operands = out.inputs;
  operands.insert(operands.end(), regs.begin(), regs.end());
  const rtl::ProcId p = m.process("on_k", k, rtl::Edge::kPos);
  for (rtl::NetId r : regs) {
    m.nonblocking(p, r, random_expr(m, rng, operands, 2));
  }
  const int n_wires = 1 + static_cast<int>(rng.below(3));
  for (int w = 0; w < n_wires; ++w) {
    m.assign(m.wire(util::cat({"W", std::to_string(w)}), 1),
             random_expr(m, rng, operands, 2));
  }
  // Vary a nonempty proper-or-full subset of the inputs.
  for (std::size_t i = 0; i < out.inputs.size(); ++i) {
    if (rng.below(2) == 1) out.tainted.push_back(out.inputs[i]);
  }
  if (out.tainted.empty()) out.tainted.push_back(out.inputs.front());
  out.stream_seed = rng.next_u64();
  return out;
}

// Two runs: untainted inputs see identical streams, tainted inputs see
// independent ones. Every untainted net must match on every cycle.
bool untainted_nets_unaffected(const RandomNetlist& t) {
  const rtl::Module& m = t.module;
  const dfa::Facts facts = dfa::analyze(m);
  const flow::DepGraph g(m, &facts);

  std::vector<flow::TaintSource> sources;
  flow::TaintSource src;
  src.label = "varied";
  for (rtl::NetId net : t.tainted) src.nodes.push_back(g.net_bit(net, 0));
  sources.push_back(src);
  const flow::TaintFacts taint(g, sources);

  rtl::CycleSim sim_a(m);
  rtl::CycleSim sim_b(m);
  util::Rng shared(t.stream_seed);
  util::Rng varied_a(t.stream_seed ^ 0xa5a5a5a5u);
  util::Rng varied_b(~t.stream_seed);
  auto is_tainted_input = [&](rtl::NetId net) {
    for (rtl::NetId v : t.tainted) {
      if (v == net) return true;
    }
    return false;
  };
  for (int cycle = 0; cycle < 8; ++cycle) {
    for (rtl::NetId net : t.inputs) {
      if (is_tainted_input(net)) {
        sim_a.set_input_bit(m.net(net).name, varied_a.next_bool());
        sim_b.set_input_bit(m.net(net).name, varied_b.next_bool());
      } else {
        const bool v = shared.next_bool();
        sim_a.set_input_bit(m.net(net).name, v);
        sim_b.set_input_bit(m.net(net).name, v);
      }
    }
    sim_a.edge("K", rtl::Edge::kPos);
    sim_b.edge("K", rtl::Edge::kPos);
    sim_a.edge("K", rtl::Edge::kNeg);
    sim_b.edge("K", rtl::Edge::kNeg);
    for (rtl::NetId net = 0; net < static_cast<int>(m.nets().size()); ++net) {
      if (m.net(net).kind == rtl::NetKind::kInput) continue;
      if (taint.net_taint(net) != 0) continue;
      if (!(sim_a.get(net) == sim_b.get(net))) return false;
    }
  }
  return true;
}

// taint(bit) != 0  <=>  fan_in(bit) contains a seed: fan_out-computed taint
// and fan_in cones are transposes of each other.
bool fan_in_fan_out_duality(const RandomNetlist& t) {
  const rtl::Module& m = t.module;
  const dfa::Facts facts = dfa::analyze(m);
  const flow::DepGraph g(m, &facts);
  std::vector<int> seeds;
  for (rtl::NetId net : t.tainted) seeds.push_back(g.net_bit(net, 0));
  const flow::TaintFacts taint(g, {{"varied", seeds}});
  for (int node = 0; node < g.node_count(); ++node) {
    const flow::DepGraph::Cone back = g.fan_in({node});
    bool sees_seed = false;
    for (int s : seeds) sees_seed = sees_seed || back.contains(s);
    if ((taint.at(node) != 0) != sees_seed) return false;
  }
  return true;
}

TEST(FlowTaintProperty, UntaintedNetsAreSimulationInvariant) {
  const auto result = proptest::check<RandomNetlist>(
      /*seed=*/20260808, /*cases=*/150,
      [](util::Rng& rng) { return random_netlist(rng); },
      [](const RandomNetlist& t) { return untainted_nets_unaffected(t); });
  EXPECT_TRUE(result.ok) << "case " << result.failing_case
                         << " diverged on an untainted net (seed "
                         << result.seed << ")";
  EXPECT_EQ(result.cases_run, 150);
}

TEST(FlowTaintProperty, TaintEqualsFanInSeedReachability) {
  const auto result = proptest::check<RandomNetlist>(
      /*seed=*/414243, /*cases=*/80,
      [](util::Rng& rng) { return random_netlist(rng); },
      [](const RandomNetlist& t) { return fan_in_fan_out_duality(t); });
  EXPECT_TRUE(result.ok) << "case " << result.failing_case
                         << " broke fan_in/fan_out duality (seed "
                         << result.seed << ")";
  EXPECT_EQ(result.cases_run, 80);
}

}  // namespace
}  // namespace la1
