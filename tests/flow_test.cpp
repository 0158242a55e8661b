// Tests for the bit-level dependence/taint engine (src/flow): cone
// construction and pruning, taint modes, the FLOW-* rule catalog against
// its injected-defect fixtures, the semantic MC cone, and the FlowReport
// JSON round trip.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dfa/abstract.hpp"
#include "dfa/sweep.hpp"
#include "flow/analyze.hpp"
#include "flow/depgraph.hpp"
#include "flow/fixtures.hpp"
#include "flow/mc_cone.hpp"
#include "flow/rules.hpp"
#include "flow/taint.hpp"
#include "la1/rtl_model.hpp"
#include "psl/temporal.hpp"
#include "rtl/bitblast.hpp"
#include "rtl/netlist.hpp"

#include "proptest.hpp"

namespace la1 {
namespace {

// A 1-bit register steered by a mux: R <= S ? A : R, W = A ^ R. Exercises
// data vs control edges and the register-crossing bound in one module.
rtl::Module mux_reg_module() {
  rtl::Module m("mux_reg");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId a = m.input("A", 1);
  const rtl::NetId s = m.input("S", 1);
  const rtl::NetId r = m.reg("R", 1, 0);
  const rtl::NetId w = m.wire("W", 1);
  const rtl::ProcId p = m.process("on_k", k, rtl::Edge::kPos);
  m.nonblocking(p, r, m.mux(m.ref(s), m.ref(a), m.ref(r)));
  m.assign(w, m.op_xor(m.ref(a), m.ref(r)));
  return m;
}

TEST(DepGraph, FanInSeparatesDataControlAndCycles) {
  const rtl::Module m = mux_reg_module();
  const flow::DepGraph g(m);
  const int a = g.net_bit(m.find_net("A"), 0);
  const int s = g.net_bit(m.find_net("S"), 0);
  const int r = g.net_bit(m.find_net("R"), 0);
  const int w = g.net_bit(m.find_net("W"), 0);

  // Unbounded fan-in of W: everything but the clock.
  const flow::DepGraph::Cone full = g.fan_in({w});
  EXPECT_TRUE(full.contains(a));
  EXPECT_TRUE(full.contains(s));
  EXPECT_TRUE(full.contains(r));
  EXPECT_FALSE(full.contains(g.net_bit(m.find_net("K"), 0)));

  // The mux select only reaches W through R's *registered* driver, so the
  // pure combinational cone stops at R's current value.
  flow::ConeOptions comb;
  comb.max_cycles = 0;
  const flow::DepGraph::Cone now = g.fan_in({w}, comb);
  EXPECT_TRUE(now.contains(a));
  EXPECT_TRUE(now.contains(r));
  EXPECT_FALSE(now.contains(s));
  EXPECT_EQ(now.depth, 0);

  // Dropping control edges removes the select but keeps the data operands.
  flow::ConeOptions data_only;
  data_only.data_only = true;
  const flow::DepGraph::Cone data = g.fan_in({w}, data_only);
  EXPECT_TRUE(data.contains(a));
  EXPECT_FALSE(data.contains(s));
}

TEST(DepGraph, FanOutIsTheMirrorImage) {
  const rtl::Module m = mux_reg_module();
  const flow::DepGraph g(m);
  const int s = g.net_bit(m.find_net("S"), 0);
  const int r = g.net_bit(m.find_net("R"), 0);
  const int w = g.net_bit(m.find_net("W"), 0);

  const flow::DepGraph::Cone from_s = g.fan_out({s});
  EXPECT_TRUE(from_s.contains(r));
  EXPECT_TRUE(from_s.contains(w));

  flow::ConeOptions data_only;
  data_only.data_only = true;
  const flow::DepGraph::Cone from_s_data = g.fan_out({s}, data_only);
  EXPECT_FALSE(from_s_data.contains(r));
  EXPECT_FALSE(from_s_data.contains(w));
}

TEST(DepGraph, FactsPruneConstantDrivenEdges) {
  rtl::Module m("const_and");
  const rtl::NetId a = m.input("A", 1);
  const rtl::NetId gnd = m.wire("GND", 1);
  const rtl::NetId g0 = m.wire("G", 1);
  m.assign(gnd, m.lit_uint(0, 1));
  // G = A & 0: the abstract interpretation pins G to 0, so A must not
  // appear in its (semantic) fan-in.
  m.assign(g0, m.op_and(m.ref(a), m.ref(gnd)));
  const dfa::Facts facts = dfa::analyze(m);
  const flow::DepGraph g(m, &facts);
  EXPECT_TRUE(g.bit_constant(g0, 0));
  const flow::DepGraph::Cone cone = g.fan_in({g.net_bit(g0, 0)});
  EXPECT_FALSE(cone.contains(g.net_bit(a, 0)));

  // Without facts the same cone is purely structural and keeps A.
  const flow::DepGraph g_plain(m);
  const flow::DepGraph::Cone structural =
      g_plain.fan_in({g_plain.net_bit(g0, 0)});
  EXPECT_TRUE(structural.contains(g_plain.net_bit(a, 0)));
}

TEST(Taint, ImplicitFlowsThroughSelectsExplicitDoesNot) {
  const rtl::Module m = mux_reg_module();
  const flow::DepGraph g(m);
  std::vector<flow::TaintSource> sources;
  sources.push_back({"sel", {g.net_bit(m.find_net("S"), 0)}});

  const flow::TaintFacts implicit(g, sources);
  EXPECT_NE(implicit.net_taint(m.find_net("R")), 0u);
  EXPECT_NE(implicit.net_taint(m.find_net("W")), 0u);

  flow::TaintOptions explicit_only;
  explicit_only.implicit = false;
  const flow::TaintFacts data(g, sources, explicit_only);
  EXPECT_EQ(data.net_taint(m.find_net("R")), 0u);
  EXPECT_EQ(data.net_taint(m.find_net("W")), 0u);
}

TEST(FlowRules, EveryFixtureTripsExactlyItsRule) {
  for (const lint::Defect<flow::FlowReport>& defect :
       flow::injected_defects()) {
    const flow::FlowReport report =
        lint::find_defect(flow::injected_defects(), defect.name).run();
    ASSERT_EQ(report.findings.size(), 1u) << defect.name << ":\n"
                                          << report.findings.render();
    EXPECT_EQ(report.findings.findings().front().rule_id,
              defect.expected_rule)
        << defect.name;
    EXPECT_FALSE(report.clean(lint::Severity::kWarning)) << defect.name;
  }
}

TEST(FlowRules, UnknownFixtureThrows) {
  try {
    lint::find_defect(flow::injected_defects(), "no-such-defect");
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "known: bank-leak, ctrl-in-data, undriven-atom, dead-atom"),
              std::string::npos)
        << e.what();
  }
}

TEST(FlowAnalyze, StockDeviceIsFlowCleanAtEveryBankCount) {
  for (int banks : {1, 2, 4}) {
    const core::RtlConfig cfg = core::RtlConfig::model_checking(banks);
    core::RtlDevice dev = core::build_device(cfg);
    const rtl::Module flat = dev.flatten();
    const flow::FlowReport report = flow::analyze(flat, {});
    EXPECT_TRUE(report.clean(lint::Severity::kWarning))
        << banks << " banks:\n"
        << report.render();
    EXPECT_EQ(report.banks, banks);
    // One taint label per bank, each confined to its own read-data sinks.
    ASSERT_EQ(static_cast<int>(report.labels.size()), banks);
    for (int b = 0; b < banks; ++b) {
      const flow::LabelFlow& l = report.labels[static_cast<std::size_t>(b)];
      EXPECT_GT(l.seed_bits, 0);
      EXPECT_GT(l.reached_bits, l.seed_bits);
      const std::string own = "bank" + std::to_string(b) + ".";
      for (const std::string& sink : l.tainted_sinks) {
        EXPECT_EQ(sink.compare(0, own.size(), own), 0)
            << l.label << " tainted foreign sink " << sink;
      }
    }
  }
}

TEST(McCone, SemanticConeShrinksStateAndInputs) {
  const core::RtlConfig cfg = core::RtlConfig::model_checking(1);
  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = dev.flatten();
  const rtl::Module expanded = rtl::expand_memories(flat);
  const rtl::BitBlast bb = rtl::bitblast(expanded, core::clock_schedule(flat));
  const dfa::InvariantSet invariants = dfa::sweep(bb);

  std::vector<std::pair<std::string, psl::PropPtr>> props;
  props.emplace_back("READ_MODE", core::rtl_read_mode_property(cfg));
  const flow::FlowReport report =
      flow::analyze(flat, props, {}, &bb, &invariants);

  ASSERT_EQ(report.cones.size(), 1u);
  const flow::PropertyCone& cone = report.cones.front();
  EXPECT_EQ(cone.property, "READ_MODE");
  EXPECT_GT(cone.cone_state_bits, 0);
  EXPECT_LT(cone.cone_state_bits, cone.total_state_bits);
  // The read-mode property watches the read handshake alone: of the six
  // primary inputs only R_n steers its cone.
  EXPECT_EQ(cone.cone_inputs, 1);
  EXPECT_EQ(cone.total_inputs, 6);
  EXPECT_GT(cone.substituted, 0);
}

TEST(McCone, UnknownAtomThrows) {
  const core::RtlConfig cfg = core::RtlConfig::model_checking(1);
  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = rtl::expand_memories(dev.flatten());
  const rtl::BitBlast bb = rtl::bitblast(flat, core::clock_schedule(flat));
  const dfa::InvariantSet invariants = dfa::sweep(bb);
  EXPECT_THROW(flow::mc_cone(bb, {"no.such.net"}, invariants),
               std::invalid_argument);
}

/// The BitGraph node of a catalog atom: "net", "net[i]" or
/// "net.__conflict".
int atom_node(const rtl::BitBlast& bb, const std::string& name) {
  const std::string conflict = ".__conflict";
  if (name.size() > conflict.size() &&
      name.substr(name.size() - conflict.size()) == conflict) {
    return bb.conflict_bits.at(name.substr(0, name.size() - conflict.size()));
  }
  const std::size_t lb = name.find('[');
  if (lb == std::string::npos) return bb.net_bits.at(name).at(0);
  return bb.net_bits.at(name.substr(0, lb))
      .at(static_cast<std::size_t>(std::stoi(name.substr(lb + 1))));
}

/// The cone as mc_cone computed it before its single pass, kept as the
/// oracle: rescan every state bit until nothing changes, widening the
/// variable mask with BitGraph::support.
flow::McCone fixpoint_cone(const rtl::BitBlast& design,
                           const std::vector<std::string>& atoms,
                           const std::vector<flow::McCone::Subst>& subs) {
  using Kind = flow::McCone::SubstKind;
  const std::size_t n = design.state_vars.size();
  std::vector<bool> var_mask(design.vars.size(), false);
  for (const std::string& name : atoms) {
    design.graph.support(atom_node(design, name), var_mask);
  }
  flow::McCone cone;
  cone.state_in_cone.assign(n, 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t k = 0; k < n; ++k) {
      if (!var_mask[static_cast<std::size_t>(design.state_vars[k])]) continue;
      if (subs[k].kind == Kind::kAlias) {
        const auto root =
            static_cast<std::size_t>(design.state_vars[subs[k].root]);
        if (!var_mask[root]) {
          var_mask[root] = true;
          changed = true;
        }
        continue;
      }
      if (cone.state_in_cone[k] || subs[k].kind != Kind::kNone) continue;
      cone.state_in_cone[k] = 1;
      design.graph.support(design.next_fn[k], var_mask);
      changed = true;
    }
  }
  for (int v : design.input_vars) {
    cone.input_in_cone.push_back(var_mask[static_cast<std::size_t>(v)]);
  }
  return cone;
}

/// Every row of rtl_mc_properties under `invariants`: the single-pass cone
/// equals the fixpoint oracle under the same substitutions, state bits and
/// inputs alike.
bool cones_match(const rtl::BitBlast& bb, const core::RtlConfig& cfg,
                 const dfa::InvariantSet& invariants, std::string& why) {
  for (const auto& [name, prop] : core::rtl_mc_properties(cfg)) {
    std::set<std::string> atom_set;
    psl::collect_signals(*prop, atom_set);
    const std::vector<std::string> atoms(atom_set.begin(), atom_set.end());
    const flow::McCone cone = flow::mc_cone(bb, atoms, invariants);
    const flow::McCone oracle = fixpoint_cone(bb, atoms, cone.subst);
    if (cone.state_in_cone != oracle.state_in_cone ||
        cone.input_in_cone != oracle.input_in_cone) {
      why = name;
      return false;
    }
  }
  return true;
}

TEST(McCone, SinglePassMatchesFixpointOracle) {
  for (int banks : {1, 2, 4}) {
    const core::RtlConfig cfg = core::RtlConfig::model_checking(banks);
    core::RtlDevice dev = core::build_device(cfg);
    const rtl::Module flat = rtl::expand_memories(dev.flatten());
    const rtl::BitBlast bb = rtl::bitblast(flat, core::clock_schedule(flat));
    const dfa::InvariantSet swept = dfa::sweep(bb);
    ASSERT_FALSE(swept.empty()) << banks;
    std::string why;
    EXPECT_TRUE(cones_match(bb, cfg, dfa::InvariantSet{}, why))
        << banks << " banks, " << why;
    EXPECT_TRUE(cones_match(bb, cfg, swept, why))
        << banks << " banks, swept invariants, " << why;
    // Random subsets of the sweep's invariants (as index lists), shrunk by
    // dropping one invariant at a time.
    const auto subset = [&](const std::vector<int>& picked) {
      dfa::InvariantSet set;
      for (int i : picked) {
        set.add(swept.invariants()[static_cast<std::size_t>(i)]);
      }
      return set;
    };
    const auto result = proptest::check<std::vector<int>>(
        static_cast<std::uint64_t>(banks), 20,
        [&](util::Rng& rng) {
          std::vector<int> picked;
          for (std::size_t i = 0; i < swept.size(); ++i) {
            if (rng.chance(0.5)) picked.push_back(static_cast<int>(i));
          }
          return picked;
        },
        [&](const std::vector<int>& picked) {
          return cones_match(bb, cfg, subset(picked), why);
        },
        [](const std::vector<int>& picked) {
          std::vector<std::vector<int>> smaller;
          for (std::size_t i = 0; i < picked.size(); ++i) {
            std::vector<int> fewer = picked;
            fewer.erase(fewer.begin() + static_cast<std::ptrdiff_t>(i));
            smaller.push_back(std::move(fewer));
          }
          return smaller;
        });
    std::string picked;
    for (int i : result.counterexample) picked += std::to_string(i) + ' ';
    EXPECT_TRUE(result.ok) << banks << " banks, invariants " << picked
                           << "(" << why << ")";
  }
}

// Reports are write-only: a parse of the JSON text re-dumps it byte for byte,
// and it carries the target, the findings and every label and cone field.
TEST(FlowReport, JsonRoundTripsAndRenders) {
  const flow::FlowReport report =
      lint::find_defect(flow::injected_defects(), "bank-leak").run();
  const std::string text = report.to_json().dump(2);
  const util::Json j = util::Json::parse(text);
  EXPECT_EQ(j.dump(2), text);
  EXPECT_EQ(j.find("target")->as_string(), report.target);
  EXPECT_EQ(j.find("banks")->as_int(), report.banks);
  EXPECT_TRUE(*j.find("findings") == report.findings.to_json());
  const util::Json& labels = *j.find("labels");
  ASSERT_FALSE(report.labels.empty());
  ASSERT_EQ(labels.size(), report.labels.size());
  for (std::size_t i = 0; i < report.labels.size(); ++i) {
    const flow::LabelFlow& l = report.labels[i];
    const util::Json& item = labels.items()[i];
    EXPECT_EQ(item.find("label")->as_string(), l.label);
    EXPECT_EQ(item.find("seed_bits")->as_int(), l.seed_bits);
    EXPECT_EQ(item.find("reached_bits")->as_int(), l.reached_bits);
    std::vector<std::string> sinks;
    for (const util::Json& s : item.find("tainted_sinks")->items()) {
      sinks.push_back(s.as_string());
    }
    EXPECT_EQ(sinks, l.tainted_sinks);
  }
  EXPECT_EQ(j.find("cones")->size(), report.cones.size());
  EXPECT_NE(report.render().find("FLOW-BANK-LEAK"), std::string::npos);
}

}  // namespace
}  // namespace la1
