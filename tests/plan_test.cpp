// Tests for the lowering-legality compile planner (src/plan): the shared
// levelized schedule, the two-state X/Z-safety classification, the PLAN-*
// legality rules with their injected-defect fixtures, the slot allocator,
// and the CompilePlan JSON round-trip. The closing tests pin the CI-gate
// contract on the stock device: zero findings and >= 90% of state-holding
// bits proven two-state.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "la1/rtl_model.hpp"
#include "plan/fixtures.hpp"
#include "plan/plan.hpp"
#include "plan/rules.hpp"
#include "plan/xsafety.hpp"
#include "rtl/netlist.hpp"
#include "rtl/schedule.hpp"
#include "util/json.hpp"

namespace la1::plan {
namespace {

// ---------------------------------------------------------------------------
// rtl::topo_schedule — the shared levelized evaluation order.

TEST(TopoSchedule, ChainLevelsFollowDependencies) {
  rtl::Module m("chain");
  const rtl::NetId a = m.input("A", 1);
  const rtl::NetId w1 = m.wire("W1", 1);
  const rtl::NetId w2 = m.wire("W2", 1);
  // Declared out of dependency order on purpose: W2 first.
  m.assign(w2, m.op_not(m.ref(w1)));
  m.assign(w1, m.op_not(m.ref(a)));
  const rtl::TopoSchedule s = rtl::topo_schedule(m);
  ASSERT_TRUE(s.acyclic());
  ASSERT_EQ(s.nodes.size(), 2u);
  EXPECT_EQ(s.depth(), 2);
  // The emitted order must respect the chain regardless of declaration.
  EXPECT_EQ(s.nodes[0].target, w1);
  EXPECT_EQ(s.nodes[1].target, w2);
  EXPECT_EQ(s.levels[0], 0);
  EXPECT_EQ(s.levels[1], 1);
  ASSERT_EQ(s.deps[1].size(), 1u);
  EXPECT_EQ(s.deps[1][0], 0);
  ASSERT_EQ(s.reads[0].size(), 1u);
  EXPECT_EQ(s.reads[0][0], a);
}

TEST(TopoSchedule, TristateDriversFormOneGroup) {
  rtl::Module m("tri");
  const rtl::NetId en0 = m.input("EN0", 1);
  const rtl::NetId en1 = m.input("EN1", 1);
  const rtl::NetId d = m.input("D", 1);
  const rtl::NetId bus = m.wire("BUS", 1);
  m.tristate(bus, m.ref(en0), m.ref(d));
  m.tristate(bus, m.ref(en1), m.op_not(m.ref(d)));
  const rtl::TopoSchedule s = rtl::topo_schedule(m);
  ASSERT_TRUE(s.acyclic());
  ASSERT_EQ(s.nodes.size(), 1u);
  EXPECT_TRUE(s.nodes[0].is_tristate_group);
  EXPECT_EQ(s.nodes[0].target, bus);
  // Both drivers resolve inside the single node, like the interpreter.
  EXPECT_EQ(s.nodes[0].assign_values.size(), 2u);
  EXPECT_EQ(s.nodes[0].tri_enables.size(), 2u);
}

TEST(TopoSchedule, CombinationalCycleIsReportedNotThrown) {
  rtl::Module m("loop");
  const rtl::NetId w1 = m.wire("W1", 1);
  const rtl::NetId w2 = m.wire("W2", 1);
  m.assign(w1, m.op_not(m.ref(w2)));
  m.assign(w2, m.op_not(m.ref(w1)));
  const rtl::TopoSchedule s = rtl::topo_schedule(m);
  EXPECT_FALSE(s.acyclic());
  ASSERT_EQ(s.comb_cycles.size(), 1u);
  EXPECT_EQ(s.comb_cycles[0].size(), 2u);
}

TEST(TopoSchedule, RegistersBreakCombinationalPaths) {
  rtl::Module m("seq");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId r = m.reg("R", 1, 0u);
  const rtl::NetId w = m.wire("W", 1);
  m.assign(w, m.op_not(m.ref(r)));
  const rtl::ProcId p = m.process("ff", k, rtl::Edge::kPos);
  m.nonblocking(p, r, m.ref(w));
  const rtl::TopoSchedule s = rtl::topo_schedule(m);
  ASSERT_TRUE(s.acyclic());  // the loop goes through a register
  ASSERT_EQ(s.nodes.size(), 1u);
  EXPECT_EQ(s.levels[0], 0);  // a register read costs no level
}

TEST(TopoSchedule, SccHelperFindsTheLoopMembers) {
  // 0 -> 1 -> 2 -> 0 plus a dangling 3: one 3-cycle, one singleton.
  const std::vector<std::vector<int>> adj{{1}, {2}, {0}, {0}};
  const auto sccs = rtl::strongly_connected_components(adj);
  ASSERT_EQ(sccs.size(), 2u);
  EXPECT_EQ(sccs[0].size(), 3u);
  EXPECT_EQ(sccs[1].size(), 1u);
}

// ---------------------------------------------------------------------------
// X/Z-safety classification.

std::vector<rtl::ClockStep> ddr_schedule(const rtl::Module& m) {
  const rtl::NetId k = m.find_net("K");
  return {{k, rtl::Edge::kPos}, {k, rtl::Edge::kNeg}};
}

TEST(XSafety, DefinedResetProvesTwoState) {
  rtl::Module m("toggle");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId r = m.reg("R", 1, 0u);
  const rtl::ProcId p = m.process("ff", k, rtl::Edge::kPos);
  m.nonblocking(p, r, m.op_not(m.ref(r)));
  const XSafety xs = prove_x_safety(m, ddr_schedule(m));
  EXPECT_TRUE(xs.periodic);
  EXPECT_EQ(xs.nets[static_cast<std::size_t>(r)].cls[0],
            BitClass::kProven2State);
  EXPECT_EQ(xs.nets[static_cast<std::size_t>(r)].settle[0], 0);
  EXPECT_EQ(xs.max_settle, 0);
}

TEST(XSafety, XResetLoadedFromInputIsTransientWithDepthOne) {
  rtl::Module m("xload");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId in = m.input("IN", 1);
  const rtl::NetId r = m.reg("R", 1, rtl::LVec::xs(1));
  const rtl::ProcId p = m.process("ff", k, rtl::Edge::kPos);
  m.nonblocking(p, r, m.ref(in));
  const XSafety xs = prove_x_safety(m, ddr_schedule(m));
  EXPECT_TRUE(xs.periodic);
  // X only at cycle 0 (the reset settle); two-state from cycle 1 on.
  EXPECT_EQ(xs.nets[static_cast<std::size_t>(r)].cls[0],
            BitClass::kXTransient);
  EXPECT_EQ(xs.nets[static_cast<std::size_t>(r)].settle[0], 1);
  EXPECT_EQ(xs.max_settle, 1);
}

TEST(XSafety, XResetThatNeverRecoversIsLive) {
  rtl::Module m("xhold");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId r = m.reg("R", 1, rtl::LVec::xs(1));
  const rtl::ProcId p = m.process("ff", k, rtl::Edge::kPos);
  m.nonblocking(p, r, m.ref(r));  // holds its own X forever
  const XSafety xs = prove_x_safety(m, ddr_schedule(m));
  EXPECT_EQ(xs.nets[static_cast<std::size_t>(r)].cls[0], BitClass::kXLive);
  EXPECT_TRUE(xs.net_any_live(r));
}

TEST(XSafety, IdleTristateBusIsLiveNotTransient) {
  // The satellite contract: a bus that floats Z whenever its enable is low
  // recurs Z in steady state — x-live, never x-transient.
  rtl::Module m("bus");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId en = m.input("EN", 1);
  const rtl::NetId d = m.input("D", 1);
  const rtl::NetId bus = m.wire("BUS", 1);
  m.tristate(bus, m.ref(en), m.ref(d));
  const rtl::NetId r = m.reg("R", 1, 0u);
  const rtl::ProcId p = m.process("ff", k, rtl::Edge::kPos);
  m.nonblocking(p, r, m.ref(d));
  const XSafety xs = prove_x_safety(m, ddr_schedule(m));
  EXPECT_TRUE(xs.periodic);
  EXPECT_EQ(xs.nets[static_cast<std::size_t>(bus)].cls[0], BitClass::kXLive);
  EXPECT_EQ(xs.nets[static_cast<std::size_t>(r)].cls[0],
            BitClass::kProven2State);
}

TEST(XSafety, ClassCharsRoundTrip) {
  for (const BitClass c : {BitClass::kProven2State, BitClass::kXTransient,
                           BitClass::kXLive}) {
    EXPECT_EQ(bit_class_from_char(to_char(c)), c);
  }
  EXPECT_THROW(bit_class_from_char('Q'), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Injected-defect fixtures: each trips exactly its own rule.

TEST(PlanRules, EveryFixtureTripsExactlyItsRule) {
  for (const lint::Defect<CompilePlan>& d : injected_defects()) {
    const CompilePlan p = lint::find_defect(injected_defects(), d.name).run();
    ASSERT_EQ(p.findings.size(), 1u)
        << d.name << " tripped " << p.findings.size() << " findings";
    EXPECT_EQ(p.findings.findings().front().rule_id, d.expected_rule)
        << d.name;
  }
}

TEST(PlanRules, CatalogCoversAllFourRules) {
  std::vector<std::string> rules;
  for (const lint::Defect<CompilePlan>& d : injected_defects()) {
    rules.push_back(d.expected_rule);
  }
  EXPECT_EQ(rules, (std::vector<std::string>{
                       kRuleXLiveHotpath, kRulePortConflict,
                       kRuleTristateLower, kRuleSchedDiverge}));
}

TEST(PlanRules, UnknownFixtureNameThrows) {
  try {
    lint::find_defect(injected_defects(), "no-such-defect");
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "known: x-live-hotpath, port-conflict, tristate-lower, "
                  "sched-diverge"),
              std::string::npos)
        << e.what();
  }
}

TEST(PlanRules, ExclusiveWritePortsDoNotConflict) {
  // Two write ports guarded by en and !en can never strobe together; the
  // PLAN-PORT-CONFLICT rule must prove that structurally.
  rtl::Module m("excl");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId en = m.input("EN", 1);
  const rtl::NetId a = m.input("A", 1);
  const rtl::NetId d = m.input("D", 1);
  const rtl::MemId mem = m.memory("mem", 2, 1);
  const rtl::ProcId p = m.process("wr", k, rtl::Edge::kPos);
  m.mem_write(p, mem, m.ref(a), m.ref(d), m.ref(en));
  m.mem_write(p, mem, m.op_not(m.ref(a)), m.ref(d), m.op_not(m.ref(en)));
  const CompilePlan cp = analyze(m);
  EXPECT_FALSE(cp.findings.has(kRulePortConflict)) << cp.findings.render();
}

// ---------------------------------------------------------------------------
// Schedule summary and the greedy slot allocator.

TEST(PlanSummary, SlotAllocatorReleasesDeadTemps) {
  // W1 and W2 are consumed by W3 and read by nothing else: the allocator
  // may reuse their slots, so the temp high-water is 3 (W1+W2 live into
  // the W3 evaluation), not the naive 3-wires-plus-output total of 4.
  rtl::Module m("slots");
  const rtl::NetId a = m.input("A", 1);
  const rtl::NetId b = m.input("B", 1);
  const rtl::NetId w1 = m.wire("W1", 1);
  const rtl::NetId w2 = m.wire("W2", 1);
  const rtl::NetId w3 = m.wire("W3", 1);
  const rtl::NetId out = m.output("OUT", 1);
  m.assign(w1, m.op_not(m.ref(a)));
  m.assign(w2, m.op_not(m.ref(b)));
  m.assign(w3, m.op_and(m.ref(w1), m.ref(w2)));
  m.assign(out, m.op_not(m.ref(w3)));
  const CompilePlan p = analyze(m);
  EXPECT_EQ(p.schedule.nodes, 4);
  EXPECT_EQ(p.schedule.depth, 3);
  // Inputs stay resident; OUT is observable so it pins a slot to the end.
  EXPECT_EQ(p.schedule.resident_slots, 2);
  EXPECT_EQ(p.schedule.peak_temp_slots, 3);
  EXPECT_EQ(p.schedule.peak_slots, p.schedule.resident_slots +
                                       p.schedule.peak_temp_slots);
}

TEST(PlanSummary, WideNetsCostOneSlotPerWord) {
  rtl::Module m("wide");
  const rtl::NetId a = m.input("A", 130);  // 3 words
  const rtl::NetId out = m.output("OUT", 130);
  m.assign(out, m.op_not(m.ref(a)));
  const CompilePlan p = analyze(m);
  EXPECT_EQ(p.schedule.resident_slots, 3);
  EXPECT_EQ(p.schedule.peak_temp_slots, 3);
}

// ---------------------------------------------------------------------------
// CompilePlan JSON export.

// Plans are write-only: a parse of the JSON text re-dumps it byte for byte
// (doubles included), and it carries every header, per-net, schedule, cost
// and finding field of the plan.
void expect_plan_json(const CompilePlan& p) {
  const std::string text = p.to_json().dump(2);
  const util::Json j = util::Json::parse(text);
  EXPECT_EQ(j.dump(2), text);
  EXPECT_EQ(j.find("target")->as_string(), p.target);
  EXPECT_EQ(j.find("banks")->as_int(), p.banks);
  EXPECT_EQ(j.find("cycles_analyzed")->as_int(), p.cycles_analyzed);
  EXPECT_EQ(j.find("periodic")->as_bool(), p.periodic);
  EXPECT_EQ(j.find("period_start")->as_int(), p.period_start);
  const util::Json& nets = *j.find("two_state")->find("nets");
  ASSERT_EQ(nets.size(), p.nets.size());
  for (std::size_t i = 0; i < p.nets.size(); ++i) {
    const util::Json& e = nets.items()[i];
    EXPECT_EQ(e.find("net")->as_string(), p.nets[i].net);
    EXPECT_EQ(e.find("width")->as_int(), p.nets[i].width);
    EXPECT_EQ(e.find("state")->as_bool(), p.nets[i].is_state);
    EXPECT_EQ(e.find("classes")->as_string(), p.nets[i].classes);
    EXPECT_EQ(e.find("settle")->as_int(), p.nets[i].settle);
  }
  const util::Json& s = *j.find("schedule");
  EXPECT_EQ(s.find("nodes")->as_int(), p.schedule.nodes);
  EXPECT_EQ(s.find("depth")->as_int(), p.schedule.depth);
  EXPECT_EQ(s.find("comb_ops")->as_int(), p.schedule.comb_ops);
  EXPECT_EQ(s.find("seq_ops")->as_int(), p.schedule.seq_ops);
  EXPECT_EQ(s.find("resident_slots")->as_int(), p.schedule.resident_slots);
  EXPECT_EQ(s.find("peak_temp_slots")->as_int(), p.schedule.peak_temp_slots);
  EXPECT_EQ(s.find("peak_slots")->as_int(), p.schedule.peak_slots);
  const util::Json& c = *j.find("cost");
  EXPECT_EQ(c.find("ops_per_cycle")->as_double(), p.cost.ops_per_cycle);
  EXPECT_EQ(c.find("slot_pressure")->as_double(), p.cost.slot_pressure);
  EXPECT_EQ(c.find("x_sideband_fraction")->as_double(),
            p.cost.x_sideband_fraction);
  EXPECT_EQ(c.find("predicted")->as_double(), p.cost.predicted);
  EXPECT_TRUE(*j.find("findings") == p.findings.to_json());
}

TEST(CompilePlanJson, RoundTripIsExact) {
  expect_plan_json(
      lint::find_defect(injected_defects(), "x-live-hotpath").run());
}

TEST(CompilePlanJson, StockDeviceRoundTripsThroughText) {
  core::RtlConfig cfg;
  cfg.banks = 1;
  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = dev.flatten();
  PlanOptions opt;
  opt.schedule = core::clock_schedule(flat);
  expect_plan_json(analyze(flat, opt));
}

// ---------------------------------------------------------------------------
// The CI-gate contract on the stock device.

TEST(PlanDevice, StockDeviceIsCleanAndMostlyTwoState) {
  for (int banks : {1, 2, 4}) {
    core::RtlConfig cfg;
    cfg.banks = banks;
    core::RtlDevice dev = core::build_device(cfg);
    const rtl::Module flat = dev.flatten();
    PlanOptions opt;
    opt.schedule = core::clock_schedule(flat);
    const CompilePlan p = analyze(flat, opt);
    EXPECT_TRUE(p.findings.empty())
        << "banks=" << banks << "\n" << p.findings.render();
    EXPECT_GE(p.two_state_fraction(true), 0.9) << "banks=" << banks;
    EXPECT_TRUE(p.periodic) << "banks=" << banks;
    EXPECT_EQ(p.banks, banks);
    // The render carries the headline numbers the CLI prints.
    EXPECT_NE(p.render().find("two-state"), std::string::npos);
  }
}

TEST(PlanDevice, CostModelGrowsWithBanks) {
  double prev = 0.0;
  for (int banks : {1, 2, 4}) {
    core::RtlConfig cfg;
    cfg.banks = banks;
    core::RtlDevice dev = core::build_device(cfg);
    const rtl::Module flat = dev.flatten();
    PlanOptions opt;
    opt.schedule = core::clock_schedule(flat);
    const CompilePlan p = analyze(flat, opt);
    EXPECT_GT(p.cost.predicted, prev) << "banks=" << banks;
    prev = p.cost.predicted;
  }
}

}  // namespace
}  // namespace la1::plan
