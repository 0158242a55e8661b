#include <gtest/gtest.h>

#include "dfa/sweep.hpp"
#include "fault/campaign.hpp"
#include "la1/rtl_model.hpp"
#include "mc/symbolic.hpp"
#include "psl/parse.hpp"
#include "rtl/bitblast.hpp"
#include "rtl/netlist.hpp"

namespace la1::mc {
namespace {

using rtl::ClockStep;
using rtl::Edge;
using rtl::Module;
using rtl::NetId;
using rtl::ProcId;

/// Counter with saturation at `top` and a registered "saturated" tap.
Module saturating_counter(int width, std::uint64_t top) {
  Module m("sat");
  const NetId clk = m.input("clk", 1);
  const NetId en = m.input("en", 1);
  const NetId r = m.reg("r", width, 0u);
  const NetId sat = m.reg("saturated", 1, 0u);
  const ProcId p = m.process("p", clk, Edge::kPos);
  const auto at_top = m.eq(m.ref(r), m.lit_uint(top, width));
  m.nonblocking(
      p, r,
      m.mux(m.op_and(m.ref(en), m.op_not(at_top)),
            m.add(m.ref(r), m.lit_uint(1, width)), m.ref(r)));
  m.nonblocking(p, sat, at_top);
  return m;
}

/// `count` registers q0.. of `count` bits, each loading one free input
/// replicated into all its bits. Bit-major order interleaves the registers
/// lane by lane, so the reached set's BDD carries every register's "all
/// bits equal" at once (2^count wide); register-major keeps each register
/// contiguous.
Module replicated_registers(int count) {
  Module m("rep");
  const NetId clk = m.input("clk", 1);
  const ProcId p = m.process("p", clk, Edge::kPos);
  for (int k = 0; k < count; ++k) {
    const NetId in = m.input("in" + std::to_string(k), 1);
    const NetId q = m.reg("q" + std::to_string(k), count, 0u);
    m.nonblocking(p, q,
                  m.concat(std::vector<rtl::ExprId>(
                      static_cast<std::size_t>(count), m.ref(in))));
  }
  return m;
}

constexpr int kReplicatedRegs = 5;
/// Live-node budget between the two orders' peaks on
/// replicated_registers(kReplicatedRegs) under the properties below:
/// bit-major peaks at 85,661 / 18,795 nodes, register-major at 4,573 /
/// 2,264.
constexpr std::uint64_t kBitMajorExceeds = 8000;

TEST(Observer, AlwaysBooleanObserver) {
  const Observer obs = build_observer(psl::parse_property("always (a)"));
  ASSERT_EQ(obs.atoms.size(), 1u);
  EXPECT_EQ(obs.atoms[0], "a");
  // a=1 keeps the good state; a=0 moves to an absorbing bad state.
  int s = obs.init_state;
  s = obs.step(s, 1u);
  EXPECT_FALSE(obs.bad[static_cast<std::size_t>(s)]);
  s = obs.step(s, 0u);
  EXPECT_TRUE(obs.bad[static_cast<std::size_t>(s)]);
  s = obs.step(s, 1u);
  EXPECT_TRUE(obs.bad[static_cast<std::size_t>(s)]) << "bad must absorb";
}

TEST(Observer, LatencyObserverCountsCycles) {
  const Observer obs =
      build_observer(psl::parse_property("always (a -> next[2] b)"));
  EXPECT_EQ(obs.atoms.size(), 2u);
  EXPECT_GE(obs.state_count, 3);
}

TEST(Symbolic, InvariantHolds) {
  const Module m = saturating_counter(3, 5);
  const rtl::BitBlast bb =
      rtl::bitblast(m, {ClockStep{m.find_net("clk"), Edge::kPos}});
  // r never exceeds 5 => bit pattern 6 (110) and 7 (111) unreachable:
  // check "never (r[1] && r[2])" (6 and 7 both have bits 1 and 2 set).
  const auto prop = psl::parse_property("never {r[1] && r[2]}");
  const SymbolicResult r = check(bb, prop);
  EXPECT_EQ(r.outcome, SymbolicResult::Outcome::kHolds);
  EXPECT_GT(r.iterations, 0);
  // Reachable: r in {0..5} x sat x en... states counted over state bits:
  // r (6 values reachable) x saturated (correlated).
  EXPECT_GT(r.reachable_states, 5.0);
}

TEST(Symbolic, ViolationFoundWithTrace) {
  const Module m = saturating_counter(3, 5);
  const rtl::BitBlast bb =
      rtl::bitblast(m, {ClockStep{m.find_net("clk"), Edge::kPos}});
  // False property: the counter never reaches 5 <=> never saturated.
  const auto prop = psl::parse_property("never {saturated}");
  const SymbolicResult r = check(bb, prop);
  EXPECT_EQ(r.outcome, SymbolicResult::Outcome::kFails);
  // Trace: needs 5 increments + 1 edge to latch the tap; initial state
  // included, so at least 7 entries.
  EXPECT_GE(r.trace.size(), 7u);
  // Final state must have the tap set.
  EXPECT_TRUE(r.trace.back().at("saturated[0]"));
  // First state is the all-zero init.
  EXPECT_FALSE(r.trace.front().at("r[0]"));
}

TEST(Symbolic, LatencyPropertyOnPipeline) {
  // Two-stage pipeline: out_q = in delayed by 2.
  Module m("pipe");
  const NetId clk = m.input("clk", 1);
  const NetId in = m.input("in", 1);
  const NetId s1 = m.reg("s1", 1, 0u);
  const NetId s2 = m.reg("s2", 1, 0u);
  const ProcId p = m.process("p", clk, Edge::kPos);
  m.nonblocking(p, s1, m.ref(in));
  m.nonblocking(p, s2, m.ref(s1));
  const rtl::BitBlast bb = rtl::bitblast(m, {ClockStep{clk, Edge::kPos}});
  const SymbolicResult good =
      check(bb, psl::parse_property("always (s1 -> next[1] s2)"));
  EXPECT_EQ(good.outcome, SymbolicResult::Outcome::kHolds);
  const SymbolicResult bad =
      check(bb, psl::parse_property("always (s1 -> next[2] s2)"));
  EXPECT_EQ(bad.outcome, SymbolicResult::Outcome::kFails);
}

TEST(Symbolic, NodeLimitReportsExplosion) {
  const Module m = saturating_counter(3, 5);
  const rtl::BitBlast bb =
      rtl::bitblast(m, {ClockStep{m.find_net("clk"), Edge::kPos}});
  SymbolicOptions opt;
  opt.node_limit = 8;  // absurdly small
  const SymbolicResult r =
      check(bb, psl::parse_property("never {saturated}"), opt);
  EXPECT_EQ(r.outcome, SymbolicResult::Outcome::kStateExplosion);
}

TEST(Verdict, DecisiveKindsAndNames) {
  Verdict v;
  v.kind = Verdict::Kind::kProven;
  EXPECT_TRUE(v.decisive());
  v.kind = Verdict::Kind::kFalsified;
  EXPECT_TRUE(v.decisive());
  v.kind = Verdict::Kind::kBoundedPass;
  EXPECT_FALSE(v.decisive());
  v.kind = Verdict::Kind::kUnknown;
  EXPECT_FALSE(v.decisive());
  EXPECT_STREQ(to_string(Verdict::Kind::kProven), "Proven");
  EXPECT_STREQ(to_string(Verdict::Kind::kFalsified), "Falsified");
  EXPECT_STREQ(to_string(Verdict::Kind::kBoundedPass), "BoundedPass");
  EXPECT_STREQ(to_string(Verdict::Kind::kUnknown), "Unknown");
}

TEST(Verdict, ProvenCarriesFixpointDepth) {
  const Module m = saturating_counter(3, 5);
  const rtl::BitBlast bb =
      rtl::bitblast(m, {ClockStep{m.find_net("clk"), Edge::kPos}});
  const SymbolicResult r =
      check(bb, psl::parse_property("never {r[1] && r[2]}"));
  EXPECT_EQ(r.verdict.kind, Verdict::Kind::kProven);
  EXPECT_EQ(r.verdict.depth, r.iterations);
  EXPECT_EQ(r.verdict.retries, 0);
}

TEST(Verdict, FalsifiedCarriesTraceDepth) {
  const Module m = saturating_counter(3, 5);
  const rtl::BitBlast bb =
      rtl::bitblast(m, {ClockStep{m.find_net("clk"), Edge::kPos}});
  const SymbolicResult r = check(bb, psl::parse_property("never {saturated}"));
  EXPECT_EQ(r.verdict.kind, Verdict::Kind::kFalsified);
  EXPECT_EQ(r.verdict.depth, static_cast<int>(r.trace.size()) - 1);
}

TEST(Verdict, CycleBudgetYieldsBoundedPass) {
  const Module m = saturating_counter(4, 12);
  const rtl::BitBlast bb =
      rtl::bitblast(m, {ClockStep{m.find_net("clk"), Edge::kPos}});
  SymbolicOptions opt;
  opt.budget.max_cycles = 3;  // fixpoint needs ~13 iterations
  const SymbolicResult r =
      check(bb, psl::parse_property("never {saturated}"), opt);
  // Legacy outcome still reports explosion; the qualified verdict says the
  // bound that *was* established and why the run stopped.
  EXPECT_EQ(r.outcome, SymbolicResult::Outcome::kStateExplosion);
  EXPECT_EQ(r.verdict.kind, Verdict::Kind::kBoundedPass);
  EXPECT_EQ(r.verdict.depth, 3);
  EXPECT_NE(r.verdict.reason.find("iteration cap"), std::string::npos)
      << r.verdict.reason;
  // A budgeted inconclusive run retries once under the flipped order.
  EXPECT_EQ(r.verdict.retries, 1);
}

TEST(Verdict, NodeBudgetYieldsQualifiedVerdictNotThrow) {
  const Module m = saturating_counter(3, 5);
  const rtl::BitBlast bb =
      rtl::bitblast(m, {ClockStep{m.find_net("clk"), Edge::kPos}});
  SymbolicOptions opt;
  opt.budget.bdd_nodes = 8;  // absurdly small
  SymbolicResult r;
  ASSERT_NO_THROW(r = check(bb, psl::parse_property("never {saturated}"), opt));
  EXPECT_EQ(r.outcome, SymbolicResult::Outcome::kStateExplosion);
  EXPECT_TRUE(r.verdict.kind == Verdict::Kind::kBoundedPass ||
              r.verdict.kind == Verdict::Kind::kUnknown);
  EXPECT_FALSE(r.verdict.reason.empty());
  EXPECT_EQ(r.verdict.retries, 1);
}

TEST(Verdict, RetryRecoversWhenSecondOrderSucceeds) {
  // A generous node budget that the default order satisfies: decisive on
  // the first attempt, no retry recorded.
  const Module m = saturating_counter(3, 5);
  const rtl::BitBlast bb =
      rtl::bitblast(m, {ClockStep{m.find_net("clk"), Edge::kPos}});
  SymbolicOptions opt;
  opt.budget.bdd_nodes = 1u << 20;
  opt.budget.max_cycles = 64;
  const SymbolicResult r =
      check(bb, psl::parse_property("never {saturated}"), opt);
  EXPECT_EQ(r.verdict.kind, Verdict::Kind::kFalsified);
  EXPECT_EQ(r.verdict.retries, 0);
}

TEST(Verdict, RegisterMajorOrderAgreesWithBitMajor) {
  // Register-major is the retry's order: a node budget that the bit-major
  // first attempt exceeds on replicated_registers reaches it.
  const Module m = replicated_registers(kReplicatedRegs);
  const rtl::BitBlast bb =
      rtl::bitblast(m, {ClockStep{m.find_net("clk"), Edge::kPos}});
  for (const char* text : {"never {q0[0] && !q0[4] && q4[1] && !q4[3]}",
                           "never {q0[0] && q4[4]}"}) {
    SymbolicOptions bit_major;
    bit_major.cone_of_influence = false;
    SymbolicOptions reg_major = bit_major;
    reg_major.budget.bdd_nodes = kBitMajorExceeds;
    const SymbolicResult a = check(bb, psl::parse_property(text), bit_major);
    const SymbolicResult b = check(bb, psl::parse_property(text), reg_major);
    EXPECT_EQ(b.verdict.retries, 1) << text;
    EXPECT_EQ(a.outcome, b.outcome) << text;
    EXPECT_EQ(a.verdict.kind, b.verdict.kind) << text;
    EXPECT_DOUBLE_EQ(a.reachable_states, b.reachable_states) << text;
  }
}

TEST(Verdict, WallBudgetExhaustionIsQualified) {
  const Module m = saturating_counter(4, 12);
  const rtl::BitBlast bb =
      rtl::bitblast(m, {ClockStep{m.find_net("clk"), Edge::kPos}});
  SymbolicOptions opt;
  opt.budget.wall_ms = 1;
  // A 1 ms deadline may or may not expire on a model this small; either a
  // decisive verdict or a qualified exhaustion is acceptable — what is not
  // acceptable is a throw.
  SymbolicResult r;
  ASSERT_NO_THROW(r = check(bb, psl::parse_property("never {saturated}"), opt));
  if (!r.verdict.decisive()) {
    EXPECT_FALSE(r.verdict.reason.empty());
    EXPECT_EQ(r.verdict.retries, 1);
  }
}

TEST(Symbolic, MonolithicMatchesPartitioned) {
  const Module m = saturating_counter(3, 4);
  const rtl::BitBlast bb =
      rtl::bitblast(m, {ClockStep{m.find_net("clk"), Edge::kPos}});
  for (const char* text : {"never {saturated}", "never {r[1] && r[2]}"}) {
    SymbolicOptions part;
    part.partitioned = true;
    SymbolicOptions mono;
    mono.partitioned = false;
    const SymbolicResult a = check(bb, psl::parse_property(text), part);
    const SymbolicResult b = check(bb, psl::parse_property(text), mono);
    EXPECT_EQ(a.outcome, b.outcome) << text;
    EXPECT_DOUBLE_EQ(a.reachable_states, b.reachable_states) << text;
  }
}

TEST(Symbolic, AtomOnInputRejected) {
  Module m("t");
  const NetId clk = m.input("clk", 1);
  const NetId in = m.input("in", 1);
  const NetId r = m.reg("r", 1, 0u);
  const ProcId p = m.process("p", clk, Edge::kPos);
  m.nonblocking(p, r, m.ref(in));
  const rtl::BitBlast bb = rtl::bitblast(m, {ClockStep{clk, Edge::kPos}});
  EXPECT_THROW(check(bb, psl::parse_property("always (in)")),
               std::invalid_argument);
}

TEST(Symbolic, UnknownAtomRejected) {
  const Module m = saturating_counter(2, 2);
  const rtl::BitBlast bb =
      rtl::bitblast(m, {ClockStep{m.find_net("clk"), Edge::kPos}});
  EXPECT_THROW(check(bb, psl::parse_property("never {nonexistent}")),
               std::invalid_argument);
}

TEST(Symbolic, TwoPhaseScheduleCounts) {
  // DDR toggles: a on K, b on K#; b always lags a by one edge.
  Module m("ddr");
  const NetId k = m.input("k", 1);
  const NetId ks = m.input("ks", 1);
  const NetId a = m.reg("a", 1, 0u);
  const NetId b = m.reg("b", 1, 0u);
  const ProcId pk = m.process("pk", k, Edge::kPos);
  m.nonblocking(pk, a, m.op_not(m.ref(a)));
  const ProcId pks = m.process("pks", ks, Edge::kPos);
  m.nonblocking(pks, b, m.ref(a));
  const rtl::BitBlast bb = rtl::bitblast(
      m, {ClockStep{k, Edge::kPos}, ClockStep{ks, Edge::kPos}});
  // After every K# edge, b equals a (copied); a changes only at K edges, so
  // "b != a" can hold only in the post-K half. The invariant "a -> next[1]
  // (b)" holds: a high at any edge implies b high after the following edge?
  // Precisely: after K raises a, the next K# copies it into b.
  const SymbolicResult r =
      check(bb, psl::parse_property("always (a && __phase[0] -> next[1] b)"));
  // __phase[0] == 1 right after a K edge (next step is K#).
  EXPECT_EQ(r.outcome, SymbolicResult::Outcome::kHolds);
}

TEST(Symbolic, SemanticConeMatchesVerdictWithSmallerEncoding) {
  // The device read-mode property under the default structural cone vs the
  // flow-engine semantic cone (use_coi): identical verdict and fixpoint
  // depth, with strictly fewer state bits, fewer encoded inputs, and a
  // smaller peak — the contract bench_coi measures across bank counts.
  const core::RtlConfig cfg = core::RtlConfig::model_checking(1);
  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = rtl::expand_memories(dev.flatten());
  const rtl::BitBlast bb = rtl::bitblast(flat, core::clock_schedule(flat));
  const psl::PropPtr prop = core::rtl_read_mode_property(cfg);

  const SymbolicResult structural = check(bb, prop);
  SymbolicOptions opt;
  opt.use_coi = true;
  const SymbolicResult semantic = check(bb, prop, opt);

  EXPECT_EQ(semantic.outcome, structural.outcome);
  EXPECT_EQ(semantic.iterations, structural.iterations);
  EXPECT_LT(semantic.state_bits, structural.state_bits);
  EXPECT_LT(semantic.input_bits, structural.input_bits);
  EXPECT_LT(semantic.peak_bdd_nodes, structural.peak_bdd_nodes);
  EXPECT_GT(semantic.invariants_applied, 0);
  EXPECT_EQ(structural.invariants_applied, 0);
}

TEST(Symbolic, SemanticConeSubsumesUseInvariants) {
  // use_coi takes precedence over use_invariants and applies at least the
  // same substitutions, so turning both on changes nothing.
  const core::RtlConfig cfg = core::RtlConfig::model_checking(1);
  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = rtl::expand_memories(dev.flatten());
  const rtl::BitBlast bb = rtl::bitblast(flat, core::clock_schedule(flat));
  const psl::PropPtr prop = core::rtl_read_mode_property(cfg);

  SymbolicOptions coi_only;
  coi_only.use_coi = true;
  SymbolicOptions both;
  both.use_coi = true;
  both.use_invariants = true;
  const SymbolicResult a = check(bb, prop, coi_only);
  const SymbolicResult b = check(bb, prop, both);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.state_bits, b.state_bits);
  EXPECT_EQ(a.input_bits, b.input_bits);
  EXPECT_EQ(a.invariants_applied, b.invariants_applied);

  SymbolicOptions invariants_only;
  invariants_only.use_invariants = true;
  const SymbolicResult inv = check(bb, prop, invariants_only);
  EXPECT_EQ(a.outcome, inv.outcome);
  EXPECT_EQ(a.state_bits, inv.state_bits);
  // The input restriction is what the semantic cone adds over
  // use_invariants: the invariant-only encoding still carries every input.
  EXPECT_LT(a.input_bits, inv.input_bits);
}

TEST(Symbolic, Table2ReadModeOneBankPinned) {
  // Paper Table 2 row 1 in the RuleBase configuration: the read-mode
  // property on the unreduced 1-bank RTL under a 2M-node budget. The BDD
  // package has no complement edges and no reordering, so for a fixed
  // image schedule (which parts the partitioned image conjoins, and when
  // it clusters them) the ROBDD node set is canonical: the peak and
  // created node counts pin it, and any change to the unique table, the
  // computed cache or the quantification recursions must leave them
  // exactly as they are. A change to the schedule moves them on purpose.
  const core::RtlConfig cfg = core::RtlConfig::model_checking(1);
  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = rtl::expand_memories(dev.flatten());
  const rtl::BitBlast bb = rtl::bitblast(flat, core::clock_schedule(flat));
  SymbolicOptions opt;
  opt.node_limit = 2'000'000;
  opt.cone_of_influence = false;
  const SymbolicResult r = check(bb, core::rtl_read_mode_property(cfg), opt);
  EXPECT_EQ(r.verdict.kind, Verdict::Kind::kProven);
  EXPECT_EQ(r.iterations, 9);
  EXPECT_EQ(r.peak_bdd_nodes, 273'729u);
  EXPECT_EQ(r.created_bdd_nodes, 273'729u);
}

/// A node budget that stops the unreduced 1-bank read-mode check inside an
/// image still reports the states reached through the last completed
/// iteration: exactly what a check capped at that many iterations reports.
TEST(Symbolic, BudgetStopCountsTheReachedSet) {
  const core::RtlConfig cfg = core::RtlConfig::model_checking(1);
  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = rtl::expand_memories(dev.flatten());
  const rtl::BitBlast bb = rtl::bitblast(flat, core::clock_schedule(flat));
  const psl::PropPtr prop = core::rtl_read_mode_property(cfg);
  SymbolicOptions opt;
  opt.cone_of_influence = false;
  opt.node_limit = 60'000;  // stops inside the image of iteration 8
  const SymbolicResult stopped = check(bb, prop, opt);
  ASSERT_EQ(stopped.verdict.kind, Verdict::Kind::kBoundedPass);
  ASSERT_NE(stopped.verdict.reason.find("node budget"), std::string::npos)
      << stopped.verdict.reason;
  ASSERT_GT(stopped.iterations, 0);
  opt.node_limit = 0;
  opt.max_iterations = stopped.iterations;
  const SymbolicResult capped = check(bb, prop, opt);
  EXPECT_EQ(capped.iterations, stopped.iterations);
  EXPECT_GT(stopped.reachable_states, 0.0);
  EXPECT_DOUBLE_EQ(stopped.reachable_states, capped.reachable_states);
}

/// The 4-bank property suite under the semantic cone, with the sweep's
/// invariants at seed 7: the perfbench mc-table2 suite. These checks are
/// small (263 to 4,001 nodes), so most of their cost is fixed per check;
/// a change to that fixed cost must leave every count here as it is.
TEST(Symbolic, CoiSuiteCountsPinned) {
  struct Row {
    const char* name;
    int iterations;
    std::uint64_t nodes;  // peak and created
    int state_bits;
  };
  const Row rows[] = {
      {"P1_read_latency_b0", 5, 1977, 10}, {"P2_read_burst_b0", 6, 376, 7},
      {"P3_write_addr_edge_b0", 3, 264, 6}, {"P1_read_latency_b1", 5, 1976, 10},
      {"P2_read_burst_b1", 6, 375, 7},     {"P3_write_addr_edge_b1", 3, 263, 6},
      {"P1_read_latency_b2", 5, 1977, 10}, {"P2_read_burst_b2", 6, 376, 7},
      {"P3_write_addr_edge_b2", 3, 264, 6}, {"P1_read_latency_b3", 5, 1976, 10},
      {"P2_read_burst_b3", 6, 375, 7},     {"P3_write_addr_edge_b3", 3, 263, 6},
      {"P4_exclusive_drive", 6, 4001, 18},
  };
  const core::RtlConfig cfg = core::RtlConfig::model_checking(4);
  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = rtl::expand_memories(dev.flatten());
  const rtl::BitBlast bb = rtl::bitblast(flat, core::clock_schedule(flat));
  dfa::SweepOptions sweep;
  sweep.seed = 7;
  const dfa::InvariantSet invariants = dfa::sweep(bb, sweep);
  SymbolicOptions opt;
  opt.use_coi = true;
  opt.invariants = &invariants;
  const auto suite = core::rtl_properties(cfg);
  ASSERT_EQ(suite.size(), std::size(rows));
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const Row& row = rows[i];
    const auto& [name, prop] = suite[i];
    ASSERT_EQ(name, row.name);
    const SymbolicResult r = check(bb, prop, opt);
    EXPECT_EQ(r.verdict.kind, Verdict::Kind::kProven) << name;
    EXPECT_EQ(r.iterations, row.iterations) << name;
    EXPECT_EQ(r.peak_bdd_nodes, row.nodes) << name;
    EXPECT_EQ(r.created_bdd_nodes, row.nodes) << name;
    EXPECT_EQ(r.state_bits, row.state_bits) << name;
    EXPECT_EQ(r.input_bits, 3) << name;
  }
}

/// The partitioned check, which clusters its conjuncts once the reached
/// set outgrows a cluster, against the monolithic relation: the same
/// verdict, depth, iteration count, reachable set size and trace. The
/// partitioned run must really have clustered: its last image used fewer
/// parts than it has conjuncts (one per state bit).
void expect_parity(const rtl::BitBlast& bb, const psl::PropPtr& prop,
                   SymbolicOptions opt, const std::string& at) {
  opt.partitioned = true;
  const SymbolicResult part = check(bb, prop, opt);
  opt.partitioned = false;
  const SymbolicResult mono = check(bb, prop, opt);
  EXPECT_EQ(part.verdict.kind, mono.verdict.kind) << at;
  EXPECT_EQ(part.verdict.depth, mono.verdict.depth) << at;
  EXPECT_EQ(part.iterations, mono.iterations) << at;
  EXPECT_DOUBLE_EQ(part.reachable_states, mono.reachable_states) << at;
  EXPECT_EQ(part.trace, mono.trace) << at;
  EXPECT_EQ(mono.image_parts, 1) << at;
  EXPECT_GT(part.image_parts, 0) << at;
  EXPECT_LT(part.image_parts, part.state_bits) << at;
}

TEST(Symbolic, ClusteredImageMatchesMonolithic) {
  const core::RtlConfig cfg = core::RtlConfig::model_checking(1);
  const rtl::BitBlast stock = fault::mc_blast(1, nullptr);
  SymbolicOptions opt;
  opt.cone_of_influence = false;

  // Table 2 row 1: the unreduced read-mode check, Proven at 9 iterations.
  expect_parity(stock, core::rtl_read_mode_property(cfg), opt, "read mode");
  // The catalog rows on the unreduced design.
  const auto rows = core::rtl_properties(cfg);
  for (const auto& [name, prop] : rows) expect_parity(stock, prop, opt, name);
  // A mutant the read-latency row falsifies at depth 5, after clustering:
  // the traces come from the unclustered conjuncts on both sides.
  const fault::FaultSpec stuck{fault::FaultKind::kStuckAt0,
                               "bank0.dout_valid_k_q", 0, 0};
  const rtl::BitBlast mutant = fault::mc_blast(1, &stuck);
  const auto& [row, latency] = rows.front();
  ASSERT_EQ(row, "P1_read_latency_b0");
  const SymbolicResult falsified = check(mutant, latency, opt);
  ASSERT_EQ(falsified.verdict.kind, Verdict::Kind::kFalsified);
  EXPECT_EQ(falsified.verdict.depth, 5);
  expect_parity(mutant, latency, opt, stuck.id());
}

}  // namespace
}  // namespace la1::mc
