// Tests for the sequential dataflow engine (src/dfa): the ternary abstract
// simulator, the register sweep, the InvariantSet JSON round-trip, the
// sequential lint rules they feed, and the invariant-strengthened symbolic
// model checker.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "dfa/abstract.hpp"
#include "dfa/invariants.hpp"
#include "dfa/sweep.hpp"
#include "la1/rtl_model.hpp"
#include "lint/fixtures.hpp"
#include "lint/seq_lint.hpp"
#include "mc/symbolic.hpp"
#include "rtl/bitblast.hpp"
#include "rtl/netlist.hpp"
#include "util/json.hpp"

namespace la1::dfa {
namespace {

// ---------------------------------------------------------------------------
// Abstract domain: pointwise lifts of the four-state operators.

TEST(AbstractDomain, LiftedGatesFollowControllingValues) {
  EXPECT_EQ(abs_lift2(kAbs0, kAbsTop, rtl::logic_and), kAbs0);
  EXPECT_EQ(abs_lift2(kAbsTop, kAbs0, rtl::logic_and), kAbs0);
  EXPECT_EQ(abs_lift2(kAbs1, kAbsTop, rtl::logic_or), kAbs1);
  EXPECT_EQ(abs_lift2(kAbs01, kAbs1, rtl::logic_and), kAbs01);
  EXPECT_EQ(abs_lift2(kAbs1, kAbs1, rtl::logic_and), kAbs1);
}

TEST(AbstractDomain, LiftedGatesPropagateUndefined) {
  // X and Z both gate as X; the set never silently narrows.
  EXPECT_EQ(abs_lift2(kAbsX, kAbs1, rtl::logic_and), kAbsX);
  EXPECT_EQ(abs_lift2(kAbsZ, kAbs1, rtl::logic_and), kAbsX);
  EXPECT_EQ(abs_lift2(kAbsX, kAbs01, rtl::logic_xor), kAbsX);
  EXPECT_EQ(abs_lift2(kAbs01, kAbs01, rtl::logic_xor), kAbs01);
  EXPECT_EQ(abs_lift1(kAbs01, rtl::logic_not), kAbs01);
  EXPECT_EQ(abs_lift1(kAbs1, rtl::logic_not), kAbs0);
  EXPECT_EQ(abs_lift1(kAbsX | kAbsZ, rtl::logic_not), kAbsX);
  // Mixed sets produce the union of every pairing.
  EXPECT_EQ(abs_lift2(kAbs01, kAbs1 | kAbsX, rtl::logic_and),
            kAbs01 | kAbsX);
}

TEST(AbstractDomain, ConstantQueries) {
  EXPECT_TRUE(abs_is_constant(kAbs0));
  EXPECT_TRUE(abs_is_constant(kAbs1));
  EXPECT_FALSE(abs_is_constant(kAbs01));
  EXPECT_FALSE(abs_is_constant(kAbsX));
  EXPECT_TRUE(abs_constant_value(kAbs1));
  EXPECT_FALSE(abs_constant_value(kAbs0));
  EXPECT_EQ(abs_of(rtl::Logic::kZ), kAbsZ);
  EXPECT_EQ(abs_of(rtl::Logic::k1), kAbs1);
}

// ---------------------------------------------------------------------------
// Ternary fixpoint over small sequential modules.

TEST(AbstractFixpoint, ToggleRegisterCoversBothValues) {
  rtl::Module m("toggle");
  const rtl::NetId clk = m.input("clk", 1);
  const rtl::NetId q = m.output("q", 1);
  const rtl::NetId t = m.reg("t", 1, 0u);
  const rtl::ProcId p = m.process("ff", clk, rtl::Edge::kPos);
  m.nonblocking(p, t, m.op_not(m.ref(t)));
  m.assign(q, m.ref(t));

  const Facts f = analyze(m);
  EXPECT_EQ(f.nets[static_cast<std::size_t>(t)][0], kAbs01);
  EXPECT_FALSE(f.net_constant(t));
  EXPECT_FALSE(f.net_x_forever(t));
  EXPECT_GE(f.iterations, 2);  // grew from {0} to {0,1}, then stabilized
}

TEST(AbstractFixpoint, StuckRegisterStaysASingleton) {
  const rtl::Module m = lint::broken_stuck_reg();
  const Facts f = analyze(m);
  const rtl::NetId s = m.find_net("s");
  ASSERT_NE(s, rtl::kInvalidId);
  rtl::LVec value;
  EXPECT_TRUE(f.net_constant(s, &value));
  EXPECT_EQ(value.to_string(), "0");
}

TEST(AbstractFixpoint, XResetThatNeverRecoversIsDetected) {
  const rtl::Module m = lint::broken_x_reset();
  const Facts f = analyze(m);
  const rtl::NetId x = m.find_net("x");
  ASSERT_NE(x, rtl::kInvalidId);
  EXPECT_TRUE(f.net_x_forever(x));
  EXPECT_FALSE(f.net_constant(x));
}

TEST(AbstractFixpoint, XResetThatLoadsAnInputRecovers) {
  // Same X reset, but the register reloads from a primary input: the
  // fixpoint must include defined values, so NET-X-RESET stays quiet.
  rtl::Module m("recovers");
  const rtl::NetId clk = m.input("clk", 1);
  const rtl::NetId d = m.input("d", 1);
  const rtl::NetId q = m.output("q", 1);
  const rtl::NetId r = m.reg("r", 1, rtl::LVec::xs(1));
  const rtl::ProcId p = m.process("ff", clk, rtl::Edge::kPos);
  m.nonblocking(p, r, m.ref(d));
  m.assign(q, m.ref(r));

  const Facts f = analyze(m);
  EXPECT_FALSE(f.net_x_forever(r));
  EXPECT_FALSE(f.net_constant(r));
  const AbsBit bit = f.nets[static_cast<std::size_t>(r)][0];
  EXPECT_EQ(bit & kAbs01, kAbs01);  // both defined values reachable
}

TEST(AbstractFixpoint, ZDrivenBusJoinsToZUnionNotX) {
  // A tristate bus whose one driver can be disabled: at fixpoint the bus
  // carries {0,1} (enable high, either payload) ∪ {Z} (enable low). The Z
  // member must survive as Z — collapsing it to X would hide exactly the
  // distinction the compile planner's x-live classification keys on.
  rtl::Module m("tri");
  const rtl::NetId en = m.input("EN", 1);
  const rtl::NetId d = m.input("D", 1);
  const rtl::NetId bus = m.wire("BUS", 1);
  m.tristate(bus, m.ref(en), m.ref(d));

  const Facts f = analyze(m);
  EXPECT_EQ(f.nets[static_cast<std::size_t>(bus)][0], kAbs01 | kAbsZ);
}

TEST(AbstractFixpoint, UndefinedEnableResolvesTheBusToX) {
  // An enable that can itself be X (an X-reset register that never
  // recovers) poisons the whole resolution: the driver may or may not be
  // on, so the bus is X — not Z, not a defined value.
  rtl::Module m("xen");
  const rtl::NetId clk = m.input("clk", 1);
  const rtl::NetId d = m.input("D", 1);
  const rtl::NetId xen = m.reg("XEN", 1, rtl::LVec::xs(1));
  const rtl::ProcId p = m.process("hold", clk, rtl::Edge::kPos);
  m.nonblocking(p, xen, m.ref(xen));
  const rtl::NetId bus = m.wire("BUS", 1);
  m.tristate(bus, m.ref(xen), m.ref(d));

  const Facts f = analyze(m);
  EXPECT_EQ(f.nets[static_cast<std::size_t>(bus)][0], kAbsX);
}

TEST(AbstractFixpoint, CompetingDriversResolveLikeTheInterpreter) {
  // Two drivers that can both be on: conflicting values resolve to X, so
  // the fixpoint set is {0,1} (agreeing drivers or one off) ∪ {X}
  // (disagreement) ∪ {Z} (both off) — the full rtl::resolve lift.
  rtl::Module m("pair");
  const rtl::NetId en0 = m.input("EN0", 1);
  const rtl::NetId en1 = m.input("EN1", 1);
  const rtl::NetId d = m.input("D", 1);
  const rtl::NetId bus = m.wire("BUS", 1);
  m.tristate(bus, m.ref(en0), m.ref(d));
  m.tristate(bus, m.ref(en1), m.op_not(m.ref(d)));

  const Facts f = analyze(m);
  EXPECT_EQ(f.nets[static_cast<std::size_t>(bus)][0], kAbsTop);
}

TEST(AbstractFixpoint, MemoriesAreSummarizedNotIgnored) {
  rtl::Module m("memo");
  const rtl::NetId clk = m.input("clk", 1);
  const rtl::NetId addr = m.input("addr", 1);
  const rtl::NetId din = m.input("din", 2);
  const rtl::NetId wen = m.input("wen", 1);
  const rtl::NetId dout = m.output("dout", 2);
  const rtl::MemId mem = m.memory("mem", 2, 2);
  const rtl::ProcId p = m.process("wr", clk, rtl::Edge::kPos);
  m.mem_write(p, mem, m.ref(addr), m.ref(din), m.ref(wen));
  m.assign(dout, m.mem_read(mem, m.ref(addr)));

  const Facts f = analyze(m);
  // Words start zeroed, any input value may land, and an aborted write may
  // leave X: the read-out summary must cover all of that.
  EXPECT_FALSE(f.net_constant(dout));
  EXPECT_FALSE(f.net_x_forever(dout));
  for (AbsBit b : f.nets[static_cast<std::size_t>(dout)]) {
    EXPECT_EQ(b & kAbs01, kAbs01);
  }
}

TEST(AbstractFixpoint, HierarchicalModuleIsRejected) {
  core::RtlDevice dev =
      core::build_device(core::RtlConfig::model_checking(1));
  EXPECT_THROW(analyze(*dev.top), std::invalid_argument);
  EXPECT_NO_THROW(analyze(dev.flatten()));
}

// ---------------------------------------------------------------------------
// Register sweep: simulation-filtered, induction-discharged invariants.

/// Two identical registers, one complemented twin, one stuck register.
rtl::Module redundant_pair_module() {
  rtl::Module m("pairs");
  const rtl::NetId clk = m.input("clk", 1);
  const rtl::NetId d = m.input("d", 1);
  const rtl::NetId en = m.input("en", 1);
  const rtl::NetId y = m.output("y", 1);
  const rtl::NetId p_reg = m.reg("p", 1, 0u);
  const rtl::NetId q_reg = m.reg("q", 1, 0u);
  const rtl::NetId n_reg = m.reg("n", 1, 1u);
  const rtl::NetId z_reg = m.reg("z", 1, 0u);
  const rtl::ProcId p = m.process("ff", clk, rtl::Edge::kPos);
  m.nonblocking(p, p_reg, m.op_and(m.ref(d), m.ref(en)));
  m.nonblocking(p, q_reg, m.op_and(m.ref(d), m.ref(en)));
  m.nonblocking(p, n_reg, m.op_not(m.op_and(m.ref(d), m.ref(en))));
  m.nonblocking(p, z_reg, m.op_and(m.ref(z_reg), m.ref(d)));  // stuck at 0
  m.assign(y, m.op_or(m.op_or(m.ref(p_reg), m.ref(q_reg)),
                      m.op_or(m.ref(n_reg), m.ref(z_reg))));
  return m;
}

bool has_pair(const InvariantSet& s, Invariant::Kind kind,
              const std::string& a, const std::string& b) {
  for (const Invariant& inv : s.invariants()) {
    if (inv.kind != kind) continue;
    if ((inv.a == a && inv.b == b) || (inv.a == b && inv.b == a)) return true;
  }
  return false;
}

TEST(Sweep, ProvesEqualComplementAndConstant) {
  const rtl::Module m = redundant_pair_module();
  const rtl::BitBlast bb =
      rtl::bitblast(m, {{m.find_net("clk"), rtl::Edge::kPos}});
  const InvariantSet inv = sweep(bb);

  EXPECT_TRUE(has_pair(inv, Invariant::Kind::kEqual, "p[0]", "q[0]"));
  EXPECT_TRUE(has_pair(inv, Invariant::Kind::kComplement, "p[0]", "n[0]"));
  bool found_const = false;
  for (const Invariant& i : inv.invariants()) {
    if (i.kind == Invariant::Kind::kConst && i.a == "z[0]") {
      found_const = true;
      EXPECT_FALSE(i.value);
    }
  }
  EXPECT_TRUE(found_const);
}

TEST(Sweep, DeviceSweepFindsTheKnownTapMirrors) {
  // The 1-bank MC geometry carries registered observation taps that mirror
  // internal state by construction; the sweep must prove them.
  core::RtlDevice dev =
      core::build_device(core::RtlConfig::model_checking(1));
  const rtl::Module flat = rtl::expand_memories(dev.flatten());
  const rtl::BitBlast bb = rtl::bitblast(flat, core::clock_schedule(flat));
  const InvariantSet inv = sweep(bb);

  EXPECT_TRUE(has_pair(inv, Invariant::Kind::kEqual, "bank0.beat1_pend[0]",
                       "bank0.dout_valid_k_q[0]"));
  EXPECT_TRUE(has_pair(inv, Invariant::Kind::kEqual, "bank0.en_q[0]",
                       "bank0.driving_q[0]"));
  EXPECT_EQ(inv.count(Invariant::Kind::kConst), 0);
}

// ---------------------------------------------------------------------------
// InvariantSet JSON export.

// Invariant sets are write-only: a parse of the JSON text re-dumps it
// byte for byte, and each kind carries exactly its fields (a const its
// value, a pair its twin).
TEST(Invariants, JsonRoundTrip) {
  InvariantSet s;
  s.add({Invariant::Kind::kConst, "z[0]", "", true});
  s.add({Invariant::Kind::kEqual, "p[0]", "q[0]", false});
  s.add({Invariant::Kind::kComplement, "p[0]", "n[0]", false});

  const util::Json j = s.to_json();
  EXPECT_EQ(util::Json::parse(j.dump(2)).dump(2), j.dump(2));
  EXPECT_EQ(j.dump(),
            R"({"invariants":[{"kind":"const","a":"z[0]","value":true},)"
            R"({"kind":"equal","a":"p[0]","b":"q[0]"},)"
            R"({"kind":"complement","a":"p[0]","b":"n[0]"}]})");
  EXPECT_EQ(s.count(Invariant::Kind::kEqual), 1);
}

// ---------------------------------------------------------------------------
// Sequential lint rules.

TEST(SeqLint, StockDeviceIsCleanAtEveryBankCount) {
  for (int banks : {1, 2, 4}) {
    core::RtlDevice dev =
        core::build_device(core::RtlConfig::model_checking(banks));
    const lint::LintReport report = lint::lint_sequential(dev.flatten());
    EXPECT_TRUE(report.empty())
        << banks << " banks:\n" << report.render();
  }
}

TEST(SeqLint, StuckRegisterAnchorsOnTheRegister) {
  const lint::LintReport r = lint::lint_sequential(lint::broken_stuck_reg());
  const lint::Finding* f = r.first("NET-CONST");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, lint::Severity::kWarning);
  EXPECT_EQ(f->location, "s");
  EXPECT_NE(f->message.find("stuck at 0"), std::string::npos);
}

TEST(SeqLint, XResetIsAnError) {
  const lint::LintReport r = lint::lint_sequential(lint::broken_x_reset());
  const lint::Finding* f = r.first("NET-X-RESET");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, lint::Severity::kError);
  EXPECT_EQ(f->location, "x");
}

TEST(SeqLint, DeadConeReportsTheDrivenNet) {
  const lint::LintReport r =
      lint::lint_sequential(lint::broken_dead_logic());
  const lint::Finding* f = r.first("NET-DEAD-LOGIC");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, lint::Severity::kWarning);
  EXPECT_EQ(f->location, "dead");
  EXPECT_TRUE(r.has("NET-CONST"));  // the stuck gate register, too
}

TEST(SeqLint, DuplicatedRegisterNamesItsRepresentative) {
  const lint::LintReport r = lint::lint_sequential(lint::broken_dup_reg());
  const lint::Finding* f = r.first("NET-EQUIV-REG");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, lint::Severity::kWarning);
  EXPECT_EQ(f->location, "q");
  EXPECT_NE(f->message.find("'p'"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Invariant-strengthened symbolic model checking.

TEST(McInvariants, SameVerdictFewerNodesAcrossBankCounts) {
  std::uint64_t peak_base_4 = 0;
  std::uint64_t peak_inv_4 = 0;
  for (int banks : {1, 2, 4}) {
    const core::RtlConfig cfg = core::RtlConfig::model_checking(banks);
    core::RtlDevice dev = core::build_device(cfg);
    const rtl::Module flat = rtl::expand_memories(dev.flatten());
    const rtl::BitBlast bb = rtl::bitblast(flat, core::clock_schedule(flat));
    const psl::PropPtr prop = core::rtl_read_mode_property(cfg);

    mc::SymbolicOptions base;
    const mc::SymbolicResult rb = mc::check(bb, prop, base);

    mc::SymbolicOptions strengthened;
    strengthened.use_invariants = true;  // internal sweep
    const mc::SymbolicResult ri = mc::check(bb, prop, strengthened);

    // Substitution is sound: verdict and convergence depth are identical.
    EXPECT_EQ(ri.outcome, rb.outcome) << banks << " banks";
    EXPECT_EQ(rb.outcome, mc::SymbolicResult::Outcome::kHolds);
    EXPECT_EQ(ri.iterations, rb.iterations) << banks << " banks";
    // ...and it only ever shrinks the encoding.
    EXPECT_LE(ri.peak_bdd_nodes, rb.peak_bdd_nodes) << banks << " banks";
    EXPECT_LT(ri.state_bits, rb.state_bits) << banks << " banks";
    EXPECT_GT(ri.invariants_applied, 0) << banks << " banks";
    EXPECT_EQ(rb.invariants_applied, 0) << banks << " banks";
    if (banks == 4) {
      peak_base_4 = rb.peak_bdd_nodes;
      peak_inv_4 = ri.peak_bdd_nodes;
    }
  }
  // The acceptance bar: strictly fewer peak BDD nodes at 4 banks.
  EXPECT_LT(peak_inv_4, peak_base_4);
}

TEST(McInvariants, BogusInvariantsAreRejected) {
  const core::RtlConfig cfg = core::RtlConfig::model_checking(1);
  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = rtl::expand_memories(dev.flatten());
  const rtl::BitBlast bb = rtl::bitblast(flat, core::clock_schedule(flat));
  const psl::PropPtr prop = core::rtl_read_mode_property(cfg);

  mc::SymbolicOptions opt;
  opt.use_invariants = true;

  InvariantSet unknown;
  unknown.add({Invariant::Kind::kConst, "no_such_reg[0]", "", false});
  opt.invariants = &unknown;
  EXPECT_THROW(mc::check(bb, prop, opt), std::invalid_argument);

  // A "constant" contradicting the reset state can't be an invariant.
  InvariantSet inconsistent;
  inconsistent.add(
      {Invariant::Kind::kConst, "bank0.read_start_q[0]", "", true});
  opt.invariants = &inconsistent;
  EXPECT_THROW(mc::check(bb, prop, opt), std::invalid_argument);
}

}  // namespace
}  // namespace la1::dfa
