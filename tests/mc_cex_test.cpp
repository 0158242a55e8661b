// Counterexample-trace agreement between the two model checkers. For each
// seeded (deliberately failing) property, the explicit-state checker over
// the ASM machine and the symbolic checker over the RTL must agree on the
// failure depth and on the first violating valuation, with and without
// invariant substitution.
//
// Depth correspondence: one ASM rule firing is one half-cycle edge, except
// the two prologue rules (SystemStart, SimManager_Init) that precede the
// first tick — so the ASM counterexample is exactly two rules longer than
// the RTL trace depth.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dfa/sweep.hpp"
#include "la1/asm_model.hpp"
#include "la1/properties.hpp"
#include "la1/rtl_model.hpp"
#include "mc/explicit.hpp"
#include "mc/symbolic.hpp"
#include "rtl/bitblast.hpp"

namespace la1 {
namespace {

/// One seeded failing property over canonical taps, plus the valuation the
/// violating state must exhibit (the property's target atom). The ASM and
/// RTL forms come from the catalog's binding (core::bind, core::bind_tap).
struct SeededProperty {
  core::PropertyRow row;
  std::string atom;
  bool violating_value;
};

std::vector<SeededProperty> seeded_properties() {
  using core::Shape;
  return {
      {{"wrong_read_latency", Shape::kImplNext, "b0.read_start",
        "b0.dout_valid_k", 2},
       "b0.dout_valid_k", false},
      {{"wrong_burst_gap", Shape::kImplNext, "b0.dout_valid_k",
        "b0.dout_valid_ks", 2},
       "b0.dout_valid_ks", false},
      {{"no_reads_ever", Shape::kNever, "b0.read_start", {}},
       "b0.read_start", true},
      {{"no_valid_ever", Shape::kNever, "b0.dout_valid_k", {}},
       "b0.dout_valid_k", true},
  };
}

/// Replays a counterexample's rule-label path ("TickK(true,1,false,0)")
/// from the machine's initial state.
asml::State replay(const asml::Machine& m,
                   const std::vector<std::string>& labels) {
  asml::State s = m.initial();
  for (const std::string& label : labels) {
    const auto paren = label.find('(');
    const std::string rule = label.substr(0, paren);
    asml::Args args;
    if (paren != std::string::npos) {
      std::string inner = label.substr(paren + 1, label.size() - paren - 2);
      std::size_t start = 0;
      while (start <= inner.size()) {
        const std::size_t comma = inner.find(',', start);
        const std::string tok = inner.substr(
            start, comma == std::string::npos ? inner.size() - start
                                              : comma - start);
        if (tok == "true") {
          args.emplace_back(true);
        } else if (tok == "false") {
          args.emplace_back(false);
        } else if (!tok.empty()) {
          args.emplace_back(static_cast<int>(std::stol(tok)));
        }
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    }
    s = m.fire(m.rule(rule), args, s);
  }
  return s;
}

/// Looks up `bit` in a trace valuation. Invariant substitution removes
/// redundant state bits from the encoding (and so from the trace); resolve
/// those through the proven fact that eliminated them.
bool trace_value(const std::map<std::string, bool>& vals,
                 const dfa::InvariantSet& invariants, const std::string& bit,
                 bool* found) {
  *found = true;
  if (const auto it = vals.find(bit); it != vals.end()) return it->second;
  for (const dfa::Invariant& inv : invariants.invariants()) {
    if (inv.kind == dfa::Invariant::Kind::kConst && inv.a == bit) {
      return inv.value;
    }
    if (inv.b != bit) continue;
    if (const auto rep = vals.find(inv.a); rep != vals.end()) {
      return inv.kind == dfa::Invariant::Kind::kComplement ? !rep->second
                                                           : rep->second;
    }
  }
  *found = false;
  return false;
}

class CexAgreement : public ::testing::TestWithParam<bool> {};

TEST_P(CexAgreement, ExplicitAndSymbolicAgree) {
  const bool use_invariants = GetParam();

  core::AsmConfig acfg;
  acfg.banks = 1;
  const asml::Machine machine = core::build_asm_model(acfg);

  const core::RtlConfig rcfg = core::RtlConfig::model_checking(1);
  core::RtlDevice dev = core::build_device(rcfg);
  const rtl::Module flat = dev.flatten();
  const rtl::Module expanded = rtl::expand_memories(flat);
  const rtl::BitBlast bb =
      rtl::bitblast(expanded, core::clock_schedule(flat));
  const dfa::InvariantSet invariants =
      use_invariants ? dfa::sweep(bb) : dfa::InvariantSet{};

  for (const SeededProperty& sp : seeded_properties()) {
    // Explicit-state over the ASM machine.
    mc::ExplicitOptions eopt;
    eopt.max_states = 60000;
    const mc::ExplicitResult er =
        mc::check(machine, core::bind(sp.row, core::Level::kAsm), eopt);
    ASSERT_TRUE(er.violated) << sp.row.name;
    ASSERT_FALSE(er.counterexample.empty()) << sp.row.name;

    // Symbolic over the RTL.
    mc::SymbolicOptions sopt;
    sopt.use_invariants = use_invariants;
    const mc::SymbolicResult sr =
        mc::check(bb, core::bind(sp.row, core::Level::kRtl), sopt);
    ASSERT_EQ(sr.outcome, mc::SymbolicResult::Outcome::kFails) << sp.row.name;
    EXPECT_EQ(sr.verdict.kind, mc::Verdict::Kind::kFalsified) << sp.row.name;
    ASSERT_FALSE(sr.trace.empty()) << sp.row.name;

    // Depth agreement: both BFS engines find the shortest violation, and
    // the ASM path carries the two-rule initialization prologue.
    const int rtl_depth = static_cast<int>(sr.trace.size()) - 1;
    EXPECT_EQ(sr.verdict.depth, rtl_depth) << sp.row.name;
    EXPECT_EQ(static_cast<int>(er.counterexample.size()), rtl_depth + 2)
        << sp.row.name << (use_invariants ? " (with invariants)" : "");

    // First violating valuation: the property's target atom has the same
    // value in both engines' violating states.
    const asml::State bad_state = replay(machine, er.counterexample);
    EXPECT_EQ(bad_state.get_bool(core::bind_tap(core::Level::kAsm, sp.atom)),
              sp.violating_value)
        << sp.row.name;
    const std::string rtl_bit =
        core::bind_tap(core::Level::kRtl, sp.atom) + "[0]";
    bool found = false;
    const bool rtl_value =
        trace_value(sr.trace.back(), invariants, rtl_bit, &found);
    ASSERT_TRUE(found) << sp.row.name << ": trace lacks " << rtl_bit
                       << " and no invariant resolves it";
    EXPECT_EQ(rtl_value, sp.violating_value) << sp.row.name;
  }
}

INSTANTIATE_TEST_SUITE_P(WithAndWithoutInvariants, CexAgreement,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "invariants" : "plain";
                         });

}  // namespace
}  // namespace la1
