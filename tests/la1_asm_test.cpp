#include <gtest/gtest.h>

#include "la1/asm_model.hpp"
#include "mc/explicit.hpp"

namespace la1::core {
namespace {

TEST(AsmModel, LifecycleMatchesFigure4) {
  const AsmConfig cfg;
  const asml::Machine m = build_asm_model(cfg);
  asml::State s = m.initial();
  EXPECT_EQ(s.get_symbol("SystemFlag"), "CREATED");
  EXPECT_EQ(s.get_symbol("SimStatus"), "INIT");
  // Tick rules gated until SimManager_Init runs.
  EXPECT_FALSE(m.rule("TickK").enabled(
      s, {asml::Value(false), asml::Value(0), asml::Value(false),
          asml::Value(0)}));
  s = m.fire(m.rule("SystemStart"), {}, s);
  s = m.fire(m.rule("SimManager_Init"), {}, s);
  EXPECT_EQ(s.get_symbol("SimStatus"), "CHECKING_PROP");
  EXPECT_EQ(s.get_symbol("m_k"), "CLK_UP");
  EXPECT_EQ(s.get_symbol("m_ks"), "CLK_DOWN");
  EXPECT_TRUE(m.rule("TickK").enabled(
      s, {asml::Value(false), asml::Value(0), asml::Value(false),
          asml::Value(0)}));
  // Restart rule is inert (STOPPED unreachable by default).
  EXPECT_FALSE(m.rule("SimManager_Restart").enabled(s, {}));
}

/// Drives a read request and checks the Figure-3 pipeline timing.
TEST(AsmModel, ReadPipelineTiming) {
  const AsmConfig cfg;
  const asml::Machine m = build_asm_model(cfg);
  asml::State s = m.initial();
  s = m.fire(m.rule("SystemStart"), {}, s);
  s = m.fire(m.rule("SimManager_Init"), {}, s);

  auto tick_k = [&](bool rr, int addr) {
    s = m.fire(m.rule("TickK"),
               {asml::Value(rr), asml::Value(addr), asml::Value(false),
                asml::Value(0)},
               s);
  };
  auto tick_ks = [&] {
    s = m.fire(m.rule("TickKs"), {asml::Value(0), asml::Value(0)}, s);
  };

  tick_k(true, 1);  // request at K(0)
  EXPECT_TRUE(s.get_bool("b0.read_start"));
  tick_ks();
  tick_k(false, 0);  // K(1): SRAM fetch
  EXPECT_TRUE(s.get_bool("b0.fetch"));
  tick_ks();
  tick_k(false, 0);  // K(2): first beat
  EXPECT_TRUE(s.get_bool("b0.dout_valid_k"));
  tick_ks();  // K#(2): second beat
  EXPECT_TRUE(s.get_bool("b0.dout_valid_ks"));
}

TEST(AsmModel, WritePipelineCommitsMergedWord) {
  const AsmConfig cfg;
  const asml::Machine m = build_asm_model(cfg);
  asml::State s = m.initial();
  s = m.fire(m.rule("SystemStart"), {}, s);
  s = m.fire(m.rule("SimManager_Init"), {}, s);

  // W# with beat0=1 at K(0); address 1 + beat1=1 at K#(0); commit at K(1).
  s = m.fire(m.rule("TickK"),
             {asml::Value(false), asml::Value(0), asml::Value(true),
              asml::Value(1)},
             s);
  EXPECT_TRUE(s.get_bool("write_start"));
  s = m.fire(m.rule("TickKs"), {asml::Value(1), asml::Value(1)}, s);
  EXPECT_TRUE(s.get_bool("addr_captured"));
  s = m.fire(m.rule("TickK"),
             {asml::Value(false), asml::Value(0), asml::Value(false),
              asml::Value(0)},
             s);
  EXPECT_TRUE(s.get_bool("write_commit"));
  EXPECT_EQ(s.get_int("b0.mem1"), 1 + 2 * 1);  // word = beat0 + 2*beat1
}

/// Plain reachability: the always-true property never stops the search.
psl::PropPtr always_true() {
  return psl::p_always(psl::p_bool(psl::b_const(true)));
}

TEST(AsmModel, ExplorationGrowsWithBanks) {
  mc::ExplicitOptions opt;
  opt.max_states = 25000;
  opt.max_transitions = 1000000;

  AsmConfig one;
  one.banks = 1;
  const auto r1 = mc::check(build_asm_model(one), always_true(), opt);
  AsmConfig two;
  two.banks = 2;
  const auto r2 = mc::check(build_asm_model(two), always_true(), opt);
  // One bank explores completely under the budget; two banks outgrow it —
  // the AsmL-style under-approximation the paper describes.
  EXPECT_TRUE(r1.complete);
  EXPECT_FALSE(r2.complete);
  EXPECT_GE(r2.fsm_states, r1.fsm_states);
}

TEST(AsmModel, Table1OneBankPinned) {
  // Table 1, row 1: the combined suite at the bench's 120,000-state budget.
  AsmConfig cfg;
  cfg.banks = 1;
  const asml::Machine m = build_asm_model(cfg);
  std::vector<psl::PropPtr> all;
  for (const auto& [name, p] : asm_properties(cfg)) all.push_back(p);
  mc::ExplicitOptions opt;
  opt.max_states = 120000;
  opt.max_transitions = 1200000;
  const mc::ExplicitResult r = mc::check(m, psl::p_and(std::move(all)), opt);
  EXPECT_TRUE(r.holds);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.fsm_states, 19459u);
  EXPECT_EQ(r.product_states, 19459u);
  EXPECT_EQ(r.product_transitions, 198418u);

  // The suite's monitor adds no product states: plain reachability of the
  // same machine is the same graph.
  const mc::ExplicitResult reach = mc::check(m, always_true(), opt);
  EXPECT_TRUE(reach.complete);
  EXPECT_EQ(reach.fsm_states, 19459u);
  EXPECT_EQ(reach.product_transitions, 198418u);
}

TEST(AsmModel, PropertiesHoldOnOneBank) {
  AsmConfig cfg;
  cfg.banks = 1;
  const asml::Machine m = build_asm_model(cfg);
  mc::ExplicitOptions opt;
  opt.max_states = 40000;
  const auto outcomes = mc::check_all(m, asm_properties(cfg), opt);
  ASSERT_FALSE(outcomes.empty());
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.holds) << o.name << " counterexample size "
                         << o.counterexample.size();
  }
}

TEST(AsmModel, MutatedLatencyIsCaught) {
  // Checking a wrong latency (next[2] instead of next[4]) must yield a
  // counterexample — the paper's counterexample flow (§5.1).
  AsmConfig cfg;
  cfg.banks = 1;
  const asml::Machine m = build_asm_model(cfg);
  const auto wrong = psl::p_impl_next(psl::b_sig("b0.read_start"), 2,
                                      psl::b_sig("b0.dout_valid_k"));
  mc::ExplicitOptions opt;
  opt.max_states = 40000;
  const mc::ExplicitResult r = mc::check(m, wrong, opt);
  EXPECT_TRUE(r.violated);
  EXPECT_FALSE(r.counterexample.empty());
  // The counterexample replays to a violating state.
  asml::State s = m.initial();
  for (const std::string& label : r.counterexample) {
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
  SUCCEED();
}

TEST(AsmModel, ExclusiveDriveAcrossBanks) {
  AsmConfig cfg;
  cfg.banks = 2;
  const asml::Machine m = build_asm_model(cfg);
  mc::ExplicitOptions opt;
  opt.max_states = 60000;
  const mc::ExplicitResult r = mc::check(
      m, psl::p_never(psl::s_bool(psl::b_sig("bus_conflict"))), opt);
  EXPECT_FALSE(r.violated);
}

}  // namespace
}  // namespace la1::core
