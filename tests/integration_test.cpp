// Cross-module integration: the same PSL property text drives monitors over
// the behavioural model, the explicit checker over the ASM model, and the
// symbolic checker over the RTL — the paper's one-suite-many-levels claim.
#include <gtest/gtest.h>

#include "harness/adapters.hpp"
#include "host.hpp"
#include "la1/asm_model.hpp"
#include "la1/behavioral.hpp"
#include "la1/properties.hpp"
#include "la1/rtl_model.hpp"
#include "mc/explicit.hpp"
#include "mc/symbolic.hpp"
#include "msc/charts.hpp"
#include "msc/compile.hpp"
#include "psl/parse.hpp"
#include "util/rng.hpp"

namespace la1 {
namespace {

TEST(Integration, PropertySourcesParse) {
  // Every catalog row's PSL source parses to the property bound to the
  // behavioural level (whose taps are the canonical names).
  const std::vector<core::PropertyRow> rows = core::property_catalog(4, 4);
  const std::vector<core::MatrixRow> matrix = core::property_matrix(4, 4);
  ASSERT_EQ(rows.size(), matrix.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    psl::PropPtr parsed;
    ASSERT_NO_THROW(parsed = psl::parse_property(matrix[i].psl))
        << matrix[i].name << ": " << matrix[i].psl;
    EXPECT_EQ(psl::to_string(*parsed),
              psl::to_string(*core::bind(rows[i], core::Level::kBehavioural)))
        << matrix[i].name;
  }
}

TEST(Integration, MscDerivedPropertiesHoldOnBehavioralModel) {
  // Figure 3 (.msc spec) -> compiled latency monitors over the kernel model.
  const msc::MonitorSuite suite = msc::to_psl(msc::read_mode_chart());
  ASSERT_FALSE(suite.asserts.empty());

  core::Config cfg;
  cfg.banks = 1;
  cfg.addr_bits = 4;
  test::Host<harness::BehavioralDeviceModel> h(cfg);
  h.random(3);

  std::vector<std::unique_ptr<psl::Monitor>> monitors;
  for (const auto& d : suite.asserts) monitors.push_back(psl::compile(d.prop));
  h.run(400, [&](int) {
    for (auto& m : monitors) m->step(h.model.env());
  });
  for (std::size_t i = 0; i < monitors.size(); ++i) {
    EXPECT_NE(monitors[i]->current(), psl::Verdict::kFailed)
        << suite.asserts[i].name << " (" << suite.asserts[i].source << ")";
  }
}

TEST(Integration, SamePropertyShapeAcrossAsmAndRtl) {
  // P1 (read latency) at the ASM level via explicit checking...
  core::AsmConfig acfg;
  acfg.banks = 1;
  const asml::Machine machine = core::build_asm_model(acfg);
  const auto p1_asm = psl::parse_property(
      "always (b0.read_start -> next[4] b0.dout_valid_k)");
  mc::ExplicitOptions eopt;
  eopt.max_states = 30000;
  EXPECT_TRUE(mc::check(machine, p1_asm, eopt).holds);

  // ... and at the RTL level via symbolic checking.
  const core::RtlConfig rcfg = core::RtlConfig::model_checking(1);
  core::RtlDevice dev = core::build_device(rcfg);
  const rtl::Module flat = rtl::expand_memories(dev.flatten());
  const rtl::BitBlast bb = rtl::bitblast(flat, core::clock_schedule(flat));
  const auto p1_rtl = psl::parse_property(
      "always (bank0.read_start_q -> next[4] bank0.dout_valid_k_q)");
  mc::SymbolicOptions sopt;
  sopt.node_limit = 16u << 20;
  const auto r = mc::check(bb, p1_rtl, sopt);
  EXPECT_EQ(r.outcome, mc::SymbolicResult::Outcome::kHolds);
}

TEST(Integration, ExclusiveDriveSymbolic) {
  const core::RtlConfig rcfg = core::RtlConfig::model_checking(2);
  core::RtlDevice dev = core::build_device(rcfg);
  const rtl::Module flat = rtl::expand_memories(dev.flatten());
  const rtl::BitBlast bb = rtl::bitblast(flat, core::clock_schedule(flat));
  // P4: the tristate conflict flag is never raised.
  mc::SymbolicOptions sopt;
  sopt.node_limit = 16u << 20;
  const auto r =
      mc::check(bb, psl::parse_property("never {DOUT.__conflict}"), sopt);
  EXPECT_EQ(r.outcome, mc::SymbolicResult::Outcome::kHolds);
}

TEST(Integration, TextualSuiteRunsCleanOnTraffic) {
  core::Config cfg;
  cfg.banks = 2;
  cfg.addr_bits = 5;
  test::Host<harness::BehavioralDeviceModel> h(cfg);
  h.random(12);
  psl::VUnitRunner runner(core::behavioral_vunit(cfg));
  h.run(700, [&](int) { runner.step(h.model.env()); });
  EXPECT_EQ(runner.failures(), 0u);
  EXPECT_EQ(h.scoreboard.data_mismatches(), 0u);
}

TEST(Integration, ObserverAgreesWithMonitorOnTraces) {
  // The symbolic checker's determinized observer and the runtime monitor
  // must classify the same traces identically.
  const auto prop = psl::parse_property("always (a -> next[2] b)");
  const mc::Observer obs = mc::build_observer(prop);
  util::Rng rng(77);
  for (int round = 0; round < 50; ++round) {
    auto monitor = psl::compile(prop);
    monitor->reset();
    int state = obs.init_state;
    bool observer_failed = false;
    for (int t = 0; t < 12; ++t) {
      const bool a = rng.next_bool();
      const bool b = rng.next_bool();
      psl::MapEnv env;
      env.set("a", a);
      env.set("b", b);
      monitor->step(env);
      unsigned letter = 0;
      for (std::size_t i = 0; i < obs.atoms.size(); ++i) {
        if (env.sample(obs.atoms[i])) letter |= (1u << i);
      }
      state = obs.step(state, letter);
      observer_failed = obs.bad[static_cast<std::size_t>(state)];
      EXPECT_EQ(observer_failed,
                monitor->current() == psl::Verdict::kFailed)
          << "round " << round << " t " << t;
    }
  }
}

}  // namespace
}  // namespace la1
