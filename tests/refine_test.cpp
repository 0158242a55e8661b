#include <gtest/gtest.h>

#include "harness/adapters.hpp"
#include "harness/lockstep.hpp"
#include "harness/stimulus.hpp"
#include "la1/behavioral.hpp"
#include "la1/host_bfm.hpp"
#include "la1/rtl_model.hpp"
#include "refine/flow.hpp"
#include "rtl/sim.hpp"
#include "util/rng.hpp"

namespace la1::refine {
namespace {

class ConformanceSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

// ASM <-> behavioural conformance (paper §5.1): 600 clock edges of one
// stream drawn from the ASM rule domains, every shared tap compared.
TEST_P(ConformanceSweep, AsmAndBehavioralAgree) {
  const auto [banks, seed] = GetParam();
  core::AsmConfig cfg;
  cfg.banks = banks;
  harness::AsmDeviceModel asm_model(cfg);
  core::Config bcfg;
  bcfg.banks = banks;
  bcfg.data_bits = asm_model.geometry().data_bits;
  bcfg.addr_bits = cfg.mem_addr_bits + bcfg.bank_bits();
  harness::BehavioralDeviceModel beh_model(bcfg);
  harness::StimulusStream stream(asm_model.stimulus_options(), seed);
  harness::LockstepOptions lo;
  lo.transactions = 300;
  lo.drain_ticks = 0;
  const harness::LockstepReport r =
      harness::run_lockstep({&asm_model, &beh_model}, stream, lo);
  EXPECT_TRUE(r.ok) << r.mismatch;
  EXPECT_EQ(r.ticks_run, 600u);
  EXPECT_GT(r.comparisons, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    BanksAndSeeds, ConformanceSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1ull, 42ull, 1234ull)));

class LockstepSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

// Behavioural <-> RTL lockstep: 150 random transactions into both models.
TEST_P(LockstepSweep, BehavioralAndRtlAgree) {
  const auto [banks, seed] = GetParam();
  core::Config cfg;
  cfg.banks = banks;
  cfg.data_bits = 16;
  cfg.addr_bits = 5;
  harness::BehavioralDeviceModel beh_model(cfg);
  core::RtlConfig rcfg;
  rcfg.banks = banks;
  rcfg.data_bits = cfg.data_bits;
  rcfg.mem_addr_bits = cfg.mem_addr_bits();
  rcfg.read_latency = cfg.read_latency;
  harness::RtlDeviceModel rtl_model(rcfg);
  harness::StimulusOptions so;
  so.banks = banks;
  so.mem_addr_bits = cfg.mem_addr_bits();
  so.data_bits = cfg.data_bits;
  harness::StimulusStream stream(so, seed);
  harness::LockstepOptions lo;
  lo.transactions = 150;
  const harness::LockstepReport r =
      harness::run_lockstep({&beh_model, &rtl_model}, stream, lo);
  EXPECT_TRUE(r.ok) << r.mismatch;
  EXPECT_GT(r.reads_issued, 0u);
  EXPECT_GT(r.writes_issued, 0u);
  EXPECT_GT(r.comparisons, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    BanksAndSeeds, LockstepSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(7ull, 99ull)));

TEST(Lockstep, DetectsInjectedDivergence) {
  // A behavioural-side fault must surface as a lockstep mismatch: the RTL
  // is the reference here, so the comparison is a genuine equivalence check
  // and not a tautology.
  core::Config cfg;
  cfg.banks = 1;
  cfg.data_bits = 16;
  cfg.addr_bits = 4;

  // Re-run lockstep manually with a faulty behavioural device.
  core::KernelHarness h(cfg);
  h.device().bank(0).inject(core::Bank::Fault::kDropBeat1);
  util::Rng rng(3);
  h.host().push_random(rng, 100);

  core::RtlConfig rcfg;
  rcfg.banks = cfg.banks;
  rcfg.data_bits = cfg.data_bits;
  rcfg.mem_addr_bits = cfg.mem_addr_bits();
  core::RtlDevice dev = core::build_device(rcfg);
  const rtl::Module flat = dev.flatten();
  rtl::CycleSim sim(flat);
  const rtl::NetId tap = flat.find_net("bank0.dout_valid_ks_q");

  bool diverged = false;
  h.run_ticks(300, [&](int tick) {
    core::Pins& pins = h.pins();
    sim.set_input_bit("R_n", pins.r_sel_n.read());
    sim.set_input_bit("W_n", pins.w_sel_n.read());
    sim.set_input("A", pins.addr.read());
    sim.set_input("D", pins.din.read());
    sim.set_input("BWE_n", pins.bwe_n.read());
    sim.edge(tick % 2 == 0 ? "K" : "KS", rtl::Edge::kPos);
    const bool rtl_beat1 = sim.get(tap).bit(0) == rtl::Logic::k1;
    diverged = diverged ||
               (rtl_beat1 != h.device().bank(0).taps().dout_valid_ks);
  });
  EXPECT_TRUE(diverged);
}

TEST(Flow, EndToEndOneBank) {
  FlowOptions opt;
  opt.banks = 1;
  opt.abv_ticks = 600;
  opt.conformance_steps = 300;
  opt.lockstep_transactions = 60;
  opt.explore_max_states = 20000;
  const FlowReport report = run_flow(opt);
  EXPECT_TRUE(report.ok) << report.render();
  EXPECT_EQ(report.stages.size(), 14u);
  EXPECT_NE(report.stages[0].detail.find("2 charts"), std::string::npos)
      << report.stages[0].detail;
  EXPECT_NE(report.verilog.find("module la1_device"), std::string::npos);
  const std::string rendered = report.render();
  EXPECT_NE(rendered.find("MSC spec compilation"), std::string::npos);
  EXPECT_NE(rendered.find("coverage closure"), std::string::npos);
  EXPECT_NE(rendered.find("fault-injection campaign"), std::string::npos);
  EXPECT_NE(rendered.find("RTL static lint"), std::string::npos);
  EXPECT_NE(rendered.find("sequential dataflow analysis"), std::string::npos);
  EXPECT_NE(rendered.find("flow analysis (taint + cones)"), std::string::npos);
  EXPECT_NE(rendered.find("lowering-legality compile plan"), std::string::npos);
  EXPECT_NE(rendered.find("invariants substituted"), std::string::npos);
  EXPECT_NE(rendered.find("Verilog emission"), std::string::npos);
  // Stage 4 monitors every behavioural catalog row plus three covers.
  EXPECT_EQ(report.stages[3].detail.rfind("14 directives + ", 0), 0u)
      << report.stages[3].detail;
  // Every catalog row appears at every level, checked or with the tap the
  // level lacks.
  ASSERT_EQ(report.properties.size(), 11u);
  for (const core::MatrixRow& row : report.properties) {
    EXPECT_NE(rendered.find(row.name), std::string::npos) << row.name;
  }
  EXPECT_NE(rendered.find("unobservable: no b0.selected"), std::string::npos)
      << rendered;
}

}  // namespace
}  // namespace la1::refine
