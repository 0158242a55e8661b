// The LA-1B-style configurable read latency (Config::read_latency): deeper
// pipelines must keep the protocol contract at every level.
#include <gtest/gtest.h>

#include "harness/adapters.hpp"
#include "harness/lockstep.hpp"
#include "harness/stimulus.hpp"
#include "host.hpp"
#include "la1/behavioral.hpp"
#include "la1/properties.hpp"
#include "la1/rtl_model.hpp"
#include "psl/monitor.hpp"

namespace la1::core {
namespace {

using harness::Stimulus;
using Host = test::Host<harness::BehavioralDeviceModel>;

Config latency_config(int banks, int latency) {
  Config cfg;
  cfg.banks = banks;
  cfg.addr_bits = 5;
  cfg.read_latency = latency;
  return cfg;
}

TEST(Latency, ValidationBounds) {
  Config cfg;
  cfg.read_latency = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.read_latency = 5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.read_latency = 3;
  EXPECT_NO_THROW(cfg.validate());
}

class LatencySweep : public ::testing::TestWithParam<int> {};

TEST_P(LatencySweep, FirstBeatArrivesAtConfiguredLatency) {
  const int latency = GetParam();
  Host h(latency_config(1, latency));
  h.model.enqueue(Stimulus::read_of(2));
  int start_tick = -1;
  int beat0_tick = -1;
  const BankTaps& taps = h.model.device().bank(0).taps();
  h.run(4 + 2 * latency + 4, [&](int tick) {
    if (taps.read_start && start_tick < 0) start_tick = tick;
    if (taps.dout_valid_k && beat0_tick < 0) beat0_tick = tick;
  });
  ASSERT_GE(start_tick, 0);
  ASSERT_GE(beat0_tick, 0);
  EXPECT_EQ(beat0_tick - start_tick, 2 * latency);
}

TEST_P(LatencySweep, ScoreboardAndMonitorsClean) {
  const int latency = GetParam();
  const Config cfg = latency_config(2, latency);
  Host h(cfg);
  h.random(31);
  // The property suite parameterizes P1 and the covers by the latency.
  psl::VUnitRunner monitors(behavioral_vunit(cfg));
  h.run(600, [&](int) { monitors.step(h.model.env()); });
  EXPECT_EQ(monitors.failures(), 0u);
  EXPECT_EQ(h.scoreboard.data_mismatches(), 0u);
  EXPECT_EQ(h.scoreboard.parity_errors(), 0u);
  EXPECT_GT(h.scoreboard.reads_checked(), 10u);
}

RtlConfig rtl_config(const Config& cfg) {
  RtlConfig rcfg;
  rcfg.banks = cfg.banks;
  rcfg.data_bits = cfg.data_bits;
  rcfg.mem_addr_bits = cfg.mem_addr_bits();
  rcfg.read_latency = cfg.read_latency;
  return rcfg;
}

TEST_P(LatencySweep, ScoreboardCleanOnDeepRtlPipeline) {
  // The scoreboard reads only pins and DOUT, so it checks the RTL as is.
  test::Host<harness::RtlDeviceModel> h(
      rtl_config(latency_config(2, GetParam())));
  h.random(31);
  h.run(600);
  EXPECT_EQ(h.scoreboard.data_mismatches(), 0u);
  EXPECT_EQ(h.scoreboard.parity_errors(), 0u);
  EXPECT_GT(h.scoreboard.reads_checked(), 10u);
}

TEST_P(LatencySweep, LockstepWithDeepRtlPipeline) {
  const int latency = GetParam();
  Config cfg = latency_config(1, latency);
  cfg.data_bits = 16;
  harness::BehavioralDeviceModel beh_model(cfg);
  harness::RtlDeviceModel rtl_model(rtl_config(cfg));
  harness::StimulusStream stream(
      harness::StimulusOptions::for_geometry(beh_model.geometry()), 5);
  harness::LockstepOptions lo;
  lo.transactions = 80;
  const harness::LockstepReport r =
      harness::run_lockstep({&beh_model, &rtl_model}, stream, lo);
  EXPECT_TRUE(r.ok) << r.mismatch;
}

INSTANTIATE_TEST_SUITE_P(Latencies, LatencySweep, ::testing::Values(2, 3, 4));

TEST(Latency, WrongLatencyPropertyCaught) {
  // A latency-2 property against a latency-3 device must fail.
  const Config cfg = latency_config(1, 3);
  Host h(cfg);
  h.random(8);
  auto monitor = psl::compile(
      psl::p_impl_next(psl::b_sig("b0.read_start"), 4,
                       psl::b_sig("b0.dout_valid_k")));
  h.run(300, [&](int) { monitor->step(h.model.env()); });
  EXPECT_EQ(monitor->current(), psl::Verdict::kFailed);
}

TEST(Latency, BackToBackReadsAtDepth) {
  // A full pipeline: one read per K cycle at latency 4; every result must
  // still scoreboard clean (the pipeline holds 4 reads in flight).
  const Config cfg = latency_config(1, 4);
  Host h(cfg);
  for (int i = 0; i < 12; ++i) {
    h.model.enqueue(Stimulus::read_of(static_cast<std::uint64_t>(i % 8)));
  }
  h.run(60);
  EXPECT_EQ(h.scoreboard.reads_checked(), 12u);
  EXPECT_EQ(h.scoreboard.data_mismatches(), 0u);
}

}  // namespace
}  // namespace la1::core
