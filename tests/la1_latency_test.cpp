// The LA-1B-style configurable read latency (Config::read_latency): deeper
// pipelines must keep the protocol contract at every level.
#include <gtest/gtest.h>

#include "harness/adapters.hpp"
#include "harness/lockstep.hpp"
#include "harness/stimulus.hpp"
#include "la1/behavioral.hpp"
#include "la1/host_bfm.hpp"
#include "la1/properties.hpp"
#include "la1/rtl_model.hpp"
#include "psl/monitor.hpp"
#include "util/rng.hpp"

namespace la1::core {
namespace {

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
  KernelHarness h(latency_config(1, latency));
  h.host().push({Transaction::Kind::kRead, 2});
  int start_tick = -1;
  int beat0_tick = -1;
  h.run_ticks(4 + 2 * latency + 4, [&](int tick) {
    if (h.device().bank(0).taps().read_start && start_tick < 0) {
      start_tick = tick;
    }
    if (h.device().bank(0).taps().dout_valid_k && beat0_tick < 0) {
      beat0_tick = tick;
    }
  });
  ASSERT_GE(start_tick, 0);
  ASSERT_GE(beat0_tick, 0);
  EXPECT_EQ(beat0_tick - start_tick, 2 * latency);
}

TEST_P(LatencySweep, ScoreboardAndMonitorsClean) {
  const int latency = GetParam();
  const Config cfg = latency_config(2, latency);
  KernelHarness h(cfg);
  util::Rng rng(31);
  h.host().push_random(rng, 200);
  // The property suite parameterizes P1 and the covers by the latency.
  psl::VUnitRunner monitors(behavioral_vunit(cfg));
  h.run_ticks(600, [&](int) { monitors.step(h.env()); });
  EXPECT_EQ(monitors.failures(), 0u);
  EXPECT_EQ(h.host().data_mismatches(), 0u);
  EXPECT_EQ(h.host().parity_errors(), 0u);
  EXPECT_GT(h.host().reads_checked(), 10u);
}

TEST_P(LatencySweep, LockstepWithDeepRtlPipeline) {
  const int latency = GetParam();
  Config cfg = latency_config(1, latency);
  cfg.data_bits = 16;
  harness::BehavioralDeviceModel beh_model(cfg);
  RtlConfig rcfg;
  rcfg.banks = cfg.banks;
  rcfg.data_bits = cfg.data_bits;
  rcfg.mem_addr_bits = cfg.mem_addr_bits();
  rcfg.read_latency = cfg.read_latency;
  harness::RtlDeviceModel rtl_model(rcfg);
  harness::StimulusOptions so;
  so.banks = cfg.banks;
  so.mem_addr_bits = cfg.mem_addr_bits();
  so.data_bits = cfg.data_bits;
  harness::StimulusStream stream(so, 5);
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
  KernelHarness h(cfg);
  util::Rng rng(8);
  h.host().push_random(rng, 100);
  auto monitor = psl::compile(
      psl::p_impl_next(psl::b_sig("b0.read_start"), 4,
                       psl::b_sig("b0.dout_valid_k")));
  h.run_ticks(300, [&](int) { monitor->step(h.env()); });
  EXPECT_EQ(monitor->current(), psl::Verdict::kFailed);
}

TEST(Latency, BackToBackReadsAtDepth) {
  // A full pipeline: one read per K cycle at latency 4; every result must
  // still scoreboard clean (the pipeline holds 4 reads in flight).
  const Config cfg = latency_config(1, 4);
  KernelHarness h(cfg);
  for (int i = 0; i < 12; ++i) {
    h.host().push({Transaction::Kind::kRead, static_cast<std::uint64_t>(i % 8)});
  }
  h.run_ticks(60);
  EXPECT_EQ(h.host().reads_checked(), 12u);
  EXPECT_EQ(h.host().data_mismatches(), 0u);
}

}  // namespace
}  // namespace la1::core
