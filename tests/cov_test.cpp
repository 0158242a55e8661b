// Tests for the functional coverage model (src/cov) and the
// coverage-driven stimulus stack (src/tgen): collector decode correctness
// on hand-built streams, adapter-agnosticism through the lockstep on_edge
// tap, JSON round-trips, closure-vs-uniform, and the trace shrinker.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cov/coverage.hpp"
#include "fault/fault.hpp"
#include "harness/adapters.hpp"
#include "harness/lockstep.hpp"
#include "harness/stimulus.hpp"
#include "la1/behavioral.hpp"
#include "la1/rtl_model.hpp"
#include "tgen/closure.hpp"
#include "tgen/constrained.hpp"
#include "tgen/shrink.hpp"

namespace {

using namespace la1;

constexpr int kDataBits = 8;

harness::Geometry geometry(int banks) {
  harness::Geometry g;
  g.banks = banks;
  g.mem_addr_bits = 2;
  g.data_bits = kDataBits;
  return g;
}

core::Config behavioural_config(const harness::Geometry& g) {
  core::Config cfg;
  cfg.banks = g.banks;
  cfg.data_bits = g.data_bits;
  cfg.addr_bits = g.mem_addr_bits + cfg.bank_bits();
  return cfg;
}

std::uint64_t hits(const cov::CoverageReport& r, const std::string& group,
                   const std::string& bin) {
  const cov::Covergroup* g = r.group(group);
  if (g == nullptr) return 0;
  const cov::Bin* b = g->bin(bin);
  return b == nullptr ? 0 : b->hits;
}

TEST(CoverageModel, DefinesExpectedBinsPerGeometry) {
  const cov::CoverageReport one = cov::make_model(geometry(1));
  const cov::CoverageReport two = cov::make_model(geometry(2));
  // Single-bank models omit the per-bank groups but keep the b0 crosses.
  EXPECT_EQ(one.group("read_bank"), nullptr);
  ASSERT_NE(two.group("read_bank"), nullptr);
  EXPECT_EQ(two.group("read_bank")->bins.size(), 2u);
  EXPECT_EQ(one.group("bank_cross")->bins.size(), 3u);
  EXPECT_EQ(two.group("bank_cross")->bins.size(), 6u);
  EXPECT_EQ(two.total_bins(), one.total_bins() + 2 + 2 + 3);
  EXPECT_EQ(one.covered_bins(), 0);
  EXPECT_DOUBLE_EQ(one.coverage(), 0.0);
}

TEST(CoverageCollector, DecodesHandBuiltStream) {
  const harness::Geometry g = geometry(2);
  const std::uint64_t bank1_word0 = 1ull << g.mem_addr_bits;
  std::vector<harness::Stimulus> stimuli(5);
  stimuli[0].write = true;  // write b0[1], full word
  stimuli[0].write_addr = 1;
  stimuli[0].write_word = 0xabcd;
  stimuli[0].be_mask = ~0u;
  stimuli[1].read = true;  // read b0[1] one cycle later: raw_d1
  stimuli[1].read_addr = 1;
  stimuli[2].read = true;  // back-to-back same-bank same-addr read
  stimuli[2].read_addr = 1;
  // stimuli[3] idle
  stimuli[4].read = true;  // read b1[0] after a 1-cycle gap
  stimuli[4].read_addr = bank1_word0;

  harness::RecordedStream stream(g, stimuli);
  cov::CoverageCollector collector(g);
  tgen::collect_stream(collector, stream, stimuli.size());
  const cov::CoverageReport& r = collector.report();

  EXPECT_EQ(r.cycles, 5u);
  EXPECT_EQ(hits(r, "op_kind", "write_only"), 1u);
  EXPECT_EQ(hits(r, "op_kind", "read_only"), 3u);
  EXPECT_EQ(hits(r, "op_kind", "idle"), 1u);
  EXPECT_EQ(hits(r, "op_kind", "read_write"), 0u);
  EXPECT_EQ(hits(r, "write_enables", "full_word"), 1u);
  EXPECT_EQ(hits(r, "read_after_write", "raw_d1"), 1u);
  EXPECT_EQ(hits(r, "read_after_write", "raw_d2_4"), 1u);  // t2 re-read
  EXPECT_EQ(hits(r, "fig3_read_window", "b2b_any"), 1u);
  EXPECT_EQ(hits(r, "fig3_read_window", "b2b_same_bank"), 1u);
  EXPECT_EQ(hits(r, "fig3_read_window", "b2b_same_addr"), 1u);
  EXPECT_EQ(hits(r, "fig3_read_window", "pipeline_full"), 0u);
  EXPECT_EQ(hits(r, "read_bank", "b0"), 2u);
  EXPECT_EQ(hits(r, "read_bank", "b1"), 1u);
  EXPECT_EQ(hits(r, "write_bank", "b0"), 1u);
  EXPECT_EQ(hits(r, "bank_cross", "b1.read"), 1u);
  EXPECT_EQ(hits(r, "read_gap", "gap0"), 1u);   // t1 -> t2
  EXPECT_EQ(hits(r, "read_gap", "gap1"), 1u);   // t2 -> t4
  EXPECT_EQ(hits(r, "read_burst", "len2"), 1u);  // t1..t2, broken by idle
  EXPECT_EQ(hits(r, "read_burst", "len1"), 1u);  // t4, closed by end_stream
  EXPECT_EQ(hits(r, "write_burst", "len1"), 1u);
  EXPECT_EQ(hits(r, "idle_run", "len1"), 1u);
}

TEST(CoverageCollector, EndStreamSplitsRuns) {
  const harness::Geometry g = geometry(1);
  std::vector<harness::Stimulus> burst(2);
  burst[0].read = burst[1].read = true;
  cov::CoverageCollector collector(g);
  for (int pass = 0; pass < 2; ++pass) {
    harness::RecordedStream stream(g, burst);
    tgen::collect_stream(collector, stream, burst.size());
  }
  // Two separate len-2 bursts, not one len-4 spanning the stream boundary;
  // and no cross-stream back-to-back window.
  EXPECT_EQ(hits(collector.report(), "read_burst", "len2"), 2u);
  EXPECT_EQ(hits(collector.report(), "read_burst", "len4_7"), 0u);
  EXPECT_EQ(hits(collector.report(), "fig3_read_window", "b2b_any"), 2u);
}

TEST(CoverageCollector, LockstepObserverMatchesPinLevelCollection) {
  const harness::Geometry g = geometry(2);
  harness::StimulusOptions so;
  so.banks = g.banks;
  so.mem_addr_bits = g.mem_addr_bits;
  so.data_bits = g.data_bits;

  // Collector A rides the lockstep on_edge tap over real device models.
  harness::BehavioralDeviceModel beh(behavioural_config(g));
  harness::RtlDeviceModel rtl([&] {
    core::RtlConfig cfg;
    cfg.banks = g.banks;
    cfg.data_bits = g.data_bits;
    cfg.mem_addr_bits = g.mem_addr_bits;
    return cfg;
  }());
  cov::CoverageCollector via_lockstep(g);
  harness::StimulusStream stream_a(so, 77);
  harness::LockstepOptions lo;
  lo.transactions = 120;
  lo.drain_ticks = 0;
  lo.compare_memory = false;
  lo.on_edge = [&](const harness::EdgePins& pins) {
    via_lockstep.observe_edge(pins);
  };
  const harness::LockstepReport report =
      harness::run_lockstep({&beh, &rtl}, stream_a, lo);
  ASSERT_TRUE(report.ok) << report.mismatch;
  via_lockstep.end_stream();

  // Collector B sees the same stream through a bare transactor: coverage
  // is pin-derived, so the two reports must be identical.
  cov::CoverageCollector pin_level(g);
  harness::StimulusStream stream_b(so, 77);
  tgen::collect_stream(pin_level, stream_b, 120);

  EXPECT_EQ(via_lockstep.report().to_json().dump(),
            pin_level.report().to_json().dump());
}

// Coverage reports are write-only: a parse of the JSON text re-dumps it
// byte for byte, and it carries the geometry, the totals and every bin's
// hits.
TEST(CoverageReport, JsonRoundTrip) {
  const harness::Geometry g = geometry(2);
  cov::CoverageCollector collector(g);
  tgen::Profile p;
  tgen::ConstrainedStream stream(g, p, 5);
  tgen::collect_stream(collector, stream, 200);

  const cov::CoverageReport& report = collector.report();
  const std::string text = report.to_json().dump(2);
  const util::Json j = util::Json::parse(text);
  EXPECT_EQ(j.dump(2), text);
  const util::Json& geo = *j.find("geometry");
  EXPECT_EQ(geo.find("banks")->as_int(), g.banks);
  EXPECT_EQ(geo.find("mem_addr_bits")->as_int(), g.mem_addr_bits);
  EXPECT_EQ(geo.find("data_bits")->as_int(), g.data_bits);
  EXPECT_EQ(j.find("cycles")->as_int(),
            static_cast<std::int64_t>(report.cycles));
  EXPECT_EQ(j.find("total_bins")->as_int(), report.total_bins());
  EXPECT_EQ(j.find("covered_bins")->as_int(), report.covered_bins());
  EXPECT_DOUBLE_EQ(j.find("coverage")->as_double(), report.coverage());
  const util::Json& groups = *j.find("groups");
  ASSERT_EQ(groups.size(), report.groups.size());
  for (std::size_t i = 0; i < report.groups.size(); ++i) {
    const cov::Covergroup& group = report.groups[i];
    const util::Json& jg = groups.items()[i];
    EXPECT_EQ(jg.find("name")->as_string(), group.name);
    EXPECT_DOUBLE_EQ(jg.find("coverage")->as_double(), group.coverage());
    const util::Json& bins = *jg.find("bins");
    ASSERT_EQ(bins.size(), group.bins.size());
    for (std::size_t b = 0; b < group.bins.size(); ++b) {
      EXPECT_EQ(bins.items()[b].find("name")->as_string(), group.bins[b].name);
      EXPECT_EQ(bins.items()[b].find("hits")->as_int(),
                static_cast<std::int64_t>(group.bins[b].hits));
    }
  }
}

TEST(RecordedStream, JsonRoundTripAndIdlePastEnd) {
  const harness::Geometry g = geometry(2);
  harness::StimulusOptions so;
  so.banks = g.banks;
  harness::StimulusStream uniform(so, 9);
  std::vector<harness::Stimulus> stimuli;
  for (int i = 0; i < 10; ++i) stimuli.push_back(uniform.next());

  harness::RecordedStream stream(g, stimuli);
  harness::RecordedStream back =
      harness::RecordedStream::from_json(stream.to_json());
  ASSERT_EQ(back.size(), stream.size());
  EXPECT_EQ(back.stimuli(), stream.stimuli());
  EXPECT_TRUE(back.geometry() == g);

  for (int i = 0; i < 10; ++i) back.next();
  const harness::Stimulus past_end = back.next();
  EXPECT_FALSE(past_end.read);
  EXPECT_FALSE(past_end.write);
}

TEST(ConstrainedStream, DeterministicAndResettable) {
  const harness::Geometry g = geometry(2);
  tgen::Profile p;
  p.read_burst = 0.6;
  p.raw = 0.4;
  tgen::ConstrainedStream a(g, p, 123);
  tgen::ConstrainedStream b(g, p, 123);
  std::vector<harness::Stimulus> first;
  for (int i = 0; i < 64; ++i) {
    const harness::Stimulus s = a.next();
    EXPECT_EQ(s, b.next()) << "cycle " << i;
    first.push_back(s);
  }
  a.reset();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.next(), first[static_cast<std::size_t>(i)]) << "cycle " << i;
  }
}

TEST(ProfileForBin, BiasesTowardTheTargetedBin) {
  const harness::Geometry g = geometry(2);
  EXPECT_GE(tgen::profile_for("read_burst", "len8_plus", g).read_burst, 0.9);
  EXPECT_GE(tgen::profile_for("idle_run", "len8_plus", g).idle_burst, 0.9);
  EXPECT_GE(tgen::profile_for("read_after_write", "raw_d1", g).raw, 0.9);
  EXPECT_GE(tgen::profile_for("fig3_read_window", "b2b_same_addr", g)
                .same_addr, 0.9);
  const tgen::Profile bank1 = tgen::profile_for("bank_cross", "b1.read", g);
  ASSERT_EQ(bank1.read_bank_weight.size(), 2u);
  EXPECT_GT(bank1.read_bank_weight[1], bank1.read_bank_weight[0]);
  EXPECT_DOUBLE_EQ(tgen::profile_for("write_enables", "no_lanes", g).be_none,
                   1.0);
}

TEST(Closure, ReachesTargetAndBeatsUniformBaseline) {
  tgen::ClosureOptions opt;
  opt.geometry = geometry(2);
  opt.seed = 1;
  opt.target = 1.0;
  opt.transactions_per_epoch = 250;
  opt.budget.max_epochs = 40;
  const tgen::ClosureResult closure = tgen::run_closure(opt);
  EXPECT_TRUE(closure.reached_target);
  EXPECT_GE(closure.coverage(), 0.9);

  const cov::CoverageReport uniform =
      tgen::uniform_coverage(opt.geometry, opt.seed, closure.transactions);
  EXPECT_GT(closure.coverage(), uniform.coverage());

  // Trajectory is monotone non-decreasing (hits only accumulate).
  for (std::size_t i = 1; i < closure.trajectory.size(); ++i) {
    EXPECT_GE(closure.trajectory[i].coverage,
              closure.trajectory[i - 1].coverage);
  }
}

TEST(Closure, RespectsTransactionBudget) {
  tgen::ClosureOptions opt;
  opt.geometry = geometry(2);
  opt.target = 1.0;
  opt.transactions_per_epoch = 100;
  opt.budget.max_epochs = 40;
  opt.budget.max_transactions = 250;
  const tgen::ClosureResult result = tgen::run_closure(opt);
  EXPECT_LE(result.transactions, 250u);
}

// The shrinker demo failure: uniform traffic against a corrupt-read-data
// protocol mutant, compared in lockstep against a pristine reference.
tgen::FailurePredicate lockstep_fails(const harness::Geometry& g,
                                      std::uint64_t transactions) {
  return [g, transactions](harness::RecordedStream& candidate) {
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kCorruptReadData;
    spec.cycle = 0;
    harness::BehavioralDeviceModel reference(behavioural_config(g));
    fault::ProtocolFaultModel faulty(
        std::make_unique<harness::BehavioralDeviceModel>(
            behavioural_config(g)),
        spec);
    harness::LockstepOptions lo;
    lo.transactions = transactions;
    candidate.reset();
    return !harness::run_lockstep({&reference, &faulty}, candidate, lo).ok;
  };
}

TEST(Shrink, ReducesFailingStreamByAtLeast80Percent) {
  const harness::Geometry g = geometry(2);
  const std::uint64_t transactions = 150;
  harness::StimulusOptions so;
  so.banks = g.banks;
  harness::StimulusStream uniform(so, 11);
  std::vector<harness::Stimulus> stimuli;
  for (std::uint64_t i = 0; i < transactions; ++i) {
    stimuli.push_back(uniform.next());
  }

  const tgen::FailurePredicate fails = lockstep_fails(g, transactions);
  const tgen::ShrinkResult result =
      tgen::shrink(harness::RecordedStream(g, stimuli), fails);

  EXPECT_TRUE(result.failure_preserved);
  EXPECT_GE(result.reduction(), 0.8);
  EXPECT_LT(result.shrunk_size, result.original_size);

  // The minimized stream still triggers the original failure.
  harness::RecordedStream replay(g, result.stream.stimuli());
  EXPECT_TRUE(fails(replay));
}

TEST(Shrink, RefusesStreamThatDoesNotFail) {
  const harness::Geometry g = geometry(1);
  std::vector<harness::Stimulus> stimuli(8);  // all idle: nothing diverges
  const tgen::ShrinkResult result = tgen::shrink(
      harness::RecordedStream(g, stimuli), lockstep_fails(g, 8));
  EXPECT_FALSE(result.failure_preserved);
  EXPECT_EQ(result.shrunk_size, result.original_size);
}

}  // namespace
