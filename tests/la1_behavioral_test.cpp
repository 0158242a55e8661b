#include <gtest/gtest.h>

#include "harness/adapters.hpp"
#include "host.hpp"
#include "la1/behavioral.hpp"
#include "la1/properties.hpp"
#include "psl/monitor.hpp"

namespace la1::core {
namespace {

using harness::Stimulus;
using Host = test::Host<harness::BehavioralDeviceModel>;

Config small_config(int banks) {
  Config cfg;
  cfg.banks = banks;
  cfg.data_bits = 16;
  cfg.addr_bits = 6;
  return cfg;
}

TEST(Behavioral, ReadReturnsWrittenData) {
  Host h(small_config(1));
  h.model.enqueue(Stimulus::write_of(5, 0xCAFE1234, 0xF));
  h.model.enqueue(Stimulus::read_of(5));
  h.run(20);
  EXPECT_EQ(h.scoreboard.mirror(5), 0xCAFE1234u);
  EXPECT_EQ(h.scoreboard.reads_checked(), 1u);
  EXPECT_EQ(h.scoreboard.data_mismatches(), 0u);
  EXPECT_EQ(h.scoreboard.parity_errors(), 0u);
  EXPECT_EQ(h.model.device().bank(0).memory().read(5), 0xCAFE1234u);
}

TEST(Behavioral, ReadLatencyIsTwoCycles) {
  Host h(small_config(1));
  h.model.enqueue(Stimulus::read_of(0));
  std::vector<int> start_ticks;
  std::vector<int> beat0_ticks;
  const BankTaps& taps = h.model.device().bank(0).taps();
  h.run(12, [&](int tick) {
    if (taps.read_start) start_ticks.push_back(tick);
    if (taps.dout_valid_k) beat0_ticks.push_back(tick);
  });
  ASSERT_EQ(start_ticks.size(), 1u);
  ASSERT_EQ(beat0_ticks.size(), 1u);
  EXPECT_EQ(beat0_ticks[0] - start_ticks[0], kReadLatencyTicks);
}

TEST(Behavioral, SecondBeatOnFollowingKs) {
  Host h(small_config(1));
  h.model.enqueue(Stimulus::read_of(1));
  int beat0 = -1;
  int beat1 = -1;
  const BankTaps& taps = h.model.device().bank(0).taps();
  h.run(12, [&](int tick) {
    if (taps.dout_valid_k) beat0 = tick;
    if (taps.dout_valid_ks) beat1 = tick;
  });
  ASSERT_GE(beat0, 0);
  EXPECT_EQ(beat1, beat0 + 1);
}

TEST(Behavioral, ByteEnablesMergeSelectively) {
  Host h(small_config(1));
  h.model.enqueue(Stimulus::write_of(3, 0xFFFFFFFF, 0xF));
  h.model.enqueue(Stimulus::write_of(3, 0x00000000, 0b0010));
  h.run(16);
  // Only lane 1 (bits 8..15) cleared.
  EXPECT_EQ(h.model.device().bank(0).memory().read(3), 0xFFFF00FFu);
}

TEST(Behavioral, BankDecodingRoutesWrites) {
  Host h(small_config(4));
  const Config cfg = small_config(4);
  // One write per bank region.
  for (int b = 0; b < 4; ++b) {
    h.model.enqueue(Stimulus::write_of(
        static_cast<std::uint64_t>(b) << cfg.mem_addr_bits(),
        0x1000u + static_cast<std::uint64_t>(b)));
  }
  h.run(30);
  for (int b = 0; b < 4; ++b) {
    EXPECT_EQ(h.model.device().bank(b).memory().read(0),
              0x1000u + static_cast<std::uint64_t>(b))
        << "bank " << b;
  }
}

TEST(Behavioral, ConcurrentReadAndWrite) {
  Host h(small_config(1));
  // A read rides the same K cycle as a write to its address, and returns
  // the word from before the write.
  for (const std::uint64_t addr : {9u, 10u}) {
    Stimulus s = Stimulus::write_of(addr, 0x12345678 + addr);
    s.read = true;
    s.read_addr = addr;
    h.model.enqueue(s);
  }
  h.run(40);
  EXPECT_EQ(h.scoreboard.reads_checked(), 2u);
  EXPECT_EQ(h.scoreboard.data_mismatches(), 0u);
}

class RandomTraffic : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RandomTraffic, ScoreboardStaysClean) {
  const auto [banks, seed] = GetParam();
  Host h(small_config(banks));
  h.random(static_cast<std::uint64_t>(seed));
  psl::VUnitRunner monitors(behavioral_vunit(small_config(banks)));
  h.run(800, [&](int) { monitors.step(h.model.env()); });
  EXPECT_EQ(h.scoreboard.data_mismatches(), 0u);
  EXPECT_EQ(h.scoreboard.parity_errors(), 0u);
  EXPECT_EQ(monitors.failures(), 0u);
  EXPECT_GT(h.scoreboard.reads_checked(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BanksAndSeeds, RandomTraffic,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Values(1, 2, 3)));

TEST(Behavioral, CoverageHitsScenarios) {
  Host h(small_config(2));
  h.random(5);
  psl::VUnit vunit = behavioral_vunit(small_config(2));
  psl::VUnitRunner monitors(vunit);
  h.run(600, [&](int) { monitors.step(h.model.env()); });
  // Covers are the trailing directives; all should have fired with this
  // much traffic.
  for (std::size_t i = 0; i < vunit.directives().size(); ++i) {
    if (vunit.directives()[i].kind != psl::DirectiveKind::kCover) continue;
    EXPECT_GT(monitors.cover_count(i), 0u)
        << "cover " << vunit.directives()[i].name;
  }
}

TEST(Behavioral, ProbeEnvExposesAggregates) {
  Host h(small_config(2));
  EXPECT_NO_THROW(h.model.env().sample("bus_conflict"));
  EXPECT_NO_THROW(h.model.env().sample("dout_parity_ok"));
  EXPECT_NO_THROW(h.model.env().sample("b1.read_start"));
  EXPECT_THROW(h.model.env().sample("b7.read_start"), std::invalid_argument);
}

// --- fault injection: the monitors must catch every seeded bug -----------

struct FaultCase {
  Bank::Fault fault;
  const char* expected_property;  // substring of the failing property name
};

// gtest's default printer dumps a struct's raw bytes, so the string pointer
// and the padding would make every run's test names differ; print the case
// by value instead.
void PrintTo(const FaultCase& fc, std::ostream* os) {
  *os << "Fault(" << static_cast<int>(fc.fault) << ") -> "
      << fc.expected_property;
}

class FaultInjection : public ::testing::TestWithParam<FaultCase> {};

TEST_P(FaultInjection, MonitorsCatchFault) {
  const FaultCase fc = GetParam();
  Config cfg = small_config(2);
  Host h(cfg);
  h.model.device().bank(0).inject(fc.fault);
  h.random(11);
  psl::VUnit vunit = behavioral_vunit(cfg);
  psl::VUnitRunner monitors(vunit);
  h.run(800, [&](int) { monitors.step(h.model.env()); });

  bool expected_failed = false;
  for (std::size_t i = 0; i < vunit.directives().size(); ++i) {
    const auto& d = vunit.directives()[i];
    if (d.kind != psl::DirectiveKind::kAssert) continue;
    if (monitors.verdict(i) == psl::Verdict::kFailed &&
        d.name.find(fc.expected_property) != std::string::npos) {
      expected_failed = true;
    }
  }
  EXPECT_TRUE(expected_failed)
      << "fault not caught by a property matching '" << fc.expected_property
      << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Faults, FaultInjection,
    ::testing::Values(FaultCase{Bank::Fault::kLateBeat0, "P1_read_latency"},
                      FaultCase{Bank::Fault::kDropBeat1, "P2_read_burst"},
                      FaultCase{Bank::Fault::kIgnoreByteEnables, "P6_byte_merge"},
                      FaultCase{Bank::Fault::kBadParity, "P5_parity"}));

// --- the scoreboard catches faults that corrupt the read data -------------

TEST(Scoreboard, CatchesIgnoredByteEnables) {
  Host h(small_config(2));
  h.model.device().bank(0).inject(Bank::Fault::kIgnoreByteEnables);
  h.random(11);
  h.run(800);
  EXPECT_GT(h.scoreboard.data_mismatches(), 0u);
}

TEST(Scoreboard, CatchesBadParity) {
  Host h(small_config(2));
  h.model.device().bank(0).inject(Bank::Fault::kBadParity);
  h.random(11);
  h.run(800);
  EXPECT_GT(h.scoreboard.parity_errors(), 0u);
  EXPECT_EQ(h.scoreboard.data_mismatches(), 0u);  // the data bits are intact
}

TEST(Scoreboard, CountsAnUndrivenBeatAsAMismatch) {
  Host h(small_config(1));
  h.model.device().bank(0).inject(Bank::Fault::kDropBeat1);
  h.model.enqueue(Stimulus::read_of(3));
  h.run(20);
  EXPECT_EQ(h.scoreboard.reads_checked(), 1u);
  EXPECT_EQ(h.scoreboard.data_mismatches(), 1u);
  EXPECT_EQ(h.scoreboard.parity_errors(), 0u);
}

TEST(Behavioral, DeselectedDriveFaultRaisesConflict) {
  Config cfg = small_config(2);
  Host h(cfg);
  h.model.device().bank(1).inject(Bank::Fault::kDriveWhenDeselected);
  // Reads to bank 0: faulty bank 1 answers them too -> two drivers.
  for (int i = 0; i < 10; ++i) h.model.enqueue(Stimulus::read_of(1));
  bool conflict_seen = false;
  h.run(60, [&](int) {
    conflict_seen = conflict_seen || h.model.env().sample("bus_conflict");
  });
  EXPECT_TRUE(conflict_seen);
}

TEST(Behavioral, SramAccessCountersAdvance) {
  Host h(small_config(1));
  h.model.enqueue(Stimulus::write_of(0, 1));
  h.model.enqueue(Stimulus::read_of(0));
  h.run(20);
  EXPECT_GE(h.model.device().bank(0).memory().writes(), 1u);
  EXPECT_GE(h.model.device().bank(0).memory().reads(), 1u);
}

TEST(Behavioral, MirrorTracksMemory) {
  Host h(small_config(1));
  harness::StimulusOptions writes_only =
      harness::StimulusOptions::for_geometry(h.model.geometry());
  writes_only.read_rate = 0.0;
  writes_only.write_rate = 1.0;
  h.random(2, writes_only);
  h.run(200);
  h.stream.reset();
  h.run(16);  // the last writes commit
  for (std::uint64_t a = 0; a < small_config(1).mem_depth(); ++a) {
    EXPECT_EQ(h.scoreboard.mirror(a),
              h.model.device().bank(0).memory().read(a))
        << "addr " << a;
  }
}

}  // namespace
}  // namespace la1::core
