// Tests for the unified DeviceModel/transactor harness: stimulus
// determinism, trace equality, the N-way lockstep engine, and its ability
// to catch a deliberately mutated RTL netlist.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/adapters.hpp"
#include "harness/lane_batch.hpp"
#include "harness/lockstep.hpp"
#include "harness/stimulus.hpp"
#include "harness/trace.hpp"
#include "la1/asm_model.hpp"
#include "la1/behavioral.hpp"
#include "la1/rtl_model.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace la1 {
namespace {

constexpr int kDataBits = 8;

core::Config behavioural_config(int banks, int mem_addr_bits) {
  core::Config cfg;
  cfg.banks = banks;
  cfg.data_bits = kDataBits;
  cfg.addr_bits = mem_addr_bits + cfg.bank_bits();
  return cfg;
}

core::RtlConfig rtl_config(int banks, int mem_addr_bits) {
  core::RtlConfig cfg;
  cfg.banks = banks;
  cfg.data_bits = kDataBits;
  cfg.mem_addr_bits = mem_addr_bits;
  return cfg;
}

TEST(StimulusStream, SameSeedSameTraffic) {
  harness::StimulusOptions so;
  so.banks = 2;
  harness::StimulusStream a(so, 99);
  harness::StimulusStream b(so, 99);
  for (int i = 0; i < 200; ++i) {
    const harness::Stimulus sa = a.next();
    const harness::Stimulus sb = b.next();
    EXPECT_EQ(sa.read, sb.read);
    EXPECT_EQ(sa.read_addr, sb.read_addr);
    EXPECT_EQ(sa.write, sb.write);
    EXPECT_EQ(sa.write_addr, sb.write_addr);
    EXPECT_EQ(sa.write_word, sb.write_word);
    EXPECT_EQ(sa.be_mask, sb.be_mask);
  }
}

TEST(StimulusStream, ResetRewindsToFirstCycle) {
  harness::StimulusOptions so;
  so.banks = 4;
  harness::StimulusStream s(so, 5);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 50; ++i) first.push_back(s.next().read_addr);
  s.reset();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(s.next().read_addr, first[i]);
}

TEST(StimulusStream, HonoursDomainRestrictions) {
  harness::StimulusOptions so;
  so.banks = 4;
  so.mem_addr_bits = 2;
  so.data_values = 2;
  so.full_word_writes = true;
  so.bank_focus = 3;
  harness::StimulusStream s(so, 11);
  for (int i = 0; i < 300; ++i) {
    const harness::Stimulus st = s.next();
    if (st.read) {
      EXPECT_EQ(st.read_addr >> so.mem_addr_bits, 3u);
    }
    if (st.write) {
      EXPECT_EQ(st.write_addr >> so.mem_addr_bits, 3u);
      EXPECT_LT(st.write_word & 0xff, 2u);
      EXPECT_LT(st.write_word >> kDataBits, 2u);
      EXPECT_EQ(st.be_mask, 3u);  // both lanes of the 8-bit geometry
    }
  }
}

TEST(Transactor, IdenticalPinsAcrossModels) {
  const core::Config bcfg = behavioural_config(2, 2);
  harness::BehavioralDeviceModel beh(bcfg);
  harness::RtlDeviceModel rtl(rtl_config(2, 2));
  harness::StimulusOptions so;
  so.banks = 2;
  harness::StimulusStream stream(so, 3);
  for (int t = 0; t < 64; ++t) {
    const harness::Edge edge = harness::edge_of_tick(t);
    if (edge == harness::Edge::kK) {
      const harness::Stimulus s = stream.next();
      beh.enqueue(s);
      rtl.enqueue(s);
    }
    EXPECT_EQ(beh.tick(edge), rtl.tick(edge)) << "tick " << t;
  }
}

// Same seed -> bit-identical trace across two independent lockstep runs.
TEST(TraceRecorder, SeedDeterminism) {
  auto run_once = [](harness::TraceRecorder* recorder) {
    const core::Config bcfg = behavioural_config(2, 2);
    harness::BehavioralDeviceModel beh(bcfg);
    harness::RtlDeviceModel rtl(rtl_config(2, 2));
    harness::StimulusOptions so;
    so.banks = 2;
    so.data_bits = kDataBits;
    harness::StimulusStream stream(so, 1234);
    harness::LockstepOptions lo;
    lo.transactions = 100;
    lo.recorder = recorder;
    return harness::run_lockstep({&beh, &rtl}, stream, lo);
  };

  const harness::Geometry g{2, 2, kDataBits};
  const std::vector<std::string> signals = {"b0.read_start", "b1.write_commit",
                                            "bus_conflict"};
  harness::TraceRecorder first(g, signals);
  harness::TraceRecorder second(g, signals);
  EXPECT_TRUE(run_once(&first).ok);
  EXPECT_TRUE(run_once(&second).ok);
  EXPECT_FALSE(first.steps().empty());
  EXPECT_TRUE(first == second);
}

// The fixed-seed 2-bank RTL run whose JSON and VCD exports are pinned.
harness::TraceRecorder golden_rtl_trace() {
  const harness::Geometry g{2, 2, kDataBits};
  harness::RtlDeviceModel rtl(rtl_config(2, 2));
  harness::TraceRecorder recorder(g, rtl.tap_names());
  rtl.reset();
  harness::StimulusOptions so;
  so.banks = 2;
  so.data_bits = kDataBits;
  harness::StimulusStream stream(so, 99);
  harness::Transactor tx(g);
  for (int tick = 0; tick < 200; ++tick) {
    const harness::Edge edge = harness::edge_of_tick(tick % 2);
    if (edge == harness::Edge::kK && stream.generated() < 90) {
      tx.enqueue(stream.next());
    }
    const harness::EdgePins pins = tx.next(edge);
    rtl.apply_edge(pins);
    recorder.record(tick, pins, rtl);
  }
  return recorder;
}

// Byte-level reproducibility: the serialized trace of a fixed-seed run
// hashes to a pinned golden value. Any nondeterminism on the stimulus or
// trace path — hash-ordered containers, unseeded randomness, pointer
// ordering — breaks this test before it can corrupt a campaign. If a
// deliberate format or RTL change moves the hash, re-pin it from the
// printed actual value.
TEST(TraceRecorder, GoldenHashByteReproducibility) {
  const harness::TraceRecorder recorder = golden_rtl_trace();
  const std::uint64_t hash = util::fnv1a64(recorder.to_json().dump());
  EXPECT_EQ(hash, 0x24c7f58d1a722a00ull)
      << "actual hash: 0x" << std::hex << hash;
}

TEST(TraceRecorder, JsonExportRoundTrips) {
  const core::Config bcfg = behavioural_config(1, 2);
  harness::BehavioralDeviceModel beh(bcfg);
  harness::TraceRecorder recorder(beh.geometry(), beh.tap_names());
  harness::Stimulus s;
  s.read = true;
  s.read_addr = 1;
  beh.enqueue(s);
  for (int t = 0; t < 8; ++t) {
    const harness::EdgePins pins = beh.tick(harness::edge_of_tick(t));
    recorder.record(t, pins, beh);
  }
  const util::Json doc = recorder.to_json();
  const util::Json round = util::Json::parse(doc.dump(2));
  EXPECT_TRUE(doc == round);
  ASSERT_NE(round.find("steps"), nullptr);
  EXPECT_EQ(round.find("steps")->size(), 8u);

  const std::string vcd = testing::TempDir() + "harness_trace.vcd";
  EXPECT_TRUE(recorder.write_vcd(vcd));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// TraceRecorder::write_vcd is the one waveform writer: a header declaring
// every pin and tap, then one timestep per recorded tick.
TEST(Vcd, ProducesHeaderAndChanges) {
  harness::BehavioralDeviceModel beh(behavioural_config(1, 2));
  harness::TraceRecorder recorder(beh.geometry(), beh.tap_names());
  harness::Stimulus s;
  s.read = true;
  s.read_addr = 1;
  beh.enqueue(s);
  for (int t = 0; t < 8; ++t) {
    recorder.record(t, beh.tick(harness::edge_of_tick(t)), beh);
  }
  const std::string path = testing::TempDir() + "la1_vcd_test.vcd";
  ASSERT_TRUE(recorder.write_vcd(path));
  const std::string vcd = read_file(path);
  EXPECT_EQ(vcd.rfind("$timescale 1ns $end\n", 0), 0u);
  EXPECT_NE(vcd.find("$var wire 1 ! K $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("\n#7\n"), std::string::npos);
  EXPECT_NE(vcd.find("\n#8\n"), std::string::npos);
  std::remove(path.c_str());
}

// Golden-file regression for the VCD writer: a seeded run must emit a
// byte-identical file forever. Any nondeterminism on the dump path (wall
// clock in the header, container ordering, format drift) moves the hash.
// If a deliberate format change moves it, re-pin from the printed value.
TEST(Vcd, GoldenHashByteReproducibility) {
  const std::string path = testing::TempDir() + "la1_vcd_golden.vcd";
  ASSERT_TRUE(golden_rtl_trace().write_vcd(path));
  const std::uint64_t hash = util::fnv1a64(read_file(path));
  EXPECT_EQ(hash, 0x127e2c7ad08aa03eull)
      << "actual hash: 0x" << std::hex << hash;
  std::remove(path.c_str());
}

// A zero-transaction stream is a legal lockstep run: only drain ticks,
// no traffic, no divergence.
TEST(Lockstep, ZeroTransactionStream) {
  core::AsmConfig acfg;
  acfg.banks = 2;
  acfg.mem_addr_bits = 2;
  harness::AsmDeviceModel asm_model(acfg);
  harness::BehavioralDeviceModel beh(behavioural_config(2, 2));
  harness::RtlDeviceModel rtl(rtl_config(2, 2));
  harness::StimulusStream stream(asm_model.stimulus_options(), 77);
  harness::LockstepOptions lo;
  lo.transactions = 0;
  const harness::LockstepReport r =
      harness::run_lockstep({&asm_model, &beh, &rtl}, stream, lo);
  EXPECT_TRUE(r.ok) << r.mismatch;
  EXPECT_EQ(r.transactions, 0u);
  EXPECT_EQ(r.reads_issued, 0u);
  EXPECT_EQ(r.writes_issued, 0u);
  EXPECT_EQ(r.ticks_run, static_cast<std::uint64_t>(lo.drain_ticks));
  EXPECT_GT(r.comparisons, 0u);
  EXPECT_EQ(stream.generated(), 0u);
}

TEST(Lockstep, TapIntersectionIsSharedSubset) {
  core::AsmConfig acfg;
  acfg.banks = 2;
  acfg.mem_addr_bits = 2;
  harness::AsmDeviceModel asm_model(acfg);
  harness::BehavioralDeviceModel beh(behavioural_config(2, 2));
  harness::RtlDeviceModel rtl(rtl_config(2, 2));

  // Behavioural vs RTL share the per-bank write taps; with the ASM in the
  // set the intersection drops to the device-level write taps.
  const auto two_way = harness::tap_intersection({&beh, &rtl});
  EXPECT_NE(std::find(two_way.begin(), two_way.end(), "b1.write_commit"),
            two_way.end());
  const auto three_way = harness::tap_intersection({&asm_model, &beh, &rtl});
  EXPECT_EQ(std::find(three_way.begin(), three_way.end(), "b1.write_commit"),
            three_way.end());
  EXPECT_NE(std::find(three_way.begin(), three_way.end(), "write_commit"),
            three_way.end());
  EXPECT_NE(std::find(three_way.begin(), three_way.end(), "b1.read_start"),
            three_way.end());
}

// The acceptance sweep: ASM + behavioural + RTL in one run, >= 1000
// transactions, 1..4 banks, zero divergences.
TEST(Lockstep, ThreeWaySweepAgrees) {
  for (int banks = 1; banks <= 4; ++banks) {
    core::AsmConfig acfg;
    acfg.banks = banks;
    acfg.mem_addr_bits = 2;
    harness::AsmDeviceModel asm_model(acfg);
    harness::BehavioralDeviceModel beh(behavioural_config(banks, 2));
    core::RtlConfig rcfg = rtl_config(banks, 2);
    harness::RtlDeviceModel rtl(rcfg);
    harness::StimulusStream stream(asm_model.stimulus_options(),
                                   1000 + static_cast<std::uint64_t>(banks));
    harness::LockstepOptions lo;
    lo.transactions = 1000;
    const harness::LockstepReport r =
        harness::run_lockstep({&asm_model, &beh, &rtl}, stream, lo);
    EXPECT_TRUE(r.ok) << "banks=" << banks << ": " << r.mismatch;
    EXPECT_EQ(r.transactions, 1000u);
    EXPECT_GT(r.reads_issued, 0u);
    EXPECT_GT(r.writes_issued, 0u);
  }
}

// A deliberately mutated netlist — an extra always-low driver on DOUT
// gated by bank0's read_start — must be caught as a divergence.
TEST(Lockstep, CatchesInjectedRtlMutation) {
  const int banks = 1;
  core::RtlConfig rcfg = rtl_config(banks, 2);
  harness::BehavioralDeviceModel beh(behavioural_config(banks, 2));
  harness::RtlDeviceModel mutated(rcfg, [&rcfg](rtl::Module& m) {
    m.tristate(m.find_net("DOUT"), m.ref("bank0.read_start_q"),
               m.lit_uint(0, rcfg.beat_pins()));
  });

  harness::StimulusOptions so;
  so.banks = banks;
  so.data_bits = kDataBits;
  so.read_rate = 0.9;
  harness::StimulusStream stream(so, 6);
  harness::LockstepOptions lo;
  lo.transactions = 400;
  const harness::LockstepReport r =
      harness::run_lockstep({&beh, &mutated}, stream, lo);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.mismatch.empty());

  // The same configuration without the mutation is clean.
  harness::RtlDeviceModel pristine(rcfg);
  stream.reset();
  beh.reset();
  const harness::LockstepReport clean =
      harness::run_lockstep({&beh, &pristine}, stream, lo);
  EXPECT_TRUE(clean.ok) << clean.mismatch;
}

// The interpreted (CycleSim) and compiled (csim lane 0) RTL adapters are
// observation-interchangeable: lockstepped against each other they agree on
// every tap, every read beat and the final memory image.
TEST(CsimAdapter, LockstepAgreesWithInterpreted) {
  for (int banks : {1, 2, 4}) {
    const core::RtlConfig rcfg = rtl_config(banks, 2);
    harness::RtlDevice interp =
        harness::make_rtl_device(rcfg, harness::RtlBackend::kInterpreted);
    harness::RtlDevice compiled =
        harness::make_rtl_device(rcfg, harness::RtlBackend::kCompiled);
    harness::StimulusOptions so;
    so.banks = banks;
    so.data_bits = kDataBits;
    so.mem_addr_bits = 2;
    harness::StimulusStream stream(so,
                                   4000 + static_cast<std::uint64_t>(banks));
    harness::LockstepOptions lo;
    lo.transactions = 600;
    const harness::LockstepReport r = harness::run_lockstep(
        {interp.model.get(), compiled.model.get()}, stream, lo);
    EXPECT_TRUE(r.ok) << "banks=" << banks << ": " << r.mismatch;
    EXPECT_EQ(r.transactions, 600u);
    EXPECT_GT(r.comparisons, 0u);
    const harness::Geometry& g = interp.model->geometry();
    for (int b = 0; b < g.banks; ++b) {
      for (std::uint64_t a = 0; a < g.mem_depth(); ++a) {
        EXPECT_EQ(interp.model->memory_word(b, a),
                  compiled.model->memory_word(b, a))
            << "banks=" << banks << " b" << b << "[" << a << "]";
      }
    }
  }
}

// The DOUT double-driver mutation of Lockstep.CatchesInjectedRtlMutation,
// applied to both backends, diverges from the behavioural model on the
// same edge.
TEST(CsimAdapter, MutationDivergesOnSameEdge) {
  const int banks = 1;
  const core::RtlConfig rcfg = rtl_config(banks, 2);
  auto mutate = [&rcfg](rtl::Module& m) {
    m.tristate(m.find_net("DOUT"), m.ref("bank0.read_start_q"),
               m.lit_uint(0, rcfg.beat_pins()));
  };
  harness::StimulusOptions so;
  so.banks = banks;
  so.data_bits = kDataBits;
  so.read_rate = 0.9;
  harness::LockstepOptions lo;
  lo.transactions = 400;

  std::vector<harness::LockstepReport> reports;
  for (harness::RtlBackend backend :
       {harness::RtlBackend::kInterpreted, harness::RtlBackend::kCompiled}) {
    harness::BehavioralDeviceModel beh(behavioural_config(banks, 2));
    harness::RtlDevice dev = harness::make_rtl_device(rcfg, backend, mutate);
    harness::StimulusStream stream(so, 6);
    reports.push_back(
        harness::run_lockstep({&beh, dev.model.get()}, stream, lo));
    EXPECT_FALSE(reports.back().ok) << harness::to_string(backend);
  }
  EXPECT_EQ(reports[0].ticks_run, reports[1].ticks_run);
}

// The compiled adapter runs a 1-lane Machine (only lane 0 is ever read) and
// still matches the interpreter on every net bit after every edge.
TEST(CsimAdapter, MachineIsOneLaneAndMatchesInterpretedEdgeForEdge) {
  const core::RtlConfig rcfg = rtl_config(2, 2);
  harness::CsimDeviceModel compiled(rcfg);
  harness::RtlDeviceModel interp(rcfg);
  EXPECT_EQ(compiled.machine().lanes(), 1);
  harness::StimulusOptions so;
  so.banks = 2;
  so.data_bits = kDataBits;
  so.mem_addr_bits = 2;
  harness::StimulusStream stream(so, 91);
  harness::Transactor tx(so.geometry());
  const rtl::Module& flat = interp.flat();
  for (int tick = 0; tick < 240; ++tick) {
    const harness::Edge edge = harness::edge_of_tick(tick);
    if (edge == harness::Edge::kK && tick < 200) tx.enqueue(stream.next());
    const harness::EdgePins pins = tx.next(edge);
    compiled.apply_edge(pins);
    interp.apply_edge(pins);
    if (tick == 0) continue;  // CycleSim holds KS at X until its first edge
    for (rtl::NetId net = 0; net < flat.net_count(); ++net) {
      ASSERT_EQ(compiled.machine().get(net, 0), interp.sim().get(net))
          << "tick " << tick << " net " << flat.net(net).name;
    }
    ASSERT_EQ(compiled.dout(), interp.dout()) << "tick " << tick;
  }
}

// A compiled lane batch (one Machine, lane 0's pins broadcast, other lanes
// patched where their pins differ) agrees with one interpreted model per
// lane when every lane runs its own traffic.
TEST(LaneBatch, CompiledLanesMatchInterpretedLanesOnDistinctTraffic) {
  constexpr int kLanes = 5;
  const core::RtlConfig rcfg = rtl_config(2, 2);
  const rtl::Module flat = core::build_device(rcfg).flatten();
  harness::CsimLaneBatch compiled(rcfg, flat, harness::device_plan(flat),
                                  kLanes, {});
  std::vector<std::unique_ptr<harness::NetlistDeviceModel>> models;
  for (int l = 0; l < kLanes; ++l) {
    models.push_back(std::make_unique<harness::RtlDeviceModel>(rcfg));
  }
  harness::ModelLaneBatch interp(std::move(models));
  ASSERT_EQ(compiled.tap_names(), interp.tap_names());
  compiled.reset();
  interp.reset();

  harness::StimulusOptions so;
  so.banks = 2;
  so.data_bits = kDataBits;
  so.mem_addr_bits = 2;
  std::vector<harness::StimulusStream> streams;
  std::vector<harness::Transactor> txs;
  for (int l = 0; l < kLanes; ++l) {
    // Lanes 0 and 1 share a stream, so some lanes ride the broadcast alone.
    streams.emplace_back(so, 300 + static_cast<std::uint64_t>(l == 1 ? 0 : l));
    txs.emplace_back(so.geometry());
  }
  for (int tick = 0; tick < 300; ++tick) {
    const harness::Edge edge = harness::edge_of_tick(tick);
    for (int l = 0; l < kLanes; ++l) {
      auto& tx = txs[static_cast<std::size_t>(l)];
      if (edge == harness::Edge::kK && tick < 260) {
        tx.enqueue(streams[static_cast<std::size_t>(l)].next());
      }
      const harness::EdgePins pins = tx.next(edge);
      compiled.lane(l).apply_edge(pins);
      interp.lane(l).apply_edge(pins);
    }
    compiled.edge();
    interp.edge();
    for (std::size_t t = 0; t < compiled.tap_names().size(); ++t) {
      ASSERT_EQ(compiled.tap_word(t), interp.tap_word(t))
          << "tick " << tick << " tap " << compiled.tap_names()[t];
    }
    for (int l = 0; l < kLanes; ++l) {
      ASSERT_EQ(compiled.lane(l).dout(), interp.lane(l).dout())
          << "tick " << tick << " lane " << l;
    }
  }
  const harness::Geometry g = interp.lane(0).geometry();
  for (int l = 0; l < kLanes; ++l) {
    for (int b = 0; b < g.banks; ++b) {
      for (std::uint64_t a = 0; a < g.mem_depth(); ++a) {
        EXPECT_EQ(compiled.lane(l).memory_word(b, a),
                  interp.lane(l).memory_word(b, a))
            << "lane " << l << " b" << b << "[" << a << "]";
      }
    }
  }
}

// Geometry disagreement is a caller error, not a silent partial compare.
TEST(Lockstep, RejectsGeometryMismatch) {
  harness::BehavioralDeviceModel a(behavioural_config(1, 2));
  harness::BehavioralDeviceModel b(behavioural_config(2, 2));
  harness::StimulusOptions so;
  so.banks = 1;
  harness::StimulusStream stream(so, 1);
  EXPECT_THROW(harness::run_lockstep({&a, &b}, stream), std::invalid_argument);
}

// The ASM adapter's canonical memory view: words written through the
// transactor land identically in the ASM and behavioural memories.
TEST(Adapters, AsmCanonicalMemoryWord) {
  core::AsmConfig acfg;
  acfg.banks = 1;
  acfg.mem_addr_bits = 1;
  harness::AsmDeviceModel asm_model(acfg);
  harness::BehavioralDeviceModel beh(behavioural_config(1, 1));

  harness::Stimulus w;
  w.write = true;
  w.write_addr = 1;
  w.write_word = (1ull << kDataBits) | 1ull;  // beat0=1, beat1=1
  asm_model.enqueue(w);
  beh.enqueue(w);
  for (int t = 0; t < 6; ++t) {
    const harness::Edge e = harness::edge_of_tick(t);
    asm_model.tick(e);
    beh.tick(e);
  }
  EXPECT_EQ(asm_model.memory_word(0, 1), beh.memory_word(0, 1));
  EXPECT_EQ(asm_model.memory_word(0, 1), (1ull << kDataBits) | 1ull);
}

}  // namespace
}  // namespace la1
