// Lane-discipline properties of the compiled backend: which bit-lane a
// stimulus stream occupies must be unobservable. Each stream's per-tick
// observation trace is FNV-hashed; shuffling the stream-to-lane assignment
// must leave every stream's hash unchanged, and running at partial
// occupancy (1, 63, 64 active lanes) must reproduce the same per-stream
// hashes the full-width run produced — lanes carry no crosstalk, in nets
// or in the per-lane memory images.
//
// The memory ports and the staged input drive switch between lane-by-lane
// and whole-matrix (transposed) paths by occupancy, so they are checked at
// occupancies on both sides of every crossover against per-lane CycleSims,
// and the staged drive is checked to apply writes in call order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "csim/compile.hpp"
#include "csim/machine.hpp"
#include "rtl/netlist.hpp"
#include "rtl/sim.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace la1::csim {
namespace {

constexpr int kTicks = 24;
constexpr std::uint64_t kSeed = 0xc51a4e5;

/// A small module that exercises every lane-sensitive structure at once:
/// an accumulator, an X-reset register, a tristate bus with two drivers,
/// and a byte-wide memory with a write port that can go out of range.
rtl::Module lane_module() {
  rtl::Module m("lanes");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId i = m.input("I", 8);
  const rtl::NetId j = m.input("J", 1);
  const rtl::NetId r0 = m.reg("R0", 8, std::uint64_t{0});
  const rtl::NetId r1 = m.reg("R1", 1, rtl::LVec::xs(1));
  const rtl::MemId mem = m.memory("M", 4, 8);

  const rtl::ProcId p = m.process("on_k", k, rtl::Edge::kPos);
  m.nonblocking(p, r0, m.add(m.ref(r0), m.ref(i)));
  m.nonblocking(p, r1, m.op_xor(m.ref(r1), m.ref(j)));
  m.mem_write(p, mem, m.slice(m.ref(r0), 0, 3), m.ref(i), m.ref(j));

  m.assign(m.wire("RD", 8), m.mem_read(mem, m.slice(m.ref(i), 0, 3)));
  const rtl::NetId bus = m.wire("BUS", 1);
  m.tristate(bus, m.ref(j), m.slice(m.ref(i), 0, 1));
  m.tristate(bus, m.slice(m.ref(i), 7, 1), m.slice(m.ref(i), 1, 1));
  return m;
}

/// Pre-generated two-state stimulus: stream s, tick t -> (I beat, J bit).
struct Stimulus {
  std::vector<std::uint64_t> i_beats;
  std::vector<bool> j_bits;
};

std::vector<Stimulus> make_streams(int count) {
  std::vector<Stimulus> out(static_cast<std::size_t>(count));
  for (int s = 0; s < count; ++s) {
    util::Rng rng(kSeed + static_cast<std::uint64_t>(s) * 977);
    for (int t = 0; t < kTicks; ++t) {
      out[static_cast<std::size_t>(s)].i_beats.push_back(rng.below(256));
      out[static_cast<std::size_t>(s)].j_bits.push_back(rng.next_bool());
    }
  }
  return out;
}

/// Runs `streams.size()` streams with stream s in lane `lane_of[s]`, and
/// returns one observation-trace hash per stream (indexed by stream, not
/// lane — the quantity lane shuffling must preserve).
std::vector<std::uint64_t> run_streams(const rtl::Module& m,
                                       const Compiled& compiled,
                                       const std::vector<Stimulus>& streams,
                                       const std::vector<int>& lane_of,
                                       int lanes, bool uint_drive = false) {
  Machine machine(compiled, lanes);
  const rtl::NetId i = m.find_net("I");
  const rtl::NetId j = m.find_net("J");
  const rtl::NetId bus = m.find_net("BUS");
  std::vector<std::string> traces(streams.size());

  machine.set_input_bit("K", false);
  for (int t = 0; t < kTicks; ++t) {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const int lane = lane_of[s];
      const std::uint64_t beat = streams[s].i_beats[static_cast<std::size_t>(t)];
      const bool jbit = streams[s].j_bits[static_cast<std::size_t>(t)];
      if (uint_drive) {
        machine.set_input_lane_uint(i, lane, beat);
        machine.set_input_lane_uint(j, lane, jbit ? 1 : 0);
      } else {
        machine.set_input_lane(i, lane, rtl::LVec::from_uint(beat, 8));
        machine.set_input_lane(j, lane, rtl::LVec::from_uint(jbit, 1));
      }
    }
    machine.edge("K", rtl::Edge::kPos);
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const int lane = lane_of[s];
      std::string& trace = traces[s];
      for (rtl::NetId net = 0; net < m.net_count(); ++net) {
        const rtl::LVec v = machine.get(net, lane);
        for (int b = 0; b < v.width(); ++b) {
          trace.push_back(rtl::to_char(v.bit(b)));
        }
      }
      trace.push_back(machine.bus_conflict(bus, lane) ? 'C' : '.');
      for (std::uint64_t a = 0; a < 4; ++a) {
        const rtl::LVec w = machine.mem_word(0, a, lane);
        for (int b = 0; b < w.width(); ++b) {
          trace.push_back(rtl::to_char(w.bit(b)));
        }
      }
    }
  }

  std::vector<std::uint64_t> hashes;
  for (const std::string& trace : traces) {
    hashes.push_back(util::fnv1a64(trace));
  }
  return hashes;
}

std::vector<int> identity_lanes(int count) {
  std::vector<int> lanes(static_cast<std::size_t>(count));
  for (int s = 0; s < count; ++s) lanes[static_cast<std::size_t>(s)] = s;
  return lanes;
}

TEST(CsimLanes, ShuffledLaneAssignmentPreservesStreamHashes) {
  const rtl::Module m = lane_module();
  const Compiled compiled = compile(m);
  const std::vector<Stimulus> streams = make_streams(64);

  const std::vector<std::uint64_t> base =
      run_streams(m, compiled, streams, identity_lanes(64), 64);

  util::Rng rng(kSeed);
  for (int round = 0; round < 3; ++round) {
    std::vector<int> lane_of = identity_lanes(64);
    for (int s = 63; s > 0; --s) {
      std::swap(lane_of[static_cast<std::size_t>(s)],
                lane_of[rng.below(static_cast<std::uint64_t>(s) + 1)]);
    }
    const std::vector<std::uint64_t> shuffled =
        run_streams(m, compiled, streams, lane_of, 64);
    EXPECT_EQ(base, shuffled) << "lane permutation changed a stream's trace "
                                 "(round "
                              << round << ")";
  }
}

TEST(CsimLanes, PartialOccupancyMatchesFullRun) {
  const rtl::Module m = lane_module();
  const Compiled compiled = compile(m);
  const std::vector<Stimulus> streams = make_streams(64);

  const std::vector<std::uint64_t> full =
      run_streams(m, compiled, streams, identity_lanes(64), 64);

  for (const int occupancy : {1, 63, 64}) {
    const std::vector<Stimulus> subset(streams.begin(),
                                       streams.begin() + occupancy);
    const std::vector<std::uint64_t> partial =
        run_streams(m, compiled, subset, identity_lanes(occupancy), occupancy);
    for (int s = 0; s < occupancy; ++s) {
      EXPECT_EQ(full[static_cast<std::size_t>(s)],
                partial[static_cast<std::size_t>(s)])
          << "stream " << s << " diverged at occupancy " << occupancy;
    }
  }
}

TEST(CsimLanes, UintDrivePathMatchesLVecDrivePath) {
  const rtl::Module m = lane_module();
  const Compiled compiled = compile(m);
  const std::vector<Stimulus> streams = make_streams(64);
  EXPECT_EQ(run_streams(m, compiled, streams, identity_lanes(64), 64, false),
            run_streams(m, compiled, streams, identity_lanes(64), 64, true));
}

TEST(CsimLanes, LaneCountValidation) {
  const rtl::Module m = lane_module();
  const Compiled compiled = compile(m);
  Machine machine(compiled, 64);
  EXPECT_THROW(machine.set_lanes(0), std::invalid_argument);
  EXPECT_THROW(machine.set_lanes(65), std::invalid_argument);
  EXPECT_THROW(
      machine.set_input_lane(m.find_net("I"), 64, rtl::LVec::zeros(8)),
      std::invalid_argument);
}

TEST(CsimLanes, ReadsRejectLanesOutsideTheActiveRange) {
  const rtl::Module m = lane_module();
  const Compiled compiled = compile(m);
  Machine machine(compiled, 5);
  const rtl::NetId r0 = m.find_net("R0");
  const rtl::NetId bus = m.find_net("BUS");
  for (const int lane : {-1, 5, 63, 64, 200}) {
    EXPECT_THROW(machine.get(r0, lane), std::invalid_argument) << lane;
    EXPECT_THROW(machine.bus_conflict(bus, lane), std::invalid_argument)
        << lane;
    EXPECT_THROW(machine.mem_word(0, 3, lane), std::invalid_argument) << lane;
    EXPECT_THROW(machine.poke_mem(0, 3, lane, rtl::LVec::zeros(8)),
                 std::invalid_argument)
        << lane;
    EXPECT_THROW(machine.set_input_lane_uint(m.find_net("I"), lane, 1),
                 std::invalid_argument)
        << lane;
  }
  EXPECT_NO_THROW(machine.get(r0, 4));
  EXPECT_NO_THROW(machine.mem_word(0, 3, 4));
  EXPECT_THROW(machine.mem_word(0, 4, 0), std::out_of_range);
}

// --- memory ports across the lane-count crossovers ----------------------

/// Two memories whose ports take X/Z operands lane by lane: every address,
/// the write data, the write enable and the byte enables pass through a
/// tristate bus whose enable is a two-state input, so a lane that leaves
/// the enable low sees Z there (an unknown address, data, wen or byte
/// enable) while its neighbours drive defined values. M is depth 5 under
/// 3-bit addresses, so 5..7 fall past it; W is a full 64-bit-wide word
/// memory.
rtl::Module port_module() {
  rtl::Module m("ports");
  const rtl::NetId k = m.input("K", 1);
  const auto gated = [&m](const std::string& name, int width) {
    const rtl::NetId value = m.input(name, width);
    const rtl::NetId enable = m.input(name + "_EN", 1);
    const rtl::NetId bus = m.wire(name + "_BUS", width);
    m.tristate(bus, m.ref(enable), m.ref(value));
    return bus;
  };
  const rtl::NetId ra = gated("RA", 3);
  const rtl::NetId wa = gated("WA", 3);
  const rtl::NetId wen = gated("WEN", 1);
  const rtl::NetId be = gated("BE", 2);
  const rtl::NetId d = gated("D", 64);
  const rtl::MemId mem = m.memory("M", 5, 8);
  const rtl::MemId wide = m.memory("W", 3, 64);
  const rtl::NetId q = m.reg("Q", 8, std::uint64_t{0});

  const rtl::ProcId p = m.process("on_k", k, rtl::Edge::kPos);
  m.mem_write(p, mem, m.ref(wa), m.slice(m.ref(d), 0, 8), m.ref(wen),
              {m.slice(m.ref(be), 0, 1), m.slice(m.ref(be), 1, 1)});
  m.mem_write(p, wide, m.slice(m.ref(wa), 0, 2), m.ref(d), m.ref(wen));
  // A read port inside the step program as well as in the comb cloud.
  m.nonblocking(p, q, m.mem_read(mem, m.ref(ra)));
  m.assign(m.wire("RD", 8), m.mem_read(mem, m.ref(ra)));
  m.assign(m.wire("RW", 64), m.mem_read(wide, m.slice(m.ref(ra), 1, 2)));
  return m;
}

struct PortDrive {
  std::string name;
  std::uint64_t value;
};

/// One tick of lane `lane`'s stimulus. Lanes differ in how often they
/// leave a bus undriven: lane % 3 == 0 never, 1 one tick in eight, 2 every
/// other tick — so every run mixes defined and unknown operands.
std::vector<PortDrive> port_tick(util::Rng& rng, int lane) {
  const int rate = lane % 3;
  const auto driven = [&rng, rate] {
    return rate == 0 || rng.below(rate == 1 ? 8 : 2) != 0;
  };
  std::vector<PortDrive> out;
  for (const char* name : {"RA", "WA", "WEN", "BE", "D"}) {
    const std::string n(name);
    const int width = n == "WEN" ? 1 : n == "BE" ? 2 : n == "D" ? 64 : 3;
    out.push_back({n, width == 64 ? rng.next_u64() : rng.below(1ull << width)});
    out.push_back({n + "_EN", driven() ? 1u : 0u});
  }
  return out;
}

std::string lane_mismatch(const rtl::Module& m, const rtl::CycleSim& sim,
                          const Machine& machine, int lane) {
  for (rtl::NetId net = 0; net < m.net_count(); ++net) {
    if (!(sim.get(net) == machine.get(net, lane))) {
      return "net " + m.net(net).name + ": sim " + sim.get(net).to_string() +
             " machine " + machine.get(net, lane).to_string();
    }
  }
  for (rtl::MemId mem = 0; mem < 2; ++mem) {
    const int depth = m.memories()[static_cast<std::size_t>(mem)].depth;
    for (int a = 0; a < depth; ++a) {
      const auto addr = static_cast<std::uint64_t>(a);
      if (!(sim.mem_word(mem, addr) == machine.mem_word(mem, addr, lane))) {
        return "memory " + m.memories()[static_cast<std::size_t>(mem)].name +
               "[" + std::to_string(a) + "]";
      }
    }
  }
  return "";
}

TEST(CsimLanes, MemoryPortsMatchPerLaneCycleSimsAtEveryOccupancy) {
  const rtl::Module m = port_module();
  const Compiled compiled = compile(m);
  const rtl::NetId rd = m.find_net("RD");
  const rtl::NetId rw = m.find_net("RW");
  const rtl::NetId q = m.find_net("Q");
  for (const int lanes : {1, 2, 5, 63, 64}) {
    Machine machine(compiled, lanes);
    std::vector<rtl::CycleSim> sims;
    std::vector<util::Rng> rngs;
    for (int l = 0; l < lanes; ++l) {
      sims.emplace_back(m);
      sims.back().set_input_bit("K", false);
      rngs.emplace_back(kSeed ^ (static_cast<std::uint64_t>(l) * 0x9e37));
    }
    machine.set_input_bit("K", false);
    for (int t = 0; t < 40; ++t) {
      for (int l = 0; l < lanes; ++l) {
        for (const PortDrive& d :
             port_tick(rngs[static_cast<std::size_t>(l)], l)) {
          const rtl::NetId net = m.find_net(d.name);
          sims[static_cast<std::size_t>(l)].set_input(
              net, rtl::LVec::from_uint(d.value, m.net(net).width));
          machine.set_input_lane_uint(net, l, d.value);
        }
      }
      const rtl::Edge e = t % 2 == 0 ? rtl::Edge::kPos : rtl::Edge::kNeg;
      for (rtl::CycleSim& sim : sims) sim.edge("K", e);
      machine.edge("K", e);
      for (int l = 0; l < lanes; ++l) {
        const std::string diff =
            lane_mismatch(m, sims[static_cast<std::size_t>(l)], machine, l);
        ASSERT_EQ(diff, "") << "lanes " << lanes << " tick " << t << " lane "
                            << l;
      }
      // The ports never touch lanes past lanes(): their read outputs and
      // memory images keep the reset value (0) there. Widening the view
      // changes no state.
      machine.set_lanes(64);
      for (int l = lanes; l < 64; ++l) {
        ASSERT_EQ(machine.get(rd, l), rtl::LVec::zeros(8)) << l;
        ASSERT_EQ(machine.get(rw, l), rtl::LVec::zeros(64)) << l;
        ASSERT_EQ(machine.get(q, l), rtl::LVec::zeros(8)) << l;
        for (std::uint64_t a = 0; a < 5; ++a) {
          ASSERT_EQ(machine.mem_word(0, a, l), rtl::LVec::zeros(8)) << l;
        }
        for (std::uint64_t a = 0; a < 3; ++a) {
          ASSERT_EQ(machine.mem_word(1, a, l), rtl::LVec::zeros(64)) << l;
        }
      }
      machine.set_lanes(lanes);
    }
    const MachineStats& stats = machine.stats();
    EXPECT_EQ(stats.edges, 40);
    EXPECT_DOUBLE_EQ(stats.occupancy(), lanes);
    EXPECT_GT(stats.mem_reads, 0);
    EXPECT_EQ(stats.lanes_gathered, stats.mem_reads * lanes);
    EXPECT_EQ(stats.mem_writes, 40);  // two ports, posedges only
    EXPECT_LE(stats.lanes_scattered, stats.mem_writes * lanes);
    if (lanes == 64) {
      EXPECT_GT(stats.input_flushes, 0);  // D, at least, is staged
    }
  }
}

TEST(CsimLanes, NarrowedLanesKeepTheirPortOutputsAndImages) {
  const rtl::Module m = port_module();
  const Compiled compiled = compile(m);
  const rtl::NetId rd = m.find_net("RD");
  const rtl::NetId rw = m.find_net("RW");
  for (const int lanes : {1, 2, 5, 63}) {
    Machine machine(compiled, 64);
    machine.set_input_bit("K", false);
    util::Rng rng(kSeed + static_cast<std::uint64_t>(lanes));
    const auto tick = [&](int active, int t) {
      for (int l = 0; l < active; ++l) {
        for (const PortDrive& d : port_tick(rng, l)) {
          machine.set_input_lane_uint(m.find_net(d.name), l, d.value);
        }
      }
      machine.edge("K", t % 2 == 0 ? rtl::Edge::kPos : rtl::Edge::kNeg);
    };
    // Fill every lane's read outputs and images, then narrow the machine.
    for (int t = 0; t < 12; ++t) tick(64, t);
    std::vector<rtl::LVec> frozen;
    const auto snapshot = [&] {
      std::vector<rtl::LVec> out;
      for (int l = lanes; l < 64; ++l) {
        out.push_back(machine.get(rd, l));
        out.push_back(machine.get(rw, l));
        for (std::uint64_t a = 0; a < 5; ++a) out.push_back(machine.mem_word(0, a, l));
        for (std::uint64_t a = 0; a < 3; ++a) out.push_back(machine.mem_word(1, a, l));
      }
      return out;
    };
    frozen = snapshot();
    machine.set_lanes(lanes);
    for (int t = 12; t < 40; ++t) tick(lanes, t);
    machine.set_lanes(64);
    EXPECT_EQ(snapshot(), frozen) << "lanes " << lanes;
  }
}

// --- staged input drive -------------------------------------------------

std::uint64_t lane_value(int lane, std::uint64_t salt) {
  return (static_cast<std::uint64_t>(lane) * 0x9e3779b97f4a7c15ull) ^ salt;
}

/// Every lane's value of net I (8 bits wide) under a 64-lane machine.
std::vector<std::uint64_t> lane_values(const Machine& machine,
                                       rtl::NetId net) {
  std::vector<std::uint64_t> out;
  for (int l = 0; l < machine.lanes(); ++l) {
    out.push_back(machine.get(net, l).to_uint().value_or(~0ull));
  }
  return out;
}

TEST(CsimLanes, StagedLaneWritesAndBroadcastsApplyInCallOrder) {
  const rtl::Module m = lane_module();
  const Compiled compiled = compile(m);
  const rtl::NetId i = m.find_net("I");
  // One staged lane (the lane-by-lane flush), half and all of them (the
  // transpose, which must leave the unstaged half alone).
  for (const int staged : {1, 32, 64}) {
    Machine machine(compiled, 64);
    std::vector<std::uint64_t> expect(64, 0);
    for (int l = 0; l < staged; ++l) {
      machine.set_input_lane_uint(i, l, lane_value(l, 1));
    }
    machine.set_input_uint(i, 0x5a);
    std::fill(expect.begin(), expect.end(), 0x5a);
    for (int l = 64 - staged; l < 64; ++l) {
      machine.set_input_lane_uint(i, l, lane_value(l, 2) & 0xff);
      expect[static_cast<std::size_t>(l)] = lane_value(l, 2) & 0xff;
    }
    EXPECT_EQ(lane_values(machine, i), expect) << staged;
  }
}

TEST(CsimLanes, StagedValueThenLVecLaneWriteKeepsTheLaterWrite) {
  const rtl::Module m = lane_module();
  const Compiled compiled = compile(m);
  const rtl::NetId i = m.find_net("I");
  Machine machine(compiled, 64);
  std::vector<std::uint64_t> expect(64);
  for (int l = 0; l < 64; ++l) {
    machine.set_input_lane_uint(i, l, lane_value(l, 3) & 0xff);
    expect[static_cast<std::size_t>(l)] = lane_value(l, 3) & 0xff;
  }
  machine.set_input_lane(i, 17, rtl::LVec::from_uint(0xc3, 8));
  expect[17] = 0xc3;
  machine.set_input_lane_uint(i, 18, 0x3c);  // staged again after the flush
  expect[18] = 0x3c;
  EXPECT_EQ(lane_values(machine, i), expect);
}

TEST(CsimLanes, GetAndSlotSeeStagedInputsBeforeEval) {
  const rtl::Module m = lane_module();
  const Compiled compiled = compile(m);
  const rtl::NetId i = m.find_net("I");
  const NetSlots& ns = compiled.net_slots(i);
  for (const int staged : {1, 64}) {
    Machine machine(compiled, 64);
    std::vector<std::uint64_t> expect(64, 0);
    for (int l = 0; l < staged; ++l) {
      machine.set_input_lane_uint(i, l, lane_value(l, 4) & 0xff);
      expect[static_cast<std::size_t>(l)] = lane_value(l, 4) & 0xff;
    }
    for (std::size_t bit = 0; bit < ns.a.size(); ++bit) {
      std::uint64_t column = 0;
      for (int l = 0; l < 64; ++l) {
        column |= ((expect[static_cast<std::size_t>(l)] >> bit) & 1) << l;
      }
      EXPECT_EQ(machine.slot(ns.a[bit]), column) << staged << " bit " << bit;
    }
    EXPECT_EQ(lane_values(machine, i), expect) << staged;
  }
}

TEST(CsimLanes, ResetDropsStagedInputs) {
  const rtl::Module m = lane_module();
  const Compiled compiled = compile(m);
  const rtl::NetId i = m.find_net("I");
  Machine machine(compiled, 64);
  for (int l = 0; l < 64; ++l) {
    machine.set_input_lane_uint(i, l, lane_value(l, 5) & 0xff);
  }
  machine.reset();
  EXPECT_EQ(lane_values(machine, i), std::vector<std::uint64_t>(64, 0));
  machine.edge("K", rtl::Edge::kPos);
  EXPECT_EQ(machine.get(m.find_net("R0"), 9), rtl::LVec::zeros(8));
  EXPECT_EQ(machine.stats().input_flushes, 0);
}

}  // namespace
}  // namespace la1::csim
