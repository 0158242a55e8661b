// Per-lane register forces of the compiled backend (csim::Force) against
// the reference simulator: every lane of one csim::Machine carrying up to
// 63 forces must step exactly like an rtl::CycleSim of the matching
// fault::apply_structural mutant — every net bit, every bus-conflict flag
// and every memory word after every edge — for each structural fault kind,
// on every register of the netlist the fault campaign compiles (the LA-1
// device with its OVL monitors attached) at 1, 2 and 4 banks. Forces the
// plan cannot keep X-safe are rejected at compile time.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "csim/compile.hpp"
#include "csim/machine.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "harness/device_model.hpp"
#include "harness/stimulus.hpp"
#include "la1/rtl_model.hpp"
#include "la1/spec.hpp"
#include "ovl/ovl.hpp"
#include "rtl/sim.hpp"
#include "util/rng.hpp"

namespace la1 {
namespace {

constexpr int kTransactions = 24;
constexpr int kDrainTicks = 8;
constexpr int kTicks = 2 * kTransactions + kDrainTicks;

core::RtlConfig device_config(int banks) {
  core::RtlConfig cfg;
  cfg.banks = banks;
  cfg.data_bits = 8;
  cfg.mem_addr_bits = 2;
  return cfg;
}

/// The netlist the fault campaign compiles: the device with the LA-1 OVL
/// monitor set attached.
rtl::Module campaign_netlist(int banks) {
  rtl::Module flat = core::build_device(device_config(banks)).flatten();
  ovl::OvlBank ovl_bank;
  core::attach_ovl_monitors(flat, ovl_bank, banks);
  return flat;
}

/// The campaign netlist at the campaign's own geometry (fault::
/// CampaignOptions defaults: 8-bit beats, 16-word banks).
rtl::Module campaign_netlist_at_default_geometry(int banks) {
  const fault::CampaignOptions defaults;
  core::RtlConfig cfg;
  cfg.banks = banks;
  cfg.data_bits = defaults.data_bits;
  cfg.mem_addr_bits = defaults.mem_addr_bits;
  rtl::Module flat = core::build_device(cfg).flatten();
  ovl::OvlBank ovl_bank;
  core::attach_ovl_monitors(flat, ovl_bank, banks);
  return flat;
}

/// Registers some process assigns, in net order — every injectable target.
std::vector<rtl::NetId> assigned_registers(const rtl::Module& flat) {
  std::vector<bool> assigned(static_cast<std::size_t>(flat.net_count()), false);
  for (const rtl::Process& p : flat.processes()) {
    for (const rtl::SeqAssign& a : p.assigns) {
      assigned[static_cast<std::size_t>(a.target)] = true;
    }
  }
  std::vector<rtl::NetId> regs;
  for (rtl::NetId id = 0; id < flat.net_count(); ++id) {
    if (assigned[static_cast<std::size_t>(id)]) regs.push_back(id);
  }
  return regs;
}

/// One fault per register, on bit 0 and on the top bit.
std::vector<fault::FaultSpec> faults_of_kind(const rtl::Module& flat,
                                             fault::FaultKind kind,
                                             int cycle) {
  std::vector<fault::FaultSpec> out;
  for (rtl::NetId reg : assigned_registers(flat)) {
    const int width = flat.net(reg).width;
    std::vector<int> bits{0};
    if (width > 1) bits.push_back(width - 1);
    for (int bit : bits) {
      fault::FaultSpec s;
      s.kind = kind;
      s.net = flat.net(reg).name;
      s.bit = bit;
      s.cycle = cycle;
      out.push_back(s);
    }
  }
  return out;
}

template <typename Sim>
void drive(Sim& sim, const harness::EdgePins& pins, int data_bits) {
  sim.set_input_bit("R_n", pins.r_sel_n);
  sim.set_input_bit("W_n", pins.w_sel_n);
  sim.set_input("A", pins.addr);
  sim.set_input("D", core::pack_beat(pins.din_data, data_bits));
  sim.set_input("BWE_n", pins.bwe_n);
  sim.edge(pins.edge == harness::Edge::kK ? "K" : "KS", rtl::Edge::kPos);
}

/// Compares lane `lane` of `machine` with `sim` on every stock net and
/// memory word; returns the first difference, empty when equal.
std::string first_difference(const rtl::Module& stock,
                             const csim::Machine& machine, int lane,
                             const rtl::CycleSim& sim) {
  for (rtl::NetId net = 0; net < stock.net_count(); ++net) {
    const rtl::LVec got = machine.get(net, lane);
    const rtl::LVec want = sim.get(net);
    if (!(got == want)) {
      return "net " + stock.net(net).name + " csim=" + got.to_string() +
             " cyclesim=" + want.to_string();
    }
    if (machine.bus_conflict(net, lane) != (sim.enabled_drivers(net) >= 2)) {
      return "bus conflict on " + stock.net(net).name;
    }
  }
  for (rtl::MemId mem = 0;
       mem < static_cast<rtl::MemId>(stock.memories().size()); ++mem) {
    const int depth = stock.memories()[static_cast<std::size_t>(mem)].depth;
    for (int addr = 0; addr < depth; ++addr) {
      const auto a = static_cast<std::uint64_t>(addr);
      if (!(machine.mem_word(mem, a, lane) == sim.mem_word(mem, a))) {
        return "memory " +
               stock.memories()[static_cast<std::size_t>(mem)].name + "[" +
               std::to_string(addr) + "]";
      }
    }
  }
  return {};
}

/// Packs `faults` on the campaign netlist 63 to a Machine (lane 0 stays
/// the unforced device) and holds every lane against a CycleSim of its
/// apply_structural mutant. Forces csim::x_safe_forces rejects must make
/// csim::compile throw; the test expects none on this design.
void expect_lanes_match_mutants(int banks,
                                const std::vector<fault::FaultSpec>& faults) {
  const core::RtlConfig cfg = device_config(banks);
  const rtl::Module stock = campaign_netlist(banks);
  const std::vector<rtl::ClockStep> schedule = core::clock_schedule(stock);
  const plan::CompilePlan plan = [&] {
    plan::PlanOptions po;
    po.schedule = schedule;
    return plan::analyze(stock, po);
  }();

  for (std::size_t first = 0; first < faults.size(); first += 63) {
    const std::size_t count = std::min<std::size_t>(63, faults.size() - first);
    std::vector<csim::Force> forces;
    std::vector<std::unique_ptr<rtl::Module>> mutants;
    std::vector<std::unique_ptr<rtl::CycleSim>> sims;
    mutants.push_back(std::make_unique<rtl::Module>(stock));
    for (std::size_t i = 0; i < count; ++i) {
      const fault::FaultSpec& spec = faults[first + i];
      forces.push_back(fault::lane_force(stock, spec, static_cast<int>(i) + 1));
      auto mutant = std::make_unique<rtl::Module>(stock);
      fault::apply_structural(*mutant, spec);
      mutants.push_back(std::move(mutant));
    }
    const std::vector<bool> safe = csim::x_safe_forces(stock, plan, forces);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(safe[i]) << "banks=" << banks << " "
                           << faults[first + i].id() << " is not X-safe";
      if (!safe[i]) {
        EXPECT_THROW(csim::compile(stock, plan, {forces[i]}),
                     std::invalid_argument);
      }
    }
    if (::testing::Test::HasFailure()) return;
    for (const auto& m : mutants) sims.push_back(std::make_unique<rtl::CycleSim>(*m));

    const csim::Compiled compiled = csim::compile(stock, plan, forces);
    csim::Machine machine(compiled, static_cast<int>(count) + 1);

    harness::StimulusOptions so;
    so.banks = cfg.banks;
    so.mem_addr_bits = cfg.mem_addr_bits;
    so.data_bits = cfg.data_bits;
    harness::StimulusStream stream(so, 7 + static_cast<std::uint64_t>(banks));
    harness::Transactor tx(so.geometry());
    for (const char* clock : {"K", "KS"}) {
      machine.set_input_bit(clock, false);
      for (auto& sim : sims) sim->set_input_bit(clock, false);
    }
    for (int tick = 0; tick < kTicks; ++tick) {
      const harness::Edge edge = harness::edge_of_tick(tick);
      if (edge == harness::Edge::kK && tick / 2 < kTransactions) {
        tx.enqueue(stream.next());
      }
      const harness::EdgePins pins = tx.next(edge);
      drive(machine, pins, cfg.data_bits);
      for (auto& sim : sims) drive(*sim, pins, cfg.data_bits);
      for (std::size_t lane = 0; lane < sims.size(); ++lane) {
        const std::string diff = first_difference(
            stock, machine, static_cast<int>(lane), *sims[lane]);
        ASSERT_TRUE(diff.empty())
            << "banks=" << banks << " tick " << tick << " lane " << lane
            << (lane == 0 ? std::string(" (stock)")
                          : " (" + faults[first + lane - 1].id() + ")")
            << ": " << diff;
      }
    }
  }
}

class LaneForces : public ::testing::TestWithParam<int> {};

TEST_P(LaneForces, StuckAt0MatchesMutantNetlist) {
  const int banks = GetParam();
  const rtl::Module stock = campaign_netlist(banks);
  expect_lanes_match_mutants(
      banks, faults_of_kind(stock, fault::FaultKind::kStuckAt0, 0));
}

TEST_P(LaneForces, StuckAt1MatchesMutantNetlist) {
  const int banks = GetParam();
  const rtl::Module stock = campaign_netlist(banks);
  expect_lanes_match_mutants(
      banks, faults_of_kind(stock, fault::FaultKind::kStuckAt1, 0));
}

TEST_P(LaneForces, InvertedDriverMatchesMutantNetlist) {
  const int banks = GetParam();
  const rtl::Module stock = campaign_netlist(banks);
  expect_lanes_match_mutants(
      banks, faults_of_kind(stock, fault::FaultKind::kInvertedDriver, 0));
}

TEST_P(LaneForces, DroppedUpdateMatchesMutantNetlist) {
  const int banks = GetParam();
  const rtl::Module stock = campaign_netlist(banks);
  expect_lanes_match_mutants(
      banks, faults_of_kind(stock, fault::FaultKind::kDroppedUpdate, 0));
}

// The flip fires on cycle 0, mid-run, and past the end of the run (never).
TEST_P(LaneForces, BitFlipMatchesMutantNetlistAtEveryActivation) {
  const int banks = GetParam();
  const rtl::Module stock = campaign_netlist(banks);
  for (int cycle : {0, kTransactions / 2, 10 * kTicks}) {
    SCOPED_TRACE("flip cycle " + std::to_string(cycle));
    expect_lanes_match_mutants(
        banks, faults_of_kind(stock, fault::FaultKind::kBitFlip, cycle));
  }
}

// Every force the campaign can plan, at its own geometry, compiles: no
// register of the instrumented device is X-unsafe, so every structural
// fault rides its lane batch's Machine.
TEST_P(LaneForces, EveryCampaignRegisterForceIsXSafe) {
  const int banks = GetParam();
  const rtl::Module flat = campaign_netlist_at_default_geometry(banks);
  plan::PlanOptions po;
  po.schedule = core::clock_schedule(flat);
  const plan::CompilePlan plan = plan::analyze(flat, po);
  std::vector<fault::FaultSpec> faults;
  for (fault::FaultKind kind :
       {fault::FaultKind::kStuckAt0, fault::FaultKind::kStuckAt1,
        fault::FaultKind::kInvertedDriver, fault::FaultKind::kBitFlip,
        fault::FaultKind::kDroppedUpdate}) {
    for (const fault::FaultSpec& f : faults_of_kind(flat, kind, 5)) {
      faults.push_back(f);
    }
  }
  for (std::size_t first = 0; first < faults.size(); first += 63) {
    const std::size_t count = std::min<std::size_t>(63, faults.size() - first);
    std::vector<csim::Force> forces;
    for (std::size_t i = 0; i < count; ++i) {
      forces.push_back(
          fault::lane_force(flat, faults[first + i], static_cast<int>(i) + 1));
    }
    const std::vector<bool> safe = csim::x_safe_forces(flat, plan, forces);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(safe[i]) << faults[first + i].id();
    }
    EXPECT_NO_THROW(csim::compile(flat, plan, forces));
  }
}

INSTANTIATE_TEST_SUITE_P(Banks, LaneForces, ::testing::Values(1, 2, 4));

TEST(LaneForces, ProgramWithoutForcesIsUnchanged) {
  const rtl::Module stock = core::build_device(device_config(2)).flatten();
  const csim::Compiled plain = csim::compile(stock, core::clock_schedule(stock));
  plan::PlanOptions po;
  po.schedule = core::clock_schedule(stock);
  const csim::Compiled empty = csim::compile(stock, plan::analyze(stock, po), {});
  EXPECT_EQ(empty.total_instructions(), plain.total_instructions());
  EXPECT_EQ(empty.slot_count(), plain.slot_count());
}

/// A register that samples an undriven tristate bus, so it holds Z: the
/// XOR of apply_structural's invert and bit flip turns Z into X on every
/// bit, which the lane forces must reproduce.
TEST(LaneForces, ZValuedRegisterFollowsTheXorRules) {
  rtl::Module m("zreg");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId i = m.input("I", 1);
  const rtl::NetId j = m.input("J", 1);
  const rtl::NetId bus = m.wire("BUS", 1);
  m.tristate(bus, m.ref(j), m.ref(i));
  const rtl::NetId zr = m.reg("ZR", 2, std::uint64_t{0});
  const rtl::ProcId p = m.process("on_k", k, rtl::Edge::kPos);
  m.nonblocking(p, zr, m.concat({m.ref(i), m.ref(bus)}));

  std::vector<fault::FaultSpec> faults;
  for (fault::FaultKind kind :
       {fault::FaultKind::kStuckAt0, fault::FaultKind::kStuckAt1,
        fault::FaultKind::kInvertedDriver, fault::FaultKind::kBitFlip,
        fault::FaultKind::kDroppedUpdate}) {
    for (int bit : {0, 1}) {
      fault::FaultSpec s;
      s.kind = kind;
      s.net = "ZR";
      s.bit = bit;
      s.cycle = 3;
      faults.push_back(s);
    }
  }
  std::vector<csim::Force> forces;
  std::vector<std::unique_ptr<rtl::Module>> mutants;
  std::vector<std::unique_ptr<rtl::CycleSim>> sims;
  sims.push_back(std::make_unique<rtl::CycleSim>(m));
  for (std::size_t f = 0; f < faults.size(); ++f) {
    forces.push_back(fault::lane_force(m, faults[f], static_cast<int>(f) + 1));
    mutants.push_back(std::make_unique<rtl::Module>(m));
    fault::apply_structural(*mutants.back(), faults[f]);
    sims.push_back(std::make_unique<rtl::CycleSim>(*mutants.back()));
  }
  const csim::Compiled compiled = csim::compile(m, plan::analyze(m), forces);
  csim::Machine machine(compiled, static_cast<int>(sims.size()));
  util::Rng rng(17);
  machine.set_input_bit("K", false);
  for (auto& sim : sims) sim->set_input_bit("K", false);
  for (int tick = 0; tick < 12; ++tick) {
    const bool ib = rng.next_bool();
    const bool jb = rng.next_bool();
    machine.set_input_bit("I", ib);
    machine.set_input_bit("J", jb);
    machine.edge(k, rtl::Edge::kPos);
    for (std::size_t lane = 0; lane < sims.size(); ++lane) {
      rtl::CycleSim& sim = *sims[lane];
      sim.set_input_bit("I", ib);
      sim.set_input_bit("J", jb);
      sim.edge(k, rtl::Edge::kPos);
      ASSERT_EQ(machine.get(zr, static_cast<int>(lane)), sim.get(zr))
          << "tick " << tick << " lane " << lane
          << (lane == 0 ? std::string(" (stock)") : " " + faults[lane - 1].id());
    }
  }
}

/// A register the plan proves two-state only because a select register is
/// stuck at 0 in the stock design: forcing the select opens an X path.
rtl::Module steered_x_module() {
  rtl::Module m("steer");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId sel = m.reg("SEL", 1, std::uint64_t{0});
  const rtl::NetId xreg = m.reg("XR", 1, rtl::LVec::xs(1));
  const rtl::NetId out = m.reg("OUT", 1, std::uint64_t{0});
  const rtl::NetId cnt = m.reg("CNT", 2, std::uint64_t{0});
  const rtl::ProcId p = m.process("on_k", k, rtl::Edge::kPos);
  m.nonblocking(p, sel, m.ref(sel));
  m.nonblocking(p, xreg, m.ref(xreg));
  m.nonblocking(p, out, m.mux(m.ref(sel), m.ref(xreg), m.lit_uint(0, 1)));
  m.nonblocking(p, cnt, m.add(m.ref(cnt), m.lit_uint(1, 2)));
  return m;
}

TEST(LaneForces, CompileRejectsForcesThePlanCannotKeepXSafe) {
  const rtl::Module m = steered_x_module();
  const plan::CompilePlan plan = plan::analyze(m);
  ASSERT_EQ(plan.nets[static_cast<std::size_t>(m.find_net("OUT"))].classes,
            "P");
  csim::Force steer;
  steer.kind = csim::ForceKind::kStuck1;
  steer.reg = m.find_net("SEL");
  steer.lane = 1;
  EXPECT_THROW(csim::compile(m, plan, {steer}), std::invalid_argument);

  csim::Force count = steer;
  count.reg = m.find_net("CNT");
  count.bit = 1;
  EXPECT_NO_THROW(csim::compile(m, plan, {count}));

  // Malformed forces: a lane past 63, two forces on one lane, a bit past
  // the register, a net that is not a register.
  csim::Force bad = count;
  bad.lane = 64;
  EXPECT_THROW(csim::compile(m, plan, {bad}), std::invalid_argument);
  EXPECT_THROW(csim::compile(m, plan, {count, count}), std::invalid_argument);
  bad = count;
  bad.bit = 2;
  EXPECT_THROW(csim::compile(m, plan, {bad}), std::invalid_argument);
  bad = count;
  bad.reg = m.find_net("K");
  EXPECT_THROW(csim::compile(m, plan, {bad}), std::invalid_argument);
}

}  // namespace
}  // namespace la1
