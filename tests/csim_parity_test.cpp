// Differential lockstep proof of the compiled backend: on random netlists
// spanning everything the compiler lowers — multi-bit cones, X-reset
// registers, tristate buses, arithmetic, slices/concats, memories with
// byte-enabled write ports — a 64-lane csim::Machine must match 64 fresh
// rtl::CycleSim replays bit-for-bit at every observation point: every net,
// every memory word, the tristate conflict tap, after the reset settle and
// after every clock edge. The x-safety plan rides along: any bit the plan
// calls x-transient must read two-state in every lane once its proven
// settle depth has passed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "csim/compile.hpp"
#include "csim/machine.hpp"
#include "plan/plan.hpp"
#include "proptest.hpp"
#include "rtl/netlist.hpp"
#include "rtl/sim.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace la1::csim {
namespace {

constexpr int kLanes = 64;
constexpr int kCycles = 8;

struct RandomNetlist {
  rtl::Module module{"prop"};
  std::vector<rtl::NetId> inputs;  // excludes the clock
  rtl::MemId mem = rtl::kInvalidId;
  std::uint64_t stream_seed = 0;
};

/// Mostly two-state literal; one in eight carries an X or Z bit so the
/// four-state operator formulas and the sideband slots get exercised.
rtl::ExprId random_literal(rtl::Module& m, util::Rng& rng, int width) {
  rtl::LVec v = rtl::LVec::zeros(width);
  for (int i = 0; i < width; ++i) {
    v.set_bit(i, rng.next_bool() ? rtl::Logic::k1 : rtl::Logic::k0);
  }
  if (rng.below(8) == 0) {
    v.set_bit(static_cast<int>(rng.below(static_cast<std::uint64_t>(width))),
              rng.next_bool() ? rtl::Logic::kX : rtl::Logic::kZ);
  }
  return m.lit(v);
}

/// A pool net viewed at exactly `width` bits: direct reference when the
/// widths match, else a random slice of a wider net.
rtl::ExprId random_leaf(rtl::Module& m, util::Rng& rng,
                        const std::vector<rtl::NetId>& pool, int width) {
  std::vector<rtl::NetId> fits;
  for (rtl::NetId n : pool) {
    if (m.net(n).width >= width) fits.push_back(n);
  }
  if (fits.empty() || rng.below(6) == 0) return random_literal(m, rng, width);
  const rtl::NetId n = fits[rng.below(fits.size())];
  const int nw = m.net(n).width;
  if (nw == width) return m.ref(n);
  const int lo = static_cast<int>(rng.below(static_cast<std::uint64_t>(nw - width + 1)));
  return m.slice(m.ref(n), lo, width);
}

rtl::ExprId random_expr(rtl::Module& m, util::Rng& rng,
                        const std::vector<rtl::NetId>& pool,
                        rtl::MemId mem, int width, int depth) {
  if (depth <= 0 || rng.below(3) == 0) {
    return random_leaf(m, rng, pool, width);
  }
  auto sub = [&](int w, int d) { return random_expr(m, rng, pool, mem, w, d); };
  switch (rng.below(10)) {
    case 0:
      return m.op_not(sub(width, depth - 1));
    case 1:
      return m.op_and(sub(width, depth - 1), sub(width, depth - 1));
    case 2:
      return m.op_or(sub(width, depth - 1), sub(width, depth - 1));
    case 3:
      return m.op_xor(sub(width, depth - 1), sub(width, depth - 1));
    case 4:
      return m.mux(sub(1, depth - 1), sub(width, depth - 1),
                   sub(width, depth - 1));
    case 5:
      return m.add(sub(width, depth - 1), sub(width, depth - 1));
    case 6:
      return m.sub(sub(width, depth - 1), sub(width, depth - 1));
    case 7: {
      if (width < 2) return sub(width, depth - 1);
      const int hi = 1 + static_cast<int>(
                             rng.below(static_cast<std::uint64_t>(width - 1)));
      return m.concat({sub(hi, depth - 1), sub(width - hi, depth - 1)});
    }
    case 8: {
      if (width != 1) return sub(width, depth - 1);
      const int w = 1 + static_cast<int>(rng.below(4));
      switch (rng.below(5)) {
        case 0:
          return m.eq(sub(w, depth - 1), sub(w, depth - 1));
        case 1:
          return m.ne(sub(w, depth - 1), sub(w, depth - 1));
        case 2:
          return m.red_and(sub(w, depth - 1));
        case 3:
          return m.red_or(sub(w, depth - 1));
        default:
          return m.red_xor(sub(w, depth - 1));
      }
    }
    default: {
      // Combinational read port; the 3-bit address over a depth-4 memory
      // also exercises the out-of-range all-X rule.
      if (mem == rtl::kInvalidId || width != 8) return sub(width, depth - 1);
      return m.mem_read(mem, sub(3, depth - 1));
    }
  }
}

RandomNetlist random_netlist(util::Rng& rng) {
  RandomNetlist out;
  rtl::Module& m = out.module;
  const rtl::NetId k = m.input("K", 1);

  const int n_inputs = 2 + static_cast<int>(rng.below(2));
  for (int i = 0; i < n_inputs; ++i) {
    // Always at least one byte-wide input so every leaf width can slice.
    const int w = i == 0 ? 8 : 1 + static_cast<int>(rng.below(8));
    out.inputs.push_back(m.input(util::cat({"I", std::to_string(i)}), w));
  }

  if (rng.below(2) == 0) out.mem = m.memory("M", /*depth=*/4, /*width=*/8);

  std::vector<rtl::NetId> pool = out.inputs;
  std::vector<rtl::NetId> regs;
  const int n_regs = 1 + static_cast<int>(rng.below(3));
  for (int r = 0; r < n_regs; ++r) {
    const int w = 1 + static_cast<int>(rng.below(8));
    if (rng.below(3) == 0) {
      regs.push_back(
          m.reg(util::cat({"R", std::to_string(r)}), w, rtl::LVec::xs(w)));
    } else {
      regs.push_back(m.reg(util::cat({"R", std::to_string(r)}), w,
                           rng.below(1ull << w)));
    }
  }
  pool.insert(pool.end(), regs.begin(), regs.end());

  const rtl::ProcId p = m.process("on_k", k, rtl::Edge::kPos);
  for (rtl::NetId r : regs) {
    m.nonblocking(p, r,
                  random_expr(m, rng, pool, out.mem, m.net(r).width, 2));
  }
  if (out.mem != rtl::kInvalidId) {
    std::vector<rtl::ExprId> bes;
    if (rng.below(2) == 0) bes.push_back(random_expr(m, rng, pool, out.mem, 1, 1));
    m.mem_write(p, out.mem, random_expr(m, rng, pool, out.mem, 3, 2),
                random_expr(m, rng, pool, out.mem, 8, 2),
                random_expr(m, rng, pool, out.mem, 1, 2), bes);
  }

  const int n_wires = 1 + static_cast<int>(rng.below(3));
  for (int w = 0; w < n_wires; ++w) {
    const int width = 1 + static_cast<int>(rng.below(8));
    const rtl::NetId id = m.wire(util::cat({"W", std::to_string(w)}), width);
    m.assign(id, random_expr(m, rng, pool, out.mem, width, 2));
    pool.push_back(id);  // later wires may read earlier ones (still acyclic)
  }

  // Half the netlists get a tristate bus with 1-3 drivers — Z results,
  // resolution clashes and the conflict tap all come from here.
  if (rng.below(2) == 0) {
    const int width = 1 + static_cast<int>(rng.below(4));
    const rtl::NetId bus = m.wire("BUS", width);
    const int drivers = 1 + static_cast<int>(rng.below(3));
    for (int d = 0; d < drivers; ++d) {
      m.tristate(bus, random_expr(m, rng, pool, out.mem, 1, 1),
                 random_expr(m, rng, pool, out.mem, width, 2));
    }
  }

  out.stream_seed = rng.next_u64();
  return out;
}

std::vector<rtl::ClockStep> ddr_schedule(const rtl::Module& m) {
  const rtl::NetId k = m.find_net("K");
  // The negative edge has no process: it exercises the machine's
  // no-matching-step path (only the clock net moves).
  return {{k, rtl::Edge::kPos}, {k, rtl::Edge::kNeg}};
}

/// All 64 interpreter replays and the one compiled machine, advanced and
/// compared together.
struct Lockstep {
  const RandomNetlist* t;
  const plan::CompilePlan* plan;
  Machine* machine;
  std::vector<rtl::CycleSim>* sims;  // one per lane
  std::vector<util::Rng>* streams;   // one stimulus stream per lane

  bool drive_inputs() {
    for (int lane = 0; lane < kLanes; ++lane) {
      util::Rng& rng = (*streams)[static_cast<std::size_t>(lane)];
      for (rtl::NetId in : t->inputs) {
        const int w = t->module.net(in).width;
        rtl::LVec v = rtl::LVec::zeros(w);
        for (int i = 0; i < w; ++i) {
          v.set_bit(i, rng.next_bool() ? rtl::Logic::k1 : rtl::Logic::k0);
        }
        (*sims)[static_cast<std::size_t>(lane)].set_input(in, v);
        machine->set_input_lane(in, lane, v);
      }
    }
    return true;
  }

  bool agree(int cycle) {
    const rtl::Module& m = t->module;
    for (int lane = 0; lane < kLanes; ++lane) {
      const rtl::CycleSim& sim = (*sims)[static_cast<std::size_t>(lane)];
      for (rtl::NetId net = 0; net < m.net_count(); ++net) {
        const rtl::LVec expect = sim.get(net);
        const rtl::LVec got = machine->get(net, lane);
        for (int b = 0; b < expect.width(); ++b) {
          if (expect.bit(b) != got.bit(b)) return false;
          // The plan's settle promise, checked against the compiled run:
          // x-transient bits are two-state once their net's proven depth
          // has passed (NetSafetySummary keeps the per-net worst depth).
          const auto& summary = plan->nets[static_cast<std::size_t>(net)];
          if (summary.classes[static_cast<std::size_t>(b)] == 'T' &&
              cycle >= summary.settle &&
              (got.bit(b) == rtl::Logic::kX || got.bit(b) == rtl::Logic::kZ)) {
            return false;
          }
        }
        if (machine->bus_conflict(net, lane) !=
            (sim.enabled_drivers(net) >= 2)) {
          return false;
        }
      }
      if (t->mem != rtl::kInvalidId) {
        for (std::uint64_t a = 0; a < 4; ++a) {
          const rtl::LVec expect = sim.mem_word(t->mem, a);
          const rtl::LVec got = machine->mem_word(t->mem, a, lane);
          for (int b = 0; b < expect.width(); ++b) {
            if (expect.bit(b) != got.bit(b)) return false;
          }
        }
      }
    }
    return true;
  }
};

bool compiled_matches_interpreter(const RandomNetlist& t) {
  const rtl::Module& m = t.module;
  const std::vector<rtl::ClockStep> schedule = ddr_schedule(m);
  plan::PlanOptions popt;
  popt.schedule = schedule;
  const plan::CompilePlan plan = plan::analyze(m, popt);
  const Compiled compiled = compile(m, plan);
  Machine machine(compiled, kLanes);

  std::vector<rtl::CycleSim> sims;
  std::vector<util::Rng> streams;
  for (int lane = 0; lane < kLanes; ++lane) {
    sims.emplace_back(m);
    streams.emplace_back(t.stream_seed ^
                         (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(lane) + 1)));
  }
  Lockstep ls{&t, &plan, &machine, &sims, &streams};

  ls.drive_inputs();
  for (auto& sim : sims) sim.set_input_bit("K", false);
  machine.set_input_bit("K", false);
  for (auto& sim : sims) sim.eval();
  machine.eval();
  if (!ls.agree(0)) return false;

  for (int cycle = 1; cycle <= kCycles; ++cycle) {
    ls.drive_inputs();
    for (const rtl::ClockStep& s : schedule) {
      for (auto& sim : sims) sim.edge(s.clock, s.edge);
      machine.edge(s.clock, s.edge);
      if (!ls.agree(cycle)) return false;
    }
  }
  return true;
}

TEST(CsimParity, SixtyFourLanesMatchFreshCycleSims) {
  const auto result = proptest::check<RandomNetlist>(
      /*seed=*/20260808, /*cases=*/200,
      [](util::Rng& rng) { return random_netlist(rng); },
      [](const RandomNetlist& t) { return compiled_matches_interpreter(t); });
  EXPECT_TRUE(result.ok) << "case " << result.failing_case
                         << " diverged from CycleSim (seed " << result.seed
                         << ")";
  EXPECT_EQ(result.cases_run, 200);
}

// The >64-bit ripple path: value bits above 63 are dropped by vec_add's
// uint64 arithmetic, and the compiled adder must reproduce exactly that.
TEST(CsimParity, WideAddTruncatesLikeInterpreter) {
  rtl::Module m("wide");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId a = m.input("A", 66);
  const rtl::NetId b = m.input("B", 66);
  const rtl::NetId s = m.reg("S", 66, std::uint64_t{0});
  const rtl::ProcId p = m.process("on_k", k, rtl::Edge::kPos);
  m.nonblocking(p, s, m.add(m.ref(a), m.ref(b)));
  m.assign(m.wire("D", 66), m.sub(m.ref(s), m.ref(b)));

  const Compiled compiled = compile(m, plan::default_schedule(m));
  Machine machine(compiled, 1);
  rtl::CycleSim sim(m);
  util::Rng rng(7);
  for (int round = 0; round < 16; ++round) {
    for (rtl::NetId in : {a, b}) {
      rtl::LVec v = rtl::LVec::zeros(66);
      for (int i = 0; i < 66; ++i) {
        v.set_bit(i, rng.next_bool() ? rtl::Logic::k1 : rtl::Logic::k0);
      }
      sim.set_input(in, v);
      machine.set_input(in, v);
    }
    sim.set_input_bit("K", false);
    machine.set_input_bit("K", false);
    sim.edge(k, rtl::Edge::kPos);
    machine.edge(k, rtl::Edge::kPos);
    for (rtl::NetId net = 0; net < m.net_count(); ++net) {
      const rtl::LVec expect = sim.get(net);
      const rtl::LVec got = machine.get(net, 0);
      for (int i = 0; i < expect.width(); ++i) {
        ASSERT_EQ(expect.bit(i), got.bit(i))
            << m.net(net).name << " bit " << i << " round " << round;
      }
    }
  }
}

TEST(CsimParity, MismatchedPlanThrows) {
  rtl::Module m("a");
  m.input("K", 1);
  const rtl::NetId r = m.reg("R", 2, std::uint64_t{0});
  const rtl::ProcId p = m.process("on_k", m.find_net("K"), rtl::Edge::kPos);
  m.nonblocking(p, r, m.op_not(m.ref(r)));

  rtl::Module other("b");
  other.input("K", 1);
  const rtl::NetId r2 = other.reg("R", 3, std::uint64_t{0});
  const rtl::ProcId p2 =
      other.process("on_k", other.find_net("K"), rtl::Edge::kPos);
  other.nonblocking(p2, r2, other.op_not(other.ref(r2)));

  const plan::CompilePlan wrong = plan::analyze(other);
  EXPECT_THROW(compile(m, wrong), std::invalid_argument);
}

TEST(CsimParity, XInputOnProvenBitThrows) {
  rtl::Module m("x");
  m.input("K", 1);
  const rtl::NetId i = m.input("I", 1);
  const rtl::NetId r = m.reg("R", 1, std::uint64_t{0});
  const rtl::ProcId p = m.process("on_k", m.find_net("K"), rtl::Edge::kPos);
  m.nonblocking(p, r, m.ref(i));

  const Compiled compiled = compile(m);
  Machine machine(compiled, 1);
  EXPECT_THROW(machine.set_input(i, rtl::LVec::xs(1)), std::invalid_argument);
}

}  // namespace
}  // namespace la1::csim
