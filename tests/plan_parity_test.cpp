// Property test: the planner's two-state proof is a semantic guarantee.
// On random small netlists — including X-reset registers and tristate
// buses, the shapes the classification exists for — any bit the planner
// marks proven2state must never read X/Z in a concrete rtl::CycleSim
// replay, and any x-transient bit must be two-state from its proven settle
// depth on, at every intra-cycle observation point. A second property pins
// the schedule side: the canonical topo order must validate against the
// planner's own PLAN-SCHED-DIVERGE rule and agree with the interpreter's
// levelization (CycleSim constructs exactly when the schedule is acyclic).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "plan/plan.hpp"
#include "plan/rules.hpp"
#include "plan/xsafety.hpp"
#include "proptest.hpp"
#include "rtl/netlist.hpp"
#include "rtl/schedule.hpp"
#include "rtl/sim.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace la1::plan {
namespace {

struct RandomNetlist {
  rtl::Module module{"prop"};
  std::vector<rtl::NetId> inputs;  // excludes the clock
  std::uint64_t stream_seed = 0;
};

// Random 1-bit expression over the operands: leaf, not, and, or, xor, mux.
rtl::ExprId random_expr(rtl::Module& m, util::Rng& rng,
                        const std::vector<rtl::NetId>& operands, int depth) {
  if (depth <= 0 || rng.below(3) == 0) {
    if (rng.below(6) == 0) return m.lit_uint(rng.below(2), 1);
    return m.ref(operands[rng.below(operands.size())]);
  }
  switch (rng.below(5)) {
    case 0:
      return m.op_not(random_expr(m, rng, operands, depth - 1));
    case 1:
      return m.op_and(random_expr(m, rng, operands, depth - 1),
                      random_expr(m, rng, operands, depth - 1));
    case 2:
      return m.op_or(random_expr(m, rng, operands, depth - 1),
                     random_expr(m, rng, operands, depth - 1));
    case 3:
      return m.op_xor(random_expr(m, rng, operands, depth - 1),
                      random_expr(m, rng, operands, depth - 1));
    default:
      return m.mux(random_expr(m, rng, operands, depth - 1),
                   random_expr(m, rng, operands, depth - 1),
                   random_expr(m, rng, operands, depth - 1));
  }
}

RandomNetlist random_netlist(util::Rng& rng) {
  RandomNetlist out;
  rtl::Module& m = out.module;
  const rtl::NetId k = m.input("K", 1);
  const int n_inputs = 1 + static_cast<int>(rng.below(3));
  for (int i = 0; i < n_inputs; ++i) {
    out.inputs.push_back(m.input(util::cat({"I", std::to_string(i)}), 1));
  }
  // A mix of defined and X resets: the X ones are what the transient/live
  // split has to get right.
  std::vector<rtl::NetId> regs;
  const int n_regs = 1 + static_cast<int>(rng.below(3));
  for (int r = 0; r < n_regs; ++r) {
    if (rng.below(3) == 0) {
      regs.push_back(
          m.reg(util::cat({"R", std::to_string(r)}), 1, rtl::LVec::xs(1)));
    } else {
      regs.push_back(
          m.reg(util::cat({"R", std::to_string(r)}), 1, rng.below(2)));
    }
  }
  std::vector<rtl::NetId> operands = out.inputs;
  operands.insert(operands.end(), regs.begin(), regs.end());
  const rtl::ProcId p = m.process("on_k", k, rtl::Edge::kPos);
  for (rtl::NetId r : regs) {
    m.nonblocking(p, r, random_expr(m, rng, operands, 2));
  }
  const int n_wires = static_cast<int>(rng.below(3));
  for (int w = 0; w < n_wires; ++w) {
    m.assign(m.wire(util::cat({"W", std::to_string(w)}), 1),
             random_expr(m, rng, operands, 2));
  }
  // Half the netlists get a tristate bus whose enable and payload are
  // arbitrary cones — the canonical x-live producer.
  if (rng.below(2) == 0) {
    m.tristate(m.wire("BUS", 1), random_expr(m, rng, operands, 1),
               random_expr(m, rng, operands, 1));
  }
  out.stream_seed = rng.next_u64();
  return out;
}

std::vector<rtl::ClockStep> ddr_schedule(const rtl::Module& m) {
  const rtl::NetId k = m.find_net("K");
  return {{k, rtl::Edge::kPos}, {k, rtl::Edge::kNeg}};
}

// One concrete replay against the classification: walk `cycles` full clock
// rounds under random two-state inputs and fail if any bit violates its
// class — proven2state bits must never be X/Z, x-transient bits must be
// clean from their settle depth on. Observation points match the abstract
// proof: the reset settle (cycle 0) and after every edge of round c.
bool replay_respects_classification(const RandomNetlist& t, int cycles) {
  const rtl::Module& m = t.module;
  const std::vector<rtl::ClockStep> schedule = ddr_schedule(m);
  PlanOptions opt;
  opt.schedule = schedule;
  const CompilePlan plan = analyze(m, opt);
  const XSafety xs = prove_x_safety(m, schedule);

  rtl::CycleSim sim(m);
  util::Rng rng(t.stream_seed);
  auto clean_at = [&](int cycle) {
    for (rtl::NetId net = 0; net < static_cast<int>(m.nets().size()); ++net) {
      const BitSafety& bs = xs.nets[static_cast<std::size_t>(net)];
      const rtl::LVec& v = sim.get(net);
      for (int b = 0; b < static_cast<int>(bs.cls.size()); ++b) {
        const bool xz =
            v.bit(b) == rtl::Logic::kX || v.bit(b) == rtl::Logic::kZ;
        if (!xz) continue;
        if (bs.cls[static_cast<std::size_t>(b)] == BitClass::kProven2State) {
          return false;
        }
        if (bs.cls[static_cast<std::size_t>(b)] == BitClass::kXTransient &&
            cycle >= bs.settle[static_cast<std::size_t>(b)]) {
          return false;
        }
      }
    }
    return true;
  };

  // The abstract proof pins primary inputs to {0,1} from cycle 0 on: the
  // environment drives them before the reset settle, so the replay does too.
  for (rtl::NetId in : t.inputs) {
    sim.set_input_bit(m.net(in).name, rng.next_bool());
  }
  sim.set_input_bit("K", false);  // the clock idles low before round 1
  sim.eval();
  if (!clean_at(0)) return false;
  for (int cycle = 1; cycle <= cycles; ++cycle) {
    for (rtl::NetId in : t.inputs) {
      sim.set_input_bit(m.net(in).name, rng.next_bool());
    }
    for (const rtl::ClockStep& s : schedule) {
      sim.edge(s.clock, s.edge);
      if (!clean_at(cycle)) return false;
    }
  }
  return plan.cycles_analyzed > 0;  // the proof actually ran
}

// Schedule agreement: the canonical topo order self-validates (no
// PLAN-SCHED-DIVERGE), its deps all point backwards (a genuine topological
// order — the property CycleSim's levelization relies on), and the
// interpreter accepts the netlist exactly when the schedule is acyclic.
bool schedule_agrees_with_interpreter(const RandomNetlist& t) {
  const rtl::Module& m = t.module;
  const rtl::TopoSchedule s = rtl::topo_schedule(m);
  if (!check_schedule_order(m, s.nodes).empty()) return false;
  for (std::size_t i = 0; i < s.deps.size(); ++i) {
    for (int d : s.deps[i]) {
      if (d >= static_cast<int>(i)) return false;
    }
  }
  if (!s.acyclic()) return false;  // the generator never builds comb loops
  rtl::CycleSim sim(m);            // must construct: same order, same graph
  sim.eval();
  return true;
}

TEST(PlanParity, ProvenBitsNeverGoXInReplay) {
  const auto result = proptest::check<RandomNetlist>(
      /*seed=*/20260808, /*cases=*/200,
      [](util::Rng& rng) { return random_netlist(rng); },
      [](const RandomNetlist& t) {
        return replay_respects_classification(t, 12);
      });
  EXPECT_TRUE(result.ok) << "case " << result.failing_case
                         << " broke the two-state proof (seed " << result.seed
                         << ")";
  EXPECT_EQ(result.cases_run, 200);
}

TEST(PlanParity, CanonicalScheduleAgreesWithCycleSim) {
  const auto result = proptest::check<RandomNetlist>(
      /*seed=*/778899, /*cases=*/120,
      [](util::Rng& rng) { return random_netlist(rng); },
      [](const RandomNetlist& t) {
        return schedule_agrees_with_interpreter(t);
      });
  EXPECT_TRUE(result.ok) << "case " << result.failing_case
                         << " diverged on the schedule (seed " << result.seed
                         << ")";
  EXPECT_EQ(result.cases_run, 120);
}

}  // namespace
}  // namespace la1::plan
