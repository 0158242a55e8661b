#include "plan/fixtures.hpp"

#include <algorithm>
#include <utility>

namespace la1::plan {
namespace {

/// A register samples a tristate bus that floats whenever its one driver
/// is off: the bus is x-live (Z recurs in steady state) and sits on the
/// register's next-state path.
rtl::Module x_live_hotpath_model() {
  rtl::Module m("plan_x_live_hotpath");
  const rtl::NetId clk = m.input("K", 1);
  const rtl::NetId en = m.input("en", 1);
  const rtl::NetId d = m.input("d", 1);
  const rtl::NetId bus = m.wire("bus", 1);
  const rtl::NetId r = m.reg("r", 1, 0);
  m.tristate(bus, m.ref(en), m.ref(d));
  const rtl::ProcId p = m.process("ff", clk, rtl::Edge::kPos);
  m.nonblocking(p, r, m.ref(bus));
  return m;
}

/// Two write ports on one SRAM, same clock edge, independent enables: the
/// lowered single-port store would drop one of the colliding writes.
rtl::Module port_conflict_model() {
  rtl::Module m("plan_port_conflict");
  const rtl::NetId clk = m.input("K", 1);
  const rtl::NetId we0 = m.input("we0", 1);
  const rtl::NetId we1 = m.input("we1", 1);
  const rtl::NetId addr = m.input("addr", 1);
  const rtl::NetId d = m.input("d", 1);
  const rtl::MemId mem = m.memory("sram", 2, 1);
  const rtl::ProcId p = m.process("wr", clk, rtl::Edge::kPos);
  m.mem_write(p, mem, m.ref(addr), m.ref(d), m.ref(we0));
  m.mem_write(p, mem, m.ref(addr), m.op_not(m.ref(d)), m.ref(we1));
  return m;
}

/// A tristate enable fed by an X-reset register nothing ever assigns: the
/// enable is X forever, so the bus has no lowerable select chain.
rtl::Module tristate_lower_model() {
  rtl::Module m("plan_tristate_lower");
  const rtl::NetId clk = m.input("K", 1);
  const rtl::NetId d = m.input("d", 1);
  const rtl::NetId xen = m.reg("xen", 1, rtl::LVec::xs(1));
  const rtl::NetId bus = m.wire("bus", 1);
  const rtl::NetId out = m.output("OUT", 1);
  const rtl::NetId r = m.reg("r", 1, 0);
  m.tristate(bus, m.ref(xen), m.ref(d));
  m.assign(out, m.ref(bus));
  const rtl::ProcId p = m.process("ff", clk, rtl::Edge::kPos);
  m.nonblocking(p, r, m.ref(d));
  return m;
}

/// A clean two-level combinational chain; the defect is not in the netlist
/// but in the *emitted order* — sched_diverge() validates a permutation
/// that evaluates the dependent node first.
rtl::Module sched_diverge_model() {
  rtl::Module m("plan_sched_diverge");
  const rtl::NetId a = m.input("a", 1);
  const rtl::NetId w1 = m.wire("w1", 1);
  const rtl::NetId w2 = m.output("w2", 1);
  m.assign(w1, m.op_not(m.ref(a)));
  m.assign(w2, m.op_not(m.ref(w1)));
  return m;
}

CompilePlan sched_diverge() {
  const rtl::Module m = sched_diverge_model();
  CompilePlan p = analyze(m);
  // A planner bug that emits the order backwards: w2 before its
  // dependency w1.
  rtl::TopoSchedule sched = rtl::topo_schedule(m);
  std::reverse(sched.nodes.begin(), sched.nodes.end());
  p.findings.merge(check_schedule_order(m, sched.nodes));
  return p;
}

}  // namespace

const std::vector<lint::Defect<CompilePlan>>& injected_defects() {
  static const std::vector<lint::Defect<CompilePlan>> kDefects = {
      {"x-live-hotpath", kRuleXLiveHotpath,
       [] { return analyze(x_live_hotpath_model()); }},
      {"port-conflict", kRulePortConflict,
       [] { return analyze(port_conflict_model()); }},
      {"tristate-lower", kRuleTristateLower,
       [] { return analyze(tristate_lower_model()); }},
      {"sched-diverge", kRuleSchedDiverge, sched_diverge},
  };
  return kDefects;
}

}  // namespace la1::plan
