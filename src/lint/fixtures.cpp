#include "lint/fixtures.hpp"

#include "lint/netlist_lint.hpp"
#include "lint/psl_lint.hpp"
#include "lint/seq_lint.hpp"
#include "psl/parse.hpp"

namespace la1::lint {

rtl::Module broken_comb_loop() {
  rtl::Module m("broken_comb_loop");
  const rtl::NetId en = m.input("en", 1);
  const rtl::NetId a = m.wire("a", 1);
  const rtl::NetId b = m.wire("b", 1);
  const rtl::NetId y = m.output("y", 1);
  m.assign(a, m.op_not(m.ref(b)));
  m.assign(b, m.op_and(m.ref(a), m.ref(en)));
  m.assign(y, m.ref(a));
  return m;
}

rtl::Module broken_double_driver() {
  rtl::Module m("broken_double_driver");
  const rtl::NetId en = m.input("en", 1);
  const rtl::NetId d = m.input("d", 4);
  const rtl::NetId bus = m.output("bus", 4);
  m.tristate(bus, m.ref(en), m.ref(d));
  m.assign(bus, m.op_not(m.ref(d)));  // always drives against the tristate
  return m;
}

rtl::Module broken_width_mismatch() {
  rtl::Module m("broken_width_mismatch");
  const rtl::NetId clk = m.input("clk", 1);
  const rtl::NetId addr = m.input("addr", 5);  // depth 8 needs only 3 bits
  const rtl::NetId din = m.input("din", 4);
  const rtl::NetId wen = m.input("wen", 1);
  const rtl::NetId dout = m.output("dout", 4);
  const rtl::MemId mem = m.memory("mem", 8, 4);
  const rtl::ProcId p = m.process("wr", clk, rtl::Edge::kPos);
  m.mem_write(p, mem, m.ref(addr), m.ref(din), m.ref(wen));
  m.assign(dout, m.mem_read(mem, m.ref(addr)));
  return m;
}

rtl::Module broken_missing_reset() {
  rtl::Module m("broken_missing_reset");
  const rtl::NetId clk = m.input("clk", 1);
  const rtl::NetId d = m.input("d", 2);
  const rtl::NetId q = m.output("q", 2);
  const rtl::NetId r = m.reg("r", 2, rtl::LVec::xs(2));
  const rtl::ProcId p = m.process("ff", clk, rtl::Edge::kPos);
  m.nonblocking(p, r, m.ref(d));
  m.assign(q, m.ref(r));
  return m;
}

rtl::Module broken_name_collision() {
  rtl::Module m("broken_name_collision");
  const rtl::NetId a = m.input("bank0.state", 1);  // flattened-style name
  const rtl::NetId b = m.input("bank0_state", 1);  // sanitizes identically
  const rtl::NetId y = m.output("y", 1);
  m.assign(y, m.op_xor(m.ref(a), m.ref(b)));
  return m;
}

rtl::Module broken_stuck_reg() {
  rtl::Module m("broken_stuck_reg");
  const rtl::NetId clk = m.input("clk", 1);
  const rtl::NetId d = m.input("d", 1);
  const rtl::NetId q = m.output("q", 1);
  const rtl::NetId s = m.reg("s", 1, 0u);
  const rtl::ProcId p = m.process("ff", clk, rtl::Edge::kPos);
  m.nonblocking(p, s, m.op_and(m.ref(s), m.ref(d)));  // 0 & d == 0 forever
  m.assign(q, m.ref(s));
  return m;
}

rtl::Module broken_x_reset() {
  rtl::Module m("broken_x_reset");
  const rtl::NetId clk = m.input("clk", 1);
  const rtl::NetId d = m.input("d", 1);
  const rtl::NetId q = m.output("q", 1);
  const rtl::NetId x = m.reg("x", 1, rtl::LVec::xs(1));
  const rtl::ProcId p = m.process("ff", clk, rtl::Edge::kPos);
  m.nonblocking(p, x, m.op_xor(m.ref(x), m.ref(d)));  // X ^ d == X forever
  m.assign(q, m.ref(x));
  return m;
}

rtl::Module broken_dead_logic() {
  rtl::Module m("broken_dead_logic");
  const rtl::NetId clk = m.input("clk", 1);
  const rtl::NetId go = m.input("go", 1);
  const rtl::NetId y = m.output("y", 1);
  const rtl::NetId stop = m.reg("stop", 1, 1u);
  const rtl::NetId dead = m.wire("dead", 1);
  const rtl::ProcId p = m.process("ff", clk, rtl::Edge::kPos);
  m.nonblocking(p, stop, m.op_or(m.ref(stop), m.ref(go)));  // stuck at 1
  m.assign(dead, m.op_and(m.ref(go), m.op_not(m.ref(stop))));
  m.assign(y, m.ref(dead));
  return m;
}

rtl::Module broken_dup_reg() {
  rtl::Module m("broken_dup_reg");
  const rtl::NetId clk = m.input("clk", 1);
  const rtl::NetId d = m.input("d", 1);
  const rtl::NetId en = m.input("en", 1);
  const rtl::NetId y = m.output("y", 1);
  const rtl::NetId p_reg = m.reg("p", 1, 0u);
  const rtl::NetId q_reg = m.reg("q", 1, 0u);
  const rtl::ProcId p = m.process("ff", clk, rtl::Edge::kPos);
  m.nonblocking(p, p_reg, m.op_and(m.ref(d), m.ref(en)));
  m.nonblocking(p, q_reg, m.op_and(m.ref(d), m.ref(en)));
  m.assign(y, m.op_or(m.ref(p_reg), m.ref(q_reg)));  // both read downstream
  return m;
}

std::string broken_unsat_sere_text() {
  // The consequent requires busy && !busy in one cycle: empty language.
  return "{req} |-> {busy && !busy}";
}

std::string broken_missing_net_text() {
  return "always (no_such_request -> next[2] also_not_a_net)";
}

namespace {

/// A small, clean stand-in model the property fixtures are linted against:
/// it has `req` and `busy` but nothing the missing-net fixture samples.
rtl::Module property_target_model() {
  rtl::Module m("property_target");
  const rtl::NetId clk = m.input("clk", 1);
  const rtl::NetId req = m.input("req", 1);
  const rtl::NetId busy = m.reg("busy", 1, 0u);
  const rtl::NetId ack = m.output("ack", 1);
  const rtl::ProcId p = m.process("ctrl", clk, rtl::Edge::kPos);
  m.nonblocking(p, busy, m.ref(req));
  m.assign(ack, m.ref(busy));
  return m;
}

LintReport lint_property_fixture(const std::string& text,
                                 const std::string& name) {
  const rtl::Module model = property_target_model();
  const NetlistSignals signals(model);
  return lint_property(psl::parse_property(text), name, &signals);
}

/// Netlist fixtures run the full analyzer stack — structural AND
/// sequential — mirroring what `la1check lint` + `la1check dfa` gate on.
template <rtl::Module (*Build)()>
LintReport lint_netlist_fixture() {
  const rtl::Module m = Build();
  LintReport report = lint_netlist(m);
  report.merge(lint_sequential(m));
  return report;
}

}  // namespace

const std::vector<Defect<LintReport>>& injected_defects() {
  static const std::vector<Defect<LintReport>> kDefects = {
      {"loop", "NET-COMB-LOOP", lint_netlist_fixture<broken_comb_loop>},
      {"double-driver", "NET-MULTI-DRIVE",
       lint_netlist_fixture<broken_double_driver>},
      {"width-mismatch", "NET-MEM-ADDR",
       lint_netlist_fixture<broken_width_mismatch>},
      {"no-reset", "NET-NO-RESET", lint_netlist_fixture<broken_missing_reset>},
      {"name-collision", "NET-NAME-COLLISION",
       lint_netlist_fixture<broken_name_collision>},
      {"stuck-reg", "NET-CONST", lint_netlist_fixture<broken_stuck_reg>},
      {"x-reset", "NET-X-RESET", lint_netlist_fixture<broken_x_reset>},
      {"dead-logic", "NET-DEAD-LOGIC", lint_netlist_fixture<broken_dead_logic>},
      {"dup-reg", "NET-EQUIV-REG", lint_netlist_fixture<broken_dup_reg>},
      {"unsat-sere", "PSL-UNSAT",
       [] {
         return lint_property_fixture(broken_unsat_sere_text(), "unsat_sere");
       }},
      {"missing-net", "PSL-MISSING-NET",
       [] {
         return lint_property_fixture(broken_missing_net_text(),
                                      "missing_net");
       }},
  };
  return kDefects;
}

}  // namespace la1::lint
