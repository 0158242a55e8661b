#include "flow/fixtures.hpp"

#include "flow/analyze.hpp"
#include "flow/rules.hpp"
#include "psl/temporal.hpp"

namespace la1::flow {

namespace {

using rtl::LVec;

}  // namespace

rtl::Module broken_bank_leak() {
  rtl::Module m("fixture_bank_leak");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId d = m.input("D", 8);
  const rtl::ProcId p = m.process("on_k", k, rtl::Edge::kPos);
  for (int b = 0; b < 2; ++b) {
    const std::string pre = "bank" + std::to_string(b) + ".";
    const rtl::NetId w = m.reg(pre + "w_beat0", 8, 0);
    const rtl::NetId q = m.reg(pre + "dout_q", 8, 0);
    m.nonblocking(p, w, m.ref(d));
    if (b == 0) {
      m.nonblocking(p, q, m.ref(w));
    } else {
      // The defect: bank1's read data mixes in bank0's write beat.
      m.nonblocking(p, q, m.op_xor(m.ref(w), m.ref("bank0.w_beat0")));
    }
  }
  return m;
}

rtl::Module broken_ctrl_in_data() {
  rtl::Module m("fixture_ctrl_in_data");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId r_n = m.input("R_n", 1);
  const rtl::NetId d = m.input("D", 8);
  const rtl::NetId w = m.reg("bank0.w_beat0", 8, 0);
  const rtl::NetId q = m.reg("bank0.dout_q", 8, 0);
  const rtl::ProcId p = m.process("on_k", k, rtl::Edge::kPos);
  m.nonblocking(p, w, m.ref(d));
  // The defect: the R_n control level lands in the low data bit instead of
  // steering a select.
  m.nonblocking(p, q,
                m.concat({m.slice(m.ref(d), 1, 7), m.ref(r_n)}));
  return m;
}

rtl::Module broken_undriven_atom() {
  rtl::Module m("fixture_undriven_atom");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId d = m.input("D", 1);
  // The defect: `free` toggles on its own — nothing any input does can
  // steer it, so a property sampling it is unfalsifiable by stimulus.
  const rtl::NetId free_reg = m.reg("free", 1, 0);
  const rtl::NetId q = m.reg("bank0.dout_q", 1, 0);
  const rtl::ProcId p = m.process("on_k", k, rtl::Edge::kPos);
  m.nonblocking(p, free_reg, m.op_not(m.ref(free_reg)));
  m.nonblocking(p, q, m.ref(d));
  return m;
}

rtl::Module broken_dead_atom() {
  rtl::Module m("fixture_dead_atom");
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId d = m.input("D", 1);
  // The defect: `stuck` re-ands itself into its update — it can never
  // leave its reset value, so the property's atom is a constant.
  const rtl::NetId stuck = m.reg("stuck", 1, 0);
  const rtl::NetId q = m.reg("bank0.dout_q", 1, 0);
  const rtl::ProcId p = m.process("on_k", k, rtl::Edge::kPos);
  m.nonblocking(p, stuck, m.op_and(m.ref(stuck), m.ref(d)));
  m.nonblocking(p, q, m.ref(d));
  return m;
}

const std::vector<lint::Defect<FlowReport>>& injected_defects() {
  static const std::vector<lint::Defect<FlowReport>> kDefects = {
      {"bank-leak", kRuleBankLeak,
       [] { return analyze(broken_bank_leak(), {}); }},
      {"ctrl-in-data", kRuleCtrlInData,
       [] { return analyze(broken_ctrl_in_data(), {}); }},
      {"undriven-atom", kRuleUndrivenAtom,
       [] {
         return analyze(
             broken_undriven_atom(),
             {{"FREE_HIGH", psl::p_always(psl::p_bool(psl::b_sig("free")))}});
       }},
      {"dead-atom", kRuleDeadAtom,
       [] {
         return analyze(broken_dead_atom(),
                        {{"STUCK_LOW", psl::p_always(psl::p_bool(psl::b_not(
                                           psl::b_sig("stuck"))))}});
       }},
  };
  return kDefects;
}

}  // namespace la1::flow
