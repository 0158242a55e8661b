#include <gtest/gtest.h>

#include "rtl/netlist.hpp"
#include "rtl/sim.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace la1::rtl {
namespace {

/// A 4-bit counter with enable.
Module counter_module() {
  Module m("counter");
  const NetId clk = m.input("clk", 1);
  const NetId en = m.input("en", 1);
  const NetId q = m.output("q", 4);
  const NetId r = m.reg("r", 4, 0u);
  const ProcId p = m.process("p", clk, Edge::kPos);
  m.nonblocking(p, r,
                m.mux(m.ref(en), m.add(m.ref(r), m.lit_uint(1, 4)), m.ref(r)));
  m.assign(q, m.ref(r));
  return m;
}

TEST(CycleSim, CounterCounts) {
  const Module m = counter_module();
  CycleSim sim(m);
  sim.set_input_bit("en", true);
  for (int i = 0; i < 5; ++i) sim.edge("clk", Edge::kPos);
  EXPECT_EQ(sim.get_uint("q"), 5u);
  sim.set_input_bit("en", false);
  sim.edge("clk", Edge::kPos);
  EXPECT_EQ(sim.get_uint("q"), 5u);
  EXPECT_EQ(sim.edges_applied(), 6u);
}

TEST(CycleSim, CounterWraps) {
  const Module m = counter_module();
  CycleSim sim(m);
  sim.set_input_bit("en", true);
  for (int i = 0; i < 20; ++i) sim.edge("clk", Edge::kPos);
  EXPECT_EQ(sim.get_uint("q"), 4u);  // 20 mod 16
}

TEST(CycleSim, NonblockingSwapSemantics) {
  // Two registers exchanging values every cycle must swap, not duplicate.
  Module m("swap");
  const NetId clk = m.input("clk", 1);
  const NetId a = m.reg("a", 4, 1u);
  const NetId b = m.reg("b", 4, 2u);
  const ProcId p = m.process("p", clk, Edge::kPos);
  m.nonblocking(p, a, m.ref(b));
  m.nonblocking(p, b, m.ref(a));
  CycleSim sim(m);
  sim.edge("clk", Edge::kPos);
  EXPECT_EQ(*sim.get(a).to_uint(), 2u);
  EXPECT_EQ(*sim.get(b).to_uint(), 1u);
  sim.edge("clk", Edge::kPos);
  EXPECT_EQ(*sim.get(a).to_uint(), 1u);
}

TEST(CycleSim, UndrivenInputIsX) {
  const Module m = counter_module();
  CycleSim sim(m);
  // en never driven: register becomes X after the first edge (mux on X).
  sim.edge("clk", Edge::kPos);
  EXPECT_FALSE(sim.get("q").to_uint().has_value());
}

TEST(CycleSim, TristateResolution) {
  Module m("bus");
  const NetId en0 = m.input("en0", 1);
  const NetId en1 = m.input("en1", 1);
  const NetId d0 = m.input("d0", 4);
  const NetId d1 = m.input("d1", 4);
  const NetId bus = m.output("bus", 4);
  m.tristate(bus, m.ref(en0), m.ref(d0));
  m.tristate(bus, m.ref(en1), m.ref(d1));
  CycleSim sim(m);
  sim.set_input("d0", 0x5);
  sim.set_input("d1", 0xA);

  sim.set_input_bit("en0", true);
  sim.set_input_bit("en1", false);
  sim.eval();
  EXPECT_EQ(sim.get_uint("bus"), 0x5u);
  EXPECT_EQ(sim.enabled_drivers(bus), 1);

  sim.set_input_bit("en0", false);
  sim.set_input_bit("en1", false);
  sim.eval();
  EXPECT_TRUE(sim.get("bus").all_z());
  EXPECT_EQ(sim.enabled_drivers(bus), 0);

  sim.set_input_bit("en0", true);
  sim.set_input_bit("en1", true);
  sim.eval();
  EXPECT_EQ(sim.enabled_drivers(bus), 2);
  EXPECT_TRUE(sim.get("bus").has_x());  // conflicting bits
}

TEST(CycleSim, CombinationalChainsLevelize) {
  Module m("chain");
  const NetId in = m.input("in", 8);
  NetId prev = in;
  // Declare wires in reverse dependency order to force the levelizer to sort.
  std::vector<NetId> wires;
  for (int i = 0; i < 4; ++i) {
    wires.push_back(m.wire(util::cat({"w", std::to_string(i)}), 8));
  }
  for (int i = 3; i >= 0; --i) {
    m.assign(wires[static_cast<std::size_t>(i)],
             m.add(m.ref(i == 3 ? in : wires[static_cast<std::size_t>(i + 1)]),
                   m.lit_uint(1, 8)));
    (void)prev;
  }
  const NetId out = m.output("out", 8);
  m.assign(out, m.ref(wires[0]));
  CycleSim sim(m);
  sim.set_input("in", 10);
  sim.eval();
  EXPECT_EQ(sim.get_uint("out"), 14u);
}

TEST(CycleSim, CombinationalCycleDetected) {
  Module m("loop");
  const NetId a = m.wire("a", 1);
  const NetId b = m.wire("b", 1);
  m.assign(a, m.op_not(m.ref(b)));
  m.assign(b, m.op_not(m.ref(a)));
  EXPECT_THROW(CycleSim sim(m), std::invalid_argument);
}

TEST(CycleSim, MemoryReadWrite) {
  Module m("memtest");
  const NetId clk = m.input("clk", 1);
  const NetId addr = m.input("addr", 2);
  const NetId din = m.input("din", 8);
  const NetId wen = m.input("wen", 1);
  const NetId dout = m.output("dout", 8);
  const MemId mem = m.memory("mem", 4, 8);
  const ProcId p = m.process("p", clk, Edge::kPos);
  m.mem_write(p, mem, m.ref(addr), m.ref(din), m.ref(wen));
  m.assign(dout, m.mem_read(mem, m.ref(addr)));

  CycleSim sim(m);
  sim.set_input("addr", 2);
  sim.set_input("din", 0x7e);
  sim.set_input_bit("wen", true);
  sim.edge("clk", Edge::kPos);
  sim.set_input_bit("wen", false);
  sim.eval();
  EXPECT_EQ(sim.get_uint("dout"), 0x7eu);
  sim.set_input("addr", 1);
  sim.eval();
  EXPECT_EQ(sim.get_uint("dout"), 0u);  // other words untouched
  EXPECT_EQ(*sim.mem_word(mem, 2).to_uint(), 0x7eu);
}

TEST(CycleSim, MemoryByteEnables) {
  Module m("memtest");
  const NetId clk = m.input("clk", 1);
  const NetId addr = m.input("addr", 1);
  const NetId din = m.input("din", 16);
  const NetId wen = m.input("wen", 1);
  const NetId be0 = m.input("be0", 1);
  const NetId be1 = m.input("be1", 1);
  const MemId mem = m.memory("mem", 2, 16);
  const ProcId p = m.process("p", clk, Edge::kPos);
  m.mem_write(p, mem, m.ref(addr), m.ref(din), m.ref(wen),
              {m.ref(be0), m.ref(be1)});

  CycleSim sim(m);
  sim.poke_mem(mem, 0, LVec::from_uint(0x1122, 16));
  sim.set_input("addr", 0);
  sim.set_input("din", 0xaabb);
  sim.set_input_bit("wen", true);
  sim.set_input_bit("be0", true);   // low byte only
  sim.set_input_bit("be1", false);
  sim.edge("clk", Edge::kPos);
  EXPECT_EQ(*sim.mem_word(mem, 0).to_uint(), 0x11bbu);
}

TEST(CycleSim, DualClockProcesses) {
  Module m("ddr");
  const NetId k = m.input("k", 1);
  const NetId ks = m.input("ks", 1);
  const NetId cnt_k = m.reg("cnt_k", 4, 0u);
  const NetId cnt_ks = m.reg("cnt_ks", 4, 0u);
  const ProcId pk = m.process("pk", k, Edge::kPos);
  m.nonblocking(pk, cnt_k, m.add(m.ref(cnt_k), m.lit_uint(1, 4)));
  const ProcId pks = m.process("pks", ks, Edge::kPos);
  m.nonblocking(pks, cnt_ks, m.add(m.ref(cnt_ks), m.lit_uint(1, 4)));
  CycleSim sim(m);
  for (int i = 0; i < 3; ++i) {
    sim.edge("k", Edge::kPos);
    sim.edge("ks", Edge::kPos);
  }
  sim.edge("k", Edge::kPos);
  EXPECT_EQ(*sim.get(cnt_k).to_uint(), 4u);
  EXPECT_EQ(*sim.get(cnt_ks).to_uint(), 3u);
}

TEST(CycleSim, NegEdgeProcess) {
  Module m("neg");
  const NetId clk = m.input("clk", 1);
  const NetId cnt = m.reg("cnt", 4, 0u);
  const ProcId p = m.process("p", clk, Edge::kNeg);
  m.nonblocking(p, cnt, m.add(m.ref(cnt), m.lit_uint(1, 4)));
  CycleSim sim(m);
  sim.edge("clk", Edge::kPos);
  EXPECT_EQ(*sim.get(cnt).to_uint(), 0u);
  sim.edge("clk", Edge::kNeg);
  EXPECT_EQ(*sim.get(cnt).to_uint(), 1u);
}

TEST(CycleSim, RequiresFlatModule) {
  Module child("c");
  child.input("a", 1);
  Module top("t");
  const NetId w = top.wire("w", 1);
  top.instantiate("u", child, {{"a", w}});
  EXPECT_THROW(CycleSim sim(top), std::invalid_argument);
}

}  // namespace
}  // namespace la1::rtl
