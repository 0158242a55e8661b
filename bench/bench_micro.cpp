// Micro-benchmarks of the substrate layers (google-benchmark): kernel
// delta-cycle throughput, RTL cycle simulation, compiled-simulation edges,
// BDD operations, PSL monitor stepping and determinization, one small
// symbolic check, ASM rule firing. These give the per-operation costs
// behind the table-level results.
#include <benchmark/benchmark.h>

#include <array>
#include <stdexcept>
#include <vector>

#include "asml/machine.hpp"
#include "bdd/bdd.hpp"
#include "csim/compile.hpp"
#include "csim/machine.hpp"
#include "dfa/sweep.hpp"
#include "harness/adapters.hpp"
#include "harness/stimulus.hpp"
#include "la1/asm_model.hpp"
#include "la1/behavioral.hpp"
#include "la1/host_bfm.hpp"
#include "la1/rtl_model.hpp"
#include "mc/symbolic.hpp"
#include "psl/dfa.hpp"
#include "psl/monitor.hpp"
#include "psl/parse.hpp"
#include "rtl/bitblast.hpp"
#include "rtl/logic.hpp"
#include "rtl/sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace la1;

void BM_KernelSignalToggle(benchmark::State& state) {
  sim::Kernel kernel;
  sim::Signal<int> sig(kernel, "s", 0);
  int hits = 0;
  auto& proc = kernel.create_process("p", [&] { ++hits; });
  proc.dont_initialize();
  sig.changed_event().subscribe(proc);
  int v = 0;
  sim::Time t = 0;
  for (auto _ : state) {
    sig.write(++v);
    kernel.run(++t);
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_KernelSignalToggle);

void BM_BehavioralTick(benchmark::State& state) {
  core::Config cfg;
  cfg.banks = static_cast<int>(state.range(0));
  cfg.addr_bits = 8;
  core::KernelHarness h(cfg);
  util::Rng rng(3);
  h.host().push_random(rng, 1 << 20);
  for (auto _ : state) h.run_ticks(1);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BehavioralTick)->Arg(1)->Arg(4)->Arg(8);

void BM_RtlEdge(benchmark::State& state) {
  core::RtlConfig cfg;
  cfg.banks = static_cast<int>(state.range(0));
  cfg.data_bits = 16;
  cfg.mem_addr_bits = 4;
  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = dev.flatten();
  rtl::CycleSim sim(flat);
  sim.set_input_bit("R_n", false);
  sim.set_input_bit("W_n", true);
  sim.set_input("A", 1);
  sim.set_input("D", 0);
  sim.set_input("BWE_n", (1u << cfg.lanes()) - 1);
  int tick = 0;
  for (auto _ : state) {
    sim.edge(tick % 2 == 0 ? "K" : "KS", rtl::Edge::kPos);
    ++tick;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RtlEdge)->Arg(1)->Arg(4)->Arg(8);

// One four-state vector operation on random 0/1/X/Z operands, written into
// a reused result: the inner step of every interpreted RTL expression.
// Arg: width — 16 is a data beat, 130 spans three plane words.
template <typename Op>
void lvec_op(benchmark::State& state, Op op) {
  const int width = static_cast<int>(state.range(0));
  util::Rng rng(11);
  const auto random = [&] {
    rtl::LVec v(width);
    for (int i = 0; i < width; ++i) {
      v.set_bit(i, static_cast<rtl::Logic>(rng.below(4)));
    }
    return v;
  };
  const rtl::LVec a = random();
  const rtl::LVec b = random();
  rtl::LVec out;
  for (auto _ : state) {
    op(out, a, b);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_LVecAnd(benchmark::State& state) {
  lvec_op(state, [](rtl::LVec& o, const rtl::LVec& a, const rtl::LVec& b) {
    rtl::vec_and(o, a, b);
  });
}
BENCHMARK(BM_LVecAnd)->Arg(16)->Arg(130);

void BM_LVecMuxXSelect(benchmark::State& state) {
  lvec_op(state, [](rtl::LVec& o, const rtl::LVec& a, const rtl::LVec& b) {
    rtl::vec_mux(o, rtl::Logic::kX, a, b);
  });
}
BENCHMARK(BM_LVecMuxXSelect)->Arg(16)->Arg(130);

void BM_LVecResolve(benchmark::State& state) {
  lvec_op(state, [](rtl::LVec& o, const rtl::LVec& a, const rtl::LVec& b) {
    rtl::vec_resolve(o, a, b);
  });
}
BENCHMARK(BM_LVecResolve)->Arg(16)->Arg(130);

// One interpreted clock edge of the 4-bank device under the Table-3 traffic:
// RtlDeviceModel::apply_edge, the call perfbench's rtl.cyclesim_ns times,
// with the stimulus and transactor work done before the timed loop.
void BM_CycleSimEdge(benchmark::State& state) {
  core::RtlConfig cfg;
  cfg.banks = 4;
  cfg.data_bits = 16;
  harness::StimulusOptions so;
  so.banks = cfg.banks;
  so.mem_addr_bits = cfg.mem_addr_bits;
  so.data_bits = cfg.data_bits;
  harness::StimulusStream stream(so, 7);
  harness::Transactor tx(stream.geometry());
  std::vector<harness::EdgePins> pins;
  for (int t = 0; t < 4096; ++t) {
    const harness::Edge edge = harness::edge_of_tick(t);
    if (edge == harness::Edge::kK) tx.enqueue(stream.next());
    pins.push_back(tx.next(edge));
  }
  harness::RtlDeviceModel model(cfg);
  std::size_t at = 0;
  for (auto _ : state) {
    if (at == pins.size()) {
      state.PauseTiming();
      model.reset();
      at = 0;
      state.ResumeTiming();
    }
    model.apply_edge(pins[at++]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CycleSimEdge);

// One compiled clock edge with every active lane driven separately through
// set_input_lane_uint — the per-tick path of a 64-stream run. Args: banks,
// active lanes. Time per iteration is the cost of one edge (drive included)
// for all lanes together; the 1-lane rows track the lane-by-lane paths the
// Machine keeps below its transpose crossovers.
void BM_CsimEdge(benchmark::State& state) {
  core::RtlConfig cfg;
  cfg.banks = static_cast<int>(state.range(0));
  cfg.mem_addr_bits = 8 - cfg.bank_bits();
  const int lanes = static_cast<int>(state.range(1));
  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = dev.flatten();
  const csim::Compiled compiled = csim::compile(flat, core::clock_schedule(flat));
  csim::Machine machine(compiled, lanes);
  const rtl::NetId k = flat.find_net("K");
  const rtl::NetId ks = flat.find_net("KS");
  const std::array<rtl::NetId, 5> pins = {
      flat.find_net("R_n"), flat.find_net("W_n"), flat.find_net("A"),
      flat.find_net("D"), flat.find_net("BWE_n")};

  // Random two-state pin values, 64 edges per lane, replayed cyclically.
  constexpr int kEdges = 64;
  util::Rng rng(11);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < kEdges * lanes; ++i) {
    for (const rtl::NetId pin : pins) {
      const int width = flat.net(pin).width;
      values.push_back(rng.next_u64() & (width >= 64 ? ~0ull : (1ull << width) - 1));
    }
  }
  machine.set_input_bit("K", false);
  machine.set_input_bit("KS", false);
  int edge = 0;
  for (auto _ : state) {
    const std::uint64_t* v =
        values.data() + static_cast<std::size_t>(edge % kEdges) *
                            static_cast<std::size_t>(lanes) * pins.size();
    for (int lane = 0; lane < lanes; ++lane) {
      for (const rtl::NetId pin : pins) machine.set_input_lane_uint(pin, lane, *v++);
    }
    machine.edge(edge % 2 == 0 ? k : ks, rtl::Edge::kPos);
    benchmark::ClobberMemory();
    ++edge;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["stream_edges_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * lanes,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CsimEdge)->ArgsProduct({{1, 4}, {1, 64}});

void BM_BddIte(benchmark::State& state) {
  // ITE of moderate, linear-sized functions (XOR chains): measures the
  // descent + computed-table path without the exponential blowup random
  // compositions would cause.
  bdd::Manager m(32);
  bdd::NodeId f = bdd::kFalse;
  bdd::NodeId g = bdd::kFalse;
  for (int v = 0; v < 32; v += 2) f = m.apply_xor(f, m.var(v));
  for (int v = 1; v < 32; v += 2) g = m.apply_xor(g, m.var(v));
  int i = 0;
  for (auto _ : state) {
    bdd::NodeId r = m.ite(m.var(i), f, g);
    benchmark::DoNotOptimize(r);
    i = (i + 1) % 32;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BddIte);

void BM_MonitorStep(benchmark::State& state) {
  const auto prop =
      psl::parse_property("always (a -> next[4] b)");
  auto monitor = psl::compile(prop);
  monitor->reset();
  psl::MapEnv env;
  util::Rng rng(5);
  for (auto _ : state) {
    env.set("a", rng.next_bool());
    env.set("b", true);
    monitor->step(env);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorStep);

/// The 4-bank catalog row P1_read_latency_b0, as the RTL observes it.
psl::PropPtr p1_row_4_banks() {
  for (const auto& [name, prop] :
       core::rtl_properties(core::RtlConfig::model_checking(4))) {
    if (name == "P1_read_latency_b0") return prop;
  }
  throw std::logic_error("no P1_read_latency_b0 row");
}

/// Determinizing a property into its observer table, which every property
/// check pays once. Arg 0: P1_read_latency_b0 at 4 banks; arg 1: the
/// Table-2 read-mode property (bank 0's P1 and P2).
void BM_Determinize(benchmark::State& state) {
  const psl::PropPtr prop =
      state.range(0) == 0
          ? p1_row_4_banks()
          : core::rtl_read_mode_property(core::RtlConfig::model_checking(1));
  for (auto _ : state) {
    const psl::DfaTable table = psl::determinize(prop);
    benchmark::DoNotOptimize(table.next.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Determinize)->Arg(0)->Arg(1);

/// One property-overload check of P1_read_latency_b0 on the 4-bank RTL
/// under the semantic cone, with the sweep's invariants (seed 7) passed
/// in: lint, determinization, cone, encoding and reachability. The unit of
/// perfbench's mc-table2 suite, whose BDDs are small enough that the fixed
/// cost of a check shows.
void BM_SmallCheck(benchmark::State& state) {
  const core::RtlConfig cfg = core::RtlConfig::model_checking(4);
  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = dev.flatten();
  const rtl::BitBlast bb =
      rtl::bitblast(rtl::expand_memories(flat), core::clock_schedule(flat));
  dfa::SweepOptions sweep;
  sweep.seed = 7;
  const dfa::InvariantSet invariants = dfa::sweep(bb, sweep);
  mc::SymbolicOptions opt;
  opt.use_coi = true;
  opt.invariants = &invariants;
  const psl::PropPtr prop = p1_row_4_banks();
  for (auto _ : state) {
    const mc::SymbolicResult r = mc::check(bb, prop, opt);
    benchmark::DoNotOptimize(r.peak_bdd_nodes);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SmallCheck);

void BM_AsmRuleFire(benchmark::State& state) {
  core::AsmConfig cfg;
  cfg.banks = static_cast<int>(state.range(0));
  const asml::Machine machine = core::build_asm_model(cfg);
  asml::State s = machine.initial();
  s = machine.fire(machine.rule("SystemStart"), {}, s);
  s = machine.fire(machine.rule("SimManager_Init"), {}, s);
  util::Rng rng(1);
  int phase = 0;
  for (auto _ : state) {
    if (phase == 0) {
      const asml::Args args{
          asml::Value(rng.next_bool()),
          asml::Value(static_cast<int>(
              rng.below(static_cast<std::uint64_t>(cfg.addr_space())))),
          asml::Value(rng.next_bool()),
          asml::Value(static_cast<int>(
              rng.below(static_cast<std::uint64_t>(cfg.data_values))))};
      s = machine.fire(machine.rule("TickK"), args, s);
    } else {
      const asml::Args args{
          asml::Value(static_cast<int>(
              rng.below(static_cast<std::uint64_t>(cfg.addr_space())))),
          asml::Value(static_cast<int>(
              rng.below(static_cast<std::uint64_t>(cfg.data_values))))};
      s = machine.fire(machine.rule("TickKs"), args, s);
    }
    phase ^= 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AsmRuleFire)->Arg(1)->Arg(4);

}  // namespace
