// Table 3 — Simulation Results (paper §6.2).
//
// Assertion-based verification of the Reading Mode, two ways:
//   * system level: the behavioural (kernel) model with compiled PSL
//     monitors — the paper's "SystemC + C# assertions" configuration,
//   * RTL level: the synthesizable netlist in the cycle simulator with
//     OVL monitors instantiated as additional design logic — the paper's
//     "Verilog + OVL" configuration.
// Both levels run as harness DeviceModels on the same seeded
// StimulusStream, so the measured work differs only in the level (and its
// monitors), not in the traffic. Reports the average CPU time per clock
// cycle for each and the ratio. The paper's claims: the system-level
// simulation is >= ~20x faster per cycle, and the gap widens with the
// number of banks.
//
// The RTL level runs two ways: the interpreted CycleSim, and the compiled
// bit-parallel backend (src/csim) with 64 independent stimulus streams
// sharing one pass — the per-stream column that shows where campaign-scale
// throughput comes from (one stream alone runs faster interpreted). Lane 0
// runs the interpreter's stream, and the set of OVL monitors that fired on
// it must equal the interpreter's. Stock traffic fires none, so at each
// bank count both paths also run, untimed, on a read_latency = 3 device:
// there the 2-cycle read_latency_b<n> monitors must fire, in the same set
// on both paths. The 64-lane per-stream speedup over the interpreter grows
// with the bank count, so its target is per bank count on the stock
// device: >= 5x at 1 bank, >= 8x at 2, >= 12x at 4 and >= 15x at 8. (The
// CI bar is `la1check csim`'s own >= 10x under `tools/ci.sh --csim`.)
//
//   --banks-list a,b,c   bank counts (default 1,2,4,8)
//   --sc-ticks N         kernel-model half-cycles (default 40000)
//   --rtl-ticks N        RTL half-cycles (default 4000)
//   --seed N             stimulus seed (default 7)
//   --json PATH          write the {bench, params, metrics} report
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "csim/compile.hpp"
#include "csim/machine.hpp"
#include "harness/adapters.hpp"
#include "harness/stimulus.hpp"
#include "la1/behavioral.hpp"
#include "la1/properties.hpp"
#include "la1/rtl_model.hpp"
#include "la1/spec.hpp"
#include "ovl/ovl.hpp"
#include "psl/monitor.hpp"
#include "rtl/sim.hpp"
#include "util/bench_report.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace la1;

constexpr int kAddrBits = 8;

harness::StimulusStream make_stream(int banks, int data_bits,
                                    std::uint64_t seed) {
  harness::StimulusOptions so;
  so.banks = banks;
  so.mem_addr_bits = kAddrBits - harness::Geometry{banks, 0, 0}.bank_bits();
  so.data_bits = data_bits;
  return harness::StimulusStream(so, seed);
}

/// Drives `ticks` half-cycles of stream traffic through the model's
/// transactor, timing only the simulate+monitor loop.
template <typename OnTick>
double drive(harness::DeviceModel& model, harness::StimulusStream& stream,
             int ticks, OnTick&& on_tick) {
  util::CpuStopwatch watch;
  for (int t = 0; t < ticks; ++t) {
    const harness::Edge edge = harness::edge_of_tick(t);
    if (edge == harness::Edge::kK) model.enqueue(stream.next());
    model.tick(edge);
    on_tick();
  }
  return watch.seconds() / (static_cast<double>(ticks) / 2.0);
}

/// CPU seconds per clock cycle for the behavioural model + compiled PSL
/// monitors (the paper compiles its PSL to C# monitor modules; the DFA
/// backend is the equivalent compiled form).
double run_system_level(int banks, int ticks, std::uint64_t seed,
                        std::size_t* failures) {
  core::Config cfg;
  cfg.banks = banks;
  cfg.addr_bits = kAddrBits;
  harness::BehavioralDeviceModel model(cfg);
  harness::StimulusStream stream = make_stream(banks, cfg.data_bits, seed);
  // The Reading Mode: catalog rows P1/P2 of every bank and P4.
  psl::VUnit vunit("read_mode");
  for (auto& [name, prop] : core::level_suite(
           core::Level::kBehavioural, banks, cfg.latency_ticks())) {
    if (name.rfind("P1_", 0) == 0 || name.rfind("P2_", 0) == 0 ||
        name.rfind("P4_", 0) == 0) {
      vunit.add_assert(std::move(name), std::move(prop));
    }
  }
  psl::VUnitRunner monitors(vunit, psl::MonitorBackend::kDfa);
  const double per_cycle =
      drive(model, stream, ticks, [&] { monitors.step(model.env()); });
  *failures = monitors.failures();
  return per_cycle;
}

core::RtlConfig rtl_config(int banks, int read_latency) {
  core::RtlConfig cfg;
  cfg.banks = banks;
  cfg.data_bits = 16;
  cfg.mem_addr_bits = kAddrBits - cfg.bank_bits();
  cfg.read_latency = read_latency;
  return cfg;
}

/// The names of the monitors of `bank` that fired, in attach order.
using Fired = std::vector<std::string>;
Fired fired(const ovl::OvlBank& bank,
            const std::function<bool(rtl::NetId)>& net_is_one) {
  Fired out;
  for (std::size_t i = 0; i < bank.entries().size(); ++i) {
    if (bank.fired(net_is_one, i)) out.push_back(bank.entries()[i].name);
  }
  return out;
}

util::Json to_json(const Fired& names) {
  util::Json j = util::Json::array();
  for (const std::string& n : names) j.push(util::Json(n));
  return j;
}

/// The same Reading-Mode assertions, as OVL monitor logic inside the
/// simulated design (one latency + one burst monitor per bank, plus the
/// bus-exclusivity checker) — the paper's "every OVL call loads the
/// corresponding module into the simulated design". The monitors attach
/// through the adapter's instrument hook, before the simulator is built.
std::function<void(rtl::Module&)> ovl_instrument(ovl::OvlBank& bank,
                                                 int banks) {
  return [&bank, banks](rtl::Module& flat) {
    const rtl::NetId k = flat.find_net("K");
    const rtl::NetId ks = flat.find_net("KS");
    std::vector<rtl::ExprId> enables;
    for (int b = 0; b < banks; ++b) {
      const std::string p = "bank" + std::to_string(b) + ".";
      const std::string sb = std::to_string(b);
      ovl::assert_next(flat, bank, "read_latency_b" + sb, ks,
                       flat.ref(p + "read_start_q"),
                       flat.ref(p + "dout_valid_k_q"), 2);
      ovl::assert_implication(flat, bank, "read_burst_b" + sb, ks,
                              flat.ref(p + "dout_valid_k_q"),
                              flat.ref(p + "beat1_pend"));
      enables.push_back(flat.ref(p + "en_q"));
    }
    ovl::assert_zero_one_hot(flat, bank, "exclusive", banks > 1 ? ks : k,
                             banks > 1 ? flat.concat(enables)
                                       : enables.front());
  };
}

/// CPU seconds per clock cycle for the interpreted RTL model + OVL
/// monitors; `fired_monitors` receives the monitors that fired.
double run_rtl_level(const core::RtlConfig& cfg, int ticks, std::uint64_t seed,
                     Fired* fired_monitors) {
  ovl::OvlBank bank;
  harness::RtlDeviceModel model(cfg, ovl_instrument(bank, cfg.banks));
  harness::StimulusStream stream = make_stream(cfg.banks, cfg.data_bits, seed);
  const double per_cycle = drive(model, stream, ticks, [] {});
  *fired_monitors =
      fired(bank, [&model](rtl::NetId flag) { return model.net_is_one(flag); });
  return per_cycle;
}

/// CPU seconds per clock cycle *per stream* for the compiled backend with
/// all 64 bit-lanes occupied: 64 independent transactors feed 64 stimulus
/// streams (seed, seed+1, ...) through one machine, so each pass over the
/// bytecode advances every stream by one edge. `failures` receives the OVL
/// failure count over all 64 lanes, `lane0_fired` the monitors that fired
/// on lane 0 (seed `seed`, the interpreter's stream) and `stats` the
/// machine's work counters.
double run_rtl_level_lanes(const core::RtlConfig& cfg, int ticks,
                           std::uint64_t seed, std::size_t* failures,
                           Fired* lane0_fired, csim::MachineStats* stats) {
  constexpr int kLanes = 64;
  const int banks = cfg.banks;
  ovl::OvlBank bank;
  rtl::Module flat = core::build_device(cfg).flatten();
  ovl_instrument(bank, banks)(flat);
  const csim::Compiled compiled =
      csim::compile(flat, core::clock_schedule(flat));
  csim::Machine machine(compiled, kLanes);
  const rtl::NetId r_n = flat.find_net("R_n");
  const rtl::NetId w_n = flat.find_net("W_n");
  const rtl::NetId a = flat.find_net("A");
  const rtl::NetId d = flat.find_net("D");
  const rtl::NetId bwe_n = flat.find_net("BWE_n");

  std::vector<harness::Transactor> lanes;
  std::vector<harness::StimulusStream> streams;
  for (int lane = 0; lane < kLanes; ++lane) {
    streams.push_back(make_stream(banks, cfg.data_bits,
                                  seed + static_cast<std::uint64_t>(lane)));
    lanes.emplace_back(streams.back().geometry());
  }

  util::CpuStopwatch watch;
  for (int t = 0; t < ticks; ++t) {
    const harness::Edge edge = harness::edge_of_tick(t);
    for (int lane = 0; lane < kLanes; ++lane) {
      auto& tx = lanes[static_cast<std::size_t>(lane)];
      if (edge == harness::Edge::kK) {
        tx.enqueue(streams[static_cast<std::size_t>(lane)].next());
      }
      const harness::EdgePins pins = tx.next(edge);
      machine.set_input_lane_uint(r_n, lane, pins.r_sel_n ? 1 : 0);
      machine.set_input_lane_uint(w_n, lane, pins.w_sel_n ? 1 : 0);
      machine.set_input_lane_uint(a, lane, pins.addr);
      machine.set_input_lane_uint(
          d, lane, core::pack_beat(pins.din_data, cfg.data_bits));
      machine.set_input_lane_uint(bwe_n, lane, pins.bwe_n);
    }
    machine.edge(edge == harness::Edge::kK ? "K" : "KS", rtl::Edge::kPos);
  }
  const double seconds = watch.seconds();
  *stats = machine.stats();

  *failures = 0;
  for (int lane = 0; lane < kLanes; ++lane) {
    const auto net_is_one = [&](rtl::NetId net) {
      return machine.get(net, lane).bit(0) == rtl::Logic::k1;
    };
    if (lane == 0) *lane0_fired = fired(bank, net_is_one);
    *failures += bank.failures(net_is_one);
  }
  return seconds / (static_cast<double>(ticks) / 2.0) / kLanes;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const int sc_ticks = cli.get_bounded("sc-ticks", 40000, 0);
  const int rtl_ticks = cli.get_bounded("rtl-ticks", 4000, 0);
  const std::uint64_t seed = cli.get_u64("seed", 7);
  std::vector<int> banks_list;
  try {
    banks_list = util::parse_positive_list(cli.get("banks-list", "1,2,4,8"), "--banks-list");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  util::BenchReport report("bench_table3_abv_sim");
  report.param("sc_ticks", util::Json(sc_ticks))
      .param("rtl_ticks", util::Json(rtl_ticks))
      .param("seed", util::Json(seed))
      .param("banks_list", util::Json(cli.get("banks-list", "1,2,4,8")));
  cli.get("json", "");
  for (const auto& unused : cli.unused()) {
    std::fprintf(stderr, "unknown option --%s\n", unused.c_str());
    return 2;
  }

  std::puts("Table 3 - Simulation Results: ABV of the Reading Mode");
  std::puts(
      "(system-level model + PSL monitors vs RTL + OVL monitors,\n"
      " interpreted vs compiled 64-lane per-stream)\n");

  util::Table table({"Number of Banks", "SystemC (dSC s/cyc)",
                     "OVL interp (s/cyc)", "csim64 (s/cyc/stream)",
                     "csim64 speedup", "Ratio dOVL/dSC", "Failures"});

  bool verdicts_equal = true;
  for (int banks : banks_list) {
    std::size_t sc_failures = 0;
    Fired rtl_fired;
    std::size_t lane_failures = 0;
    Fired lane0_fired;
    csim::MachineStats lane_stats;
    const double d_sc = run_system_level(banks, sc_ticks, seed, &sc_failures);
    const double d_ovl =
        run_rtl_level(rtl_config(banks, 2), rtl_ticks, seed, &rtl_fired);
    const double d_lane =
        run_rtl_level_lanes(rtl_config(banks, 2), rtl_ticks, seed,
                            &lane_failures, &lane0_fired, &lane_stats);
    const std::size_t rtl_failures = rtl_fired.size();
    // Untimed: a read_latency = 3 device, where the 2-cycle latency
    // monitors must fire on both paths alike.
    Fired deep_fired;
    Fired deep_lane0_fired;
    std::size_t deep_lane_failures = 0;
    csim::MachineStats deep_stats;
    run_rtl_level(rtl_config(banks, 3), rtl_ticks, seed, &deep_fired);
    run_rtl_level_lanes(rtl_config(banks, 3), rtl_ticks, seed,
                        &deep_lane_failures, &deep_lane0_fired, &deep_stats);
    const bool latency_fired =
        std::any_of(deep_fired.begin(), deep_fired.end(),
                    [](const std::string& n) {
                      return n.rfind("read_latency_b", 0) == 0;
                    });
    const bool row_equal = rtl_fired == lane0_fired &&
                           deep_fired == deep_lane0_fired && latency_fired;
    verdicts_equal = verdicts_equal && row_equal;
    table.add_row({std::to_string(banks), util::fmt_sci(d_sc, 2),
                   util::fmt_sci(d_ovl, 2), util::fmt_sci(d_lane, 2),
                   util::fmt_double(d_ovl / d_lane, 1) + " x",
                   util::fmt_double(d_ovl / d_sc, 1) + " x",
                   std::to_string(sc_failures + rtl_failures)});
    util::Json row = util::Json::object();
    row.set("banks", util::Json(banks));
    row.set("system_s_per_cycle", util::Json(d_sc));
    row.set("rtl_s_per_cycle", util::Json(d_ovl));
    row.set("rtl_lane64_s_per_stream_cycle", util::Json(d_lane));
    row.set("lane64_speedup", util::Json(d_ovl / d_lane));
    row.set("ratio", util::Json(d_ovl / d_sc));
    row.set("failures",
            util::Json(static_cast<std::int64_t>(sc_failures + rtl_failures)));
    row.set("rtl_failures",
            util::Json(static_cast<std::int64_t>(rtl_failures)));
    row.set("rtl_lane64_failures",
            util::Json(static_cast<std::int64_t>(lane_failures)));
    row.set("rtl_fired", to_json(rtl_fired));
    row.set("latency3_fired", to_json(deep_fired));
    row.set("verdicts_equal", util::Json(row_equal));
    row.set("lane64_machine", lane_stats.to_json());
    report.metric(std::move(row));
    std::fflush(stdout);
  }

  std::fputs(table.render().c_str(), stdout);
  std::puts(
      "\nShape check (paper): the system-level simulation runs >= ~20x faster"
      "\nper cycle, and the ratio grows with the design size (bank count)."
      "\nShape check (csim): with all 64 bit-lanes occupied the compiled"
      "\nbackend spends less time per stream cycle than the interpreter by"
      "\n>= 5x at 1 bank, >= 8x at 2, >= 12x at 4 and >= 15x at 8 (the gap"
      "\ngrows with banks), with identical OVL verdicts.");
  if (!verdicts_equal) {
    std::fputs(
        "FAIL: interpreted and compiled lane-0 OVL monitors fired differently,"
        " or the read_latency = 3 device fired no read_latency monitor\n",
        stderr);
    return 1;
  }
  return report.finish(cli) ? 0 : 1;
}
