// Static cost model vs. measured interpreter throughput (plan::analyze).
//
// For each bank count the compile planner predicts the per-cycle cost of
// the lowered device from structure alone: scheduled ops per clock cycle,
// word-slot pressure from the greedy allocator, and the X-sideband
// fraction the two-state proof could not discharge. The bench then drives
// the same netlist in rtl::CycleSim under random traffic and measures the
// real time per cycle. The planner's claim is *ranking fidelity*, not
// absolute calibration: ordering the configurations by predicted cost
// must match ordering them by measured time per cycle, otherwise the
// backend would tier its lowering effort on the wrong targets.
//
// The same gate runs a second time against the compiled bit-parallel
// backend (src/csim) — the consumer the plan is actually produced for —
// so every JSON row carries a predicted-vs-measured pair per executor.
//
//   --banks-list CSV  bank counts to run (default "1,2,4")
//   --cycles N        measured clock cycles per configuration (default 4000)
//   --seed N          stimulus seed (default 7)
//   --json PATH       write the {bench, params, metrics} report
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "csim/compile.hpp"
#include "csim/machine.hpp"
#include "la1/rtl_model.hpp"
#include "plan/plan.hpp"
#include "rtl/sim.hpp"
#include "util/bench_report.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace la1;
  const util::Cli cli(argc, argv);
  const std::string banks_csv = cli.get("banks-list", "1,2,4");
  const int cycles = cli.get_bounded("cycles", 4000, 0);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  util::BenchReport report("bench_plan");
  report.param("banks_list", util::Json(banks_csv))
      .param("cycles", util::Json(cycles))
      .param("seed", util::Json(static_cast<std::int64_t>(seed)));
  cli.get("json", "");
  for (const auto& unused : cli.unused()) {
    std::fprintf(stderr, "unknown option --%s\n", unused.c_str());
    return 2;
  }
  std::vector<int> banks_list;
  try {
    banks_list = util::parse_positive_list(banks_csv, "--banks-list");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::puts("Compile-Plan Cost Model vs. Measured Time per Cycle");
  std::printf("%d measured cycles per configuration\n\n", cycles);

  util::Table table({"Banks", "Ops/Cycle", "Peak Slots", "X-Sideband",
                     "Predicted Cost", "Interp us/Cycle", "Csim us/Cycle",
                     "Two-State %"});

  std::vector<double> predicted;
  std::vector<double> measured;
  std::vector<double> measured_csim;
  bool clean = true;
  for (int banks : banks_list) {
    // Full production geometry — the plan targets the compiled
    // bit-parallel backend, which lowers the real device.
    core::RtlConfig cfg;
    cfg.banks = banks;
    core::RtlDevice dev = core::build_device(cfg);
    const rtl::Module flat = dev.flatten();

    plan::PlanOptions opt;
    opt.schedule = core::clock_schedule(flat);
    const plan::CompilePlan p = plan::analyze(flat, opt);
    clean = clean && p.findings.empty();

    // Measure the interpreter on the same netlist under random traffic.
    // Clock nets are owned by edge(); every other primary input toggles
    // randomly each cycle so the comb cloud and both edges stay hot.
    rtl::CycleSim sim(flat);
    std::vector<rtl::NetId> free_inputs;
    for (rtl::NetId id = 0; id < static_cast<rtl::NetId>(flat.nets().size());
         ++id) {
      if (flat.net(id).kind != rtl::NetKind::kInput) continue;
      const bool is_clock =
          std::any_of(opt.schedule.begin(), opt.schedule.end(),
                      [&](const rtl::ClockStep& s) { return s.clock == id; });
      if (!is_clock) free_inputs.push_back(id);
    }
    util::Rng rng(seed + static_cast<std::uint64_t>(banks));
    auto run_cycle = [&] {
      for (rtl::NetId id : free_inputs) {
        sim.set_input(id,
                      rtl::LVec::from_uint(rng.next_u64(), flat.net(id).width));
      }
      for (const rtl::ClockStep& s : opt.schedule) sim.edge(s.clock, s.edge);
    };
    for (int c = 0; c < cycles / 10 + 1; ++c) run_cycle();  // warm-up
    util::CpuStopwatch watch;
    for (int c = 0; c < cycles; ++c) run_cycle();
    const double us_per_cycle = watch.seconds() / cycles * 1e6;

    // Same netlist, same plan, same traffic generator — executed by the
    // compiled backend the plan was produced for.
    const csim::Compiled compiled = csim::compile(flat, p);
    csim::Machine machine(compiled);
    util::Rng csim_rng(seed + static_cast<std::uint64_t>(banks));
    auto run_csim_cycle = [&] {
      for (rtl::NetId id : free_inputs) {
        machine.set_input(id, rtl::LVec::from_uint(csim_rng.next_u64(),
                                                   flat.net(id).width));
      }
      for (const rtl::ClockStep& s : opt.schedule) machine.edge(s.clock, s.edge);
    };
    for (int c = 0; c < cycles / 10 + 1; ++c) run_csim_cycle();  // warm-up
    util::CpuStopwatch csim_watch;
    for (int c = 0; c < cycles; ++c) run_csim_cycle();
    const double csim_us_per_cycle = csim_watch.seconds() / cycles * 1e6;

    predicted.push_back(p.cost.predicted);
    measured.push_back(us_per_cycle);
    measured_csim.push_back(csim_us_per_cycle);
    const double state_pct = 100.0 * p.two_state_fraction(true);
    table.add_row({std::to_string(banks),
                   util::fmt_double(p.cost.ops_per_cycle, 0),
                   util::fmt_double(p.cost.slot_pressure, 0),
                   util::fmt_double(p.cost.x_sideband_fraction, 3),
                   util::fmt_double(p.cost.predicted, 1),
                   util::fmt_double(us_per_cycle, 2),
                   util::fmt_double(csim_us_per_cycle, 2),
                   util::fmt_double(state_pct, 1)});
    util::Json row = util::Json::object();
    row.set("banks", util::Json(banks));
    row.set("ops_per_cycle", util::Json(p.cost.ops_per_cycle));
    row.set("peak_slots", util::Json(p.cost.slot_pressure));
    row.set("x_sideband_fraction", util::Json(p.cost.x_sideband_fraction));
    row.set("predicted_cost", util::Json(p.cost.predicted));
    row.set("measured_us_per_cycle", util::Json(us_per_cycle));
    row.set("csim_measured_us_per_cycle", util::Json(csim_us_per_cycle));
    row.set("two_state_state_pct", util::Json(state_pct));
    row.set("findings", util::Json(static_cast<std::int64_t>(p.findings.size())));
    report.metric(std::move(row));
    std::fflush(stdout);
  }

  // Ranking fidelity: sorting configurations by predicted cost must give
  // the same order as sorting them by measured time per cycle — for the
  // interpreter and for the compiled backend alike.
  auto rank_of = [](const std::vector<double>& key) {
    std::vector<std::size_t> order(key.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });
    return order;
  };
  const std::vector<std::size_t> by_predicted = rank_of(predicted);
  const bool ranked = by_predicted == rank_of(measured);
  const bool ranked_csim = by_predicted == rank_of(measured_csim);

  std::fputs(table.render().c_str(), stdout);
  std::printf("\ncost-model ranking vs. interpreter ranking: %s\n",
              ranked ? "identical" : "MISMATCH");
  std::printf("cost-model ranking vs. compiled ranking:    %s\n",
              ranked_csim ? "identical" : "MISMATCH");
  std::printf("legality findings across configurations:    %s\n",
              clean ? "none" : "PRESENT");
  std::puts(
      "Shape check: predicted cost composes scheduled ops, slot pressure\n"
      "and the unproven X-sideband; ranking parity with both executors\n"
      "means the backend can tier lowering effort from statics alone.");
  return report.finish(cli) && ranked && ranked_csim && clean ? 0 : 1;
}
