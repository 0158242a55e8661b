// Table 1 — Model checking using AsmL (paper §6.1).
//
// For 1..4 banks, verifies the combined LA-1 property suite at the ASM
// level by guided state exploration and reports the CPU time plus the
// generated-FSM size (nodes, transitions). Like AsmL, the exploration is
// configuration-bounded: when the state budget trips, the FSM is an
// under-approximation and the row is marked "(bounded)".
//
//   --max-banks N      highest bank count (default 4)
//   --max-states N     exploration budget per run (default 120000)
//   --max-transitions N  transition budget (default 1200000)
//   --json PATH        write the {bench, params, metrics} report
#include <cstdio>

#include "la1/asm_model.hpp"
#include "mc/explicit.hpp"
#include "psl/temporal.hpp"
#include "util/bench_report.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace la1;
  const util::Cli cli(argc, argv);
  const int max_banks = cli.get_bounded("max-banks", 4, 1);
  const std::size_t max_states =
      static_cast<std::size_t>(cli.get_int("max-states", 120000));
  const std::size_t max_transitions =
      static_cast<std::size_t>(cli.get_int("max-transitions", 1200000));
  util::BenchReport report("bench_table1_asm_mc");
  report.param("max_banks", util::Json(max_banks))
      .param("max_states", util::Json(static_cast<std::int64_t>(max_states)))
      .param("max_transitions",
             util::Json(static_cast<std::int64_t>(max_transitions)));
  cli.get("json", "");
  for (const auto& unused : cli.unused()) {
    std::fprintf(stderr, "unknown option --%s\n", unused.c_str());
    return 2;
  }

  std::puts("Table 1 - Model Checking Using AsmL (ASM level, all properties");
  std::puts("combined; exploration bounded by the AsmL-style configuration)\n");

  util::Table table({"Number of Banks", "CPU Time (s)", "FSM Nodes",
                     "FSM Transitions", "Properties", "Result"});

  for (int banks = 1; banks <= max_banks; ++banks) {
    core::AsmConfig cfg;
    cfg.banks = banks;
    const asml::Machine machine = core::build_asm_model(cfg);
    const auto props = core::asm_properties(cfg);

    // Combined property, as the paper's Table 1 measures.
    std::vector<psl::PropPtr> all;
    all.reserve(props.size());
    for (const auto& [name, p] : props) all.push_back(p);
    const psl::PropPtr combined = psl::p_and(std::move(all));

    util::CpuStopwatch cpu;
    mc::ExplicitOptions opt;
    opt.max_states = max_states;
    opt.max_transitions = max_transitions;
    const mc::ExplicitResult r = mc::check(machine, combined, opt);
    const double seconds = cpu.seconds();

    std::string result = r.violated ? "VIOLATED" : "verified";
    if (!r.complete && !r.violated) result += " (bounded)";
    table.add_row({std::to_string(banks), util::fmt_double(seconds, 2),
                   util::fmt_count(r.fsm_states),
                   util::fmt_count(r.product_transitions),
                   std::to_string(props.size()), result});
    util::Json row = util::Json::object();
    row.set("banks", util::Json(banks));
    row.set("cpu_seconds", util::Json(seconds));
    row.set("fsm_states", util::Json(static_cast<std::int64_t>(r.fsm_states)));
    row.set("fsm_transitions",
            util::Json(static_cast<std::int64_t>(r.product_transitions)));
    row.set("properties", util::Json(static_cast<std::int64_t>(props.size())));
    row.set("result", util::Json(result));
    report.metric(std::move(row));
  }

  std::fputs(table.render().c_str(), stdout);
  std::puts(
      "\nShape check (paper): the ASM-level checker handles every bank count;"
      "\nnodes/transitions and CPU time grow with banks but stay tractable.");
  return report.finish(cli) ? 0 : 1;
}
