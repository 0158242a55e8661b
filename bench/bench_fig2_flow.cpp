// Figure 2 — the design & verification methodology, executed end to end:
// UML -> ASM (+model checking) -> behavioural model (+conformance, +ABV)
// -> RTL (+lockstep, +symbolic MC, +OVL) -> Verilog.
//
//   --banks N   (default 2)
//   --print-verilog   dump the emitted RTL
#include <cstdio>

#include "refine/flow.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace la1;
  const util::Cli cli(argc, argv);
  refine::FlowOptions opt;
  opt.banks = cli.get_bounded("banks", 2, 1);
  opt.abv_ticks = cli.get_bounded("abv-ticks", 3000, 0);
  opt.conformance_steps =
      cli.get_bounded("conformance-steps", 1500, 0);
  opt.lockstep_transactions =
      cli.get_bounded("lockstep-transactions", 300, 0);
  opt.explore_max_states = cli.get_u64("explore-max-states", 40000);
  const bool print_verilog = cli.get_bool("print-verilog", false);
  for (const auto& unused : cli.unused()) {
    std::fprintf(stderr, "unknown option --%s\n", unused.c_str());
    return 2;
  }

  std::printf("Figure 2 - LA-1 design & verification flow (%d banks)\n\n",
              opt.banks);
  const refine::FlowReport report = refine::run_flow(opt);
  std::fputs(report.render().c_str(), stdout);
  if (print_verilog) {
    std::puts("\n--- emitted Verilog -------------------------------------");
    std::fputs(report.verilog.c_str(), stdout);
  }
  return report.ok ? 0 : 1;
}
