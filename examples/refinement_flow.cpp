// The complete Figure-2 methodology, end to end, with the intermediate
// artifacts printed: the MSC spec source and the properties compiled from
// it, the per-stage verification results, and the final synthesizable
// Verilog.
//
//   $ ./refinement_flow [--banks N] [--quiet]
#include <cstdio>

#include "la1/msc_spec.hpp"
#include "msc/charts.hpp"
#include "msc/compile.hpp"
#include "refine/flow.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace la1;
  const util::Cli cli(argc, argv);
  const bool quiet = cli.get_bool("quiet", false);
  refine::FlowOptions opt;
  opt.banks = cli.get_bounded("banks", 1, 1);

  if (!quiet) {
    std::puts("=== spec level: read-mode chart (examples/read_mode.msc) ===");
    std::fputs(core::read_mode_msc(), stdout);

    std::puts("\n=== properties compiled from the chart ===");
    const msc::MonitorSuite suite = msc::to_psl(msc::read_mode_chart());
    for (const auto& d : suite.asserts) {
      std::printf("  %-40s %s\n", d.name.c_str(), d.source.c_str());
      std::printf("    %s\n", psl::to_string(*d.prop).c_str());
    }
    for (const auto& c : suite.covers) {
      std::printf("  %-40s cover %s\n", c.name.c_str(),
                  psl::to_string(*c.sere).c_str());
    }
    std::puts("");
  }

  std::puts("=== executing the refinement flow (Figure 2) ===");
  const refine::FlowReport report = refine::run_flow(opt);
  std::fputs(report.render().c_str(), stdout);

  if (!quiet && report.ok) {
    std::puts("\n=== final artifact: synthesizable Verilog ===");
    std::fputs(report.verilog.c_str(), stdout);
  }
  return report.ok ? 0 : 1;
}
