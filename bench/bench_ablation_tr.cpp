// Ablation A — transition-relation strategy in the symbolic checker:
// partitioned conjuncts with early quantification vs one monolithic
// transition-relation BDD (DESIGN.md ablation index).
//
//   --banks N         bank count (default 1)
//   --node-limit N    live-BDD-node budget (default 8000000)
//   --json PATH       write the {bench, params, metrics} report; each row
//                     carries the BDD engine counters
#include <cstdio>

#include "la1/rtl_model.hpp"
#include "mc/symbolic.hpp"
#include "util/bench_report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace la1;
  const util::Cli cli(argc, argv);
  const int banks = cli.get_bounded("banks", 1, 1);
  const std::uint64_t node_limit =
      static_cast<std::uint64_t>(cli.get_int("node-limit", 8000000));
  util::BenchReport report("bench_ablation_tr");
  report.param("banks", util::Json(banks))
      .param("node_limit", util::Json(node_limit));
  cli.get("json", "");
  for (const auto& unused : cli.unused()) {
    std::fprintf(stderr, "unknown option --%s\n", unused.c_str());
    return 2;
  }

  std::printf("Ablation A - image computation strategy (%d bank(s))\n\n", banks);

  const core::RtlConfig cfg = core::RtlConfig::model_checking(banks);
  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = rtl::expand_memories(dev.flatten());
  const rtl::BitBlast bb = rtl::bitblast(flat, core::clock_schedule(flat));

  util::Table table({"Strategy", "State bits", "Outcome", "CPU Time (s)",
                     "Peak BDD Nodes", "Iterations"});
  struct Row {
    const char* name;
    bool partitioned;
    bool coi;
  };
  for (const Row row : {Row{"partitioned + cone of influence", true, true},
                        Row{"partitioned, full design", true, false},
                        Row{"monolithic relation, full design", false, false}}) {
    mc::SymbolicOptions opt;
    opt.partitioned = row.partitioned;
    opt.cone_of_influence = row.coi;
    opt.node_limit = node_limit;
    const mc::SymbolicResult r =
        mc::check(bb, core::rtl_read_mode_property(cfg), opt);
    const char* outcome =
        r.outcome == mc::SymbolicResult::Outcome::kHolds ? "verified"
        : r.outcome == mc::SymbolicResult::Outcome::kFails
            ? "VIOLATED"
            : "state explosion";
    table.add_row({row.name, std::to_string(r.state_bits), outcome,
                   util::fmt_double(r.cpu_seconds, 2),
                   util::fmt_count(r.peak_bdd_nodes),
                   std::to_string(r.iterations)});
    util::Json metric = util::Json::object();
    metric.set("strategy", util::Json(row.name));
    metric.set("state_bits", util::Json(r.state_bits));
    metric.set("result", util::Json(outcome));
    metric.set("cpu_seconds", util::Json(r.cpu_seconds));
    metric.set("peak_bdd_nodes", util::Json(r.peak_bdd_nodes));
    metric.set("iterations", util::Json(r.iterations));
    metric.set("bdd", r.bdd_stats.to_json());
    report.metric(std::move(metric));
    std::fflush(stdout);
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nExpected: cone-of-influence reduction collapses the problem to"
            "\nthe property's control cone; without it, partitioning still"
            "\nbeats the monolithic relation's node peak.");
  return report.finish(cli) ? 0 : 1;
}
