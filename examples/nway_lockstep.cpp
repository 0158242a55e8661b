// N-way lockstep: co-execute the ASM machine, the behavioural kernel
// model, and the elaborated RTL netlist — the three executable levels of
// the paper's flow — on ONE shared stimulus stream, comparing every shared
// observation on every clock edge and the full memory image at the end.
//
//   ./nway_lockstep                         # 3-way, banks 1..4, 1000 txns
//   ./nway_lockstep --banks-list 2 --transactions 5000 --seed 7
//   ./nway_lockstep --vcd run.vcd --json run.json
//
// A reported divergence names the tick, edge, tap and seed — rerunning
// with the same seed replays it exactly.
#include <cstdio>

#include "harness/adapters.hpp"
#include "harness/lockstep.hpp"
#include "harness/stimulus.hpp"
#include "harness/trace.hpp"
#include "util/bench_report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace la1;
  const util::Cli cli(argc, argv);
  const int transactions = cli.get_bounded("transactions", 1000, 0);
  const int mem_addr_bits = cli.get_bounded("mem-addr-bits", 2, 0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cli.get_int("seed", 2004));
  const std::string vcd_path = cli.get("vcd", "");
  std::vector<int> banks_list;
  try {
    banks_list = util::parse_positive_list(cli.get("banks-list", "1,2,3,4"), "--banks-list");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  util::BenchReport report("nway_lockstep");
  report.param("transactions", util::Json(transactions))
      .param("mem_addr_bits", util::Json(mem_addr_bits))
      .param("seed", util::Json(seed))
      .param("banks_list", util::Json(cli.get("banks-list", "1,2,3,4")));
  cli.get("json", "");
  for (const auto& unused : cli.unused()) {
    std::fprintf(stderr, "unknown option --%s\n", unused.c_str());
    return 2;
  }

  std::puts("3-way lockstep: ASM machine + behavioural model + RTL netlist");
  std::puts("one shared stimulus stream, every shared tap compared per edge\n");

  util::Table table({"Banks", "Ticks", "Comparisons", "Reads", "Writes",
                     "Result"});
  bool all_ok = true;

  for (int banks : banks_list) {
    core::AsmConfig acfg;
    acfg.banks = banks;
    acfg.mem_addr_bits = mem_addr_bits;
    harness::AsmDeviceModel asm_model(acfg);
    // Shared geometry: the ASM's canonical beat width, its data domain in
    // the low bits of each beat.
    const int data_bits = asm_model.geometry().data_bits;

    core::Config bcfg;
    bcfg.banks = banks;
    bcfg.data_bits = data_bits;
    bcfg.addr_bits = mem_addr_bits + bcfg.bank_bits();
    harness::BehavioralDeviceModel beh_model(bcfg);

    core::RtlConfig rcfg;
    rcfg.banks = banks;
    rcfg.data_bits = data_bits;
    rcfg.mem_addr_bits = mem_addr_bits;
    rcfg.read_latency = bcfg.read_latency;
    harness::RtlDeviceModel rtl_model(rcfg);

    // The stream honours the ASM machine's domains: beat values below
    // data_values, full-word writes (the ASM has no byte enables).
    const harness::StimulusOptions so = asm_model.stimulus_options();
    harness::StimulusStream stream(so, seed);

    const std::vector<harness::DeviceModel*> models = {&asm_model, &beh_model,
                                                       &rtl_model};
    harness::TraceRecorder recorder(so.geometry(),
                                    harness::tap_intersection(models));
    harness::LockstepOptions lo;
    lo.transactions = static_cast<std::uint64_t>(transactions);
    if (!vcd_path.empty() && banks == banks_list.front()) {
      lo.recorder = &recorder;
    }
    const harness::LockstepReport r =
        harness::run_lockstep(models, stream, lo);

    table.add_row({std::to_string(banks), std::to_string(r.ticks_run),
                   std::to_string(r.comparisons),
                   std::to_string(r.reads_issued),
                   std::to_string(r.writes_issued),
                   r.ok ? "agree" : "DIVERGED"});
    if (!r.ok) {
      std::printf("banks=%d DIVERGENCE: %s\n", banks, r.mismatch.c_str());
      all_ok = false;
    }

    util::Json row = util::Json::object();
    row.set("banks", util::Json(banks));
    row.set("ticks", util::Json(r.ticks_run));
    row.set("comparisons", util::Json(r.comparisons));
    row.set("reads_issued", util::Json(r.reads_issued));
    row.set("writes_issued", util::Json(r.writes_issued));
    row.set("ok", util::Json(r.ok));
    if (!r.ok) row.set("mismatch", util::Json(r.mismatch));
    report.metric(std::move(row));

    if (lo.recorder != nullptr) {
      if (recorder.write_vcd(vcd_path)) {
        std::printf("VCD trace (banks=%d) written to %s\n", banks,
                    vcd_path.c_str());
      } else {
        std::fprintf(stderr, "cannot write VCD trace to %s\n",
                     vcd_path.c_str());
        return 1;
      }
    }
  }

  std::fputs(table.render().c_str(), stdout);
  std::printf("\n%s: all three levels %s on the shared stream (seed %llu)\n",
              all_ok ? "PASS" : "FAIL", all_ok ? "agree" : "DIVERGE",
              static_cast<unsigned long long>(seed));
  if (!report.finish(cli)) return 1;
  return all_ok ? 0 : 1;
}
