// Figure 3 — Sequence Diagram for the Reading Mode, reproduced as a
// cycle-annotated trace of the behavioural model (run as a harness
// DeviceModel) and checked against the tick annotations of the read-mode
// chart's mandatory timeline (examples/read_mode.msc). The edge-by-edge
// observations go through a TraceRecorder, so the run can be exported as
// JSON (--json) or VCD (--vcd).
#include <cstdio>
#include <string>
#include <vector>

#include "harness/adapters.hpp"
#include "harness/trace.hpp"
#include "la1/behavioral.hpp"
#include "la1/properties.hpp"
#include "msc/charts.hpp"
#include "util/bench_report.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace la1;
  const util::Cli cli(argc, argv);
  const std::string vcd_path = cli.get("vcd", "");
  util::BenchReport report("bench_fig3_read_timing");
  cli.get("json", "");
  for (const auto& unused : cli.unused()) {
    std::fprintf(stderr, "unknown option --%s\n", unused.c_str());
    return 2;
  }

  std::puts("Figure 3 - Sequence Diagram for the Reading Mode\n");
  const msc::Chart chart = msc::read_mode_chart();
  const std::vector<const msc::Message*> spec = chart.mandatory();
  std::puts("Specification (examples/read_mode.msc, mandatory timeline):");
  for (const msc::Message* m : spec) {
    std::printf("  %-18s -> %-18s : %s  (tick %d)\n", m->from.c_str(),
                m->to.c_str(), m->annotation().c_str(), m->tick_lo());
  }

  // Execute a single read on the behavioural model and record the trace.
  core::Config cfg;
  cfg.banks = 1;
  cfg.addr_bits = 4;
  harness::BehavioralDeviceModel model(cfg);
  harness::TraceRecorder recorder(
      model.geometry(), core::tap_set(core::Level::kHarness).bank_taps(1));

  // Seed the word through the front door, wait out the write, then issue
  // the measured read.
  harness::Stimulus write;
  write.write = true;
  write.write_addr = 3;
  write.write_word = 0xCAFE1234;
  model.enqueue(write);
  for (int t = 0; t < 4; ++t) model.tick(harness::edge_of_tick(t));
  harness::Stimulus read;
  read.read = true;
  read.read_addr = 3;
  model.enqueue(read);

  struct Event {
    int tick;
    std::string what;
  };
  std::vector<Event> events;
  int base_tick = -1;
  std::uint64_t last_beat = 0;
  for (int t = 4; t < 12; ++t) {
    const harness::EdgePins pins = model.tick(harness::edge_of_tick(t));
    recorder.record(t, pins, model);
    if (model.dout().valid) last_beat = model.dout().beat;
    if (model.tap("b0.read_start") && base_tick < 0) base_tick = t;
    if (base_tick < 0) continue;
    const char* clock = t % 2 == 0 ? "K" : "K#";
    const int cycle = (t - base_tick) / 2;
    auto log = [&](const char* what) {
      events.push_back(
          {t - base_tick, std::string(what) + "[" + std::to_string(cycle) +
                              "]()@" + clock});
    };
    if (model.tap("b0.read_start")) log("OnReadRequest");
    if (model.tap("b0.fetch")) log("LA1_SRAM_OnReadRequest");
    if (model.tap("b0.dout_valid_k")) log("ReleaseBeat0");
    if (model.tap("b0.dout_valid_ks")) log("ReleaseBeat1");
  }

  std::puts("\nBehavioural-model trace of one read (ticks relative to the"
            " request):");
  for (const Event& e : events) {
    std::printf("  tick %d : %s\n", e.tick, e.what.c_str());
  }
  std::printf("  last DOUT beat = 0x%05llx\n",
              static_cast<unsigned long long>(last_beat));

  // Cross-check the trace against the diagram's annotations.
  bool ok = events.size() == spec.size();
  for (std::size_t i = 0; ok && i < events.size(); ++i) {
    ok = events[i].tick == spec[i]->tick_lo() &&
         events[i].what == spec[i]->annotation();
  }
  std::printf("\n%s: the executed trace %s the Figure-3 annotations\n",
              ok ? "PASS" : "FAIL", ok ? "matches" : "DIVERGES FROM");

  if (!vcd_path.empty()) {
    if (recorder.write_vcd(vcd_path)) {
      std::printf("VCD trace written to %s\n", vcd_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write VCD trace to %s\n", vcd_path.c_str());
      return 1;
    }
  }

  report.param("messages",
               util::Json(static_cast<std::int64_t>(spec.size())));
  for (const Event& e : events) {
    util::Json row = util::Json::object();
    row.set("tick", util::Json(e.tick));
    row.set("event", util::Json(e.what));
    report.metric(std::move(row));
  }
  util::Json verdict = util::Json::object();
  verdict.set("matches_figure3", util::Json(ok));
  verdict.set("last_dout_beat", util::Json(last_beat));
  report.metric(std::move(verdict));
  report.param("trace", recorder.to_json());
  if (!report.finish(cli)) return 1;
  return ok ? 0 : 1;
}
