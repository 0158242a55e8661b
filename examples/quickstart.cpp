// Quickstart: bring up a 2-bank LA-1 device, drive transactions through the
// harness transactor, watch the protocol with PSL monitors, and read the
// scoreboard.
//
//   $ ./quickstart
#include <cstdio>

#include "harness/adapters.hpp"
#include "la1/properties.hpp"
#include "psl/monitor.hpp"

int main() {
  using namespace la1;

  // 1. Configure the device: 2 banks, the standard 18-pin data path.
  core::Config cfg;
  cfg.banks = 2;
  cfg.addr_bits = 8;
  cfg.validate();
  std::printf("LA-1 device: %d banks, %d-pin DDR beats, %llu words/bank\n",
              cfg.banks, cfg.beat_pins(),
              static_cast<unsigned long long>(cfg.mem_depth()));

  // 2. The model owns the kernel, pins and device; the scoreboard checks
  // every read's beats against a mirror of the memory.
  harness::BehavioralDeviceModel model(cfg);
  harness::Scoreboard scoreboard(model.geometry(), cfg.read_latency);

  // 3. Attach the PSL protocol monitors (the paper's assertion suite).
  psl::VUnit vunit = core::behavioral_vunit(cfg);
  psl::VUnitRunner monitors(vunit);
  std::printf("attached %zu PSL directives\n", vunit.directives().size());

  // 4. Queue a few directed K cycles: a write, then its read-back...
  model.enqueue(harness::Stimulus::write_of(0x05, 0xDEADBEEF));
  model.enqueue(harness::Stimulus::read_of(0x05));
  // ... a byte-masked update (only the low byte changes) and a read-back.
  model.enqueue(harness::Stimulus::write_of(0x05, 0x000000AA, 0x1));
  model.enqueue(harness::Stimulus::read_of(0x05));

  // 5. Run; monitors and scoreboard sample after every edge (K and K#).
  auto step = [&](harness::Edge edge) {
    scoreboard.step(model.tick(edge), model);
    monitors.step(model.env());
  };
  for (int t = 0; t < 16; ++t) step(harness::edge_of_tick(t));
  const std::uint64_t merged = model.memory_word(0, 0x05);
  // ... then one K cycle of random traffic across both banks per clock.
  harness::StimulusStream stream(
      harness::StimulusOptions::for_geometry(model.geometry()), 2026);
  for (int t = 16; t < 600; ++t) {
    const harness::Edge edge = harness::edge_of_tick(t);
    if (edge == harness::Edge::kK) model.enqueue(stream.next());
    step(edge);
  }

  // 6. Results.
  std::printf("\nscoreboard: %llu reads checked, %llu mismatches, %llu parity"
              " errors\n",
              static_cast<unsigned long long>(scoreboard.reads_checked()),
              static_cast<unsigned long long>(scoreboard.data_mismatches()),
              static_cast<unsigned long long>(scoreboard.parity_errors()));
  std::printf("monitors  : %zu failures\n", monitors.failures());
  std::printf("memory[5] : 0x%08llx (expect 0xDEADBEAA after the byte merge)\n",
              static_cast<unsigned long long>(merged));

  const bool ok = monitors.failures() == 0 &&
                  scoreboard.data_mismatches() == 0 &&
                  scoreboard.parity_errors() == 0 && merged == 0xDEADBEAA;
  std::puts(ok ? "\nquickstart PASSED" : "\nquickstart FAILED");
  return ok ? 0 : 1;
}
