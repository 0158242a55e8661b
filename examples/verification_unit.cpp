// The IP as a *validation unit* (paper §4: "a Verification Unit: to
// validate other LA-1 Interface compatible devices").
//
// A vendor ships an "LA-1 compatible" device model; we strap the monitor
// suite to its pins and replay traffic. Four vendor devices are tested: a
// clean one and three with protocol bugs (late first beat, dropped second
// beat, ignored byte enables). The monitors must pass the clean device and
// name the violated property for each buggy one.
//
//   $ ./verification_unit
#include <cstdio>
#include <vector>

#include "harness/adapters.hpp"
#include "la1/properties.hpp"
#include "psl/monitor.hpp"

int main() {
  using namespace la1;

  struct Vendor {
    const char* name;
    core::Bank::Fault fault;
    bool expect_clean;
  };
  const std::vector<Vendor> vendors{
      {"acme-sram (reference)", core::Bank::Fault::kNone, true},
      {"slowco-classifier (beat 1 cycle late)", core::Bank::Fault::kLateBeat0,
       false},
      {"cheapchip-sram (second beat dropped)", core::Bank::Fault::kDropBeat1,
       false},
      {"fastbut-wrong (byte enables ignored)",
       core::Bank::Fault::kIgnoreByteEnables, false},
  };

  bool all_ok = true;
  for (const Vendor& vendor : vendors) {
    core::Config cfg;
    cfg.banks = 2;
    cfg.addr_bits = 6;
    harness::BehavioralDeviceModel model(cfg);
    model.device().bank(0).inject(vendor.fault);
    harness::Scoreboard scoreboard(model.geometry(), cfg.read_latency);

    psl::VUnit vunit = core::behavioral_vunit(cfg);
    psl::VUnitRunner monitors(vunit);
    harness::StimulusStream stream(
        harness::StimulusOptions::for_geometry(model.geometry()), 7);
    for (int t = 0; t < 700; ++t) {
      const harness::Edge edge = harness::edge_of_tick(t);
      if (edge == harness::Edge::kK) model.enqueue(stream.next());
      scoreboard.step(model.tick(edge), model);
      monitors.step(model.env());
    }

    std::printf("device under validation: %s\n", vendor.name);
    std::size_t failures = 0;
    for (std::size_t i = 0; i < vunit.directives().size(); ++i) {
      const auto& d = vunit.directives()[i];
      if (d.kind != psl::DirectiveKind::kAssert) continue;
      if (monitors.verdict(i) == psl::Verdict::kFailed) {
        ++failures;
        std::printf("  VIOLATION %-28s %s\n", d.name.c_str(),
                    d.message.c_str());
      }
    }
    const bool clean = failures == 0 && scoreboard.data_mismatches() == 0;
    std::printf("  -> %zu assertion failure(s), %llu data mismatch(es): %s\n\n",
                failures,
                static_cast<unsigned long long>(scoreboard.data_mismatches()),
                clean ? "device ACCEPTED" : "device REJECTED");
    all_ok = all_ok && (clean == vendor.expect_clean);
  }

  std::puts(all_ok ? "verification_unit PASSED (clean accepted, buggy rejected)"
                   : "verification_unit FAILED");
  return all_ok ? 0 : 1;
}
