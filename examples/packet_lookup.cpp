// Packet-classification lookups over LA-1 — the workload the paper's
// introduction motivates: "IPv6 systems and carriers increasingly demanding
// detailed lookups on packets and flows" with the network processor using a
// look-aside coprocessor for the tables.
//
// A software NPU pipeline classifies a stream of synthetic packets. The
// flow table lives behind the LA-1 interface (a 4-bank SRAM coprocessor):
// each packet hashes to a table slot, the NPU issues an LA-1 read, and the
// returned word carries the flow's class + a hit counter that the NPU
// writes back through the byte-write control (only the counter lanes are
// enabled, so a concurrent class update is never clobbered).
//
//   $ ./packet_lookup [--packets N]
#include <cstdio>
#include <map>

#include "harness/adapters.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace la1;

struct Packet {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint16_t dport = 0;
};

/// Table word layout: [31:24] class id, [23:16] reserved, [15:0] hit count.
constexpr std::uint32_t make_entry(std::uint8_t cls, std::uint16_t hits) {
  return (static_cast<std::uint32_t>(cls) << 24) | hits;
}

std::uint64_t slot_of(const Packet& p, int addr_bits) {
  // Toy flow hash.
  std::uint64_t h = p.src * 2654435761u ^ p.dst * 40503u ^ p.dport;
  h ^= h >> 13;
  return h & ((1ull << addr_bits) - 1);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const int packets = cli.get_bounded("packets", 400, 0);

  core::Config cfg;
  cfg.banks = 4;  // a 4-bank classifier coprocessor (paper Figure 1)
  cfg.addr_bits = 10;
  harness::BehavioralDeviceModel model(cfg);
  harness::Scoreboard scoreboard(model.geometry(), cfg.read_latency);
  // Runs `ticks` edges of the queued K cycles, scoreboarding each one.
  auto run = [&](int ticks) {
    for (int i = 0; i < ticks; ++i) {
      const harness::Edge edge = harness::edge_of_tick(model.ticks_done());
      scoreboard.step(model.tick(edge), model);
    }
  };

  // Provision the flow table: 5 known flows with class ids.
  util::Rng rng(99);
  std::vector<Packet> flows;
  for (int f = 0; f < 5; ++f) {
    Packet p{static_cast<std::uint32_t>(rng.next_u32()),
             static_cast<std::uint32_t>(rng.next_u32()),
             static_cast<std::uint16_t>(rng.below(65536))};
    flows.push_back(p);
    model.enqueue(harness::Stimulus::write_of(
        slot_of(p, cfg.addr_bits),
        make_entry(static_cast<std::uint8_t>(10 + f), 0)));
  }
  run(2 * 5 + 8);

  // Classify a packet stream: 70% known flows, 30% strangers.
  std::map<std::uint64_t, int> expected_hits;
  int lookups = 0;
  int classified = 0;
  int unknown = 0;
  for (int i = 0; i < packets; ++i) {
    Packet p = rng.chance(0.7)
                   ? flows[rng.below(flows.size())]
                   : Packet{static_cast<std::uint32_t>(rng.next_u32()),
                            static_cast<std::uint32_t>(rng.next_u32()),
                            static_cast<std::uint16_t>(rng.below(65536))};
    const std::uint64_t slot = slot_of(p, cfg.addr_bits);

    // Look-aside read; the scoreboard checks the returned beats against
    // its mirror, so the mirror serves as the "received" word.
    model.enqueue(harness::Stimulus::read_of(slot));
    run(8);  // latency + margin
    ++lookups;
    const std::uint32_t entry =
        static_cast<std::uint32_t>(scoreboard.mirror(slot));
    const std::uint8_t cls = static_cast<std::uint8_t>(entry >> 24);
    if (cls != 0) {
      ++classified;
      // Bump the 16-bit hit counter, touching only the counter lanes
      // (byte write control: lanes 0 and 1).
      const std::uint16_t hits = static_cast<std::uint16_t>(entry & 0xffff);
      model.enqueue(harness::Stimulus::write_of(slot, hits + 1u, 0x3));
      run(4);
      ++expected_hits[slot];
    } else {
      ++unknown;
    }
  }
  run(16);

  std::printf("packet_lookup: %d packets, %d lookups, %d classified, %d"
              " unknown\n",
              packets, lookups, classified, unknown);
  std::printf("scoreboard: %llu reads checked, %llu mismatches, %llu parity"
              " errors\n",
              static_cast<unsigned long long>(scoreboard.reads_checked()),
              static_cast<unsigned long long>(scoreboard.data_mismatches()),
              static_cast<unsigned long long>(scoreboard.parity_errors()));

  // Verify: device memory holds class + accumulated hit counts, and the
  // class byte survived every counter write (byte-enable discipline).
  bool ok = scoreboard.data_mismatches() == 0 &&
            scoreboard.parity_errors() == 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    const std::uint64_t slot = slot_of(flows[f], cfg.addr_bits);
    const std::uint64_t word =
        model.memory_word(cfg.bank_of(slot), cfg.mem_addr_of(slot));
    const std::uint8_t cls = static_cast<std::uint8_t>(word >> 24);
    const std::uint16_t hits = static_cast<std::uint16_t>(word & 0xffff);
    std::printf("  flow %zu: slot %llu class %u hits %u (expected %d)\n", f,
                static_cast<unsigned long long>(slot), cls, hits,
                expected_hits[slot]);
    ok = ok && cls == 10 + f &&
         hits == static_cast<std::uint16_t>(expected_hits[slot]);
  }
  std::puts(ok ? "packet_lookup PASSED" : "packet_lookup FAILED");
  return ok ? 0 : 1;
}
