// Figure 1 — Look-Aside Interface (4 Banks): structural reproduction.
//
// Prints the pin inventory of the generated 4-bank RTL device against the
// LA-1 implementation agreement (18-pin DDR data paths, single address bus,
// R#/W# selects, byte write control, master clock pair), plus the per-bank
// structure and the tristate interconnect joining the banks.
//
//   --banks N   (default 4, as in the figure)
#include <cstdio>

#include "la1/rtl_model.hpp"
#include "la1/spec.hpp"
#include "rtl/netlist.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace la1;
  const util::Cli cli(argc, argv);
  const int banks = cli.get_bounded("banks", 4, 1);
  for (const auto& unused : cli.unused()) {
    std::fprintf(stderr, "unknown option --%s\n", unused.c_str());
    return 2;
  }

  core::RtlConfig cfg;
  cfg.banks = banks;
  cfg.data_bits = 16;
  cfg.mem_addr_bits = 8;
  const core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module& top = *dev.top;

  std::printf("Figure 1 - Look-Aside Interface (%d banks): pin inventory\n\n",
              banks);

  util::Table pins({"Pin group", "Width", "Direction", "LA-1 role"});
  auto add_pin = [&](const char* name, const char* role) {
    const rtl::NetId id = top.find_net(name);
    const rtl::Net& n = top.net(id);
    pins.add_row({name, std::to_string(n.width),
                  n.kind == rtl::NetKind::kInput ? "host -> device"
                                                 : "device -> host",
                  role});
  };
  add_pin("K", "master clock");
  add_pin("KS", "master clock, 180 deg out of phase (K#)");
  add_pin("R_n", "READ_SEL, active low at rising K");
  add_pin("W_n", "WRITE_SEL, active low at rising K");
  add_pin("A", "single shared address bus");
  add_pin("D", "DDR write data path (16 data + 2 even byte parity)");
  add_pin("BWE_n", "byte write control, active low");
  add_pin("DOUT", "DDR read data path (16 data + 2 even byte parity)");
  std::fputs(pins.render().c_str(), stdout);

  std::printf("\nSpec cross-check: beat pins = %d (expected 18), lanes = %d,"
              " word = %d bits\n",
              cfg.beat_pins(), cfg.lanes(), cfg.word_bits());

  util::Table structure({"Component", "Count / Size"});
  structure.add_row({"bank instances", std::to_string(top.instances().size())});
  structure.add_row(
      {"tristate drivers on DOUT", std::to_string(top.tristates().size())});
  const auto bank_stats = dev.bank_modules.front()->stats();
  structure.add_row({"per-bank registers", std::to_string(bank_stats.regs)});
  structure.add_row(
      {"per-bank register bits", std::to_string(bank_stats.reg_bits)});
  structure.add_row(
      {"per-bank SRAM bits", std::to_string(bank_stats.memory_bits)});
  structure.add_row(
      {"per-bank clocked processes", std::to_string(bank_stats.processes)});
  const auto flat_stats = dev.flatten().stats();
  structure.add_row({"flattened register bits",
                     std::to_string(flat_stats.reg_bits)});
  structure.add_row({"flattened expressions",
                     std::to_string(flat_stats.exprs)});
  std::printf("\n%s", structure.render().c_str());

  std::puts("\nShape check (paper Figure 1): one shared pin bundle, N banks"
            "\njoined by tristate buffers on the read data path.");
  return 0;
}
