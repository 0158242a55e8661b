// Synthesizable RTL model of the LA-1 interface (paper §4.4).
//
// Each UML class maps to a module; the multi-bank device instantiates the
// single-bank module N times and joins the per-bank read data paths through
// tristate buffers on the shared DOUT bus — exactly the construction the
// paper describes. The same netlist feeds the cycle simulator (Table 3), the
// Verilog emitter, and — after elaboration + memory expansion + bit-blasting
// with the [K, K#] edge schedule — the symbolic model checker (Table 2).
//
// Every observation tap the properties sample is a *registered* 1-bit
// output (read_start_q, dout_valid_k_q, ...) so property atoms are pure
// state functions, as the symbolic checker requires.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "psl/temporal.hpp"
#include "rtl/bitblast.hpp"
#include "rtl/netlist.hpp"

namespace la1::ovl {
class OvlBank;
}

namespace la1::core {

struct RtlConfig {
  int banks = 1;
  int data_bits = 16;      // per DDR beat
  int mem_addr_bits = 4;   // per-bank SRAM depth = 2^mem_addr_bits
  int read_latency = 2;    // K cycles to the first beat (3/4 = LA-1B mode)

  /// Write-enable lanes per beat: one per byte at full width; shrunk
  /// geometries (model checking) keep a single lane covering the beat.
  int lanes() const { return data_bits >= 8 ? data_bits / 8 : 1; }
  int lane_width() const { return data_bits / lanes(); }
  int beat_pins() const { return data_bits + lanes(); }  // 1 parity bit/lane
  int word_bits() const { return 2 * data_bits; }
  int latency_ticks() const { return 2 * read_latency; }
  int bank_bits() const {
    int b = 0;
    while ((1 << b) < banks) ++b;
    return b;
  }
  int addr_bits() const { return mem_addr_bits + bank_bits(); }
  int mem_depth() const { return 1 << mem_addr_bits; }

  /// Tiny geometry used by the Table-2 symbolic runs: 2-bit beats with one
  /// parity bit and one write-enable lane — the protocol shape (DDR beats,
  /// parity, write control) at the smallest state count, exactly the
  /// "define the domains tightly" guidance of the paper (§5.1).
  static RtlConfig model_checking(int banks) {
    RtlConfig c;
    c.banks = banks;
    c.data_bits = 1;
    c.mem_addr_bits = 1;
    return c;
  }
};

/// Builds the single-bank module ("la1_bank<i>"); `index` fixes the bank
/// decode constant baked into the selection logic.
rtl::Module build_bank_module(const RtlConfig& cfg, int index);

/// A multi-bank device plus its bank child modules (the children must
/// outlive the top module, hence the bundle).
struct RtlDevice {
  RtlConfig cfg;
  std::vector<std::unique_ptr<rtl::Module>> bank_modules;
  std::unique_ptr<rtl::Module> top;

  /// Elaborated flat module (hierarchy inlined).
  rtl::Module flatten() const { return rtl::elaborate(*top); }
};

RtlDevice build_device(const RtlConfig& cfg);

/// The clock-edge schedule every LA-1 RTL consumer uses: rising K, then
/// rising K#.
std::vector<rtl::ClockStep> clock_schedule(const rtl::Module& flat);

/// The catalog rows the netlist observes (level_suite(Level::kRtl)); atom
/// names are flattened net names ("bank0.read_start_q", "DOUT.__conflict").
std::vector<std::pair<std::string, psl::PropPtr>> rtl_properties(
    const RtlConfig& cfg);

/// The read-mode property alone (Table 2 checks the Read Mode): bank 0's
/// P1 and P2 conjoined.
psl::PropPtr rtl_read_mode_property(const RtlConfig& cfg);

/// "READ_MODE" followed by rtl_properties(cfg): the set flow analysis and
/// the cone-of-influence bench check.
std::vector<std::pair<std::string, psl::PropPtr>> rtl_mc_properties(
    const RtlConfig& cfg);

/// The device's OVL monitor set, instantiated into the (possibly mutated)
/// flat module of a `banks`-bank device so the monitor logic simulates with
/// the design: per bank read_latency_b<i>, read_burst_b<i> and
/// write_ready_b<i>, plus exclusive_drive over the bank DOUT enables.
void attach_ovl_monitors(rtl::Module& flat, ovl::OvlBank& bank, int banks);

}  // namespace la1::core
