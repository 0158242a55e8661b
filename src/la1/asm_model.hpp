// ASM model of the LA-1 interface (paper §4.2, Figure 4).
//
// The machine mirrors the UML classes — per-bank ReadPort/WritePort/SRAM
// state plus the embedded "light Verilog simulator" (SimManager): clock
// locations m_k/m_ks, a SystemFlag/SimStatus lifecycle, and two tick rules
// (rising K, rising K#) that advance every bank's pipeline simultaneously,
// one ASM step per clock edge. Host nondeterminism — whether a read/write
// request arrives, at which address, with what data — is expressed as rule
// arguments over finite domains, which is exactly AsmL's exploration
// configuration (§5.1): the explorer enumerates the domains exhaustively.
//
// Locations reuse the canonical tap names ("b0.read_start", ...), so the
// catalog's rows bind to the ASM unrenamed (la1/properties.hpp).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "asml/machine.hpp"
#include "psl/temporal.hpp"

namespace la1::core {

struct AsmConfig {
  int banks = 1;
  int mem_addr_bits = 1;  // per-bank SRAM depth = 2^mem_addr_bits
  int data_values = 2;    // beat data domain size (1-bit data by default)

  int mem_depth() const { return 1 << mem_addr_bits; }
  int addr_space() const { return banks << mem_addr_bits; }
  int bank_of(int addr) const { return addr >> mem_addr_bits; }
  int mem_addr_of(int addr) const { return addr & (mem_depth() - 1); }
};

/// Builds the LA-1 ASM machine.
asml::Machine build_asm_model(const AsmConfig& cfg);

/// The catalog rows the ASM observes (level_suite(Level::kAsm)) at the
/// spec read latency.
std::vector<std::pair<std::string, psl::PropPtr>> asm_properties(
    const AsmConfig& cfg);

}  // namespace la1::core
