// Straight-line bytecode for the compiled bit-parallel simulation backend.
//
// The compiler (csim/compile.hpp) lowers a flat rtl::Module to programs of
// fixed-shape word instructions over a dense array of 64-bit slots. Each
// slot carries one net bit across 64 independent stimulus lanes — the same
// transposition dfa::sweep uses for signature collection, promoted here to
// the production simulator.
//
// Value encoding (VPI aval/bval): every expression bit is a pair of slots
// (a, b) with  0 = (0,0),  1 = (1,0),  Z = (0,1),  X = (1,1).  Bits the
// compile plan proves two-state (class P) get no bval slot at all — their
// `b` reference points at the pinned all-zero slot, and every operator
// collapses to its bare one-instruction two-state form when all operand
// bval references are statically zero. That collapse is where the speedup
// over the four-state interpreter comes from; the full four-state formulas
// only run on the plan's x-transient / x-live bits.
//
// Memory ports do not lower to straight-line decode trees: kMemRead and
// kMemWrite reference descriptor tables and run as interpreter built-ins
// (each lane has its own address). A read port with few active lanes costs
// O(active_lanes * width) bit moves; at occupancy it costs two or three
// 64x64 bit transposes plus one image gather per lane. A write port visits
// only the lanes whose write enable is not 0, and decodes their addresses
// and data by transposes too when enough of them write.
#pragma once

#include <cstdint>
#include <vector>

#include "rtl/netlist.hpp"

namespace la1::csim {

/// Slot 0 is pinned all-zero, slot 1 all-ones: constants and statically
/// two-state bval references cost no instructions.
inline constexpr std::int32_t kZeroSlot = 0;
inline constexpr std::int32_t kOnesSlot = 1;

enum class OpCode : std::uint8_t {
  kConst,    // d = imm
  kMov,      // d = s0
  kNot,      // d = ~s0
  kAnd,      // d = s0 & s1
  kOr,       // d = s0 | s1
  kXor,      // d = s0 ^ s1
  kXnor,     // d = ~(s0 ^ s1)
  kNor,      // d = ~(s0 | s1)
  kAndn,     // d = s0 & ~s1
  kOrn,      // d = ~s0 | s1
  kMux,      // d = (s0 & s2) | (s1 & ~s2)
  kXor3,     // d = s0 ^ s1 ^ s2       (ripple-carry sum)
  kCarry,    // d = (s0&s1) | (s2&(s0^s1))
  kOrAcc,    // d |= s0
  kAndOr,    // d |= s0 & s1
  kMemRead,  // built-in: mem_reads()[imm]
  kMemWrite, // built-in: mem_writes()[imm]
  kCount,    // d += 1                 (a step program's edge counter)
  kXorAt,    // d ^= s0 when s1 == imm (bit-flip force on its edge)
};

struct Instr {
  OpCode op = OpCode::kConst;
  std::int32_t d = 0;
  std::int32_t s0 = 0;
  std::int32_t s1 = 0;
  std::int32_t s2 = 0;
  std::uint64_t imm = 0;
};

/// One expression bit: slot indices of its aval and bval words. A `b` of
/// kZeroSlot means the bit is statically two-state.
struct BitRef {
  std::int32_t a = kZeroSlot;
  std::int32_t b = kZeroSlot;

  bool two_state() const { return b == kZeroSlot; }
};

struct Program {
  std::vector<Instr> code;
};

/// Combinational read port: per active lane, decode the address from the
/// addr bit slots, gather the word (all-X on an undefined or out-of-range
/// address, mirroring CycleSim) and scatter it into the out bit slots; the
/// out bits of inactive lanes are left as they are.
struct MemReadDesc {
  rtl::MemId mem = rtl::kInvalidId;
  int depth = 0;
  int width = 0;
  std::vector<BitRef> addr;
  std::vector<std::int32_t> out_a;  // per bit
  std::vector<std::int32_t> out_b;  // per bit
};

/// Synchronous write port, applied at the clock edge with the operand
/// values phase-1 of the step program already evaluated. Per active lane:
/// wen 0 skips (such lanes are never visited), an undefined address Xes the whole lane image, a known
/// out-of-range address is ignored (SRAM decode), an undefined wen or byte
/// enable Xes the touched word/lanes — exactly CycleSim::edge's rules.
struct MemWriteDesc {
  rtl::MemId mem = rtl::kInvalidId;
  int depth = 0;
  int width = 0;
  std::vector<BitRef> addr;
  std::vector<BitRef> data;
  BitRef wen;
  std::vector<BitRef> byte_enables;  // empty = whole-word write
};

/// One compiled clock-edge step: evaluate every sequential right-hand side
/// and write-port operand into temps, flip the clock slot, commit registers,
/// apply the per-lane register forces (csim::Force), then apply the write
/// descriptors — the two-phase nonblocking semantics of CycleSim::edge in
/// straight-line form.
struct StepProgram {
  rtl::NetId clock = rtl::kInvalidId;
  rtl::Edge edge = rtl::Edge::kPos;
  Program body;
};

}  // namespace la1::csim
