// Word interpreter for the compiled bit-parallel backend.
//
// A Machine executes the straight-line programs of one csim::Compiled over
// its own slot array. Bit i of every slot word belongs to stimulus lane i:
// up to 64 independent streams advance per pass, each seeing exactly the
// values a dedicated rtl::CycleSim would compute for its stimulus (the
// differential property tests/csim_parity_test.cpp enforces).
//
// Lane discipline: word instructions always compute all 64 lanes (the
// extra lanes are free), so inactive lanes hold deterministic garbage that
// is never observed; the memory built-ins — the only per-lane-cost
// operations — skip lanes >= lanes(). set_lanes() bounds the occupied
// prefix; per-lane stimulus goes in through set_input_lane and results come
// out through get(net, lane).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "csim/compile.hpp"

namespace la1::csim {

/// Per-lane backing store of one rtl memory: values are *untransposed*
/// (bit i of `a[word * 64 + lane]` is the aval of bit i of that word in
/// that lane), because addresses differ per lane so reads/writes gather
/// and scatter lane by lane anyway.
struct MemImage {
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
};

class Machine {
 public:
  /// Borrows `compiled` (and transitively the module it was built from)
  /// for the machine's lifetime. Starts reset with all `lanes` active.
  explicit Machine(const Compiled& compiled, int lanes = 64);

  const Compiled& compiled() const { return *compiled_; }

  /// Active-lane count in [1, 64]; lanes >= this are dead weight.
  int lanes() const { return lanes_; }
  void set_lanes(int lanes);

  /// Back to the power-on image: register inits in every lane, inputs and
  /// wires zero, memories zero, then one combinational settle — the same
  /// observable state a freshly constructed CycleSim presents once its
  /// inputs are first driven.
  void reset();

  /// Broadcasts `value` into every lane of an input net.
  void set_input(rtl::NetId net, const rtl::LVec& value);
  void set_input(const std::string& name, std::uint64_t value);
  void set_input_bit(const std::string& name, bool value);
  /// Two-state broadcast: bit i of `value` drives bit i of the net in
  /// every lane (nets wider than 64 are rejected), X/Z sidebands cleared.
  void set_input_uint(rtl::NetId net, std::uint64_t value);
  /// Writes one lane only (read-modify-write of the lane's bit column).
  void set_input_lane(rtl::NetId net, int lane, const rtl::LVec& value);
  /// Two-state fast path of set_input_lane: bit i of `value` drives bit i
  /// of the net (nets wider than 64 are rejected), X/Z sidebands cleared.
  /// This is the per-tick drive path of 64-stream runs — no LVec decode.
  void set_input_lane_uint(rtl::NetId net, int lane, std::uint64_t value);

  /// Settles the combinational cloud (CycleSim::eval).
  void eval();

  /// One clock edge: settle, sample-and-commit every matching process,
  /// settle again — CycleSim::edge, for all lanes at once.
  void edge(rtl::NetId clock, rtl::Edge e);
  void edge(const std::string& clock_name, rtl::Edge e);

  /// Lane `lane`'s value of a net, decoded back to four-state.
  rtl::LVec get(rtl::NetId net, int lane) const;
  rtl::LVec get(const std::string& name, int lane) const;
  /// Throws std::runtime_error when the lane's value has X/Z bits.
  std::uint64_t get_uint(const std::string& name, int lane) const;

  /// Raw slot word `slot` (see Compiled::net_slots): bit l is lane l's
  /// aval or bval of one net bit. The word-level view lane batches compare
  /// all lanes through at once.
  std::uint64_t slot(std::int32_t slot) const {
    return slots_[static_cast<std::size_t>(slot)];
  }

  /// Whether >= 2 tristate drivers of `net` were enabled in `lane` at the
  /// last settle (the harness's bus_conflict tap). False for non-buses.
  bool bus_conflict(rtl::NetId net, int lane) const;

  /// Lane `lane`'s view of one memory word.
  rtl::LVec mem_word(rtl::MemId mem, std::uint64_t addr, int lane) const;
  void poke_mem(rtl::MemId mem, std::uint64_t addr, int lane,
                const rtl::LVec& value);

  std::int64_t edges_applied() const { return edges_; }

 private:
  void run(const Program& p);
  void exec_mem_read(const MemReadDesc& d);
  void exec_mem_write(const MemWriteDesc& d);
  rtl::NetId find_net(const std::string& name) const;

  const Compiled* compiled_;
  int lanes_ = 64;
  std::vector<std::uint64_t> slots_;
  std::vector<MemImage> mems_;
  std::int64_t edges_ = 0;
};

}  // namespace la1::csim
