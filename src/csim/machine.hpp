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
// is never observed. set_lanes() bounds the occupied prefix: the memory
// built-ins leave the slot bits and images of lanes >= lanes() untouched.
// With few active lanes they decode lane by lane; at occupancy they move
// whole 64x64 bit matrices (one transpose turns the address slots into
// per-lane indices, another turns the gathered words back into slots), so
// a read port costs a few transposes rather than lanes * width bit moves.
//
// Drive path: on a machine with enough lanes for an input net to reach the
// transpose, set_input_lane_uint stages its value in the net's row; below
// that it writes the lane's bit column at once. Staged rows are applied to
// the slots net by net — one transpose per net when enough lanes are
// staged — before anything reads the slots or writes an input another way
// (eval, edge, get, slot, bus_conflict, broadcasts, LVec lane writes,
// set_lanes), so every write takes effect in call order. reset() discards
// staged values. Results come out through get(net, lane).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "csim/compile.hpp"
#include "util/json.hpp"

namespace la1::csim {

/// Per-lane backing store of one rtl memory: values are *untransposed*
/// (bit i of `a[word * 64 + lane]` is the aval of bit i of that word in
/// that lane), because addresses differ per lane so reads/writes gather
/// and scatter lane by lane anyway.
struct MemImage {
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> b;
};

/// Work counters, zeroed by Machine::reset(). Plain increments on the
/// per-edge paths; kept out of every report hash.
struct MachineStats {
  std::int64_t edges = 0;
  std::int64_t lane_edges = 0;       // active lanes summed over edges
  std::int64_t mem_reads = 0;        // read-port executions
  std::int64_t mem_writes = 0;       // write-port executions
  std::int64_t lanes_gathered = 0;   // lanes a read port decoded
  std::int64_t lanes_scattered = 0;  // lanes a write port visited (wen != 0)
  std::int64_t input_flushes = 0;    // staged input nets applied to slots

  /// Mean active lanes per edge (0 before the first edge).
  double occupancy() const {
    return edges == 0 ? 0.0 : static_cast<double>(lane_edges) / edges;
  }
  util::Json to_json() const;
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
  /// This is the per-tick drive path of 64-stream runs — no LVec decode;
  /// on a wide machine the value is staged until the next read (see the
  /// drive-path note above).
  void set_input_lane_uint(rtl::NetId net, int lane, std::uint64_t value);

  /// Settles the combinational cloud (CycleSim::eval).
  void eval();

  /// One clock edge: settle, sample-and-commit every matching process,
  /// settle again — CycleSim::edge, for all lanes at once.
  void edge(rtl::NetId clock, rtl::Edge e);
  void edge(const std::string& clock_name, rtl::Edge e);

  /// Lane `lane`'s value of a net, decoded back to four-state. Like every
  /// per-lane accessor below, throws std::invalid_argument for a lane
  /// outside [0, lanes()).
  rtl::LVec get(rtl::NetId net, int lane) const;
  rtl::LVec get(const std::string& name, int lane) const;
  /// Throws std::runtime_error when the lane's value has X/Z bits.
  std::uint64_t get_uint(const std::string& name, int lane) const;

  /// Raw slot word `slot` (see Compiled::net_slots): bit l is lane l's
  /// aval or bval of one net bit. The word-level view lane batches compare
  /// all lanes through at once.
  std::uint64_t slot(std::int32_t slot) const {
    if (!dirty_.empty()) flush();
    return slots_[static_cast<std::size_t>(slot)];
  }

  /// Whether >= 2 tristate drivers of `net` were enabled in `lane` at the
  /// last settle (the harness's bus_conflict tap). False for non-buses.
  bool bus_conflict(rtl::NetId net, int lane) const;

  /// Lane `lane`'s view of one memory word.
  rtl::LVec mem_word(rtl::MemId mem, std::uint64_t addr, int lane) const;
  void poke_mem(rtl::MemId mem, std::uint64_t addr, int lane,
                const rtl::LVec& value);

  std::int64_t edges_applied() const { return stats_.edges; }
  const MachineStats& stats() const { return stats_; }

 private:
  /// One input net's staged lane values: bit l of `mask` marks rows[l] as
  /// lane l's pending two-state value.
  struct StagedInput {
    rtl::NetId net = rtl::kInvalidId;
    int width = 0;
    std::uint64_t mask = 0;
    std::array<std::uint64_t, 64> rows{};
  };

  void run(const Program& p);
  void exec_mem_read(const MemReadDesc& d);
  void exec_mem_read_bulk(const MemReadDesc& d);
  void exec_mem_write(const MemWriteDesc& d);
  void exec_mem_write_bulk(const MemWriteDesc& d, std::uint64_t writers);
  /// One writing lane's commit under CycleSim's rules, from its decoded
  /// address (`unknown`: some address bit X/Z) and data words.
  void write_word(const MemWriteDesc& d, int lane, bool unknown,
                  std::uint64_t idx, std::uint64_t da, std::uint64_t db);
  /// Lane `lane` of a two-state input := `value`, read-modify-write.
  void write_lane(const NetSlots& ns, int lane, std::uint64_t value) const;
  /// Applies every staged input row to the slots and clears the stage.
  /// Logically const: it only completes writes already issued.
  void flush() const;
  const rtl::Net& input_net(rtl::NetId net) const;
  void check_lane(int lane) const;
  rtl::NetId find_net(const std::string& name) const;

  const Compiled* compiled_;
  int lanes_ = 64;
  std::uint64_t active_ = ~0ull;  // bit l set for every lane l < lanes_
  mutable std::vector<std::uint64_t> slots_;
  std::vector<MemImage> mems_;
  // Per net: index into staged_ for inputs at most 64 bits wide, else -1.
  std::vector<std::int32_t> stage_of_;
  mutable std::vector<StagedInput> staged_;
  mutable std::vector<std::int32_t> dirty_;  // staged_ entries with a mask
  mutable MachineStats stats_;
};

}  // namespace la1::csim
