#include "csim/machine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace la1::csim {

namespace {

// Measured crossover between the lane-by-lane and the transpose paths: a
// read port (active lanes * word width), a write port (writing lanes *
// word width) or a staged input net (staged lanes * net width) goes
// through 64x64 transposes once it would move at least this many
// lane-bits one at a time. One transpose costs about as much as ~110
// single-bit read-modify-writes (x86-64, -O2); below the crossover the
// lane-by-lane paths run as they always did.
constexpr int kBulkBits = 128;

rtl::Logic decode(bool a, bool b) {
  if (b) return a ? rtl::Logic::kX : rtl::Logic::kZ;
  return a ? rtl::Logic::k1 : rtl::Logic::k0;
}

std::uint64_t width_mask(int width) {
  return width >= 64 ? ~0ull : (1ull << width) - 1;
}

/// One stage of the 64x64 transpose: swaps the off-diagonal JxJ blocks of
/// every 2Jx2J block. `M` selects the low J bits of each 2J-bit group.
template <int J, std::uint64_t M>
void transpose_stage(std::uint64_t* a) {
  for (int k = 0; k < 64; k += 2 * J) {
    for (int i = k; i < k + J; ++i) {
      const std::uint64_t t = ((a[i] >> J) ^ a[i + J]) & M;
      a[i] ^= t << J;
      a[i + J] ^= t;
    }
  }
}

/// In-place bit-matrix transpose: afterwards bit j of a[i] is what bit i of
/// a[j] was — 64 lane words become 64 bit columns, and back.
void transpose64(std::uint64_t* a) {
  transpose_stage<32, 0x00000000ffffffffull>(a);
  transpose_stage<16, 0x0000ffff0000ffffull>(a);
  transpose_stage<8, 0x00ff00ff00ff00ffull>(a);
  transpose_stage<4, 0x0f0f0f0f0f0f0f0full>(a);
  transpose_stage<2, 0x3333333333333333ull>(a);
  transpose_stage<1, 0x5555555555555555ull>(a);
}

/// Writes the bits of `value` selected by `mask` into `word`.
void merge(std::uint64_t& word, std::uint64_t value, std::uint64_t mask) {
  word = (word & ~mask) | (value & mask);
}

/// Per-lane words of one side (`&BitRef::a` or `&BitRef::b`) of a bit
/// vector: afterwards bit i of rows[l] is lane l's bit i. Bits past 63 are
/// dropped, as LVec::to_uint drops them.
void lane_words(const std::uint64_t* s, const std::vector<BitRef>& bits,
                std::int32_t BitRef::*side, std::array<std::uint64_t, 64>& rows) {
  const std::size_t n = std::min<std::size_t>(bits.size(), 64);
  for (std::size_t i = 0; i < n; ++i) rows[i] = s[bits[i].*side];
  for (std::size_t i = n; i < 64; ++i) rows[i] = 0;
  transpose64(rows.data());
}

/// Lanes in which any bit of the vector is X or Z.
std::uint64_t unknown_lanes(const std::uint64_t* s,
                            const std::vector<BitRef>& bits) {
  std::uint64_t out = 0;
  for (const BitRef& bit : bits) out |= s[bit.b];
  return out;
}

}  // namespace

util::Json MachineStats::to_json() const {
  util::Json j = util::Json::object();
  j.set("edges", edges);
  j.set("occupancy", occupancy());
  j.set("mem_reads", mem_reads);
  j.set("mem_writes", mem_writes);
  j.set("lanes_gathered", lanes_gathered);
  j.set("lanes_scattered", lanes_scattered);
  j.set("input_flushes", input_flushes);
  return j;
}

Machine::Machine(const Compiled& compiled, int lanes) : compiled_(&compiled) {
  set_lanes(lanes);
  mems_.resize(compiled_->mems().size());
  const rtl::Module& m = compiled_->module();
  stage_of_.assign(static_cast<std::size_t>(m.net_count()), -1);
  for (rtl::NetId id = 0; id < m.net_count(); ++id) {
    const rtl::Net& n = m.net(id);
    if (n.kind != rtl::NetKind::kInput || n.width > 64) continue;
    stage_of_[static_cast<std::size_t>(id)] =
        static_cast<std::int32_t>(staged_.size());
    staged_.push_back(StagedInput{id, n.width, 0, {}});
  }
  reset();
}

void Machine::set_lanes(int lanes) {
  if (lanes < 1 || lanes > 64) {
    throw std::invalid_argument("csim::Machine lanes must be in [1, 64]");
  }
  if (!dirty_.empty()) flush();
  lanes_ = lanes;
  active_ = width_mask(lanes);
}

void Machine::reset() {
  for (const std::int32_t k : dirty_) {
    staged_[static_cast<std::size_t>(k)].mask = 0;
  }
  dirty_.clear();
  slots_ = compiled_->reset_image();
  for (std::size_t m = 0; m < mems_.size(); ++m) {
    const std::size_t words =
        static_cast<std::size_t>(compiled_->mems()[m].depth) * 64;
    mems_[m].a.assign(words, 0);
    mems_[m].b.assign(words, 0);
  }
  stats_ = MachineStats{};
  run(compiled_->comb());
}

// The dispatch loop's speed depends on where its code lands: an unrelated
// 48-byte shift of this function measured ~20% on a 1-lane edge
// (BM_CsimEdge). Pinning it to a cache line keeps edits elsewhere in this
// file from moving it.
[[gnu::aligned(64)]] void Machine::run(const Program& p) {
  std::uint64_t* s = slots_.data();
  for (const Instr& in : p.code) {
    switch (in.op) {
      case OpCode::kConst:
        s[in.d] = in.imm;
        break;
      case OpCode::kMov:
        s[in.d] = s[in.s0];
        break;
      case OpCode::kNot:
        s[in.d] = ~s[in.s0];
        break;
      case OpCode::kAnd:
        s[in.d] = s[in.s0] & s[in.s1];
        break;
      case OpCode::kOr:
        s[in.d] = s[in.s0] | s[in.s1];
        break;
      case OpCode::kXor:
        s[in.d] = s[in.s0] ^ s[in.s1];
        break;
      case OpCode::kXnor:
        s[in.d] = ~(s[in.s0] ^ s[in.s1]);
        break;
      case OpCode::kNor:
        s[in.d] = ~(s[in.s0] | s[in.s1]);
        break;
      case OpCode::kAndn:
        s[in.d] = s[in.s0] & ~s[in.s1];
        break;
      case OpCode::kOrn:
        s[in.d] = ~s[in.s0] | s[in.s1];
        break;
      case OpCode::kMux:
        s[in.d] = (s[in.s0] & s[in.s2]) | (s[in.s1] & ~s[in.s2]);
        break;
      case OpCode::kXor3:
        s[in.d] = s[in.s0] ^ s[in.s1] ^ s[in.s2];
        break;
      case OpCode::kCarry: {
        const std::uint64_t x = s[in.s0];
        const std::uint64_t y = s[in.s1];
        s[in.d] = (x & y) | (s[in.s2] & (x ^ y));
        break;
      }
      case OpCode::kOrAcc:
        s[in.d] |= s[in.s0];
        break;
      case OpCode::kAndOr:
        s[in.d] |= s[in.s0] & s[in.s1];
        break;
      case OpCode::kCount:
        ++s[in.d];
        break;
      case OpCode::kXorAt:
        if (s[in.s1] == in.imm) s[in.d] ^= s[in.s0];
        break;
      case OpCode::kMemRead:
        exec_mem_read(
            compiled_->mem_reads()[static_cast<std::size_t>(in.imm)]);
        s = slots_.data();
        break;
      case OpCode::kMemWrite:
        exec_mem_write(
            compiled_->mem_writes()[static_cast<std::size_t>(in.imm)]);
        s = slots_.data();
        break;
    }
  }
}

void Machine::exec_mem_read(const MemReadDesc& d) {
  ++stats_.mem_reads;
  stats_.lanes_gathered += lanes_;
  if (lanes_ * d.width >= kBulkBits) {
    exec_mem_read_bulk(d);
    return;
  }
  const MemImage& img = mems_[static_cast<std::size_t>(d.mem)];
  std::uint64_t* s = slots_.data();
  for (int lane = 0; lane < lanes_; ++lane) {
    const std::uint64_t m = 1ull << lane;
    // Decode this lane's address: any X/Z bit, like LVec::to_uint, makes
    // the read all-X; defined bits past 63 are dropped the same way.
    bool unknown = false;
    std::uint64_t idx = 0;
    for (std::size_t i = 0; i < d.addr.size(); ++i) {
      if (s[d.addr[i].b] & m) unknown = true;
      if (i < 64 && (s[d.addr[i].a] & m)) idx |= 1ull << i;
    }
    if (unknown || idx >= static_cast<std::uint64_t>(d.depth)) {
      for (int i = 0; i < d.width; ++i) {
        s[d.out_a[static_cast<std::size_t>(i)]] |= m;
        s[d.out_b[static_cast<std::size_t>(i)]] |= m;
      }
      continue;
    }
    const std::size_t w = static_cast<std::size_t>(idx) * 64 +
                          static_cast<std::size_t>(lane);
    const std::uint64_t va = img.a[w];
    const std::uint64_t vb = img.b[w];
    for (int i = 0; i < d.width; ++i) {
      std::uint64_t& oa = s[d.out_a[static_cast<std::size_t>(i)]];
      std::uint64_t& ob = s[d.out_b[static_cast<std::size_t>(i)]];
      oa = (va >> i) & 1 ? (oa | m) : (oa & ~m);
      ob = (vb >> i) & 1 ? (ob | m) : (ob & ~m);
    }
  }
}

void Machine::exec_mem_read_bulk(const MemReadDesc& d) {
  const MemImage& img = mems_[static_cast<std::size_t>(d.mem)];
  std::uint64_t* s = slots_.data();
  // Address slots -> per-lane indices. Any X/Z address bit makes that
  // lane's read all-X.
  std::array<std::uint64_t, 64> idx;
  lane_words(s, d.addr, &BitRef::a, idx);
  const std::uint64_t unknown = unknown_lanes(s, d.addr);

  // Gather each active lane's word; lanes past lanes_ stay zero rows.
  const std::uint64_t wmask = width_mask(d.width);
  std::array<std::uint64_t, 64> va{};
  std::array<std::uint64_t, 64> vb{};
  std::uint64_t any_b = 0;
  for (int lane = 0; lane < lanes_; ++lane) {
    const std::size_t l = static_cast<std::size_t>(lane);
    if (((unknown >> lane) & 1) != 0 ||
        idx[l] >= static_cast<std::uint64_t>(d.depth)) {
      va[l] = wmask;
      vb[l] = wmask;
    } else {
      const std::size_t w = static_cast<std::size_t>(idx[l]) * 64 + l;
      va[l] = img.a[w];
      vb[l] = img.b[w];
    }
    any_b |= vb[l];
  }

  // Lane words -> out slots, merged under the active mask.
  transpose64(va.data());
  for (int i = 0; i < d.width; ++i) {
    merge(s[d.out_a[static_cast<std::size_t>(i)]],
          va[static_cast<std::size_t>(i)], active_);
  }
  if (any_b == 0) {
    for (int i = 0; i < d.width; ++i) {
      s[d.out_b[static_cast<std::size_t>(i)]] &= ~active_;
    }
    return;
  }
  transpose64(vb.data());
  for (int i = 0; i < d.width; ++i) {
    merge(s[d.out_b[static_cast<std::size_t>(i)]],
          vb[static_cast<std::size_t>(i)], active_);
  }
}

void Machine::exec_mem_write(const MemWriteDesc& d) {
  ++stats_.mem_writes;
  const std::uint64_t* s = slots_.data();
  // Only lanes whose wen is not 0 (1, X or Z) touch their image.
  std::uint64_t writers = (s[d.wen.a] | s[d.wen.b]) & active_;
  const int count = std::popcount(writers);
  stats_.lanes_scattered += count;
  if (count * d.width >= kBulkBits) {
    exec_mem_write_bulk(d, writers);
    return;
  }
  for (; writers != 0; writers &= writers - 1) {
    const int lane = std::countr_zero(writers);
    const std::uint64_t m = 1ull << lane;
    bool unknown = false;
    std::uint64_t idx = 0;
    for (std::size_t i = 0; i < d.addr.size(); ++i) {
      if (s[d.addr[i].b] & m) unknown = true;
      if (i < 64 && (s[d.addr[i].a] & m)) idx |= 1ull << i;
    }
    std::uint64_t da = 0;
    std::uint64_t db = 0;
    for (std::size_t i = 0; i < d.data.size(); ++i) {
      if (s[d.data[i].a] & m) da |= 1ull << i;
      if (s[d.data[i].b] & m) db |= 1ull << i;
    }
    write_word(d, lane, unknown, idx, da, db);
  }
}

void Machine::exec_mem_write_bulk(const MemWriteDesc& d,
                                  std::uint64_t writers) {
  // Enough writing lanes: decode every lane's address and data by
  // transposes instead of bit by bit.
  const std::uint64_t* s = slots_.data();
  std::array<std::uint64_t, 64> idx;
  std::array<std::uint64_t, 64> da;
  std::array<std::uint64_t, 64> db;
  lane_words(s, d.addr, &BitRef::a, idx);
  const std::uint64_t unknown = unknown_lanes(s, d.addr);
  lane_words(s, d.data, &BitRef::a, da);
  if ((unknown_lanes(s, d.data) & writers) != 0) {
    lane_words(s, d.data, &BitRef::b, db);
  } else {
    db.fill(0);
  }
  for (; writers != 0; writers &= writers - 1) {
    const int lane = std::countr_zero(writers);
    const std::size_t l = static_cast<std::size_t>(lane);
    write_word(d, lane, ((unknown >> lane) & 1) != 0, idx[l], da[l], db[l]);
  }
}

void Machine::write_word(const MemWriteDesc& d, int lane, bool unknown,
                         std::uint64_t idx, std::uint64_t da,
                         std::uint64_t db) {
  MemImage& img = mems_[static_cast<std::size_t>(d.mem)];
  const std::uint64_t* s = slots_.data();
  const std::uint64_t wmask = width_mask(d.width);
  const std::uint64_t m = 1ull << lane;
  if (unknown) {
    // Possibly-active write to an unknown address: the whole memory is
    // suspect in this lane (CycleSim's all-X rule).
    for (int w = 0; w < d.depth; ++w) {
      const std::size_t at = static_cast<std::size_t>(w) * 64 +
                             static_cast<std::size_t>(lane);
      img.a[at] = wmask;
      img.b[at] = wmask;
    }
    return;
  }
  if (idx >= static_cast<std::uint64_t>(d.depth)) return;  // SRAM decode
  const std::size_t at = static_cast<std::size_t>(idx) * 64 +
                         static_cast<std::size_t>(lane);
  if ((s[d.wen.b] & m) != 0) {  // wen X or Z: the touched word is unknown
    img.a[at] = wmask;
    img.b[at] = wmask;
    return;
  }
  if (d.byte_enables.empty()) {
    img.a[at] = da;
    img.b[at] = db;
    return;
  }
  const int lw = d.width / static_cast<int>(d.byte_enables.size());
  for (std::size_t be = 0; be < d.byte_enables.size(); ++be) {
    const bool be_a = (s[d.byte_enables[be].a] & m) != 0;
    const bool be_b = (s[d.byte_enables[be].b] & m) != 0;
    const std::uint64_t lmask = width_mask(lw) << (be * static_cast<std::size_t>(lw));
    if (be_b) {  // undefined enable: the lane's bits are unknown
      img.a[at] |= lmask;
      img.b[at] |= lmask;
    } else if (be_a) {  // enabled: copy the data lane
      img.a[at] = (img.a[at] & ~lmask) | (da & lmask);
      img.b[at] = (img.b[at] & ~lmask) | (db & lmask);
    }  // be == 0: keep
  }
}

const rtl::Net& Machine::input_net(rtl::NetId net) const {
  const rtl::Net& n = compiled_->module().net(net);
  if (n.kind != rtl::NetKind::kInput) {
    throw std::invalid_argument("set_input on non-input net: " + n.name);
  }
  return n;
}

void Machine::check_lane(int lane) const {
  if (lane < 0 || lane >= lanes_) {
    throw std::invalid_argument("csim::Machine: lane out of range");
  }
}

void Machine::set_input(rtl::NetId net, const rtl::LVec& value) {
  const rtl::Net& n = input_net(net);
  if (value.width() != n.width) {
    throw std::invalid_argument("set_input width mismatch on " + n.name);
  }
  if (!dirty_.empty()) flush();
  const NetSlots& ns = compiled_->net_slots(net);
  for (int i = 0; i < n.width; ++i) {
    const rtl::Logic v = value.bit(i);
    const bool a = v == rtl::Logic::k1 || v == rtl::Logic::kX;
    const bool b = v == rtl::Logic::kZ || v == rtl::Logic::kX;
    if (b && ns.b[static_cast<std::size_t>(i)] == kZeroSlot) {
      throw std::invalid_argument(
          "set_input: X/Z on plan-proven two-state bit of " + n.name);
    }
    slots_[static_cast<std::size_t>(ns.a[static_cast<std::size_t>(i)])] =
        a ? ~0ull : 0;
    if (ns.b[static_cast<std::size_t>(i)] != kZeroSlot) {
      slots_[static_cast<std::size_t>(ns.b[static_cast<std::size_t>(i)])] =
          b ? ~0ull : 0;
    }
  }
}

void Machine::set_input(const std::string& name, std::uint64_t value) {
  const rtl::NetId id = find_net(name);
  set_input(id, rtl::LVec::from_uint(value, compiled_->module().net(id).width));
}

void Machine::set_input_bit(const std::string& name, bool value) {
  set_input(name, value ? 1u : 0u);
}

void Machine::set_input_lane(rtl::NetId net, int lane, const rtl::LVec& value) {
  const rtl::Net& n = input_net(net);
  if (value.width() != n.width) {
    throw std::invalid_argument("set_input width mismatch on " + n.name);
  }
  check_lane(lane);
  if (!dirty_.empty()) flush();
  const NetSlots& ns = compiled_->net_slots(net);
  const std::uint64_t m = 1ull << lane;
  for (int i = 0; i < n.width; ++i) {
    const rtl::Logic v = value.bit(i);
    const bool a = v == rtl::Logic::k1 || v == rtl::Logic::kX;
    const bool b = v == rtl::Logic::kZ || v == rtl::Logic::kX;
    if (b && ns.b[static_cast<std::size_t>(i)] == kZeroSlot) {
      throw std::invalid_argument(
          "set_input: X/Z on plan-proven two-state bit of " + n.name);
    }
    std::uint64_t& wa =
        slots_[static_cast<std::size_t>(ns.a[static_cast<std::size_t>(i)])];
    wa = a ? (wa | m) : (wa & ~m);
    if (ns.b[static_cast<std::size_t>(i)] != kZeroSlot) {
      std::uint64_t& wb =
          slots_[static_cast<std::size_t>(ns.b[static_cast<std::size_t>(i)])];
      wb = b ? (wb | m) : (wb & ~m);
    }
  }
}

void Machine::set_input_uint(rtl::NetId net, std::uint64_t value) {
  const rtl::Net& n = input_net(net);
  if (n.width > 64) {
    throw std::invalid_argument("set_input_uint: " + n.name +
                                " is wider than 64 bits");
  }
  if (!dirty_.empty()) flush();
  const NetSlots& ns = compiled_->net_slots(net);
  for (int i = 0; i < n.width; ++i) {
    slots_[static_cast<std::size_t>(ns.a[static_cast<std::size_t>(i)])] =
        ((value >> i) & 1) != 0 ? ~0ull : 0;
    const std::int32_t bs = ns.b[static_cast<std::size_t>(i)];
    if (bs != kZeroSlot) slots_[static_cast<std::size_t>(bs)] = 0;
  }
}

void Machine::set_input_lane_uint(rtl::NetId net, int lane,
                                  std::uint64_t value) {
  const std::int32_t k =
      net >= 0 && net < static_cast<rtl::NetId>(stage_of_.size())
          ? stage_of_[static_cast<std::size_t>(net)]
          : -1;
  if (k < 0) {
    const rtl::Net& n = input_net(net);
    throw std::invalid_argument("set_input_lane_uint: " + n.name +
                                " is wider than 64 bits");
  }
  check_lane(lane);
  StagedInput& st = staged_[static_cast<std::size_t>(k)];
  if (lanes_ * st.width < kBulkBits) {
    // Too few lanes for this net ever to reach the transpose: write now.
    write_lane(compiled_->net_slots(net), lane, value);
    return;
  }
  if (st.mask == 0) dirty_.push_back(k);
  st.mask |= 1ull << lane;
  st.rows[static_cast<std::size_t>(lane)] = value;
}

void Machine::write_lane(const NetSlots& ns, int lane,
                         std::uint64_t value) const {
  const std::uint64_t m = 1ull << lane;
  for (std::size_t i = 0; i < ns.a.size(); ++i) {
    std::uint64_t& wa = slots_[static_cast<std::size_t>(ns.a[i])];
    wa = (wa & ~m) | (((value >> i) & 1) << lane);
    if (ns.b[i] != kZeroSlot) slots_[static_cast<std::size_t>(ns.b[i])] &= ~m;
  }
}

void Machine::flush() const {
  for (const std::int32_t k : dirty_) {
    StagedInput& st = staged_[static_cast<std::size_t>(k)];
    const NetSlots& ns = compiled_->net_slots(st.net);
    const std::uint64_t mask = st.mask;
    st.mask = 0;
    if (std::popcount(mask) * st.width < kBulkBits) {
      for (std::uint64_t left = mask; left != 0; left &= left - 1) {
        const int lane = std::countr_zero(left);
        write_lane(ns, lane, st.rows[static_cast<std::size_t>(lane)]);
      }
      continue;
    }
    transpose64(st.rows.data());  // rows of unstaged lanes are masked off
    for (int i = 0; i < st.width; ++i) {
      const std::size_t bit = static_cast<std::size_t>(i);
      merge(slots_[static_cast<std::size_t>(ns.a[bit])], st.rows[bit], mask);
      if (ns.b[bit] != kZeroSlot) {
        slots_[static_cast<std::size_t>(ns.b[bit])] &= ~mask;
      }
    }
  }
  stats_.input_flushes += static_cast<std::int64_t>(dirty_.size());
  dirty_.clear();
}

void Machine::eval() {
  if (!dirty_.empty()) flush();
  run(compiled_->comb());
}

void Machine::edge(rtl::NetId clock, rtl::Edge e) {
  if (!dirty_.empty()) flush();
  run(compiled_->comb());  // settle pre-edge values
  const StepProgram* step = nullptr;
  for (const StepProgram& s : compiled_->steps()) {
    if (s.clock == clock && s.edge == e) {
      step = &s;
      break;
    }
  }
  if (step != nullptr) {
    run(step->body);
  } else {
    // No process fires on this edge: only the clock net itself moves.
    const NetSlots& cs = compiled_->net_slots(clock);
    slots_[static_cast<std::size_t>(cs.a[0])] =
        e == rtl::Edge::kPos ? ~0ull : 0;
    if (cs.b[0] != kZeroSlot) {
      slots_[static_cast<std::size_t>(cs.b[0])] = 0;
    }
  }
  ++stats_.edges;
  stats_.lane_edges += lanes_;
  run(compiled_->comb());
}

void Machine::edge(const std::string& clock_name, rtl::Edge e) {
  edge(find_net(clock_name), e);
}

rtl::LVec Machine::get(rtl::NetId net, int lane) const {
  check_lane(lane);
  if (!dirty_.empty()) flush();
  const int width = compiled_->module().net(net).width;
  const NetSlots& ns = compiled_->net_slots(net);
  const std::uint64_t m = 1ull << lane;
  rtl::LVec out = rtl::LVec::zeros(width);
  for (int i = 0; i < width; ++i) {
    const bool a =
        (slots_[static_cast<std::size_t>(ns.a[static_cast<std::size_t>(i)])] &
         m) != 0;
    const bool b =
        (slots_[static_cast<std::size_t>(ns.b[static_cast<std::size_t>(i)])] &
         m) != 0;
    out.set_bit(i, decode(a, b));
  }
  return out;
}

rtl::LVec Machine::get(const std::string& name, int lane) const {
  return get(find_net(name), lane);
}

std::uint64_t Machine::get_uint(const std::string& name, int lane) const {
  const auto v = get(name, lane).to_uint();
  if (!v.has_value()) throw std::runtime_error("net has X/Z bits: " + name);
  return *v;
}

bool Machine::bus_conflict(rtl::NetId net, int lane) const {
  check_lane(lane);
  if (!dirty_.empty()) flush();
  const NetSlots& ns = compiled_->net_slots(net);
  if (ns.conflict < 0) return false;
  return (slots_[static_cast<std::size_t>(ns.conflict)] & (1ull << lane)) != 0;
}

rtl::LVec Machine::mem_word(rtl::MemId mem, std::uint64_t addr,
                            int lane) const {
  const MemLayout& layout = compiled_->mems().at(static_cast<std::size_t>(mem));
  if (addr >= static_cast<std::uint64_t>(layout.depth)) {
    throw std::out_of_range("csim::Machine::mem_word address out of range");
  }
  check_lane(lane);
  const MemImage& img = mems_[static_cast<std::size_t>(mem)];
  const std::size_t at =
      static_cast<std::size_t>(addr) * 64 + static_cast<std::size_t>(lane);
  rtl::LVec out = rtl::LVec::zeros(layout.width);
  for (int i = 0; i < layout.width; ++i) {
    out.set_bit(i, decode((img.a[at] >> i) & 1, (img.b[at] >> i) & 1));
  }
  return out;
}

void Machine::poke_mem(rtl::MemId mem, std::uint64_t addr, int lane,
                       const rtl::LVec& value) {
  const MemLayout& layout = compiled_->mems().at(static_cast<std::size_t>(mem));
  if (addr >= static_cast<std::uint64_t>(layout.depth)) {
    throw std::out_of_range("csim::Machine::poke_mem address out of range");
  }
  check_lane(lane);
  MemImage& img = mems_[static_cast<std::size_t>(mem)];
  const std::size_t at =
      static_cast<std::size_t>(addr) * 64 + static_cast<std::size_t>(lane);
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  for (int i = 0; i < layout.width && i < 64; ++i) {
    const rtl::Logic v = value.bit(i);
    if (v == rtl::Logic::k1 || v == rtl::Logic::kX) a |= 1ull << i;
    if (v == rtl::Logic::kZ || v == rtl::Logic::kX) b |= 1ull << i;
  }
  img.a[at] = a;
  img.b[at] = b;
}

rtl::NetId Machine::find_net(const std::string& name) const {
  const rtl::NetId id = compiled_->module().find_net(name);
  if (id == rtl::kInvalidId) {
    throw std::invalid_argument("no such net: " + name);
  }
  return id;
}

}  // namespace la1::csim
