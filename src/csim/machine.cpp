#include "csim/machine.hpp"

#include <stdexcept>

namespace la1::csim {

namespace {

rtl::Logic decode(bool a, bool b) {
  if (b) return a ? rtl::Logic::kX : rtl::Logic::kZ;
  return a ? rtl::Logic::k1 : rtl::Logic::k0;
}

std::uint64_t width_mask(int width) {
  return width >= 64 ? ~0ull : (1ull << width) - 1;
}

}  // namespace

Machine::Machine(const Compiled& compiled, int lanes) : compiled_(&compiled) {
  set_lanes(lanes);
  mems_.resize(compiled_->mems().size());
  reset();
}

void Machine::set_lanes(int lanes) {
  if (lanes < 1 || lanes > 64) {
    throw std::invalid_argument("csim::Machine lanes must be in [1, 64]");
  }
  lanes_ = lanes;
}

void Machine::reset() {
  slots_ = compiled_->reset_image();
  for (std::size_t m = 0; m < mems_.size(); ++m) {
    const std::size_t words =
        static_cast<std::size_t>(compiled_->mems()[m].depth) * 64;
    mems_[m].a.assign(words, 0);
    mems_[m].b.assign(words, 0);
  }
  edges_ = 0;
  run(compiled_->comb());
}

void Machine::run(const Program& p) {
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

void Machine::exec_mem_write(const MemWriteDesc& d) {
  MemImage& img = mems_[static_cast<std::size_t>(d.mem)];
  const std::uint64_t* s = slots_.data();
  const std::uint64_t wmask = width_mask(d.width);
  for (int lane = 0; lane < lanes_; ++lane) {
    const std::uint64_t m = 1ull << lane;
    const bool wen_a = (s[d.wen.a] & m) != 0;
    const bool wen_b = (s[d.wen.b] & m) != 0;
    if (!wen_a && !wen_b) continue;  // wen == 0: no write
    bool unknown = false;
    std::uint64_t idx = 0;
    for (std::size_t i = 0; i < d.addr.size(); ++i) {
      if (s[d.addr[i].b] & m) unknown = true;
      if (i < 64 && (s[d.addr[i].a] & m)) idx |= 1ull << i;
    }
    if (unknown) {
      // Possibly-active write to an unknown address: the whole memory is
      // suspect in this lane (CycleSim's all-X rule).
      for (int w = 0; w < d.depth; ++w) {
        const std::size_t at = static_cast<std::size_t>(w) * 64 +
                               static_cast<std::size_t>(lane);
        img.a[at] = wmask;
        img.b[at] = wmask;
      }
      continue;
    }
    if (idx >= static_cast<std::uint64_t>(d.depth)) continue;  // SRAM decode
    const std::size_t at = static_cast<std::size_t>(idx) * 64 +
                           static_cast<std::size_t>(lane);
    if (wen_b) {  // wen X or Z: the touched word is unknown
      img.a[at] = wmask;
      img.b[at] = wmask;
      continue;
    }
    std::uint64_t da = 0;
    std::uint64_t db = 0;
    for (std::size_t i = 0; i < d.data.size(); ++i) {
      if (s[d.data[i].a] & m) da |= 1ull << i;
      if (s[d.data[i].b] & m) db |= 1ull << i;
    }
    if (d.byte_enables.empty()) {
      img.a[at] = da;
      img.b[at] = db;
      continue;
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
}

void Machine::set_input(rtl::NetId net, const rtl::LVec& value) {
  const rtl::Net& n = compiled_->module().net(net);
  if (n.kind != rtl::NetKind::kInput) {
    throw std::invalid_argument("set_input on non-input net: " + n.name);
  }
  if (value.width() != n.width) {
    throw std::invalid_argument("set_input width mismatch on " + n.name);
  }
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
  const rtl::Net& n = compiled_->module().net(net);
  if (n.kind != rtl::NetKind::kInput) {
    throw std::invalid_argument("set_input on non-input net: " + n.name);
  }
  if (value.width() != n.width) {
    throw std::invalid_argument("set_input width mismatch on " + n.name);
  }
  if (lane < 0 || lane >= lanes_) {
    throw std::invalid_argument("set_input_lane: lane out of range");
  }
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
  const rtl::Net& n = compiled_->module().net(net);
  if (n.kind != rtl::NetKind::kInput) {
    throw std::invalid_argument("set_input on non-input net: " + n.name);
  }
  if (n.width > 64) {
    throw std::invalid_argument("set_input_uint: " + n.name +
                                " is wider than 64 bits");
  }
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
  const rtl::Net& n = compiled_->module().net(net);
  if (n.kind != rtl::NetKind::kInput) {
    throw std::invalid_argument("set_input on non-input net: " + n.name);
  }
  if (n.width > 64) {
    throw std::invalid_argument("set_input_lane_uint: " + n.name +
                                " is wider than 64 bits");
  }
  if (lane < 0 || lane >= lanes_) {
    throw std::invalid_argument("set_input_lane: lane out of range");
  }
  const NetSlots& ns = compiled_->net_slots(net);
  const std::uint64_t m = 1ull << lane;
  for (int i = 0; i < n.width; ++i) {
    std::uint64_t& wa =
        slots_[static_cast<std::size_t>(ns.a[static_cast<std::size_t>(i)])];
    wa = ((value >> i) & 1) != 0 ? (wa | m) : (wa & ~m);
    const std::int32_t bs = ns.b[static_cast<std::size_t>(i)];
    if (bs != kZeroSlot) slots_[static_cast<std::size_t>(bs)] &= ~m;
  }
}

void Machine::eval() { run(compiled_->comb()); }

void Machine::edge(rtl::NetId clock, rtl::Edge e) {
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
  ++edges_;
  run(compiled_->comb());
}

void Machine::edge(const std::string& clock_name, rtl::Edge e) {
  edge(find_net(clock_name), e);
}

rtl::LVec Machine::get(rtl::NetId net, int lane) const {
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
