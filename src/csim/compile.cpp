#include "csim/compile.hpp"

#include <map>
#include <stdexcept>
#include <string>
#include <utility>

namespace la1::csim {

namespace {

// Per-bit class lookup against the plan's positional net table (every net
// in NetId order, then one summary entry per memory — plan::analyze's
// layout).
plan::BitClass class_of(const plan::NetSafetySummary& s, int bit) {
  return plan::bit_class_from_char(s.classes.at(static_cast<std::size_t>(bit)));
}

/// The plan's two-state proof holds for the unforced netlist only. A forced
/// lane can reach states the proof never saw, so a force is X-safe only
/// when no net its register feeds both has a two-state bit and lies
/// downstream of a possible X/Z source (see compile()). Entry i is such a
/// net of forces[i], or kInvalidId when forces[i] is X-safe. Net
/// granularity keeps this one linear graph walk per forced register.
std::vector<rtl::NetId> endangered_nets(const rtl::Module& module,
                                        const plan::CompilePlan& plan,
                                        const std::vector<Force>& forces) {
  const int nets = module.net_count();
  const int mems = static_cast<int>(module.memories().size());
  const int exprs = module.expr_count();
  if (plan.nets.size() != static_cast<std::size_t>(nets + mems)) {
    throw std::invalid_argument(
        "csim::compile: plan does not match the module (net table size)");
  }
  for (const Force& f : forces) {
    if (f.reg < 0 || f.reg >= nets) {
      throw std::invalid_argument("csim::compile: force target is not a net");
    }
  }
  const auto mem_node = [nets](rtl::MemId m) { return nets + m; };
  const auto expr_node = [nets, mems](rtl::ExprId e) { return nets + mems + e; };
  std::vector<std::vector<int>> out(static_cast<std::size_t>(nets + mems + exprs));
  const auto link = [&out](int from, int to) {
    out[static_cast<std::size_t>(from)].push_back(to);
  };
  std::vector<int> sources;
  for (rtl::ExprId id = 0; id < exprs; ++id) {
    const rtl::Expr& e = module.expr(id);
    for (rtl::ExprId op : {e.a, e.b, e.c}) {
      if (op != rtl::kInvalidId) link(expr_node(op), expr_node(id));
    }
    for (rtl::ExprId op : e.parts) link(expr_node(op), expr_node(id));
    if (e.op == rtl::Op::kNet) link(e.net, expr_node(id));
    if (e.op == rtl::Op::kMemRead) {
      link(mem_node(e.mem), expr_node(id));
      const int addr_bits = module.expr(e.a).width;
      const int depth = module.memories()[static_cast<std::size_t>(e.mem)].depth;
      if (addr_bits >= 63 || (1ll << addr_bits) > depth) {
        sources.push_back(expr_node(id));  // may read past the end: X
      }
    }
  }
  for (const rtl::ContAssign& a : module.assigns()) {
    link(expr_node(a.value), a.target);
  }
  for (const rtl::TriDriver& t : module.tristates()) {
    link(expr_node(t.enable), t.target);
    link(expr_node(t.value), t.target);
    sources.push_back(t.target);  // an undriven or contended bus
  }
  for (const rtl::Process& p : module.processes()) {
    for (const rtl::SeqAssign& sa : p.assigns) {
      link(expr_node(sa.value), sa.target);
    }
    for (const rtl::MemWrite& w : p.mem_writes) {
      link(expr_node(w.addr), mem_node(w.mem));
      link(expr_node(w.data), mem_node(w.mem));
      link(expr_node(w.wen), mem_node(w.mem));
      for (rtl::ExprId be : w.byte_enables) link(expr_node(be), mem_node(w.mem));
    }
  }
  const char two_state = plan::to_char(plan::BitClass::kProven2State);
  std::vector<bool> has_two_state(static_cast<std::size_t>(nets), false);
  for (int i = 0; i < nets + mems; ++i) {
    const std::string& cls = plan.nets[static_cast<std::size_t>(i)].classes;
    if (cls.find_first_not_of(two_state) != std::string::npos) {
      sources.push_back(i);
    }
    if (i < nets) {
      has_two_state[static_cast<std::size_t>(i)] =
          cls.find(two_state) != std::string::npos;
    }
  }

  const auto reach = [&out](const std::vector<int>& from) {
    std::vector<bool> seen(out.size(), false);
    std::vector<int> work;
    for (int f : from) {
      if (!seen[static_cast<std::size_t>(f)]) {
        seen[static_cast<std::size_t>(f)] = true;
        work.push_back(f);
      }
    }
    while (!work.empty()) {
      const int at = work.back();
      work.pop_back();
      for (int to : out[static_cast<std::size_t>(at)]) {
        if (!seen[static_cast<std::size_t>(to)]) {
          seen[static_cast<std::size_t>(to)] = true;
          work.push_back(to);
        }
      }
    }
    return seen;
  };
  const std::vector<bool> tainted = reach(sources);
  std::map<rtl::NetId, rtl::NetId> by_reg;  // forced register -> endangered
  std::vector<rtl::NetId> endangered;
  for (const Force& f : forces) {
    auto it = by_reg.find(f.reg);
    if (it == by_reg.end()) {
      // The force itself only ever writes defined values into the
      // register's two-state bits; the register is at risk only when its
      // own next state reads something the force reaches.
      rtl::NetId hit = rtl::kInvalidId;
      const std::vector<bool> affected =
          reach(out[static_cast<std::size_t>(f.reg)]);
      for (rtl::NetId n = 0; n < nets && hit == rtl::kInvalidId; ++n) {
        const auto i = static_cast<std::size_t>(n);
        if (affected[i] && tainted[i] && has_two_state[i]) hit = n;
      }
      it = by_reg.emplace(f.reg, hit).first;
    }
    endangered.push_back(it->second);
  }
  return endangered;
}

}  // namespace

std::int64_t Compiled::total_instructions() const {
  std::int64_t n = static_cast<std::int64_t>(comb_.code.size());
  for (const StepProgram& s : steps_) {
    n += static_cast<std::int64_t>(s.body.code.size());
  }
  return n;
}

/// One compilation run. Emission goes through small folding helpers so the
/// pinned constant slots (kZeroSlot/kOnesSlot) absorb statically-known
/// operands — that is what collapses the four-state formulas to their bare
/// two-state forms on plan-proven bits without a separate lowering path.
class Compiler {
 public:
  Compiler(const rtl::Module& flat, const plan::CompilePlan& plan,
           const std::vector<Force>& forces)
      : module_(&flat), forces_(&forces) {
    out_.module_ = &flat;
    out_.plan_ = plan;
  }

  Compiled run() {
    validate();
    validate_forces();
    allocate_net_slots();
    for (const rtl::Memory& m : module_->memories()) {
      out_.mems_.push_back(MemLayout{m.depth, m.width});
    }
    compile_comb();
    compile_steps();
    build_reset_image();
    out_.slot_count_ = next_slot_;
    return std::move(out_);
  }

 private:
  // --- validation and layout --------------------------------------------

  void validate() {
    if (!module_->instances().empty()) {
      throw std::invalid_argument("csim::compile requires an elaborated module");
    }
    const std::size_t nets = static_cast<std::size_t>(module_->net_count());
    const std::size_t mems = module_->memories().size();
    if (out_.plan_.nets.size() != nets + mems) {
      throw std::invalid_argument(
          "csim::compile: plan does not match the module (net table size)");
    }
    for (rtl::NetId id = 0; id < module_->net_count(); ++id) {
      if (out_.plan_.nets[static_cast<std::size_t>(id)].width !=
          module_->net(id).width) {
        throw std::invalid_argument(
            "csim::compile: plan does not match the module (width of " +
            module_->net(id).name + ")");
      }
    }
    for (std::size_t m = 0; m < mems; ++m) {
      if (out_.plan_.nets[nets + m].width != module_->memories()[m].width) {
        throw std::invalid_argument(
            "csim::compile: plan does not match the module (memory " +
            module_->memories()[m].name + ")");
      }
      if (module_->memories()[m].width > 64) {
        throw std::invalid_argument(
            "csim::compile: memory words wider than 64 bits are not "
            "supported (" + module_->memories()[m].name + ")");
      }
    }
    sched_ = rtl::topo_schedule(*module_);
    if (!sched_.acyclic()) {
      throw std::invalid_argument(
          "combinational cycle through net " +
          module_->net(sched_.comb_cycles.front().front()).name);
    }
  }

  std::int32_t alloc() { return next_slot_++; }

  // --- per-lane forces -----------------------------------------------------

  /// The (clock, edge) step keys whose processes commit `reg`.
  std::vector<std::pair<rtl::NetId, rtl::Edge>> committing_steps(
      rtl::NetId reg) const {
    std::vector<std::pair<rtl::NetId, rtl::Edge>> keys;
    for (const rtl::Process& p : module_->processes()) {
      for (const rtl::SeqAssign& sa : p.assigns) {
        if (sa.target != reg) continue;
        const auto key = std::make_pair(p.clock, p.edge);
        bool found = false;
        for (const auto& k : keys) found = found || k == key;
        if (!found) keys.push_back(key);
      }
    }
    return keys;
  }

  void validate_forces() {
    std::uint64_t lanes = 0;
    for (const Force& f : *forces_) {
      if (f.lane < 0 || f.lane >= 64) {
        throw std::invalid_argument("csim::compile: force lane " +
                                    std::to_string(f.lane) +
                                    " is outside [0, 64)");
      }
      if (((lanes >> f.lane) & 1) != 0) {
        throw std::invalid_argument("csim::compile: two forces on lane " +
                                    std::to_string(f.lane));
      }
      lanes |= 1ull << f.lane;
      if (f.reg < 0 || f.reg >= module_->net_count() ||
          module_->net(f.reg).kind != rtl::NetKind::kReg) {
        throw std::invalid_argument(
            "csim::compile: force target is not a register");
      }
      const rtl::Net& n = module_->net(f.reg);
      if (f.bit < 0 || f.bit >= n.width) {
        throw std::invalid_argument("csim::compile: force bit " +
                                    std::to_string(f.bit) + " outside " +
                                    n.name);
      }
      if (committing_steps(f.reg).empty()) {
        throw std::invalid_argument(
            "csim::compile: forced register is never assigned: " + n.name);
      }
      if (f.kind == ForceKind::kFlip && f.edge < 0) {
        throw std::invalid_argument(
            "csim::compile: negative bit-flip edge on " + n.name);
      }
    }
    if (forces_->empty()) return;
    const std::vector<rtl::NetId> endangered =
        endangered_nets(*module_, out_.plan_, *forces_);
    for (std::size_t i = 0; i < endangered.size(); ++i) {
      if (endangered[i] == rtl::kInvalidId) continue;
      throw std::invalid_argument(
          "csim::compile: force on " + module_->net((*forces_)[i].reg).name +
          " could steer X/Z into plan-proven two-state bits of " +
          module_->net(endangered[i]).name);
    }
  }

  /// A pinned constant slot holding `value` in the reset image.
  std::int32_t mask_slot(std::uint64_t value) {
    const auto it = masks_.find(value);
    if (it != masks_.end()) return it->second;
    const std::int32_t slot = alloc();
    masks_.emplace(value, slot);
    return slot;
  }

  void allocate_net_slots() {
    out_.nets_.resize(static_cast<std::size_t>(module_->net_count()));
    for (rtl::NetId id = 0; id < module_->net_count(); ++id) {
      const rtl::Net& n = module_->net(id);
      const plan::NetSafetySummary& s =
          out_.plan_.nets[static_cast<std::size_t>(id)];
      NetSlots& ns = out_.nets_[static_cast<std::size_t>(id)];
      ns.a.resize(static_cast<std::size_t>(n.width));
      ns.b.assign(static_cast<std::size_t>(n.width), kZeroSlot);
      for (int i = 0; i < n.width; ++i) {
        ns.a[static_cast<std::size_t>(i)] = alloc();
        if (class_of(s, i) != plan::BitClass::kProven2State) {
          ns.b[static_cast<std::size_t>(i)] = alloc();
        }
      }
    }
    for (const rtl::TriDriver& t : module_->tristates()) {
      NetSlots& ns = out_.nets_[static_cast<std::size_t>(t.target)];
      if (ns.conflict < 0) ns.conflict = alloc();
    }
  }

  void build_reset_image() {
    out_.reset_image_.assign(static_cast<std::size_t>(next_slot_), 0);
    out_.reset_image_[kOnesSlot] = ~0ull;
    for (const auto& [value, slot] : masks_) {
      out_.reset_image_[static_cast<std::size_t>(slot)] = value;
    }
    for (rtl::NetId id = 0; id < module_->net_count(); ++id) {
      const rtl::Net& n = module_->net(id);
      if (n.kind != rtl::NetKind::kReg) continue;
      const NetSlots& ns = out_.nets_[static_cast<std::size_t>(id)];
      for (int i = 0; i < n.width; ++i) {
        const rtl::Logic v = n.init.bit(i);
        const bool a = v == rtl::Logic::k1 || v == rtl::Logic::kX;
        const bool b = v == rtl::Logic::kZ || v == rtl::Logic::kX;
        if (a) out_.reset_image_[static_cast<std::size_t>(
                   ns.a[static_cast<std::size_t>(i)])] = ~0ull;
        if (b) {
          if (ns.b[static_cast<std::size_t>(i)] == kZeroSlot) {
            throw std::invalid_argument(
                "csim::compile: X/Z register init on a plan-proven two-state "
                "bit of " + n.name);
          }
          out_.reset_image_[static_cast<std::size_t>(
              ns.b[static_cast<std::size_t>(i)])] = ~0ull;
        }
      }
    }
  }

  // --- folding emitters --------------------------------------------------

  void emit(OpCode op, std::int32_t d, std::int32_t s0 = 0, std::int32_t s1 = 0,
            std::int32_t s2 = 0, std::uint64_t imm = 0) {
    cur_->code.push_back(Instr{op, d, s0, s1, s2, imm});
  }

  std::int32_t emit_to_tmp(OpCode op, std::int32_t s0, std::int32_t s1 = 0,
                           std::int32_t s2 = 0) {
    const std::int32_t d = alloc();
    emit(op, d, s0, s1, s2);
    return d;
  }

  std::int32_t f_not(std::int32_t x) {
    if (x == kZeroSlot) return kOnesSlot;
    if (x == kOnesSlot) return kZeroSlot;
    return emit_to_tmp(OpCode::kNot, x);
  }
  std::int32_t f_and(std::int32_t x, std::int32_t y) {
    if (x == kZeroSlot || y == kZeroSlot) return kZeroSlot;
    if (x == kOnesSlot) return y;
    if (y == kOnesSlot || x == y) return x;
    return emit_to_tmp(OpCode::kAnd, x, y);
  }
  std::int32_t f_or(std::int32_t x, std::int32_t y) {
    if (x == kOnesSlot || y == kOnesSlot) return kOnesSlot;
    if (x == kZeroSlot) return y;
    if (y == kZeroSlot || x == y) return x;
    return emit_to_tmp(OpCode::kOr, x, y);
  }
  std::int32_t f_xor(std::int32_t x, std::int32_t y) {
    if (x == y) return kZeroSlot;
    if (x == kZeroSlot) return y;
    if (y == kZeroSlot) return x;
    if (x == kOnesSlot) return f_not(y);
    if (y == kOnesSlot) return f_not(x);
    return emit_to_tmp(OpCode::kXor, x, y);
  }
  std::int32_t f_xnor(std::int32_t x, std::int32_t y) {
    if (x == y) return kOnesSlot;
    if (x == kZeroSlot) return f_not(y);
    if (y == kZeroSlot) return f_not(x);
    if (x == kOnesSlot) return y;
    if (y == kOnesSlot) return x;
    return emit_to_tmp(OpCode::kXnor, x, y);
  }
  std::int32_t f_nor(std::int32_t x, std::int32_t y) {
    if (x == kOnesSlot || y == kOnesSlot) return kZeroSlot;
    if (x == kZeroSlot) return f_not(y);
    if (y == kZeroSlot || x == y) return f_not(x);
    return emit_to_tmp(OpCode::kNor, x, y);
  }
  // x & ~y
  std::int32_t f_andn(std::int32_t x, std::int32_t y) {
    if (x == kZeroSlot || y == kOnesSlot || x == y) return kZeroSlot;
    if (y == kZeroSlot) return x;
    if (x == kOnesSlot) return f_not(y);
    return emit_to_tmp(OpCode::kAndn, x, y);
  }
  // ~x | y
  std::int32_t f_orn(std::int32_t x, std::int32_t y) {
    if (x == kZeroSlot || y == kOnesSlot || x == y) return kOnesSlot;
    if (x == kOnesSlot) return y;
    if (y == kZeroSlot) return f_not(x);
    return emit_to_tmp(OpCode::kOrn, x, y);
  }
  // sel ? t : e
  std::int32_t f_mux(std::int32_t t, std::int32_t e, std::int32_t sel) {
    if (sel == kOnesSlot || t == e) return t;
    if (sel == kZeroSlot) return e;
    if (t == kOnesSlot && e == kZeroSlot) return sel;
    if (t == kZeroSlot && e == kOnesSlot) return f_not(sel);
    return emit_to_tmp(OpCode::kMux, t, e, sel);
  }
  std::int32_t f_xor3(std::int32_t x, std::int32_t y, std::int32_t c) {
    if (c == kZeroSlot) return f_xor(x, y);
    if (c == kOnesSlot) return f_xnor(x, y);
    if (x == kZeroSlot) return f_xor(y, c);
    if (y == kZeroSlot) return f_xor(x, c);
    return emit_to_tmp(OpCode::kXor3, x, y, c);
  }
  // (x&y) | (c & (x^y)) — ripple carry out
  std::int32_t f_carry(std::int32_t x, std::int32_t y, std::int32_t c) {
    if (c == kZeroSlot) return f_and(x, y);
    if (c == kOnesSlot) return f_or(x, y);
    if (x == kZeroSlot) return f_and(c, y);
    if (y == kZeroSlot) return f_and(c, x);
    if (x == kOnesSlot) return f_or(c, y);
    if (y == kOnesSlot) return f_or(c, x);
    return emit_to_tmp(OpCode::kCarry, x, y, c);
  }
  /// Copies `src` into the fixed slot `dst` (net commit).
  void f_store(std::int32_t dst, std::int32_t src) {
    if (src == kZeroSlot) {
      emit(OpCode::kConst, dst, 0, 0, 0, 0);
    } else if (src == kOnesSlot) {
      emit(OpCode::kConst, dst, 0, 0, 0, ~0ull);
    } else if (src != dst) {
      emit(OpCode::kMov, dst, src);
    }
  }

  // --- four-state bit algebra -------------------------------------------
  // Encoding: 0=(0,0) 1=(1,0) Z=(0,1) X=(1,1). `zero_of`/`one_of` are the
  // definite-value masks the conservative operators are built from.

  std::int32_t zero_of(const BitRef& x) { return f_nor(x.a, x.b); }
  std::int32_t one_of(const BitRef& x) { return f_andn(x.a, x.b); }

  BitRef lower_not(const BitRef& x) {
    if (x.two_state()) return BitRef{f_not(x.a), kZeroSlot};
    return BitRef{f_orn(x.a, x.b), x.b};
  }

  BitRef lower_and(const BitRef& x, const BitRef& y) {
    if (x.two_state() && y.two_state()) {
      return BitRef{f_and(x.a, y.a), kZeroSlot};
    }
    const std::int32_t out0 = f_or(zero_of(x), zero_of(y));
    const std::int32_t both1 = f_and(one_of(x), one_of(y));
    return BitRef{f_not(out0), f_nor(out0, both1)};
  }

  BitRef lower_or(const BitRef& x, const BitRef& y) {
    if (x.two_state() && y.two_state()) {
      return BitRef{f_or(x.a, y.a), kZeroSlot};
    }
    const std::int32_t all0 = f_and(zero_of(x), zero_of(y));
    const std::int32_t any1 = f_or(one_of(x), one_of(y));
    return BitRef{f_not(all0), f_nor(any1, all0)};
  }

  BitRef lower_xor(const BitRef& x, const BitRef& y) {
    if (x.two_state() && y.two_state()) {
      return BitRef{f_xor(x.a, y.a), kZeroSlot};
    }
    const std::int32_t b = f_or(x.b, y.b);
    return BitRef{f_or(f_xor(x.a, y.a), b), b};
  }

  // Verilog wire resolution: Z yields to the other driver, equal values
  // agree, everything else is X.
  BitRef lower_resolve(const BitRef& p, const BitRef& q) {
    if (p.a == kZeroSlot && p.b == kOnesSlot) return q;  // statically Z
    if (q.a == kZeroSlot && q.b == kOnesSlot) return p;
    const std::int32_t p_z = f_andn(p.b, p.a);
    const std::int32_t q_z = f_andn(q.b, q.a);
    const std::int32_t eq = f_and(f_xnor(p.a, q.a), f_xnor(p.b, q.b));
    const std::int32_t take_q = p_z;
    const std::int32_t take_p = f_andn(f_or(q_z, eq), p_z);
    const std::int32_t clash = f_not(f_or(f_or(p_z, q_z), eq));
    return BitRef{f_or(f_or(f_and(take_q, q.a), f_and(take_p, p.a)), clash),
                  f_or(f_or(f_and(take_q, q.b), f_and(take_p, p.b)), clash)};
  }

  BitRef lower_red_and(const std::vector<BitRef>& bits) {
    bool two = true;
    for (const BitRef& b : bits) two = two && b.two_state();
    if (two) {
      std::int32_t acc = kOnesSlot;
      for (const BitRef& b : bits) acc = f_and(acc, b.a);
      return BitRef{acc, kZeroSlot};
    }
    std::int32_t any0 = kZeroSlot;
    std::int32_t all1 = kOnesSlot;
    for (const BitRef& b : bits) {
      any0 = f_or(any0, zero_of(b));
      all1 = f_and(all1, one_of(b));
    }
    return BitRef{f_not(any0), f_nor(any0, all1)};
  }

  BitRef lower_red_or(const std::vector<BitRef>& bits) {
    bool two = true;
    for (const BitRef& b : bits) two = two && b.two_state();
    if (two) {
      std::int32_t acc = kZeroSlot;
      for (const BitRef& b : bits) acc = f_or(acc, b.a);
      return BitRef{acc, kZeroSlot};
    }
    std::int32_t all0 = kOnesSlot;
    std::int32_t any1 = kZeroSlot;
    for (const BitRef& b : bits) {
      all0 = f_and(all0, zero_of(b));
      any1 = f_or(any1, one_of(b));
    }
    return BitRef{f_not(all0), f_nor(any1, all0)};
  }

  BitRef lower_red_xor(const std::vector<BitRef>& bits) {
    std::int32_t unknown = kZeroSlot;
    for (const BitRef& b : bits) unknown = f_or(unknown, b.b);
    std::int32_t acc = kZeroSlot;
    for (const BitRef& b : bits) acc = f_xor(acc, one_of(b));
    if (unknown == kZeroSlot) return BitRef{acc, kZeroSlot};
    return BitRef{f_or(acc, unknown), unknown};
  }

  // k1/k0 when both sides are fully defined; a definite 0/1 mismatch wins
  // even next to X bits (vec_eq's contract).
  BitRef lower_eq(const std::vector<BitRef>& x, const std::vector<BitRef>& y) {
    std::int32_t mismatch = kZeroSlot;
    std::int32_t unknown = kZeroSlot;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const std::int32_t u = f_or(x[i].b, y[i].b);
      mismatch = f_or(mismatch, f_andn(f_xor(x[i].a, y[i].a), u));
      unknown = f_or(unknown, u);
    }
    if (unknown == kZeroSlot) return BitRef{f_not(mismatch), kZeroSlot};
    return BitRef{f_not(mismatch), f_andn(unknown, mismatch)};
  }

  BitRef lower_mux_bit(const BitRef& sel, const BitRef& t, const BitRef& e) {
    if (sel.two_state()) {
      const std::int32_t a = f_mux(t.a, e.a, sel.a);
      const std::int32_t b = (t.two_state() && e.two_state())
                                 ? kZeroSlot
                                 : f_mux(t.b, e.b, sel.a);
      return BitRef{a, b};
    }
    const std::int32_t sel1 = f_andn(sel.a, sel.b);
    const std::int32_t sel0 = f_nor(sel.a, sel.b);
    const std::int32_t sel_u = sel.b;
    // Undefined select: branches agreeing on a defined value pass through,
    // anything else is X (vec_mux's merge).
    const std::int32_t eq_def =
        f_and(f_nor(t.b, e.b), f_xnor(t.a, e.a));
    const std::int32_t merge_a = f_orn(eq_def, t.a);
    const std::int32_t merge_b = f_not(eq_def);
    const std::int32_t a = f_or(
        f_or(f_and(sel1, t.a), f_and(sel0, e.a)), f_and(sel_u, merge_a));
    const std::int32_t b = f_or(
        f_or(f_and(sel1, t.b), f_and(sel0, e.b)), f_and(sel_u, merge_b));
    return BitRef{a, b};
  }

  // Unsigned add/sub modulo 2^width on the avals; any X/Z operand bit makes
  // every result bit X (vec_add/vec_sub). Value bits above 63 are dropped
  // exactly like LVec::to_uint/from_uint.
  std::vector<BitRef> lower_add(const std::vector<BitRef>& x,
                                const std::vector<BitRef>& y, bool sub) {
    std::int32_t unknown = kZeroSlot;
    for (const BitRef& b : x) unknown = f_or(unknown, b.b);
    for (const BitRef& b : y) unknown = f_or(unknown, b.b);
    const int width = static_cast<int>(x.size());
    std::vector<BitRef> out(static_cast<std::size_t>(width));
    std::int32_t carry = sub ? kOnesSlot : kZeroSlot;
    for (int i = 0; i < width; ++i) {
      if (i >= 64) {
        out[static_cast<std::size_t>(i)] = BitRef{kZeroSlot, kZeroSlot};
        continue;
      }
      const std::int32_t xa = x[static_cast<std::size_t>(i)].a;
      const std::int32_t ya = sub ? f_not(y[static_cast<std::size_t>(i)].a)
                                  : y[static_cast<std::size_t>(i)].a;
      out[static_cast<std::size_t>(i)] = BitRef{f_xor3(xa, ya, carry), kZeroSlot};
      if (i + 1 < width && i + 1 < 64) carry = f_carry(xa, ya, carry);
    }
    if (unknown != kZeroSlot) {
      for (BitRef& b : out) b = BitRef{f_or(b.a, unknown), unknown};
    }
    return out;
  }

  // --- expression compilation (memoized per program) --------------------

  const std::vector<BitRef>& compile_expr(rtl::ExprId id) {
    auto& memo = expr_memo_[static_cast<std::size_t>(id)];
    if (expr_done_[static_cast<std::size_t>(id)]) return memo;
    const rtl::Expr& e = module_->expr(id);
    std::vector<BitRef> out;
    switch (e.op) {
      case rtl::Op::kConst: {
        out.reserve(static_cast<std::size_t>(e.width));
        for (int i = 0; i < e.width; ++i) {
          const rtl::Logic v = e.literal.bit(i);
          const bool a = v == rtl::Logic::k1 || v == rtl::Logic::kX;
          const bool b = v == rtl::Logic::kZ || v == rtl::Logic::kX;
          out.push_back(BitRef{a ? kOnesSlot : kZeroSlot,
                               b ? kOnesSlot : kZeroSlot});
        }
        break;
      }
      case rtl::Op::kNet: {
        const NetSlots& ns = out_.nets_[static_cast<std::size_t>(e.net)];
        for (int i = 0; i < e.width; ++i) {
          out.push_back(BitRef{ns.a[static_cast<std::size_t>(i)],
                               ns.b[static_cast<std::size_t>(i)]});
        }
        break;
      }
      case rtl::Op::kNot: {
        const auto& a = compile_expr(e.a);
        for (const BitRef& bit : a) out.push_back(lower_not(bit));
        break;
      }
      case rtl::Op::kAnd: {
        const auto& a = compile_expr(e.a);
        const auto& b = compile_expr(e.b);
        for (std::size_t i = 0; i < a.size(); ++i) {
          out.push_back(lower_and(a[i], b[i]));
        }
        break;
      }
      case rtl::Op::kOr: {
        const auto& a = compile_expr(e.a);
        const auto& b = compile_expr(e.b);
        for (std::size_t i = 0; i < a.size(); ++i) {
          out.push_back(lower_or(a[i], b[i]));
        }
        break;
      }
      case rtl::Op::kXor: {
        const auto& a = compile_expr(e.a);
        const auto& b = compile_expr(e.b);
        for (std::size_t i = 0; i < a.size(); ++i) {
          out.push_back(lower_xor(a[i], b[i]));
        }
        break;
      }
      case rtl::Op::kRedAnd:
        out.push_back(lower_red_and(compile_expr(e.a)));
        break;
      case rtl::Op::kRedOr:
        out.push_back(lower_red_or(compile_expr(e.a)));
        break;
      case rtl::Op::kRedXor:
        out.push_back(lower_red_xor(compile_expr(e.a)));
        break;
      case rtl::Op::kEq:
        out.push_back(lower_eq(compile_expr(e.a), compile_expr(e.b)));
        break;
      case rtl::Op::kNe:
        out.push_back(lower_not(lower_eq(compile_expr(e.a), compile_expr(e.b))));
        break;
      case rtl::Op::kMux: {
        const BitRef sel = compile_expr(e.a)[0];
        const auto& t = compile_expr(e.b);
        const auto& f = compile_expr(e.c);
        for (std::size_t i = 0; i < t.size(); ++i) {
          out.push_back(lower_mux_bit(sel, t[i], f[i]));
        }
        break;
      }
      case rtl::Op::kConcat: {
        // Parts are MSB-first; bit 0 of the result is bit 0 of the last part.
        for (auto it = e.parts.rbegin(); it != e.parts.rend(); ++it) {
          const auto& part = compile_expr(*it);
          out.insert(out.end(), part.begin(), part.end());
        }
        break;
      }
      case rtl::Op::kSlice: {
        const auto& a = compile_expr(e.a);
        for (int i = 0; i < e.width; ++i) {
          out.push_back(a[static_cast<std::size_t>(e.lo + i)]);
        }
        break;
      }
      case rtl::Op::kAdd:
        out = lower_add(compile_expr(e.a), compile_expr(e.b), false);
        break;
      case rtl::Op::kSub:
        out = lower_add(compile_expr(e.a), compile_expr(e.b), true);
        break;
      case rtl::Op::kMemRead: {
        const auto& addr = compile_expr(e.a);
        MemReadDesc d;
        d.mem = e.mem;
        d.depth = module_->memories()[static_cast<std::size_t>(e.mem)].depth;
        d.width = e.width;
        d.addr = addr;
        for (int i = 0; i < e.width; ++i) {
          d.out_a.push_back(alloc());
          d.out_b.push_back(alloc());
          out.push_back(BitRef{d.out_a.back(), d.out_b.back()});
        }
        out_.mem_reads_.push_back(std::move(d));
        emit(OpCode::kMemRead, 0, 0, 0, 0, out_.mem_reads_.size() - 1);
        break;
      }
    }
    memo = std::move(out);
    expr_done_[static_cast<std::size_t>(id)] = true;
    return memo;
  }

  void begin_program(Program* p) {
    cur_ = p;
    expr_memo_.assign(static_cast<std::size_t>(module_->expr_count()), {});
    expr_done_.assign(static_cast<std::size_t>(module_->expr_count()), false);
  }

  void store_net(rtl::NetId target, const std::vector<BitRef>& value) {
    const NetSlots& ns = out_.nets_[static_cast<std::size_t>(target)];
    for (std::size_t i = 0; i < value.size(); ++i) {
      f_store(ns.a[i], value[i].a);
      // Plan-proven two-state bits carry no sideband slot: the proof
      // guarantees the computed bval is zero, so the store is dropped.
      if (ns.b[i] != kZeroSlot) f_store(ns.b[i], value[i].b);
    }
  }

  // --- combinational program --------------------------------------------

  void compile_comb() {
    begin_program(&out_.comb_);
    for (const rtl::SchedNode& node : sched_.nodes) {
      if (!node.is_tristate_group) {
        store_net(node.target, compile_expr(node.assign_values.front()));
        continue;
      }
      compile_tristate(node);
    }
  }

  void compile_tristate(const rtl::SchedNode& node) {
    const int width = module_->net(node.target).width;
    const NetSlots& ns = out_.nets_[static_cast<std::size_t>(node.target)];
    emit(OpCode::kConst, ns.conflict, 0, 0, 0, 0);
    const std::int32_t seen = alloc();
    emit(OpCode::kConst, seen, 0, 0, 0, 0);
    // The bus starts at Z and folds one driver at a time — the same
    // left-to-right resolution CycleSim::run_comb applies.
    std::vector<BitRef> acc(static_cast<std::size_t>(width),
                            BitRef{kZeroSlot, kOnesSlot});
    for (std::size_t d = 0; d < node.tri_enables.size(); ++d) {
      const BitRef en = compile_expr(node.tri_enables[d])[0];
      const auto& val = compile_expr(node.assign_values[d]);
      const std::int32_t en1 = one_of(en);
      const std::int32_t en0 = zero_of(en);
      const std::int32_t en_u = en.b;
      if (en1 != kZeroSlot) {
        emit(OpCode::kAndOr, ns.conflict, seen, en1);
        emit(OpCode::kOrAcc, seen, en1);
      }
      for (int i = 0; i < width; ++i) {
        const BitRef& v = val[static_cast<std::size_t>(i)];
        // Enabled: the driver's value verbatim. Disabled: Z. Undefined
        // enable: X (CycleSim resolves an all-X contribution).
        const BitRef contrib{f_or(f_and(en1, v.a), en_u),
                             f_or(f_or(f_and(en1, v.b), en_u), en0)};
        acc[static_cast<std::size_t>(i)] =
            lower_resolve(acc[static_cast<std::size_t>(i)], contrib);
      }
    }
    store_net(node.target, acc);
  }

  // --- step programs (one per distinct clock/edge) ----------------------

  void compile_steps() {
    // A bit flip arms on the n-th edge of the clock of the first process
    // assigning its register (apply_structural's SEU counter); every step
    // committing the register compares against that edge's counter.
    for (const Force& f : *forces_) {
      if (f.kind != ForceKind::kFlip) continue;
      const auto key = committing_steps(f.reg).front();
      if (edge_counters_.count(key) == 0) edge_counters_.emplace(key, alloc());
    }
    std::vector<std::pair<rtl::NetId, rtl::Edge>> keys;
    for (const rtl::Process& p : module_->processes()) {
      const auto key = std::make_pair(p.clock, p.edge);
      bool found = false;
      for (const auto& k : keys) found = found || k == key;
      if (!found) keys.push_back(key);
    }
    for (const auto& [clock, edge] : keys) compile_step(clock, edge);
  }

  /// True when `ref` reads a slot that phases B/C of this step overwrite
  /// (the clock word or a committed register) — those values must be
  /// latched into temps while they still hold their pre-edge settle.
  bool mutated_by_step(std::int32_t slot,
                       const std::vector<std::int32_t>& mutated) const {
    for (std::int32_t m : mutated) {
      if (m == slot) return true;
    }
    return false;
  }

  BitRef snapshot(const BitRef& ref, const std::vector<std::int32_t>& mutated) {
    BitRef out = ref;
    if (ref.a != kZeroSlot && ref.a != kOnesSlot &&
        mutated_by_step(ref.a, mutated)) {
      out.a = emit_to_tmp(OpCode::kMov, ref.a);
    }
    if (ref.b != kZeroSlot && ref.b != kOnesSlot &&
        mutated_by_step(ref.b, mutated)) {
      out.b = emit_to_tmp(OpCode::kMov, ref.b);
    }
    return out;
  }

  void compile_step(rtl::NetId clock, rtl::Edge edge) {
    out_.steps_.push_back(StepProgram{clock, edge, {}});
    StepProgram& step = out_.steps_.back();
    begin_program(&step.body);

    // Slots phases B/C overwrite: every committed register bit + the clock.
    std::vector<std::int32_t> mutated;
    const NetSlots& cs = out_.nets_[static_cast<std::size_t>(clock)];
    mutated.push_back(cs.a[0]);
    if (cs.b[0] != kZeroSlot) mutated.push_back(cs.b[0]);
    for (const rtl::Process& p : module_->processes()) {
      if (p.clock != clock || p.edge != edge) continue;
      for (const rtl::SeqAssign& sa : p.assigns) {
        const NetSlots& ns = out_.nets_[static_cast<std::size_t>(sa.target)];
        mutated.insert(mutated.end(), ns.a.begin(), ns.a.end());
        for (std::int32_t b : ns.b) {
          if (b != kZeroSlot) mutated.push_back(b);
        }
      }
    }

    // Phase A: evaluate every right-hand side and write-port operand
    // against the pre-edge settle (all processes sample before any commit).
    struct Commit {
      rtl::NetId target;
      std::vector<BitRef> value;
    };
    std::vector<Commit> commits;
    std::vector<std::size_t> writes;
    for (const rtl::Process& p : module_->processes()) {
      if (p.clock != clock || p.edge != edge) continue;
      for (const rtl::SeqAssign& sa : p.assigns) {
        std::vector<BitRef> v = compile_expr(sa.value);
        for (BitRef& bit : v) bit = snapshot(bit, mutated);
        commits.push_back(Commit{sa.target, std::move(v)});
      }
      for (const rtl::MemWrite& w : p.mem_writes) {
        MemWriteDesc d;
        d.mem = w.mem;
        d.depth = module_->memories()[static_cast<std::size_t>(w.mem)].depth;
        d.width = module_->memories()[static_cast<std::size_t>(w.mem)].width;
        d.addr = compile_expr(w.addr);
        for (BitRef& bit : d.addr) bit = snapshot(bit, mutated);
        d.data = compile_expr(w.data);
        for (BitRef& bit : d.data) bit = snapshot(bit, mutated);
        d.wen = snapshot(compile_expr(w.wen)[0], mutated);
        for (rtl::ExprId be : w.byte_enables) {
          d.byte_enables.push_back(snapshot(compile_expr(be)[0], mutated));
        }
        out_.mem_writes_.push_back(std::move(d));
        writes.push_back(out_.mem_writes_.size() - 1);
      }
    }

    // Forces on registers this step commits; a dropped update latches the
    // register's pre-commit value while it still holds it.
    std::vector<const Force*> forces;
    std::vector<std::vector<BitRef>> held;
    for (const Force& f : *forces_) {
      bool here = false;
      for (const Commit& c : commits) here = here || c.target == f.reg;
      if (!here) continue;
      forces.push_back(&f);
      std::vector<BitRef> bits;
      if (f.kind == ForceKind::kDrop) {
        const NetSlots& ns = out_.nets_[static_cast<std::size_t>(f.reg)];
        for (std::size_t i = 0; i < ns.a.size(); ++i) {
          bits.push_back(snapshot(BitRef{ns.a[i], ns.b[i]}, mutated));
        }
      }
      held.push_back(std::move(bits));
    }

    // Phase B: the clock net flips to its post-edge value in every lane.
    emit(OpCode::kConst, cs.a[0], 0, 0, 0,
         edge == rtl::Edge::kPos ? ~0ull : 0);
    if (cs.b[0] != kZeroSlot) emit(OpCode::kConst, cs.b[0], 0, 0, 0, 0);

    // Phase C: register commits, in process order, then the forces; this
    // step's edge counter (if a bit flip counts its edges) ticks last.
    for (const Commit& c : commits) store_net(c.target, c.value);
    for (std::size_t i = 0; i < forces.size(); ++i) {
      emit_force(*forces[i], held[i]);
    }
    const auto counter = edge_counters_.find({clock, edge});
    if (counter != edge_counters_.end()) emit(OpCode::kCount, counter->second);

    // Phase D: memory write ports, in process order.
    for (std::size_t w : writes) {
      emit(OpCode::kMemWrite, 0, 0, 0, 0, w);
    }
  }

  /// One force, after the commits: lane mask M selects the forced lane.
  void emit_force(const Force& f, const std::vector<BitRef>& held) {
    const NetSlots& ns = out_.nets_[static_cast<std::size_t>(f.reg)];
    const std::int32_t m = mask_slot(1ull << f.lane);
    const auto k = static_cast<std::size_t>(f.bit);
    const auto z_to_x = [&] {  // the XOR's X/Z rule: Z becomes X
      for (std::size_t i = 0; i < ns.a.size(); ++i) {
        if (ns.b[i] != kZeroSlot) emit(OpCode::kAndOr, ns.a[i], ns.b[i], m);
      }
    };
    switch (f.kind) {
      case ForceKind::kStuck0:
      case ForceKind::kStuck1:
        emit(f.kind == ForceKind::kStuck1 ? OpCode::kOr : OpCode::kAndn,
             ns.a[k], ns.a[k], m);
        if (ns.b[k] != kZeroSlot) emit(OpCode::kAndn, ns.b[k], ns.b[k], m);
        break;
      case ForceKind::kInvert:
        emit(OpCode::kXor, ns.a[k], ns.a[k], m);
        z_to_x();
        break;
      case ForceKind::kFlip:
        emit(OpCode::kXorAt, ns.a[k], m,
             edge_counters_.at(committing_steps(f.reg).front()), 0,
             static_cast<std::uint64_t>(f.edge));
        z_to_x();
        break;
      case ForceKind::kDrop:
        for (std::size_t i = 0; i < ns.a.size(); ++i) {
          emit(OpCode::kMux, ns.a[i], held[i].a, ns.a[i], m);
          if (ns.b[i] != kZeroSlot) {
            emit(OpCode::kMux, ns.b[i], held[i].b, ns.b[i], m);
          }
        }
        break;
    }
  }

  const rtl::Module* module_;
  const std::vector<Force>* forces_;
  std::map<std::uint64_t, std::int32_t> masks_;  // lane mask -> pinned slot
  std::map<std::pair<rtl::NetId, rtl::Edge>, std::int32_t> edge_counters_;
  Compiled out_;
  rtl::TopoSchedule sched_;
  std::int32_t next_slot_ = 2;  // 0 = all-zero, 1 = all-ones
  Program* cur_ = nullptr;
  std::vector<std::vector<BitRef>> expr_memo_;
  std::vector<bool> expr_done_;
};

Compiled compile(const rtl::Module& flat, const plan::CompilePlan& plan,
                 const std::vector<Force>& forces) {
  return Compiler(flat, plan, forces).run();
}

std::vector<bool> x_safe_forces(const rtl::Module& flat,
                                const plan::CompilePlan& plan,
                                const std::vector<Force>& forces) {
  std::vector<bool> safe;
  for (rtl::NetId n : endangered_nets(flat, plan, forces)) {
    safe.push_back(n == rtl::kInvalidId);
  }
  return safe;
}

Compiled compile(const rtl::Module& flat,
                 const std::vector<rtl::ClockStep>& schedule) {
  plan::PlanOptions opt;
  opt.schedule = schedule;
  return compile(flat, plan::analyze(flat, opt));
}

}  // namespace la1::csim
