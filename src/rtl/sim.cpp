#include "rtl/sim.hpp"

#include <stdexcept>

#include "rtl/schedule.hpp"

namespace la1::rtl {

CycleSim::CycleSim(const Module& flat) : module_(&flat) {
  if (!flat.instances().empty()) {
    throw std::invalid_argument("CycleSim requires an elaborated module");
  }
  net_values_.reserve(static_cast<std::size_t>(flat.net_count()));
  for (NetId id = 0; id < flat.net_count(); ++id) {
    const Net& n = flat.net(id);
    // Registers start at their declared init; everything else at X until
    // driven (inputs stay X until the testbench writes them).
    net_values_.push_back(n.kind == NetKind::kReg ? n.init : LVec::xs(n.width));
  }
  mem_values_.reserve(flat.memories().size());
  for (const Memory& m : flat.memories()) {
    mem_values_.emplace_back(static_cast<std::size_t>(m.depth),
                             LVec::zeros(m.width));
  }
  enabled_drivers_.assign(static_cast<std::size_t>(flat.net_count()), 0);
  expr_cache_.assign(static_cast<std::size_t>(flat.expr_count()), LVec{});
  expr_stamp_.assign(static_cast<std::size_t>(flat.expr_count()), 0);
  levelize();
  run_comb();
}

void CycleSim::levelize() {
  // The shared levelized schedule (rtl/schedule.hpp) — the same plan the
  // linter and the compile planner read, so the interpreter can never
  // disagree with them on evaluation order.
  TopoSchedule sched = topo_schedule(*module_);
  if (!sched.acyclic()) {
    throw std::invalid_argument(
        "combinational cycle through net " +
        module_->net(sched.comb_cycles.front().front()).name);
  }
  order_ = std::move(sched.nodes);
}

const LVec& CycleSim::eval_expr(ExprId id) {
  LVec& out = expr_cache_[static_cast<std::size_t>(id)];
  auto& stamp = expr_stamp_[static_cast<std::size_t>(id)];
  if (stamp == stamp_) return out;
  ++exprs_evaluated_;
  // Operands are other slots of expr_cache_, which never reallocates, so
  // each result is written straight into this expression's slot.
  const Expr& e = module_->expr(id);
  switch (e.op) {
    case Op::kConst: out = e.literal; break;
    case Op::kNet: out = net_values_[static_cast<std::size_t>(e.net)]; break;
    case Op::kNot: vec_not(out, eval_expr(e.a)); break;
    case Op::kAnd: vec_and(out, eval_expr(e.a), eval_expr(e.b)); break;
    case Op::kOr: vec_or(out, eval_expr(e.a), eval_expr(e.b)); break;
    case Op::kXor: vec_xor(out, eval_expr(e.a), eval_expr(e.b)); break;
    case Op::kRedAnd: out.assign(1, vec_red_and(eval_expr(e.a))); break;
    case Op::kRedOr: out.assign(1, vec_red_or(eval_expr(e.a))); break;
    case Op::kRedXor: out.assign(1, vec_red_xor(eval_expr(e.a))); break;
    case Op::kEq:
      out.assign(1, vec_eq(eval_expr(e.a), eval_expr(e.b)));
      break;
    case Op::kNe:
      out.assign(1, logic_not(vec_eq(eval_expr(e.a), eval_expr(e.b))));
      break;
    case Op::kMux:
      vec_mux(out, eval_expr(e.a).bit(0), eval_expr(e.b), eval_expr(e.c));
      break;
    case Op::kConcat: {
      // Parts are MSB first; every part is evaluated before `out` is shaped.
      int width = 0;
      for (ExprId part : e.parts) width += eval_expr(part).width();
      out.resize(width);
      int lo = 0;
      for (auto it = e.parts.rbegin(); it != e.parts.rend(); ++it) {
        const LVec& part = expr_cache_[static_cast<std::size_t>(*it)];
        out.copy_bits(part, 0, part.width(), lo);
        lo += part.width();
      }
      break;
    }
    case Op::kSlice: vec_slice(out, eval_expr(e.a), e.lo, e.width); break;
    case Op::kAdd: vec_add(out, eval_expr(e.a), eval_expr(e.b)); break;
    case Op::kSub: vec_sub(out, eval_expr(e.a), eval_expr(e.b)); break;
    case Op::kMemRead: {
      const auto& mem = mem_values_[static_cast<std::size_t>(e.mem)];
      const auto idx = eval_expr(e.a).to_uint();
      if (!idx.has_value() || *idx >= mem.size()) {
        out.assign(e.width, Logic::kX);
      } else {
        out = mem[static_cast<std::size_t>(*idx)];
      }
      break;
    }
  }
  stamp = stamp_;
  return out;
}

void CycleSim::run_comb() {
  ++stamp_;
  for (const SchedNode& node : order_) {
    LVec& value = net_values_[static_cast<std::size_t>(node.target)];
    if (!node.is_tristate_group) {
      value = eval_expr(node.assign_values.front());
      continue;
    }
    value.assign(module_->net(node.target).width, Logic::kZ);
    int enabled = 0;
    for (std::size_t d = 0; d < node.tri_enables.size(); ++d) {
      const Logic en = eval_expr(node.tri_enables[d]).bit(0);
      if (en == Logic::k0) continue;
      if (en == Logic::k1) {
        vec_resolve(value, value, eval_expr(node.assign_values[d]));
        ++enabled;
      } else {
        // Unknown enable: the driver may or may not be on — X everywhere it
        // could disagree, i.e. conservatively everywhere.
        value.assign(value.width(), Logic::kX);
      }
    }
    enabled_drivers_[static_cast<std::size_t>(node.target)] = enabled;
  }
}

void CycleSim::set_input(NetId net, const LVec& value) {
  const Net& n = module_->net(net);
  if (n.kind != NetKind::kInput) {
    throw std::invalid_argument("set_input on non-input net: " + n.name);
  }
  if (value.width() != n.width) {
    throw std::invalid_argument("set_input width mismatch on " + n.name);
  }
  net_values_[static_cast<std::size_t>(net)] = value;
}

void CycleSim::set_input(const std::string& name, std::uint64_t value) {
  const NetId id = module_->find_net(name);
  if (id == kInvalidId) throw std::invalid_argument("no such net: " + name);
  set_input(id, LVec::from_uint(value, module_->net(id).width));
}

void CycleSim::set_input_bit(const std::string& name, bool value) {
  set_input(name, value ? 1u : 0u);
}

void CycleSim::eval() { run_comb(); }

void CycleSim::edge(NetId clock, Edge e) {
  run_comb();  // settle pre-edge values

  // Sample: every value a process commits lands in its expr_cache_ slot,
  // where it stays until the next run_comb — net writes never touch it.
  const auto sensitive = [&](const Process& p) {
    return p.clock == clock && p.edge == e;
  };
  for (const Process& p : module_->processes()) {
    if (!sensitive(p)) continue;
    for (const SeqAssign& sa : p.assigns) eval_expr(sa.value);
    for (const MemWrite& w : p.mem_writes) {
      eval_expr(w.addr);
      eval_expr(w.data);
      eval_expr(w.wen);
      for (ExprId be : w.byte_enables) eval_expr(be);
    }
  }
  // The clock net itself flips to its post-edge value.
  net_values_[static_cast<std::size_t>(clock)].assign(
      1, e == Edge::kPos ? Logic::k1 : Logic::k0);

  for (const Process& p : module_->processes()) {
    if (!sensitive(p)) continue;
    for (const SeqAssign& sa : p.assigns) {
      net_values_[static_cast<std::size_t>(sa.target)] = sampled(sa.value);
    }
    for (const MemWrite& w : p.mem_writes) commit_write(w);
  }

  ++edges_;
  run_comb();
}

void CycleSim::commit_write(const MemWrite& w) {
  auto& mem = mem_values_[static_cast<std::size_t>(w.mem)];
  const Logic wen = sampled(w.wen).bit(0);
  if (wen == Logic::k0) return;
  const auto idx = sampled(w.addr).to_uint();
  if (!idx.has_value()) {
    // Unknown address with a (possibly) active write: all state suspect.
    for (auto& word : mem) word.assign(word.width(), Logic::kX);
    ++x_write_warnings_;
    return;
  }
  if (*idx >= mem.size()) return;  // out of range: ignored, like SRAM decode
  LVec& word = mem[static_cast<std::size_t>(*idx)];
  if (wen != Logic::k1) {
    word.assign(word.width(), Logic::kX);
    ++x_write_warnings_;
    return;
  }
  const LVec& data = sampled(w.data);
  if (w.byte_enables.empty()) {
    word = data;
    return;
  }
  const int lanes = static_cast<int>(w.byte_enables.size());
  const int lw = word.width() / lanes;
  for (int lane = 0; lane < lanes; ++lane) {
    const Logic be =
        sampled(w.byte_enables[static_cast<std::size_t>(lane)]).bit(0);
    if (be == Logic::k1) {
      word.copy_bits(data, lane * lw, lw, lane * lw);
    } else if (be != Logic::k0) {
      for (int b = 0; b < lw; ++b) word.set_bit(lane * lw + b, Logic::kX);
      x_write_warnings_ += static_cast<std::uint64_t>(lw);
    }
  }
}

void CycleSim::edge(const std::string& clock_name, Edge e) {
  const NetId id = module_->find_net(clock_name);
  if (id == kInvalidId) throw std::invalid_argument("no such net: " + clock_name);
  edge(id, e);
}

const LVec& CycleSim::get(NetId net) const {
  return net_values_.at(static_cast<std::size_t>(net));
}

const LVec& CycleSim::get(const std::string& name) const {
  const NetId id = module_->find_net(name);
  if (id == kInvalidId) throw std::invalid_argument("no such net: " + name);
  return get(id);
}

std::uint64_t CycleSim::get_uint(const std::string& name) const {
  const auto v = get(name).to_uint();
  if (!v.has_value()) throw std::runtime_error("net has X/Z bits: " + name);
  return *v;
}

int CycleSim::enabled_drivers(NetId net) const {
  return enabled_drivers_.at(static_cast<std::size_t>(net));
}

const LVec& CycleSim::mem_word(MemId mem, std::uint64_t addr) const {
  return mem_values_.at(static_cast<std::size_t>(mem)).at(addr);
}

void CycleSim::poke_mem(MemId mem, std::uint64_t addr, const LVec& value) {
  mem_values_.at(static_cast<std::size_t>(mem)).at(addr) = value;
}

}  // namespace la1::rtl
