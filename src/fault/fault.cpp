#include "fault/fault.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace la1::fault {

bool is_structural(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStuckAt0:
    case FaultKind::kStuckAt1:
    case FaultKind::kInvertedDriver:
    case FaultKind::kBitFlip:
    case FaultKind::kDroppedUpdate:
      return true;
    case FaultKind::kCorruptReadData:
    case FaultKind::kGlitchBankSelect:
    case FaultKind::kDroppedTransfer:
    case FaultKind::kDelayedTransfer:
      return false;
  }
  return false;
}

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStuckAt0: return "stuck0";
    case FaultKind::kStuckAt1: return "stuck1";
    case FaultKind::kInvertedDriver: return "invert";
    case FaultKind::kBitFlip: return "bitflip";
    case FaultKind::kDroppedUpdate: return "drop-update";
    case FaultKind::kCorruptReadData: return "corrupt-read-data";
    case FaultKind::kGlitchBankSelect: return "glitch-bank-select";
    case FaultKind::kDroppedTransfer: return "dropped-transfer";
    case FaultKind::kDelayedTransfer: return "delayed-transfer";
  }
  return "unknown";
}

FaultKind fault_kind_from_string(const std::string& name) {
  static const FaultKind kAll[] = {
      FaultKind::kStuckAt0,        FaultKind::kStuckAt1,
      FaultKind::kInvertedDriver,  FaultKind::kBitFlip,
      FaultKind::kDroppedUpdate,   FaultKind::kCorruptReadData,
      FaultKind::kGlitchBankSelect, FaultKind::kDroppedTransfer,
      FaultKind::kDelayedTransfer,
  };
  for (FaultKind k : kAll) {
    if (name == to_string(k)) return k;
  }
  throw std::invalid_argument("unknown fault kind: " + name);
}

std::string FaultSpec::id() const {
  std::string out = to_string(kind);
  if (is_structural(kind)) {
    out += ":" + net + "[" + std::to_string(bit) + "]";
  }
  if (kind == FaultKind::kBitFlip || !is_structural(kind)) {
    out += util::cat({"@", std::to_string(cycle)});
  }
  return out;
}

util::Json FaultSpec::to_json() const {
  util::Json j = util::Json::object();
  j.set("kind", to_string(kind));
  j.set("net", net);
  j.set("bit", bit);
  j.set("cycle", cycle);
  return j;
}

FaultSpec FaultSpec::from_json(const util::Json& j) {
  FaultSpec s;
  const util::Json* kind = j.find("kind");
  if (kind == nullptr) {
    throw std::invalid_argument("FaultSpec: missing 'kind'");
  }
  s.kind = fault_kind_from_string(kind->as_string());
  if (const util::Json* v = j.find("net")) s.net = v->as_string();
  if (const util::Json* v = j.find("bit")) s.bit = static_cast<int>(v->as_int());
  if (const util::Json* v = j.find("cycle")) {
    s.cycle = static_cast<int>(v->as_int());
  }
  return s;
}

namespace {

/// Registers assigned by some process — the injectable sequential state.
/// Canonical net order keeps the plan deterministic.
std::vector<rtl::NetId> assigned_regs(const rtl::Module& flat) {
  std::vector<bool> assigned(static_cast<std::size_t>(flat.net_count()), false);
  for (const rtl::Process& p : flat.processes()) {
    for (const rtl::SeqAssign& a : p.assigns) {
      assigned[static_cast<std::size_t>(a.target)] = true;
    }
  }
  std::vector<rtl::NetId> regs;
  for (rtl::NetId id = 0; id < flat.net_count(); ++id) {
    if (flat.net(id).kind == rtl::NetKind::kReg &&
        assigned[static_cast<std::size_t>(id)]) {
      regs.push_back(id);
    }
  }
  return regs;
}

/// Rebuilds `value` with bit `bit` forced to `forced` (concat of slices).
rtl::ExprId force_bit(rtl::Module& m, rtl::ExprId value, int width, int bit,
                      bool forced) {
  const rtl::ExprId forced_bit = m.lit_uint(forced ? 1 : 0, 1);
  if (width == 1) return forced_bit;
  std::vector<rtl::ExprId> parts;  // MSB-first
  if (bit < width - 1) parts.push_back(m.slice(value, bit + 1, width - 1 - bit));
  parts.push_back(forced_bit);
  if (bit > 0) parts.push_back(m.slice(value, 0, bit));
  return m.concat(parts);
}

/// The clock/edge of the process that drives `reg` (first match).
std::pair<rtl::NetId, rtl::Edge> driving_clock(const rtl::Module& m,
                                               rtl::NetId reg) {
  for (const rtl::Process& p : m.processes()) {
    for (const rtl::SeqAssign& a : p.assigns) {
      if (a.target == reg) return {p.clock, p.edge};
    }
  }
  throw std::invalid_argument("fault: register never assigned: " +
                              m.net(reg).name);
}

}  // namespace

std::vector<FaultSpec> plan_faults(const rtl::Module& flat,
                                   const PlanOptions& options,
                                   std::uint64_t seed) {
  const std::vector<rtl::NetId> regs = assigned_regs(flat);
  if (regs.empty() && options.structural > 0) {
    throw std::invalid_argument("plan_faults: module has no sequential state");
  }
  util::Rng rng(seed);

  // Seeded Fisher-Yates over the canonical register order.
  std::vector<rtl::NetId> shuffled = regs;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    const std::size_t j =
        static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(i)));
    std::swap(shuffled[i - 1], shuffled[j]);
  }

  static const FaultKind kStructuralKinds[] = {
      FaultKind::kStuckAt1, FaultKind::kInvertedDriver, FaultKind::kStuckAt0,
      FaultKind::kDroppedUpdate, FaultKind::kBitFlip,
  };
  std::vector<FaultSpec> plan;
  for (int i = 0; i < options.structural; ++i) {
    FaultSpec s;
    s.kind = kStructuralKinds[static_cast<std::size_t>(i) %
                              (sizeof(kStructuralKinds) /
                               sizeof(kStructuralKinds[0]))];
    const rtl::NetId reg = shuffled[static_cast<std::size_t>(i) %
                                    shuffled.size()];
    s.net = flat.net(reg).name;
    s.bit = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(flat.net(reg).width)));
    // Early activation keeps the flip inside both the simulated window and
    // the symbolic engine's reachable depth.
    s.cycle = 2 + static_cast<int>(rng.below(6));
    plan.push_back(std::move(s));
  }

  static const FaultKind kProtocolKinds[] = {
      FaultKind::kCorruptReadData, FaultKind::kGlitchBankSelect,
      FaultKind::kDroppedTransfer, FaultKind::kDelayedTransfer,
  };
  for (int i = 0; i < options.protocol; ++i) {
    FaultSpec s;
    s.kind = kProtocolKinds[static_cast<std::size_t>(i) %
                            (sizeof(kProtocolKinds) /
                             sizeof(kProtocolKinds[0]))];
    s.cycle = 1 + static_cast<int>(rng.below(5));
    plan.push_back(std::move(s));
  }
  return plan;
}

void apply_structural(rtl::Module& flat, const FaultSpec& spec) {
  if (!is_structural(spec.kind)) {
    throw std::invalid_argument("apply_structural: '" + std::string(to_string(
                                    spec.kind)) +
                                "' is a protocol fault");
  }
  const rtl::NetId reg = flat.find_net(spec.net);
  if (reg == rtl::kInvalidId) {
    throw std::invalid_argument("apply_structural: no such net: " + spec.net);
  }
  const int width = flat.net(reg).width;
  const int bit = spec.bit % width;

  switch (spec.kind) {
    case FaultKind::kStuckAt0:
    case FaultKind::kStuckAt1: {
      const bool forced = spec.kind == FaultKind::kStuckAt1;
      flat.map_nonblocking(reg, [&](rtl::ExprId old) {
        return force_bit(flat, old, width, bit, forced);
      });
      break;
    }
    case FaultKind::kInvertedDriver:
      flat.map_nonblocking(reg, [&](rtl::ExprId old) {
        return flat.op_xor(old, flat.lit_uint(1ull << bit, width));
      });
      break;
    case FaultKind::kDroppedUpdate:
      flat.drop_nonblocking(reg);
      break;
    case FaultKind::kBitFlip: {
      // Single-event upset as synthesized logic: a saturating K-cycle
      // counter arms exactly once, XORing the chosen bit into the target's
      // next value. Structural, so the identical mutant drives the cycle
      // simulator and the bit-blasted symbolic engine.
      const auto [clock, edge] = driving_clock(flat, reg);
      const int limit = spec.cycle + 1;
      int cnt_width = 1;
      while ((1 << cnt_width) <= limit) ++cnt_width;
      const rtl::NetId cnt =
          flat.reg("__fault_cnt_" + spec.net, cnt_width, std::uint64_t{0});
      const rtl::ProcId proc = flat.process("__fault_seu", clock, edge);
      const rtl::ExprId cnt_ref = flat.ref(cnt);
      const rtl::ExprId at_limit =
          flat.eq(cnt_ref, flat.lit_uint(static_cast<std::uint64_t>(limit),
                                         cnt_width));
      flat.nonblocking(
          proc, cnt,
          flat.mux(at_limit, cnt_ref,
                   flat.add(cnt_ref, flat.lit_uint(1, cnt_width))));
      const rtl::ExprId armed = flat.eq(
          cnt_ref,
          flat.lit_uint(static_cast<std::uint64_t>(spec.cycle), cnt_width));
      flat.map_nonblocking(reg, [&](rtl::ExprId old) {
        return flat.op_xor(
            old, flat.mux(armed, flat.lit_uint(1ull << bit, width),
                          flat.lit_uint(0, width)));
      });
      break;
    }
    default:
      break;
  }
}

csim::Force lane_force(const rtl::Module& flat, const FaultSpec& spec,
                       int lane) {
  if (!is_structural(spec.kind)) {
    throw std::invalid_argument("lane_force: '" +
                                std::string(to_string(spec.kind)) +
                                "' is a protocol fault");
  }
  csim::Force f;
  f.reg = flat.find_net(spec.net);
  if (f.reg == rtl::kInvalidId) {
    throw std::invalid_argument("lane_force: no such net: " + spec.net);
  }
  f.bit = spec.bit % flat.net(f.reg).width;
  f.lane = lane;
  f.edge = spec.cycle;
  switch (spec.kind) {
    case FaultKind::kStuckAt0: f.kind = csim::ForceKind::kStuck0; break;
    case FaultKind::kStuckAt1: f.kind = csim::ForceKind::kStuck1; break;
    case FaultKind::kInvertedDriver: f.kind = csim::ForceKind::kInvert; break;
    case FaultKind::kBitFlip: f.kind = csim::ForceKind::kFlip; break;
    case FaultKind::kDroppedUpdate:
    default: f.kind = csim::ForceKind::kDrop; break;
  }
  return f;
}

ProtocolFaultModel::ProtocolFaultModel(
    std::unique_ptr<harness::DeviceModel> inner, const FaultSpec& spec)
    : ProtocolFaultModel(*inner, spec) {
  owned_ = std::move(inner);
}

ProtocolFaultModel::ProtocolFaultModel(harness::DeviceModel& inner,
                                       const FaultSpec& spec)
    : DeviceModel(inner.name() + "+" + spec.id(), inner.geometry()),
      inner_(&inner),
      spec_(spec) {
  if (is_structural(spec_.kind)) {
    throw std::invalid_argument("ProtocolFaultModel: '" +
                                std::string(to_string(spec_.kind)) +
                                "' is a structural fault");
  }
  tap_names_ = inner_->tap_names();
}

void ProtocolFaultModel::do_reset() {
  inner_->reset();
  k_cycles_ = 0;
  fired_ = false;
  replay_pending_ = false;
  replay_addr_ = 0;
}

void ProtocolFaultModel::apply_edge(const harness::EdgePins& pins) {
  harness::EdgePins p = pins;
  if (p.edge == harness::Edge::kK) {
    const bool selected = !p.r_sel_n || !p.w_sel_n;
    switch (spec_.kind) {
      case FaultKind::kGlitchBankSelect:
        // Persistent select glitch: the top address bit (the bank-select
        // bit in multi-bank devices) flips on every transfer once active.
        if (k_cycles_ >= spec_.cycle && selected) {
          p.addr ^= 1ull << (geometry().addr_bits() - 1);
        }
        break;
      case FaultKind::kDroppedTransfer:
        // One-shot: the first transfer after activation never reaches the
        // device.
        if (!fired_ && k_cycles_ >= spec_.cycle && selected) {
          p.r_sel_n = true;
          p.w_sel_n = true;
          fired_ = true;
        }
        break;
      case FaultKind::kDelayedTransfer:
        // One-shot: the first read after activation lands one K cycle late
        // (stomping whatever that cycle carried on the read port).
        if (replay_pending_) {
          p.r_sel_n = false;
          p.addr = replay_addr_;
          replay_pending_ = false;
        } else if (!fired_ && k_cycles_ >= spec_.cycle && !p.r_sel_n) {
          replay_addr_ = p.addr;
          p.r_sel_n = true;
          replay_pending_ = true;
          fired_ = true;
        }
        break;
      default:
        break;
    }
    ++k_cycles_;
  }
  inner_->apply_edge(p);
}

bool ProtocolFaultModel::tap(const std::string& name) const {
  return inner_->tap(name);
}

harness::DoutSample ProtocolFaultModel::dout() const {
  harness::DoutSample s = inner_->dout();
  if (spec_.kind == FaultKind::kCorruptReadData && s.valid && s.defined &&
      k_cycles_ > spec_.cycle) {
    s.beat ^= 1;  // corrupted read data word: LSB flipped on the bus
  }
  return s;
}

bool ProtocolFaultModel::models_dout() const { return inner_->models_dout(); }

std::uint64_t ProtocolFaultModel::memory_word(int bank,
                                              std::uint64_t addr) const {
  return inner_->memory_word(bank, addr);
}

}  // namespace la1::fault
