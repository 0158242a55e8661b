#include "harness/adapters.hpp"

#include <algorithm>
#include <stdexcept>

#include "la1/properties.hpp"
#include "la1/spec.hpp"

namespace la1::harness {

namespace {

// The ASM's canonical beat width (see AsmDeviceModel).
constexpr int kAsmBeatBits = 8;

Geometry asm_geometry(const core::AsmConfig& cfg) {
  Geometry g;
  g.banks = cfg.banks;
  g.mem_addr_bits = cfg.mem_addr_bits;
  g.data_bits = kAsmBeatBits;
  return g;
}

Geometry behavioural_geometry(const core::Config& cfg) {
  Geometry g;
  g.banks = cfg.banks;
  g.mem_addr_bits = cfg.mem_addr_bits();
  g.data_bits = cfg.data_bits;
  return g;
}

Geometry rtl_geometry(const core::RtlConfig& cfg) {
  Geometry g;
  g.banks = cfg.banks;
  g.mem_addr_bits = cfg.mem_addr_bits;
  g.data_bits = cfg.data_bits;
  return g;
}

/// The shared taps of core::tap_set(Level::kHarness): per-bank read taps,
/// then device taps. With `bank_writes` the netlist's remaining per-bank
/// taps (the write taps) sit between the two.
std::vector<std::string> level_taps(int banks, bool bank_writes) {
  const core::TapSet& shared = core::tap_set(core::Level::kHarness);
  std::vector<std::string> names = shared.bank_taps(banks);
  if (bank_writes) {
    core::TapSet writes = core::tap_set(core::Level::kRtl);
    std::erase_if(writes.bank, [&](const std::string& t) {
      return std::count(shared.bank.begin(), shared.bank.end(), t) != 0;
    });
    for (std::string& t : writes.bank_taps(banks)) names.push_back(t);
  }
  names.insert(names.end(), shared.device.begin(), shared.device.end());
  return names;
}

}  // namespace

// --- AsmDeviceModel -----------------------------------------------------

AsmDeviceModel::AsmDeviceModel(const core::AsmConfig& cfg)
    : DeviceModel("asm", asm_geometry(cfg)),
      cfg_(cfg),
      machine_(core::build_asm_model(cfg)) {
  if (cfg.data_values > (1 << kAsmBeatBits)) {
    throw std::invalid_argument(
        "AsmDeviceModel: data_values exceeds the canonical beat width");
  }
  tap_names_ = level_taps(cfg.banks, false);
  do_reset();
}

StimulusOptions AsmDeviceModel::stimulus_options() const {
  StimulusOptions so;
  so.banks = cfg_.banks;
  so.mem_addr_bits = cfg_.mem_addr_bits;
  so.data_bits = geometry().data_bits;
  so.data_values = static_cast<std::uint64_t>(cfg_.data_values);
  so.full_word_writes = true;
  return so;
}

void AsmDeviceModel::do_reset() {
  state_ = machine_.initial();
  state_ = machine_.fire(machine_.rule("SystemStart"), {}, state_);
  state_ = machine_.fire(machine_.rule("SimManager_Init"), {}, state_);
}

void AsmDeviceModel::apply_edge(const EdgePins& pins) {
  if (pins.edge == Edge::kK) {
    state_ = machine_.fire(
        machine_.rule("TickK"),
        {asml::Value(!pins.r_sel_n), asml::Value(static_cast<int>(pins.addr)),
         asml::Value(!pins.w_sel_n),
         asml::Value(static_cast<int>(pins.din_data))},
        state_);
  } else {
    state_ = machine_.fire(machine_.rule("TickKs"),
                           {asml::Value(static_cast<int>(pins.addr)),
                            asml::Value(static_cast<int>(pins.din_data))},
                           state_);
  }
}

bool AsmDeviceModel::tap(const std::string& name) const {
  return state_.get_bool(name);
}

std::uint64_t AsmDeviceModel::memory_word(int bank, std::uint64_t addr) const {
  const std::int64_t w = state_.get_int("b" + std::to_string(bank) + ".mem" +
                                        std::to_string(addr));
  // The ASM packs (beat0, beat1) at the data-domain radix; re-pack at the
  // canonical beat width.
  const std::int64_t dv = cfg_.data_values;
  const std::uint64_t beat0 = static_cast<std::uint64_t>(w % dv);
  const std::uint64_t beat1 = static_cast<std::uint64_t>(w / dv);
  return beat0 | (beat1 << geometry().data_bits);
}

// --- BehavioralDeviceModel ----------------------------------------------

BehavioralDeviceModel::BehavioralDeviceModel(const core::Config& cfg)
    : DeviceModel("behavioural", behavioural_geometry(cfg)), cfg_(cfg) {
  tap_names_ = level_taps(cfg.banks, true);
  do_reset();
}

void BehavioralDeviceModel::do_reset() {
  harness_ = std::make_unique<core::KernelHarness>(cfg_);
  harness_->set_external_drive(true);
}

void BehavioralDeviceModel::apply_edge(const EdgePins& pins) {
  if ((harness_->ticks_done() % 2 == 0) != (pins.edge == Edge::kK)) {
    throw std::logic_error("BehavioralDeviceModel: edge out of phase");
  }
  core::Pins& p = harness_->pins();
  p.r_sel_n.write(pins.r_sel_n);
  p.w_sel_n.write(pins.w_sel_n);
  p.addr.write(static_cast<std::uint32_t>(pins.addr));
  p.din.write(core::pack_beat(pins.din_data, cfg_.data_bits));
  p.bwe_n.write(pins.bwe_n);
  harness_->run_ticks(1);
}

bool BehavioralDeviceModel::tap(const std::string& name) const {
  return harness_->env().sample(name);
}

DoutSample BehavioralDeviceModel::dout() const {
  DoutSample s;
  s.valid = harness_->env().sample("dout_valid");
  if (s.valid) {
    s.defined = true;
    s.beat = harness_->pins().dout.read();
  }
  return s;
}

std::uint64_t BehavioralDeviceModel::memory_word(int bank,
                                                 std::uint64_t addr) const {
  return harness_->device().bank(bank).memory().read(addr);
}

// --- NetlistDeviceModel -------------------------------------------------

namespace {

/// The pin drive of one edge, shared by both backends (CycleSim and
/// csim::Machine expose the same input/edge surface).
template <typename Sim>
void drive_edge(Sim& sim, const rtl::Module& flat, const NetlistTaps& taps,
                const EdgePins& pins) {
  for (const PinDrive& d : taps.drives(pins)) {
    sim.set_input(d.net, rtl::LVec::from_uint(d.value, flat.net(d.net).width));
  }
  sim.edge(taps.clock(pins), rtl::Edge::kPos);
}

}  // namespace

NetlistTaps::NetlistTaps(const rtl::Module& flat, const core::RtlConfig& cfg)
    : data_bits(cfg.data_bits) {
  names = level_taps(cfg.banks, true);
  nets.resize(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) by_name_[names[i]] = i;
  bus_conflict = index("bus_conflict");

  const core::TapSet& shared = core::tap_set(core::Level::kHarness);
  for (int b = 0; b < cfg.banks; ++b) {
    const std::string prefix = "bank" + std::to_string(b) + ".";
    const std::string tap = "b" + std::to_string(b) + ".";
    for (const std::string& t : core::tap_set(core::Level::kRtl).bank) {
      const rtl::NetId net =
          flat.find_net(core::bind_tap(core::Level::kRtl, tap + t));
      nets[index(tap + t)] = {net};
      // A device-level tap ORs every bank.
      if (shared.observes(t)) nets[index(t)].push_back(net);
    }
    dout_valid.push_back(nets[index(tap + "dout_valid_k")].front());
    dout_valid.push_back(nets[index(tap + "dout_valid_ks")].front());

    const auto& mems = flat.memories();
    const auto mem = std::find_if(mems.begin(), mems.end(), [&](const auto& m) {
      return m.name == prefix + "sram";
    });
    if (mem == mems.end()) {
      throw std::logic_error("NetlistTaps: missing " + prefix + "sram");
    }
    bank_mems.push_back(static_cast<rtl::MemId>(mem - mems.begin()));
  }
  dout_bus = flat.find_net("DOUT");
  const auto pin = [&flat](const char* name) {
    const rtl::NetId id = flat.find_net(name);
    if (id == rtl::kInvalidId) {
      throw std::logic_error(std::string("NetlistTaps: missing pin ") + name);
    }
    return id;
  };
  r_n = pin("R_n");
  w_n = pin("W_n");
  addr = pin("A");
  din = pin("D");
  bwe_n = pin("BWE_n");
  k = pin("K");
  ks = pin("KS");
}

std::size_t NetlistTaps::index(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw std::invalid_argument("NetlistDeviceModel: unknown tap: " + name);
  }
  return it->second;
}

std::array<PinDrive, 5> NetlistTaps::drives(const EdgePins& pins) const {
  return {PinDrive{r_n, pins.r_sel_n ? 1u : 0u},
          PinDrive{w_n, pins.w_sel_n ? 1u : 0u}, PinDrive{addr, pins.addr},
          PinDrive{din, core::pack_beat(pins.din_data, data_bits)},
          PinDrive{bwe_n, pins.bwe_n}};
}

bool NetlistTaps::any_one(const NetReader& r,
                          const std::vector<rtl::NetId>& nets) const {
  for (rtl::NetId net : nets) {
    if (r.net_is_one(net)) return true;
  }
  return false;
}

bool NetlistTaps::tap(const NetReader& r, std::size_t i) const {
  if (i == bus_conflict) return r.bus_conflict(dout_bus);
  return any_one(r, nets[i]);
}

DoutSample NetlistTaps::dout(const NetReader& r) const {
  DoutSample s;
  s.valid = any_one(r, dout_valid);
  if (s.valid) {
    const auto beat = r.net_value(dout_bus);
    s.defined = beat.has_value();
    s.beat = beat.value_or(0);
  }
  return s;
}

std::uint64_t NetlistTaps::memory_word(const NetReader& r, int bank,
                                       std::uint64_t addr) const {
  return r.mem_value(bank_mems[static_cast<std::size_t>(bank)], addr)
      .value_or(~0ull);
}

NetlistDeviceModel::NetlistDeviceModel(
    std::string name, const core::RtlConfig& cfg,
    const std::function<void(rtl::Module&)>& instrument)
    : DeviceModel(std::move(name), rtl_geometry(cfg)),
      flat_([&] {
        if (cfg.data_bits % 8 != 0) {
          throw std::invalid_argument(
              "NetlistDeviceModel: harness co-execution needs byte-multiple "
              "beats");
        }
        rtl::Module flat = core::build_device(cfg).flatten();
        if (instrument) instrument(flat);
        return flat;
      }()),
      taps_(flat_, cfg) {
  tap_names_ = taps_.names;
}

bool NetlistDeviceModel::tap(const std::string& name) const {
  return taps_.tap(*this, taps_.index(name));
}

DoutSample NetlistDeviceModel::dout() const { return taps_.dout(*this); }

std::uint64_t NetlistDeviceModel::memory_word(int bank,
                                              std::uint64_t addr) const {
  return taps_.memory_word(*this, bank, addr);
}

// --- RtlDeviceModel -----------------------------------------------------

RtlDeviceModel::RtlDeviceModel(
    const core::RtlConfig& cfg,
    const std::function<void(rtl::Module&)>& instrument)
    : NetlistDeviceModel("rtl", cfg, instrument) {
  do_reset();
}

void RtlDeviceModel::do_reset() {
  sim_ = std::make_unique<rtl::CycleSim>(flat());
}

void RtlDeviceModel::apply_edge(const EdgePins& pins) {
  drive_edge(*sim_, flat(), taps(), pins);
}

bool RtlDeviceModel::net_is_one(rtl::NetId net) const {
  return sim_->get(net).bit(0) == rtl::Logic::k1;
}

std::optional<std::uint64_t> RtlDeviceModel::net_value(rtl::NetId net) const {
  return sim_->get(net).to_uint();
}

std::optional<std::uint64_t> RtlDeviceModel::mem_value(
    rtl::MemId mem, std::uint64_t addr) const {
  return sim_->mem_word(mem, addr).to_uint();
}

bool RtlDeviceModel::bus_conflict(rtl::NetId bus) const {
  return sim_->enabled_drivers(bus) >= 2;
}

// --- CsimDeviceModel ----------------------------------------------------

CsimDeviceModel::CsimDeviceModel(
    const core::RtlConfig& cfg,
    const std::function<void(rtl::Module&)>& instrument)
    : NetlistDeviceModel("csim", cfg, instrument),
      compiled_(csim::compile(flat(), core::clock_schedule(flat()))),
      machine_(compiled_, 1) {}

void CsimDeviceModel::do_reset() { machine_.reset(); }

void CsimDeviceModel::apply_edge(const EdgePins& pins) {
  drive_edge(machine_, flat(), taps(), pins);
}

bool CsimDeviceModel::net_is_one(rtl::NetId net) const {
  return machine_.get(net, 0).bit(0) == rtl::Logic::k1;
}

std::optional<std::uint64_t> CsimDeviceModel::net_value(rtl::NetId net) const {
  return machine_.get(net, 0).to_uint();
}

std::optional<std::uint64_t> CsimDeviceModel::mem_value(
    rtl::MemId mem, std::uint64_t addr) const {
  return machine_.mem_word(mem, addr, 0).to_uint();
}

bool CsimDeviceModel::bus_conflict(rtl::NetId bus) const {
  return machine_.bus_conflict(bus, 0);
}

// --- backend selection --------------------------------------------------

const char* to_string(RtlBackend b) {
  return b == RtlBackend::kCompiled ? "compiled" : "interpreted";
}

RtlBackend rtl_backend_from_string(const std::string& s) {
  if (s == "interpreted") return RtlBackend::kInterpreted;
  if (s == "compiled") return RtlBackend::kCompiled;
  throw std::invalid_argument("unknown RTL backend: " + s);
}

RtlDevice make_rtl_device(const core::RtlConfig& cfg, RtlBackend backend,
                          const std::function<void(rtl::Module&)>& instrument) {
  if (backend == RtlBackend::kCompiled) {
    return {std::make_unique<CsimDeviceModel>(cfg, instrument)};
  }
  return {std::make_unique<RtlDeviceModel>(cfg, instrument)};
}

}  // namespace la1::harness
