#include "harness/adapters.hpp"

#include <algorithm>
#include <stdexcept>

#include "la1/spec.hpp"

namespace la1::harness {

namespace {

Geometry asm_geometry(const core::AsmConfig& cfg, int data_bits) {
  Geometry g;
  g.banks = cfg.banks;
  g.mem_addr_bits = cfg.mem_addr_bits;
  g.data_bits = data_bits;
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

// Per-bank tap suffixes. In the netlist every tap is a registered 1-bit net
// of each bank, "bank<i>.<tap>_q".
constexpr const char* kBankReadTaps[] = {"read_start", "fetch", "dout_valid_k",
                                         "dout_valid_ks"};
constexpr const char* kBankWriteTaps[] = {"write_start", "addr_captured",
                                          "write_commit"};

std::vector<std::string> bank_write_taps(int banks) {
  std::vector<std::string> names;
  for (int b = 0; b < banks; ++b) {
    const std::string p = "b" + std::to_string(b) + ".";
    for (const char* t : kBankWriteTaps) names.push_back(p + t);
  }
  return names;
}

std::vector<std::string> concat_names(std::vector<std::string> a,
                                      const std::vector<std::string>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

}  // namespace

// --- AsmDeviceModel -----------------------------------------------------

AsmDeviceModel::AsmDeviceModel(const core::AsmConfig& cfg, int data_bits)
    : DeviceModel("asm", asm_geometry(cfg, data_bits)),
      cfg_(cfg),
      machine_(core::build_asm_model(cfg)) {
  if (cfg.data_values > (1 << data_bits)) {
    throw std::invalid_argument(
        "AsmDeviceModel: data_values exceeds the canonical beat width");
  }
  tap_names_ = concat_names(bank_read_taps(cfg.banks), device_taps());
  do_reset();
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
  tap_names_ = concat_names(
      concat_names(bank_read_taps(cfg.banks), bank_write_taps(cfg.banks)),
      device_taps());
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
void drive_edge(Sim& sim, const EdgePins& pins, int data_bits) {
  sim.set_input_bit("R_n", pins.r_sel_n);
  sim.set_input_bit("W_n", pins.w_sel_n);
  sim.set_input("A", pins.addr);
  sim.set_input("D", core::pack_beat(pins.din_data, data_bits));
  sim.set_input("BWE_n", pins.bwe_n);
  sim.edge(pins.edge == Edge::kK ? "K" : "KS", rtl::Edge::kPos);
}

}  // namespace

NetlistDeviceModel::NetlistDeviceModel(
    std::string name, const core::RtlConfig& cfg,
    const std::function<void(rtl::Module&)>& instrument)
    : DeviceModel(std::move(name), rtl_geometry(cfg)),
      flat_(core::build_device(cfg).flatten()) {
  if (cfg.data_bits % 8 != 0) {
    throw std::invalid_argument(
        "NetlistDeviceModel: harness co-execution needs byte-multiple beats");
  }
  if (instrument) instrument(flat_);

  for (int b = 0; b < cfg.banks; ++b) {
    const std::string nets = "bank" + std::to_string(b) + ".";
    const std::string taps = "b" + std::to_string(b) + ".";
    for (const char* t : kBankReadTaps) {
      taps_[taps + t] = {flat_.find_net(nets + t + "_q")};
    }
    for (const char* t : kBankWriteTaps) {
      const rtl::NetId net = flat_.find_net(nets + t + "_q");
      taps_[taps + t] = {net};
      taps_[t].push_back(net);  // the device-level tap ORs every bank
    }
    dout_valid_nets_.push_back(taps_[taps + "dout_valid_k"].front());
    dout_valid_nets_.push_back(taps_[taps + "dout_valid_ks"].front());

    const auto& mems = flat_.memories();
    const auto mem = std::find_if(mems.begin(), mems.end(), [&](const auto& m) {
      return m.name == nets + "sram";
    });
    if (mem == mems.end()) {
      throw std::logic_error("NetlistDeviceModel: missing " + nets + "sram");
    }
    bank_mems_.push_back(static_cast<rtl::MemId>(mem - mems.begin()));
  }
  dout_net_ = flat_.find_net("DOUT");

  tap_names_ = concat_names(
      concat_names(bank_read_taps(cfg.banks), bank_write_taps(cfg.banks)),
      device_taps());
}

bool NetlistDeviceModel::any_one(const std::vector<rtl::NetId>& nets) const {
  for (rtl::NetId net : nets) {
    if (net_is_one(net)) return true;
  }
  return false;
}

bool NetlistDeviceModel::tap(const std::string& name) const {
  if (name == "bus_conflict") return bus_conflict(dout_net_);
  auto it = taps_.find(name);
  if (it == taps_.end()) {
    throw std::invalid_argument("NetlistDeviceModel: unknown tap: " + name);
  }
  return any_one(it->second);
}

DoutSample NetlistDeviceModel::dout() const {
  DoutSample s;
  s.valid = any_one(dout_valid_nets_);
  if (s.valid) {
    const auto beat = net_value(dout_net_);
    s.defined = beat.has_value();
    s.beat = beat.value_or(0);
  }
  return s;
}

std::uint64_t NetlistDeviceModel::memory_word(int bank,
                                              std::uint64_t addr) const {
  const auto word = mem_value(bank_mems_[static_cast<std::size_t>(bank)], addr);
  return word.value_or(~0ull);  // X never equals a defined reference word
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
  drive_edge(*sim_, pins, geometry().data_bits);
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
      machine_(compiled_, 64) {}

void CsimDeviceModel::do_reset() { machine_.reset(); }

void CsimDeviceModel::apply_edge(const EdgePins& pins) {
  drive_edge(machine_, pins, geometry().data_bits);
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
