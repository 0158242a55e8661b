#include "harness/adapters.hpp"

#include <algorithm>
#include <stdexcept>

#include "harness/lane_batch.hpp"
#include "la1/properties.hpp"
#include "la1/spec.hpp"
#include "util/strings.hpp"

namespace la1::harness {

namespace {

// The ASM's canonical beat width (see AsmDeviceModel).
constexpr int kAsmBeatBits = 8;

// The behavioural model's K period on the kernel's time base.
constexpr sim::Time kKernelPeriod = 4 * sim::kNanosecond;

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
  const std::int64_t w = state_.get_int(
      util::cat({"b", std::to_string(bank), ".mem", std::to_string(addr)}));
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

BehavioralDeviceModel::PoweredOn::PoweredOn(const core::Config& cfg)
    : pins(kernel, cfg, kKernelPeriod),
      device(kernel, "dev", cfg, pins),
      env(cfg, device, pins) {}

void BehavioralDeviceModel::do_reset() {
  on_ = std::make_unique<PoweredOn>(cfg_);
  edges_ = 0;
}

void BehavioralDeviceModel::apply_edge(const EdgePins& pins) {
  if ((edges_ % 2 == 0) != (pins.edge == Edge::kK)) {
    throw std::logic_error("BehavioralDeviceModel: edge out of phase");
  }
  core::Pins& p = on_->pins;
  p.r_sel_n.write(pins.r_sel_n);
  p.w_sel_n.write(pins.w_sel_n);
  p.addr.write(static_cast<std::uint32_t>(pins.addr));
  p.din.write(core::pack_beat(pins.din_data, cfg_.data_bits));
  p.bwe_n.write(pins.bwe_n);
  // Rising K at the start of each period, rising K# half a period later.
  const sim::Time period_start =
      static_cast<sim::Time>(edges_ / 2) * kKernelPeriod;
  on_->kernel.run(period_start +
                  (pins.edge == Edge::kK ? 1 : kKernelPeriod / 2));
  ++edges_;
}

bool BehavioralDeviceModel::tap(const std::string& name) const {
  return on_->env.sample(name);
}

DoutSample BehavioralDeviceModel::dout() const {
  DoutSample s;
  s.valid = on_->env.sample("dout_valid");
  if (s.valid) {
    s.defined = true;
    s.beat = on_->pins.dout.read();
  }
  return s;
}

std::uint64_t BehavioralDeviceModel::memory_word(int bank,
                                                 std::uint64_t addr) const {
  return on_->device.bank(bank).memory().read(addr);
}

// --- NetlistTaps -------------------------------------------------------

NetlistTaps::NetlistTaps(const rtl::Module& flat, const core::RtlConfig& cfg)
    : data_bits(cfg.data_bits) {
  names = level_taps(cfg.banks, true);
  nets.resize(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) by_name_[names[i]] = i;
  bus_conflict = index("bus_conflict");

  const core::TapSet& shared = core::tap_set(core::Level::kHarness);
  for (int b = 0; b < cfg.banks; ++b) {
    const std::string prefix = util::cat({"bank", std::to_string(b), "."});
    const std::string tap = util::cat({"b", std::to_string(b), "."});
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
    throw std::invalid_argument("NetlistTaps: unknown tap: " + name);
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

// --- RtlDeviceModel -----------------------------------------------------

namespace {

/// The stock device at `cfg`, flattened and run through `instrument`.
rtl::Module instrumented_flat(
    const core::RtlConfig& cfg,
    const std::function<void(rtl::Module&)>& instrument) {
  if (cfg.data_bits % 8 != 0) {
    throw std::invalid_argument(
        "RTL device: harness co-execution needs byte-multiple beats");
  }
  rtl::Module flat = core::build_device(cfg).flatten();
  if (instrument) instrument(flat);
  return flat;
}

}  // namespace

RtlDeviceModel::RtlDeviceModel(
    const core::RtlConfig& cfg,
    const std::function<void(rtl::Module&)>& instrument)
    : DeviceModel("rtl", rtl_geometry(cfg)),
      flat_(instrumented_flat(cfg, instrument)),
      taps_(flat_, cfg) {
  tap_names_ = taps_.names;
  do_reset();
}

void RtlDeviceModel::do_reset() {
  sim_ = std::make_unique<rtl::CycleSim>(flat_);
}

void RtlDeviceModel::apply_edge(const EdgePins& pins) {
  for (const PinDrive& d : taps_.drives(pins)) {
    sim_->set_input(d.net,
                    rtl::LVec::from_uint(d.value, flat_.net(d.net).width));
  }
  sim_->edge(taps_.clock(pins), rtl::Edge::kPos);
}

bool RtlDeviceModel::tap(const std::string& name) const {
  return taps_.tap(*this, taps_.index(name));
}

DoutSample RtlDeviceModel::dout() const { return taps_.dout(*this); }

std::uint64_t RtlDeviceModel::memory_word(int bank, std::uint64_t addr) const {
  return taps_.memory_word(*this, bank, addr);
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

// --- the compiled device ------------------------------------------------

namespace {

/// The compiled backend behind the DeviceModel surface: a one-lane
/// CsimLaneBatch whose lane is staged and stepped on every apply_edge.
class CsimDevice : public DeviceModel {
 public:
  CsimDevice(const core::RtlConfig& cfg, rtl::Module flat,
             const plan::CompilePlan& plan)
      : DeviceModel("csim", rtl_geometry(cfg)),
        batch_(cfg, std::move(flat), plan, 1, {}),
        lane_(batch_.lane(0)) {
    tap_names_ = batch_.tap_names();
  }

  void apply_edge(const EdgePins& pins) override {
    lane_.apply_edge(pins);
    batch_.edge();
  }
  bool tap(const std::string& name) const override { return lane_.tap(name); }
  DoutSample dout() const override { return lane_.dout(); }
  bool models_dout() const override { return true; }
  std::uint64_t memory_word(int bank, std::uint64_t addr) const override {
    return lane_.memory_word(bank, addr);
  }

 protected:
  void do_reset() override { batch_.reset(); }

 private:
  CsimLaneBatch batch_;
  DeviceModel& lane_;
};

}  // namespace

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
    rtl::Module flat = instrumented_flat(cfg, instrument);
    const plan::CompilePlan plan = device_plan(flat);
    return {std::make_unique<CsimDevice>(cfg, std::move(flat), plan)};
  }
  return {std::make_unique<RtlDeviceModel>(cfg, instrument)};
}

}  // namespace la1::harness
