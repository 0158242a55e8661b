#include "harness/lane_batch.hpp"

#include <array>
#include <optional>
#include <stdexcept>
#include <utility>

#include "la1/spec.hpp"
#include "plan/plan.hpp"

namespace la1::harness {

LaneBatch::~LaneBatch() = default;

// --- CsimLaneBatch ------------------------------------------------------

/// One lane of the compiled batch, read straight from the Machine's slot
/// words; NetlistTaps decodes taps, dout and memory words from them.
class CsimLaneBatch::Lane : public DeviceModel, public NetReader {
 public:
  Lane(CsimLaneBatch& batch, int lane, const Geometry& geometry)
      : DeviceModel("csim lane " + std::to_string(lane), geometry),
        batch_(&batch),
        lane_(lane) {
    tap_names_ = batch.tap_names();
  }

  void apply_edge(const EdgePins& pins) override {
    batch_->staged_[static_cast<std::size_t>(lane_)] = pins;
  }

  bool tap(const std::string& name) const override {
    return batch_->taps_.tap(*this, batch_->taps_.index(name));
  }
  DoutSample dout() const override { return batch_->taps_.dout(*this); }
  bool models_dout() const override { return true; }
  std::uint64_t memory_word(int bank, std::uint64_t addr) const override {
    return batch_->taps_.memory_word(*this, bank, addr);
  }

  bool net_is_one(rtl::NetId net) const override {
    return ((batch_->one_word(net) >> lane_) & 1) != 0;
  }
  std::optional<std::uint64_t> net_value(rtl::NetId net) const override {
    const csim::NetSlots& ns = batch_->compiled_.net_slots(net);
    const csim::Machine& machine = batch_->machine_;
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < ns.a.size(); ++i) {
      if (((machine.slot(ns.b[i]) >> lane_) & 1) != 0) return std::nullopt;
      value |= ((machine.slot(ns.a[i]) >> lane_) & 1) << i;
    }
    return value;
  }
  std::optional<std::uint64_t> mem_value(rtl::MemId mem,
                                         std::uint64_t addr) const override {
    return batch_->machine_.mem_word(mem, addr, lane_).to_uint();
  }
  bool bus_conflict(rtl::NetId bus) const override {
    return batch_->machine_.bus_conflict(bus, lane_);
  }

 protected:
  void do_reset() override {}  // the batch resets the Machine

 private:
  CsimLaneBatch* batch_;
  int lane_;
};

plan::CompilePlan device_plan(const rtl::Module& flat) {
  plan::PlanOptions po;
  po.schedule = core::clock_schedule(flat);
  return plan::analyze(flat, po);
}

CsimLaneBatch::CsimLaneBatch(const core::RtlConfig& cfg, rtl::Module flat,
                             const plan::CompilePlan& plan, int lanes,
                             const std::vector<csim::Force>& forces)
    : LaneBatch(lanes),
      flat_(std::make_unique<const rtl::Module>(std::move(flat))),
      taps_(*flat_, cfg),
      compiled_(csim::compile(*flat_, plan, forces)),
      machine_(compiled_, lanes),
      staged_(static_cast<std::size_t>(lanes)) {
  Geometry g;
  g.banks = cfg.banks;
  g.mem_addr_bits = cfg.mem_addr_bits;
  g.data_bits = cfg.data_bits;
  for (int l = 0; l < lanes; ++l) {
    views_.push_back(std::make_unique<Lane>(*this, l, g));
  }
}

CsimLaneBatch::~CsimLaneBatch() = default;

DeviceModel& CsimLaneBatch::lane(int l) {
  return *views_.at(static_cast<std::size_t>(l));
}

std::uint64_t CsimLaneBatch::one_word(rtl::NetId net) const {
  const csim::NetSlots& ns = compiled_.net_slots(net);
  return machine_.slot(ns.a[0]) & ~machine_.slot(ns.b[0]);
}

std::uint64_t CsimLaneBatch::tap_word(std::size_t tap) const {
  // Lanes past lanes() hold garbage the word ops computed for free.
  const std::uint64_t active = lanes() == 64 ? ~0ull : (1ull << lanes()) - 1;
  if (tap == taps_.bus_conflict) {
    const std::int32_t conflict = compiled_.net_slots(taps_.dout_bus).conflict;
    return conflict < 0 ? 0 : machine_.slot(conflict) & active;
  }
  std::uint64_t word = 0;
  for (rtl::NetId net : taps_.nets[tap]) word |= one_word(net);
  return word & active;
}

bool CsimLaneBatch::net_is_one(int l, rtl::NetId net) const {
  return ((one_word(net) >> l) & 1) != 0;
}

void CsimLaneBatch::reset() {
  machine_.reset();
  for (auto& view : views_) view->reset();
}

void CsimLaneBatch::edge() {
  const EdgePins& p0 = staged_.front();
  const std::array<PinDrive, 5> d0 = taps_.drives(p0);
  for (const PinDrive& d : d0) machine_.set_input_uint(d.net, d.value);
  for (int l = 1; l < lanes(); ++l) {
    const EdgePins& p = staged_[static_cast<std::size_t>(l)];
    if (p == p0) continue;
    if (p.edge != p0.edge) {
      throw std::logic_error("CsimLaneBatch: lanes staged different edges");
    }
    const std::array<PinDrive, 5> dl = taps_.drives(p);
    for (std::size_t i = 0; i < dl.size(); ++i) {
      if (dl[i].value != d0[i].value) {
        machine_.set_input_lane_uint(dl[i].net, l, dl[i].value);
      }
    }
  }
  machine_.edge(taps_.clock(p0), rtl::Edge::kPos);
}

// --- ModelLaneBatch -----------------------------------------------------

ModelLaneBatch::ModelLaneBatch(
    std::vector<std::unique_ptr<RtlDeviceModel>> lanes)
    : LaneBatch(static_cast<int>(lanes.size())), models_(std::move(lanes)) {
  if (models_.empty() || models_.size() > 64) {
    throw std::invalid_argument("ModelLaneBatch: needs 1 to 64 lanes");
  }
}

DeviceModel& ModelLaneBatch::lane(int l) {
  return *models_.at(static_cast<std::size_t>(l));
}

std::uint64_t ModelLaneBatch::tap_word(std::size_t tap) const {
  std::uint64_t word = 0;
  for (std::size_t l = 0; l < models_.size(); ++l) {
    if (models_[l]->tap_at(tap)) word |= 1ull << l;
  }
  return word;
}

bool ModelLaneBatch::net_is_one(int l, rtl::NetId net) const {
  return models_.at(static_cast<std::size_t>(l))->net_is_one(net);
}

void ModelLaneBatch::reset() {
  for (auto& m : models_) m->reset();
}

}  // namespace la1::harness
