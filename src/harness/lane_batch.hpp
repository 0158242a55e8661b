// Lane batches: many copies of one RTL design stepped as one.
//
// A LaneBatch holds `lanes()` variants of the same netlist — lane 0 the
// golden device, the others mutants of it — that advance together on one
// clock. Each lane is a DeviceModel, so per-lane decorators (the fault
// campaign's ProtocolFaultModel) wrap it unchanged, but a lane's
// apply_edge only stages that lane's pins: edge() then advances every lane
// at once. Observation is by word — bit l of tap_word(t) is lane l's value
// of tap t — so one XOR against lane 0's broadcast bit finds every lane
// that left the golden device.
//
// Two backends share the interface:
//   CsimLaneBatch   one csim::Machine with a lane per variant; structural
//                   variants are per-lane csim::Forces compiled into its
//                   step programs, so the whole batch costs one compile and
//                   one Machine::edge per tick;
//   ModelLaneBatch  one RtlDeviceModel per lane (of each mutant netlist,
//                   say) — the independent oracle the compiled batch is
//                   held against.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "csim/compile.hpp"
#include "csim/machine.hpp"
#include "harness/adapters.hpp"
#include "harness/device_model.hpp"

namespace la1::harness {

class LaneBatch {
 public:
  virtual ~LaneBatch();

  LaneBatch(const LaneBatch&) = delete;
  LaneBatch& operator=(const LaneBatch&) = delete;

  int lanes() const { return lanes_; }
  /// Lane `l` as a DeviceModel. Its apply_edge stages the lane's pins; the
  /// edge takes effect at the next edge(). Reads observe the last edge().
  virtual DeviceModel& lane(int l) = 0;

  /// The canonical tap order tap_word() indexes.
  virtual const std::vector<std::string>& tap_names() const = 0;
  /// Bit l: lane l's value of tap `tap` after the last edge().
  virtual std::uint64_t tap_word(std::size_t tap) const = 0;
  /// Whether the 1-bit `net` reads 1 in lane `l` (OVL readback).
  virtual bool net_is_one(int l, rtl::NetId net) const = 0;

  /// Every lane back to power-on.
  virtual void reset() = 0;
  /// Advances every lane by the edge its pins were staged for (all lanes
  /// must stage the same clock edge).
  virtual void edge() = 0;

 protected:
  explicit LaneBatch(int lanes) : lanes_(lanes) {}

 private:
  int lanes_;
};

/// plan::analyze of a flat LA-1 netlist under its clock schedule — the plan
/// a CsimLaneBatch compiles against (and csim::x_safe_forces checks).
plan::CompilePlan device_plan(const rtl::Module& flat);

/// The compiled batch: `flat` (already instrumented) lowered once against
/// `plan` (device_plan(flat)) with `forces` into one csim::Machine of
/// `lanes` lanes. Pins go in as lane 0's broadcast plus a patch for each
/// lane whose staged pins differ. Throws std::invalid_argument when
/// csim::compile rejects a force.
class CsimLaneBatch : public LaneBatch {
 public:
  CsimLaneBatch(const core::RtlConfig& cfg, rtl::Module flat,
                const plan::CompilePlan& plan, int lanes,
                const std::vector<csim::Force>& forces);
  ~CsimLaneBatch() override;

  DeviceModel& lane(int l) override;
  const std::vector<std::string>& tap_names() const override {
    return taps_.names;
  }
  std::uint64_t tap_word(std::size_t tap) const override;
  bool net_is_one(int l, rtl::NetId net) const override;
  void reset() override;
  void edge() override;

 private:
  class Lane;

  /// Bit l: the 1-bit `net` reads 1 in lane l.
  std::uint64_t one_word(rtl::NetId net) const;

  std::unique_ptr<const rtl::Module> flat_;  // stable: compiled_ borrows it
  NetlistTaps taps_;
  csim::Compiled compiled_;
  csim::Machine machine_;
  std::vector<EdgePins> staged_;
  std::vector<std::unique_ptr<Lane>> views_;
};

/// The batch as one interpreted RtlDeviceModel per lane; a lane's
/// apply_edge runs its edge at once and edge() has nothing left to do.
class ModelLaneBatch : public LaneBatch {
 public:
  explicit ModelLaneBatch(std::vector<std::unique_ptr<RtlDeviceModel>> lanes);

  DeviceModel& lane(int l) override;
  const std::vector<std::string>& tap_names() const override {
    return models_.front()->tap_names();
  }
  std::uint64_t tap_word(std::size_t tap) const override;
  bool net_is_one(int l, rtl::NetId net) const override;
  void reset() override;
  void edge() override {}

 private:
  std::vector<std::unique_ptr<RtlDeviceModel>> models_;
};

}  // namespace la1::harness
