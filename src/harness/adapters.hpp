// DeviceModel adapters for the three executable levels of the flow:
//
//   AsmDeviceModel        — the ASM machine (la1/asm_model.hpp), one rule
//                           firing per clock edge,
//   BehavioralDeviceModel — the kernel-level model (la1/behavioral.hpp)
//                           driven externally, one kernel tick per edge,
//   NetlistDeviceModel    — the elaborated RTL netlist (la1/rtl_model.hpp)
//                           behind either simulator: RtlDeviceModel (the
//                           interpreted CycleSim) or CsimDeviceModel (lane 0
//                           of the compiled csim::Machine), one edge per tick.
//
// Each adapter maps the canonical tap names ("b0.read_start", "write_commit",
// "bus_conflict", ...) onto its level's native observables, so the N-way
// lockstep engine can compare any combination of levels directly.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "csim/compile.hpp"
#include "csim/machine.hpp"
#include "harness/device_model.hpp"
#include "la1/asm_model.hpp"
#include "la1/behavioral.hpp"
#include "la1/rtl_model.hpp"
#include "rtl/sim.hpp"

namespace la1::harness {

/// The ASM machine as a DeviceModel. The machine's data domain
/// (`cfg.data_values`) may be narrower than the canonical beat width;
/// beats outside the domain are a caller error (the StimulusStream's
/// `data_values` option keeps streams inside it).
class AsmDeviceModel : public DeviceModel {
 public:
  /// `data_bits` is the canonical beat width of the co-executed levels;
  /// requires cfg.data_values <= 2^data_bits.
  AsmDeviceModel(const core::AsmConfig& cfg, int data_bits);

  void apply_edge(const EdgePins& pins) override;
  bool tap(const std::string& name) const override;
  std::uint64_t memory_word(int bank, std::uint64_t addr) const override;

  const asml::State& state() const { return state_; }

 protected:
  void do_reset() override;

 private:
  core::AsmConfig cfg_;
  asml::Machine machine_;
  asml::State state_;
};

/// The behavioural (kernel) model as a DeviceModel.
class BehavioralDeviceModel : public DeviceModel {
 public:
  explicit BehavioralDeviceModel(const core::Config& cfg);

  void apply_edge(const EdgePins& pins) override;
  bool tap(const std::string& name) const override;
  DoutSample dout() const override;
  bool models_dout() const override { return true; }
  std::uint64_t memory_word(int bank, std::uint64_t addr) const override;

  core::KernelHarness& kernel_harness() { return *harness_; }
  core::ProbeEnv& env() { return harness_->env(); }

 protected:
  void do_reset() override;

 private:
  core::Config cfg_;
  std::unique_ptr<core::KernelHarness> harness_;
};

/// The elaborated RTL netlist as a DeviceModel, whichever simulator runs
/// it. The base builds the stock device, runs the `instrument` hook on its
/// flat module, and decodes taps, dout and memory words from the same nets
/// for every backend; a backend supplies only the edge drive, the reset and
/// the raw net/memory/bus-conflict reads. RtlDeviceModel and CsimDeviceModel
/// are therefore observation-interchangeable by construction (the
/// CsimAdapter tests hold them in lockstep).
class NetlistDeviceModel : public DeviceModel {
 public:
  bool tap(const std::string& name) const override;
  DoutSample dout() const override;
  bool models_dout() const override { return true; }
  std::uint64_t memory_word(int bank, std::uint64_t addr) const override;

  /// Whether the 1-bit `net` reads 1 after the last edge — the readback
  /// OVL verdicts are collected through (`OvlBank::failures`).
  virtual bool net_is_one(rtl::NetId net) const = 0;

  const rtl::Module& flat() const { return flat_; }

 protected:
  /// `instrument` runs on the flat module before the backend is built from
  /// flat() — the hook OVL monitors and netlist mutations (fault mutants,
  /// the lockstep mutation tests) attach through, so instrumented structure
  /// is simulated with the design.
  NetlistDeviceModel(std::string name, const core::RtlConfig& cfg,
                     const std::function<void(rtl::Module&)>& instrument);

  /// `net` as an unsigned value; nullopt while any bit is X or Z.
  virtual std::optional<std::uint64_t> net_value(rtl::NetId net) const = 0;
  /// Word `addr` of memory `mem`; nullopt while any bit is X.
  virtual std::optional<std::uint64_t> mem_value(rtl::MemId mem,
                                                 std::uint64_t addr) const = 0;
  /// Whether two or more tristate drivers drove `bus` at the last settle.
  virtual bool bus_conflict(rtl::NetId bus) const = 0;

 private:
  bool any_one(const std::vector<rtl::NetId>& nets) const;

  rtl::Module flat_;
  std::vector<rtl::MemId> bank_mems_;
  rtl::NetId dout_net_ = rtl::kInvalidId;
  std::vector<rtl::NetId> dout_valid_nets_;  // every bank's K and K# beat
  // Each tap reads 1 when any of its nets does (a per-bank tap has one net,
  // a device-level tap one per bank). Ordered on purpose: every container
  // on the stimulus/trace path iterates deterministically so traces are
  // byte-reproducible from seed.
  std::map<std::string, std::vector<rtl::NetId>> taps_;
};

/// The netlist in the interpreted cycle simulator, one edge() per tick.
class RtlDeviceModel : public NetlistDeviceModel {
 public:
  explicit RtlDeviceModel(
      const core::RtlConfig& cfg,
      const std::function<void(rtl::Module&)>& instrument = {});

  void apply_edge(const EdgePins& pins) override;
  bool net_is_one(rtl::NetId net) const override;

  rtl::CycleSim& sim() { return *sim_; }

 protected:
  void do_reset() override;
  std::optional<std::uint64_t> net_value(rtl::NetId net) const override;
  std::optional<std::uint64_t> mem_value(rtl::MemId mem,
                                         std::uint64_t addr) const override;
  bool bus_conflict(rtl::NetId bus) const override;

 private:
  std::unique_ptr<rtl::CycleSim> sim_;
};

/// The netlist behind the compiled bit-parallel backend (src/csim): lowered
/// once through plan::analyze + csim::compile, every tick runs the
/// straight-line programs in lane 0 of a 64-lane csim::Machine.
class CsimDeviceModel : public NetlistDeviceModel {
 public:
  explicit CsimDeviceModel(
      const core::RtlConfig& cfg,
      const std::function<void(rtl::Module&)>& instrument = {});

  void apply_edge(const EdgePins& pins) override;
  bool net_is_one(rtl::NetId net) const override;

  csim::Machine& machine() { return machine_; }
  const csim::Compiled& compiled() const { return compiled_; }

 protected:
  void do_reset() override;
  std::optional<std::uint64_t> net_value(rtl::NetId net) const override;
  std::optional<std::uint64_t> mem_value(rtl::MemId mem,
                                         std::uint64_t addr) const override;
  bool bus_conflict(rtl::NetId bus) const override;

 private:
  csim::Compiled compiled_;  // borrows flat()
  csim::Machine machine_;    // borrows compiled_
};

/// Which simulator executes the RTL level of a harness run.
enum class RtlBackend { kInterpreted, kCompiled };

const char* to_string(RtlBackend b);
/// Inverse of to_string ("interpreted" / "compiled"); throws
/// std::invalid_argument on anything else.
RtlBackend rtl_backend_from_string(const std::string& s);

/// One RTL DeviceModel behind either backend; OVL verdicts read back
/// through `model->net_is_one`.
struct RtlDevice {
  std::unique_ptr<NetlistDeviceModel> model;
};

/// Builds the stock device at `cfg` behind the selected backend.
RtlDevice make_rtl_device(
    const core::RtlConfig& cfg, RtlBackend backend,
    const std::function<void(rtl::Module&)>& instrument = {});

}  // namespace la1::harness
