// DeviceModel adapters for the three executable levels of the flow:
//
//   AsmDeviceModel        — the ASM machine (la1/asm_model.hpp), one rule
//                           firing per clock edge,
//   BehavioralDeviceModel — the kernel-level model (la1/behavioral.hpp),
//                           one kernel half-cycle per edge,
//   RtlDeviceModel        — the elaborated RTL netlist (la1/rtl_model.hpp)
//                           in the interpreted CycleSim, one edge per tick.
//
// The compiled backend (src/csim) runs the netlist as the lanes of a
// CsimLaneBatch (harness/lane_batch.hpp); make_rtl_device(kCompiled) wraps
// a one-lane batch.
//
// Each adapter maps the canonical tap names ("b0.read_start", "write_commit",
// "bus_conflict", ...) onto its level's native observables, so the N-way
// lockstep engine can compare any combination of levels directly.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "harness/device_model.hpp"
#include "harness/stimulus.hpp"
#include "la1/asm_model.hpp"
#include "la1/behavioral.hpp"
#include "la1/rtl_model.hpp"
#include "rtl/sim.hpp"

namespace la1::harness {

/// The ASM machine as a DeviceModel. Its canonical beat is 8 bits wide,
/// the narrowest the RTL's byte lanes allow; the machine's data domain
/// (`cfg.data_values`, at most 256) rides in the low bits of each beat.
/// Beats outside the domain are a caller error (stimulus_options() keeps
/// streams inside it).
class AsmDeviceModel : public DeviceModel {
 public:
  explicit AsmDeviceModel(const core::AsmConfig& cfg);

  /// Stimulus constrained to the machine's domains: this geometry, beat
  /// values below data_values, and full-word writes (the ASM has no byte
  /// enables). Every level co-executed with the ASM must share it.
  StimulusOptions stimulus_options() const;

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

/// The behavioural (kernel) model as a DeviceModel. It owns the kernel,
/// the pin bundle, the device and its ProbeEnv; apply_edge writes the pins
/// and runs the kernel through one half-cycle edge.
class BehavioralDeviceModel : public DeviceModel {
 public:
  explicit BehavioralDeviceModel(const core::Config& cfg);

  void apply_edge(const EdgePins& pins) override;
  bool tap(const std::string& name) const override;
  DoutSample dout() const override;
  bool models_dout() const override { return true; }
  std::uint64_t memory_word(int bank, std::uint64_t addr) const override;

  /// reset() rebuilds the device, so a Bank::inject() made before a reset
  /// (run_lockstep resets its models) is lost.
  core::La1Device& device() { return on_->device; }
  /// Rebuilt by reset() too: take it after the reset.
  core::ProbeEnv& env() { return on_->env; }

 protected:
  void do_reset() override;

 private:
  // The model from one power-on. Each member refers to those before it,
  // so declaration order is construction order.
  struct PoweredOn {
    explicit PoweredOn(const core::Config& cfg);
    sim::Kernel kernel;
    core::Pins pins;
    core::La1Device device;
    core::ProbeEnv env;
  };

  core::Config cfg_;
  std::unique_ptr<PoweredOn> on_;
  int edges_ = 0;  // since the last reset; even edges are rising K
};

/// Raw reads of one simulated copy of a flat netlist — the only thing
/// RtlDeviceModel or one lane of a CsimLaneBatch supplies; NetlistTaps
/// decodes the canonical observables from them.
class NetReader {
 public:
  /// Whether the 1-bit `net` reads 1 after the last edge.
  virtual bool net_is_one(rtl::NetId net) const = 0;
  /// `net` as an unsigned value; nullopt while any bit is X or Z.
  virtual std::optional<std::uint64_t> net_value(rtl::NetId net) const = 0;
  /// Word `addr` of memory `mem`; nullopt while any bit is X.
  virtual std::optional<std::uint64_t> mem_value(rtl::MemId mem,
                                                 std::uint64_t addr) const = 0;
  /// Whether two or more tristate drivers drove `bus` at the last settle.
  virtual bool bus_conflict(rtl::NetId bus) const = 0;

 protected:
  ~NetReader() = default;
};

/// One input pin value of an edge.
struct PinDrive {
  rtl::NetId net = rtl::kInvalidId;
  std::uint64_t value = 0;
};

/// Where the canonical observables of a flat LA-1 netlist live, resolved
/// once per module: the input pins an EdgePins drives, the nets behind each
/// tap (a tap reads 1 when any of its nets does — a per-bank tap has one
/// net, a device-level tap one per bank; `bus_conflict` has none and reads
/// the DOUT bus's driver count), the DOUT bus and its valid nets, and each
/// bank's SRAM. The decoding from raw reads lives here, once, for every
/// backend.
struct NetlistTaps {
  NetlistTaps(const rtl::Module& flat, const core::RtlConfig& cfg);

  /// Position of `name` in `names`; throws std::invalid_argument when the
  /// netlist has no such tap.
  std::size_t index(const std::string& name) const;

  /// The pin values of `pins` (R_n, W_n, A, D, BWE_n), in that order.
  std::array<PinDrive, 5> drives(const EdgePins& pins) const;
  /// The clock net `pins` fires (K or KS).
  rtl::NetId clock(const EdgePins& pins) const {
    return pins.edge == Edge::kK ? k : ks;
  }

  bool tap(const NetReader& r, std::size_t i) const;
  DoutSample dout(const NetReader& r) const;
  /// X (any undefined bit) reads as ~0, which never equals a defined word.
  std::uint64_t memory_word(const NetReader& r, int bank,
                            std::uint64_t addr) const;

  std::vector<std::string> names;              // the canonical tap order
  std::vector<std::vector<rtl::NetId>> nets;   // per tap
  std::size_t bus_conflict = 0;                // index of "bus_conflict"
  rtl::NetId dout_bus = rtl::kInvalidId;
  std::vector<rtl::NetId> dout_valid;  // every bank's K and K# beat
  std::vector<rtl::MemId> bank_mems;
  int data_bits = 0;
  // The input pins.
  rtl::NetId r_n = rtl::kInvalidId, w_n = rtl::kInvalidId,
             addr = rtl::kInvalidId, din = rtl::kInvalidId,
             bwe_n = rtl::kInvalidId, k = rtl::kInvalidId,
             ks = rtl::kInvalidId;

 private:
  bool any_one(const NetReader& r, const std::vector<rtl::NetId>& nets) const;

  std::map<std::string, std::size_t> by_name_;  // name -> index in names
};

/// The elaborated RTL netlist in the interpreted cycle simulator, one
/// edge() per tick. Taps, dout and memory words decode through NetlistTaps
/// from the same nets a CsimLaneBatch lane reads, so the two backends are
/// observation-interchangeable by construction (the CsimAdapter tests hold
/// them in lockstep).
class RtlDeviceModel : public DeviceModel, public NetReader {
 public:
  /// `instrument` runs on the flat module before the simulator is built
  /// from flat() — the hook OVL monitors and netlist mutations (fault
  /// mutants, the lockstep mutation tests) attach through, so instrumented
  /// structure is simulated with the design.
  explicit RtlDeviceModel(
      const core::RtlConfig& cfg,
      const std::function<void(rtl::Module&)>& instrument = {});

  void apply_edge(const EdgePins& pins) override;
  bool tap(const std::string& name) const override;
  /// Tap `i` of tap_names(), without the name lookup.
  bool tap_at(std::size_t i) const { return taps_.tap(*this, i); }
  DoutSample dout() const override;
  bool models_dout() const override { return true; }
  std::uint64_t memory_word(int bank, std::uint64_t addr) const override;
  bool net_is_one(rtl::NetId net) const override;

  const rtl::Module& flat() const { return flat_; }
  rtl::CycleSim& sim() { return *sim_; }

 protected:
  void do_reset() override;
  std::optional<std::uint64_t> net_value(rtl::NetId net) const override;
  std::optional<std::uint64_t> mem_value(rtl::MemId mem,
                                         std::uint64_t addr) const override;
  bool bus_conflict(rtl::NetId bus) const override;

 private:
  rtl::Module flat_;
  NetlistTaps taps_;
  std::unique_ptr<rtl::CycleSim> sim_;
};

/// Which simulator executes the RTL level of a harness run.
enum class RtlBackend { kInterpreted, kCompiled };

const char* to_string(RtlBackend b);
/// Inverse of to_string ("interpreted" / "compiled"); throws
/// std::invalid_argument on anything else.
RtlBackend rtl_backend_from_string(const std::string& s);

/// One RTL DeviceModel behind either backend.
struct RtlDevice {
  std::unique_ptr<DeviceModel> model;
};

/// Builds the stock device at `cfg` behind the selected backend:
/// RtlDeviceModel, or a DeviceModel named "csim" that owns a one-lane
/// CsimLaneBatch and steps it on every apply_edge.
RtlDevice make_rtl_device(
    const core::RtlConfig& cfg, RtlBackend backend,
    const std::function<void(rtl::Module&)>& instrument = {});

}  // namespace la1::harness
