// Deterministic fault injection for the verification stack.
//
// The paper's methodology layers checkers (PSL monitors, OVL monitors,
// lockstep co-execution, symbolic MC) around one design — but never attacks
// its own verification environment. This subsystem produces seedable
// mutants at two layers so the campaign engine (campaign.hpp) can measure
// which checker catches which fault:
//
//   * structural RTL faults, applied to any elaborated rtl::Module through
//     the mutation API of netlist.hpp: stuck-at-0/1 on a register bit,
//     inverted driver, a single-event bit-flip at a chosen K cycle
//     (implemented as synthesized counter logic, so the same mutant feeds
//     both the cycle simulator and the symbolic engine), and a dropped
//     non-blocking update;
//   * protocol faults in the harness transactor path, applied by wrapping
//     any DeviceModel in a ProtocolFaultModel decorator: corrupted read
//     data, glitched bank select, dropped transfer, delayed transfer.
//
// Each structural fault also exists as a per-lane csim::Force
// (lane_force), so one compiled Machine carries the golden device and up
// to 63 mutants without rebuilding the netlist per mutant.
//
// Fault plans are a pure function of (module, options, seed): same inputs,
// byte-identical plan, on every platform.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "csim/compile.hpp"
#include "harness/device_model.hpp"
#include "rtl/netlist.hpp"
#include "util/json.hpp"

namespace la1::fault {

enum class FaultKind {
  // Structural RTL faults (mutate the netlist).
  kStuckAt0,
  kStuckAt1,
  kInvertedDriver,
  kBitFlip,
  kDroppedUpdate,
  // Protocol faults (mutate the pin traffic / read-data observation).
  kCorruptReadData,
  kGlitchBankSelect,
  kDroppedTransfer,
  kDelayedTransfer,
};

bool is_structural(FaultKind kind);
/// True when `kind`'s mutant differs from the stock netlist only in the
/// next-state assignment of its target register: the stuck-at, invert and
/// dropped-update rewrites, and the bit flip, whose activation counter
/// feeds that register alone. Every other register keeps its next-state
/// function, which is what lets the campaign reuse a stock model-checking
/// result for a property whose cone excludes the target. False for the
/// protocol kinds, and the answer a new kind starts from.
bool rewrites_only_target(FaultKind kind);
const char* to_string(FaultKind kind);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
FaultKind fault_kind_from_string(const std::string& name);

/// One injectable fault. For structural kinds `net` names the target
/// register in the *flat* module and `bit` selects the faulted bit — taken
/// modulo the register's width so one spec applies unchanged to both the
/// full-geometry simulation netlist and the reduced model-checking
/// geometry. `cycle` is the activation K cycle for kBitFlip and the
/// protocol kinds.
struct FaultSpec {
  FaultKind kind = FaultKind::kStuckAt0;
  std::string net;
  int bit = 0;
  int cycle = 0;

  /// Stable human-readable label, e.g. "stuck0:bank0.read_start_q[0]".
  std::string id() const;

  util::Json to_json() const;
  static FaultSpec from_json(const util::Json& j);

  bool operator==(const FaultSpec&) const = default;
};

/// Plan shape: how many faults of each layer to draw.
struct PlanOptions {
  int structural = 10;
  int protocol = 4;
};

/// Draws a deterministic fault plan against the flat module's registers:
/// structural kinds round-robin over a seeded shuffle of the sequential
/// state, protocol kinds get seeded activation cycles. Pure in
/// (flat, options, seed).
std::vector<FaultSpec> plan_faults(const rtl::Module& flat,
                                   const PlanOptions& options,
                                   std::uint64_t seed);

/// Applies a structural fault to `flat` in place (throws
/// std::invalid_argument for protocol kinds or unknown nets). The mutant
/// stays a well-formed netlist: every consumer (cycle sim, bit-blaster,
/// Verilog emitter) accepts it.
void apply_structural(rtl::Module& flat, const FaultSpec& spec);

/// The same structural fault as a per-lane csim force on `lane` of a
/// compiled `flat` (csim::Force): one lane of a csim::Machine then steps
/// exactly like a CycleSim of the apply_structural mutant. Throws
/// std::invalid_argument like apply_structural.
csim::Force lane_force(const rtl::Module& flat, const FaultSpec& spec,
                       int lane);

/// Protocol-fault decorator: forwards everything to the wrapped model but
/// corrupts the pin traffic (glitched bank select, dropped or delayed
/// transfer) or the read-data observation (corrupted beat) once the
/// activation cycle is reached. Wrapping only the device under test makes
/// the fault visible to lockstep comparison against a pristine reference.
class ProtocolFaultModel : public harness::DeviceModel {
 public:
  ProtocolFaultModel(std::unique_ptr<harness::DeviceModel> inner,
                     const FaultSpec& spec);
  /// Borrows `inner` (a lane of a harness::LaneBatch, say), which must
  /// outlive the decorator.
  ProtocolFaultModel(harness::DeviceModel& inner, const FaultSpec& spec);

  void apply_edge(const harness::EdgePins& pins) override;
  bool tap(const std::string& name) const override;
  harness::DoutSample dout() const override;
  bool models_dout() const override;
  std::uint64_t memory_word(int bank, std::uint64_t addr) const override;

  harness::DeviceModel& inner() { return *inner_; }

 protected:
  void do_reset() override;

 private:
  std::unique_ptr<harness::DeviceModel> owned_;
  harness::DeviceModel* inner_;
  FaultSpec spec_;
  int k_cycles_ = 0;     // rising-K edges seen since reset
  bool fired_ = false;   // one-shot faults (drop/delay) already triggered
  bool replay_pending_ = false;
  std::uint64_t replay_addr_ = 0;
};

}  // namespace la1::fault
