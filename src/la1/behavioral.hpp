// Behavioural (system-level) LA-1 model on the simulation kernel — the
// paper's SystemC level (§4.3).
//
// Structure follows the UML class diagram (§4.1): WritePort, ReadPort and
// SramMemory objects orchestrated per bank, an La1Device owning N banks on
// the shared pin bundle, and a host-side BFM (host_bfm.hpp) driving the
// pins. Each bank publishes *taps* — one-tick observation pulses — that the
// PSL monitors sample; the tap names double as the property signal names at
// every level of the flow (see properties.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "la1/spec.hpp"
#include "psl/boolean.hpp"
#include "sim/clock.hpp"
#include "sim/module.hpp"
#include "sim/signal.hpp"

namespace la1::core {

/// The shared LA-1 pin bundle at the kernel level.
struct Pins {
  Pins(sim::Kernel& kernel, const Config& cfg, sim::Time period);

  sim::ClockPair clk;                  // K and K#
  sim::Wire r_sel_n;                   // READ_SEL, active low
  sim::Wire w_sel_n;                   // WRITE_SEL, active low
  sim::Signal<std::uint32_t> addr;     // shared address bus
  sim::Signal<std::uint32_t> din;      // write data path, one DDR beat
  sim::Signal<std::uint32_t> bwe_n;    // byte write enables, active low
  sim::Signal<std::uint32_t> dout;     // read data path, one DDR beat
};

/// One-tick observation pulses, refreshed at every clock edge.
struct BankTaps {
  bool read_start = false;     // R# low and this bank selected, at K
  bool fetch = false;          // SRAM access cycle
  bool dout_valid_k = false;   // first beat driven (at K)
  bool dout_valid_ks = false;  // second beat driven (at K#)
  bool write_start = false;    // W# low at K (bank not yet known)
  bool addr_captured = false;  // write address taken at K#
  bool write_commit = false;   // word committed to SRAM
  bool byte_merge_ok = true;   // committed word matches the merge semantics
  bool driving = false;        // this bank drives DOUT this tick
  bool selected = false;       // bank matched the address on this edge
  bool dout_spurious = false;  // drove data without a pending read
  bool parity_error_in = false;  // write beat arrived with bad parity
  std::uint32_t dout_beat = 0;

  void clear();
};

/// The SRAM behind one bank (UML class SRAM_Memory).
class SramMemory {
 public:
  explicit SramMemory(const Config& cfg);

  std::uint64_t read(std::uint64_t addr) const;
  /// Byte-merged write; `be_mask` has one bit per 8-bit lane of the word.
  void write(std::uint64_t addr, std::uint64_t word, std::uint32_t be_mask);

  std::uint64_t depth() const { return words_.size(); }
  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }

 private:
  const Config* cfg_;
  std::vector<std::uint64_t> words_;
  mutable std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

/// Read pipeline state (UML class ReadPort): capture -> fetch -> optional
/// deep-pipeline delay (read_latency > 2, the LA-1B mode) -> two beats.
struct ReadPort {
  bool captured = false;   // request taken this K
  bool cap_legit = true;   // request was addressed to this bank
  std::uint64_t cap_addr = 0;
  bool fetched = false;    // word read from SRAM, formatting
  bool fetched_legit = true;
  std::uint64_t word = 0;

  /// Extra formatting stages; length = read_latency - 2.
  struct Slot {
    bool valid = false;
    bool legit = true;
    std::uint64_t word = 0;
  };
  std::vector<Slot> delay;

  bool beat1_pending = false;
  bool beat1_legit = true;
  std::uint32_t beat1 = 0;
};

/// Write capture state (UML class WritePort).
struct WritePort {
  bool beat0_taken = false;  // W# seen at K, first beat latched
  std::uint32_t beat0 = 0;
  std::uint32_t bwe0 = 0;
  bool ready = false;        // address + second beat latched at K#
  std::uint64_t addr = 0;
  std::uint32_t beat1 = 0;
  std::uint32_t bwe1 = 0;
};

/// One LA-1 bank: ReadPort + WritePort + SramMemory on the shared pins.
class Bank : public sim::Module {
 public:
  Bank(sim::Kernel& kernel, std::string name, const Config& cfg, Pins& pins,
       int index);

  const BankTaps& taps() const { return taps_; }
  SramMemory& memory() { return mem_; }
  const SramMemory& memory() const { return mem_; }
  int index() const { return index_; }

  /// Fault injection for the verification-unit use case: a device with one
  /// of these faults must be caught by the monitors.
  enum class Fault {
    kNone,
    kLateBeat0,      // first read beat one cycle late (violates P1)
    kDropBeat1,      // second beat never driven (violates P2)
    kIgnoreByteEnables,  // full-word writes regardless of BWE (violates P6)
    kDriveWhenDeselected,  // drives DOUT for other banks' reads (P4/P8)
    kBadParity       // emits wrong read parity (violates P5)
  };
  void inject(Fault fault) { fault_ = fault; }

 private:
  void on_k();
  void on_ks();
  bool selected(std::uint64_t full_addr) const {
    return cfg_->bank_of(full_addr) == index_;
  }

  const Config* cfg_;
  Pins* pins_;
  int index_;
  ReadPort rp_;
  WritePort wp_;
  SramMemory mem_;
  BankTaps taps_;
  Fault fault_ = Fault::kNone;
  // kLateBeat0 staging.
  bool late_drive_ = false;
  std::uint64_t late_word_ = 0;
};

/// An N-bank LA-1 device on one pin bundle.
class La1Device : public sim::Module {
 public:
  La1Device(sim::Kernel& kernel, std::string name, const Config& cfg, Pins& pins);

  Bank& bank(int i) { return *banks_.at(static_cast<std::size_t>(i)); }
  const Bank& bank(int i) const { return *banks_.at(static_cast<std::size_t>(i)); }
  int banks() const { return static_cast<int>(banks_.size()); }

  /// Banks driving DOUT on the current tick.
  int drive_count() const;

 private:
  Config cfg_;
  std::vector<std::unique_ptr<Bank>> banks_;
};

/// PSL Env over the behavioural model: per-bank tap names ("b0.read_start"),
/// device-level names ("bus_conflict", "dout_valid", "dout_parity_ok") and
/// custom probes.
class ProbeEnv : public psl::Env {
 public:
  ProbeEnv(const Config& cfg, const La1Device& device, const Pins& pins);

  bool sample(const std::string& signal) const override;
  /// Whether `signal` names a probe sample() accepts.
  bool has(const std::string& signal) const { return probes_.count(signal) != 0; }

  /// Registers an additional named probe.
  void add(const std::string& name, std::function<bool()> probe);

 private:
  // Ordered on purpose (harness determinism audit): probe lookup must not
  // depend on hash-table layout anywhere on the stimulus/trace path.
  std::map<std::string, std::function<bool()>> probes_;
};

/// Owns kernel + pins + device + host BFM and sequences half-cycle ticks:
/// even ticks are rising K edges, odd ticks rising K# edges. `on_tick` runs
/// after the edge settles — the sampling point for monitors.
class KernelHarness {
 public:
  explicit KernelHarness(const Config& cfg);
  ~KernelHarness();

  sim::Kernel& kernel() { return *kernel_; }
  Pins& pins() { return *pins_; }
  La1Device& device() { return *device_; }
  class HostBfm& host() { return *host_; }
  ProbeEnv& env() { return *env_; }
  const Config& config() const { return cfg_; }

  /// Advances `n` half-cycle ticks.
  void run_ticks(int n, const std::function<void(int tick)>& on_tick = {});

  /// When enabled the harness stops calling the host BFM's edge hooks; the
  /// caller drives the pins directly between ticks (conformance testing).
  void set_external_drive(bool enable) { external_drive_ = enable; }

  int ticks_done() const { return tick_; }

 private:
  static constexpr sim::Time kPeriod = 4 * sim::kNanosecond;  // K period

  Config cfg_;
  std::unique_ptr<sim::Kernel> kernel_;
  std::unique_ptr<Pins> pins_;
  std::unique_ptr<La1Device> device_;
  std::unique_ptr<class HostBfm> host_;
  std::unique_ptr<ProbeEnv> env_;
  int tick_ = 0;
  bool external_drive_ = false;
};

}  // namespace la1::core
