// The unified model harness: one executable-device interface over the three
// refinement levels of the flow (ASM machine, behavioural kernel model,
// elaborated RTL netlist).
//
// The paper verifies one LA-1 specification at every level with the same
// properties and the same stimulus; this layer makes that literal in code.
// A `DeviceModel` exposes
//   * reset()                       — back to the power-on state,
//   * apply_edge(EdgePins)          — one half-cycle clock edge (rising K on
//                                     even ticks, rising K# on odd ticks)
//                                     with the full pin-bus state,
//   * tap(name)                     — the named one-tick observation pulses
//                                     shared across levels ("b0.read_start",
//                                     "write_commit", "bus_conflict", ...),
//   * dout()                        — the driven read-data beat, when the
//                                     level models data values,
//   * memory_word(bank, addr)       — canonical end-of-run memory image,
// plus a built-in transactor (enqueue + tick) so a single implementation of
// the LA-1 edge discipline converts transactions into pin activity for
// every level. Adapters live in adapters.hpp; the N-way lockstep engine in
// lockstep.hpp co-executes any set of models on one stimulus stream.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

namespace la1::harness {

/// Which clock edge a half-cycle tick applies. Even ticks are rising K,
/// odd ticks rising K# — the shared time base of every monitor in the repo.
enum class Edge { kK, kKs };

inline Edge edge_of_tick(int tick) { return tick % 2 == 0 ? Edge::kK : Edge::kKs; }
inline const char* edge_name(Edge e) { return e == Edge::kK ? "K" : "K#"; }

/// Canonical device geometry shared by the co-executed models. Every model
/// in one lockstep run must agree on it (the engine checks).
struct Geometry {
  int banks = 1;
  int mem_addr_bits = 2;  // per-bank SRAM depth = 2^mem_addr_bits
  int data_bits = 8;      // data bits per DDR beat

  int bank_bits() const {
    int b = 0;
    while ((1 << b) < banks) ++b;
    return b;
  }
  int addr_bits() const { return mem_addr_bits + bank_bits(); }
  std::uint64_t addr_space() const {
    return static_cast<std::uint64_t>(banks) << mem_addr_bits;
  }
  std::uint64_t mem_depth() const { return 1ull << mem_addr_bits; }
  int lanes() const { return data_bits >= 8 ? data_bits / 8 : 1; }

  bool operator==(const Geometry& o) const = default;
};

/// One K cycle of host activity. LA-1 runs one read and one write
/// concurrently per cycle on independent unidirectional buses.
struct Stimulus {
  bool read = false;
  std::uint64_t read_addr = 0;
  bool write = false;
  std::uint64_t write_addr = 0;
  std::uint64_t write_word = 0;  // two beats packed [beat1 | beat0]
  std::uint32_t be_mask = ~0u;   // one bit per 8-bit lane across both beats

  bool operator==(const Stimulus& o) const = default;
};

/// The raw pin-bus state for one half-cycle edge. Data beats are carried
/// unpacked (no parity bits); each level packs parity in its own format.
struct EdgePins {
  Edge edge = Edge::kK;
  bool r_sel_n = true;  // READ_SEL, active low, meaningful at K
  bool w_sel_n = true;  // WRITE_SEL, active low, meaningful at K
  std::uint64_t addr = 0;
  std::uint32_t din_data = 0;  // write-path beat data
  std::uint32_t bwe_n = 0;     // byte write enables, active low

  bool operator==(const EdgePins& o) const = default;
};

/// A read-data-bus observation after an edge. `valid` mirrors the model's
/// own dout_valid taps; `defined` is false when the level drives an
/// unknown (X) value — always a divergence when another level disagrees.
struct DoutSample {
  bool valid = false;
  bool defined = false;
  std::uint64_t beat = 0;

  bool operator==(const DoutSample& o) const = default;
};

/// Converts a transaction queue into edge-by-edge pin activity with the
/// documented LA-1 discipline, identically for every model level:
///   K : selects + read address + write low beat and its byte enables,
///   K#: write address + high beat + its enables (when a write is in
///       flight); otherwise every bus holds its previous value.
class Transactor {
 public:
  explicit Transactor(const Geometry& geometry);

  void enqueue(const Stimulus& s);
  std::size_t pending() const { return queue_.size(); }

  /// Pin values for the coming edge; pops one Stimulus per K cycle.
  EdgePins next(Edge edge);

  void reset();

  std::uint64_t reads_issued() const { return reads_issued_; }
  std::uint64_t writes_issued() const { return writes_issued_; }

 private:
  Geometry g_;
  std::deque<Stimulus> queue_;
  EdgePins held_;  // buses hold between driven edges
  bool write_pending_ = false;
  Stimulus write_tx_;
  std::uint64_t reads_issued_ = 0;
  std::uint64_t writes_issued_ = 0;
};

/// One executable level of the LA-1 refinement flow.
class DeviceModel {
 public:
  DeviceModel(std::string name, const Geometry& geometry);
  virtual ~DeviceModel();

  DeviceModel(const DeviceModel&) = delete;
  DeviceModel& operator=(const DeviceModel&) = delete;

  const std::string& name() const { return name_; }
  const Geometry& geometry() const { return geometry_; }

  /// Back to the power-on state; also clears the transaction queue.
  void reset();

  /// Applies one half-cycle edge with the given pin state. The lockstep
  /// engine broadcasts one EdgePins to every co-executed model.
  virtual void apply_edge(const EdgePins& pins) = 0;

  /// Samples a named observable after the last edge; only names from
  /// tap_names() are valid.
  virtual bool tap(const std::string& name) const = 0;

  /// The observation taps this level exposes. The lockstep engine compares
  /// the intersection across all co-executed models.
  const std::vector<std::string>& tap_names() const { return tap_names_; }

  /// Read-data-bus observation after the last edge; a level that does not
  /// model bus data values (the ASM machine) reports {valid=false}.
  virtual DoutSample dout() const { return {}; }

  /// Whether dout() carries real observations. The lockstep engine only
  /// compares the read-data bus among models that model it.
  virtual bool models_dout() const { return false; }

  /// Canonical word at (bank, word-address): two data beats packed
  /// [beat1 | beat0], each geometry().data_bits wide.
  virtual std::uint64_t memory_word(int bank, std::uint64_t addr) const = 0;

  // --- built-in transactor (single-model use) ---------------------------
  void enqueue(const Stimulus& s) { transactor_.enqueue(s); }
  std::size_t pending() const { return transactor_.pending(); }

  /// Pops queued stimulus into this tick's pins and applies the edge;
  /// returns the pins driven (identical across models for equal queues).
  EdgePins tick(Edge edge);

  int ticks_done() const { return ticks_; }

 protected:
  virtual void do_reset() = 0;

  std::string name_;
  Geometry geometry_;
  std::vector<std::string> tap_names_;

 private:
  Transactor transactor_;
  int ticks_ = 0;
};

}  // namespace la1::harness
