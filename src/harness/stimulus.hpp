// Seeded random LA-1 traffic: the single source of stimulus for every
// level of the flow. One StimulusSource drives the N-way lockstep engine
// (the flow's conformance and lockstep stages included) and the benches,
// so a divergence is always replayable from (options, seed) alone — or,
// for recorded streams, from the serialized transaction list itself.
#pragma once

#include <cstdint>
#include <vector>

#include "harness/device_model.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace la1::harness {

/// Any deterministic per-K-cycle producer of Stimulus records. The lockstep
/// engine, the coverage collector and the trace shrinker all consume this
/// interface, so seeded uniform traffic (StimulusStream), constrained-random
/// traffic (tgen::ConstrainedStream) and explicit replay transcripts
/// (RecordedStream) are interchangeable everywhere.
class StimulusSource {
 public:
  virtual ~StimulusSource() = default;

  /// Draws the next K cycle of traffic.
  virtual Stimulus next() = 0;

  /// Rewinds to the first cycle of the same stream.
  virtual void reset() = 0;

  /// Geometry the generated addresses/beats are drawn for. Every model in
  /// a lockstep run must agree with it (the engine checks).
  virtual Geometry geometry() const = 0;

  /// Seed that replays the stream (0 for replay transcripts).
  virtual std::uint64_t seed() const = 0;

  /// Cycles drawn since the last reset.
  virtual std::uint64_t generated() const = 0;
};

/// Traffic shape for a StimulusStream. The read/write/idle mix is drawn
/// per K cycle and per port: a cycle may carry a read, a write, both
/// (LA-1 runs the ports concurrently), or neither.
struct StimulusOptions {
  int banks = 1;
  int mem_addr_bits = 2;
  int data_bits = 8;

  double read_rate = 0.5;   // P(read issued) per K cycle
  double write_rate = 0.5;  // P(write issued) per K cycle

  /// Restricts generated beat values to [0, data_values); 0 means the full
  /// 2^data_bits range. The ASM machine models a small data domain, so
  /// 3-way runs set this to the machine's data_values.
  std::uint64_t data_values = 0;

  /// Forces be_mask to all-lanes on writes. The ASM machine has no byte
  /// enables, so 3-way runs need full-word writes to stay comparable.
  bool full_word_writes = false;

  /// When >= 0, all addresses target this bank; otherwise banks are drawn
  /// uniformly. Either way the bank field occupies the high address bits.
  int bank_focus = -1;

  Geometry geometry() const {
    Geometry g;
    g.banks = banks;
    g.mem_addr_bits = mem_addr_bits;
    g.data_bits = data_bits;
    return g;
  }

  /// Default-shaped traffic over `g`: the inverse of geometry().
  static StimulusOptions for_geometry(const Geometry& g) {
    StimulusOptions so;
    so.banks = g.banks;
    so.mem_addr_bits = g.mem_addr_bits;
    so.data_bits = g.data_bits;
    return so;
  }
};

/// Deterministic stream of Stimulus records: same (options, seed) ->
/// bit-identical traffic, independent of how many models consume it.
class StimulusStream : public StimulusSource {
 public:
  StimulusStream(const StimulusOptions& options, std::uint64_t seed);

  Stimulus next() override;
  void reset() override;

  const StimulusOptions& options() const { return options_; }
  Geometry geometry() const override { return options_.geometry(); }
  std::uint64_t seed() const override { return seed_; }
  std::uint64_t generated() const override { return generated_; }

 private:
  std::uint64_t draw_addr();
  std::uint64_t draw_beat();

  StimulusOptions options_;
  std::uint64_t seed_;
  util::Rng rng_;
  std::uint64_t generated_ = 0;
};

/// An explicit transaction list as a StimulusSource: what the trace
/// shrinker minimizes and `la1check cov --replay` re-executes. Cycles past
/// the end of the list are idle, so a fixed-length lockstep run over a
/// shorter transcript is well-defined. Round-trips through JSON
/// ({geometry, stimuli:[...]}) so a reproducer is a self-contained file.
class RecordedStream : public StimulusSource {
 public:
  RecordedStream(const Geometry& geometry, std::vector<Stimulus> stimuli);

  Stimulus next() override;
  void reset() override { cursor_ = 0; }

  Geometry geometry() const override { return geometry_; }
  std::uint64_t seed() const override { return 0; }
  std::uint64_t generated() const override { return cursor_; }

  std::size_t size() const { return stimuli_.size(); }
  const std::vector<Stimulus>& stimuli() const { return stimuli_; }

  util::Json to_json() const;
  static RecordedStream from_json(const util::Json& j);

 private:
  Geometry geometry_;
  std::vector<Stimulus> stimuli_;
  std::uint64_t cursor_ = 0;
};

}  // namespace la1::harness
