// Functional coverage for the LA-1 protocol.
//
// The paper's ABV flow (Table 3) runs fixed directed stimulus through
// PSL/OVL monitors but never asks how much of the protocol space that
// stimulus exercises. This subsystem makes the question answerable: a
// declarative coverage model enumerates bins over protocol events — op
// kind, bank, address class, byte-enable shape, inter-op gaps, burst run
// lengths, bank×op and read-after-write crosses, and the Figure-3
// back-to-back-read timing window — and a CoverageCollector fills them
// from the pin bus alone. Pins are broadcast identically to every
// co-executed DeviceModel, so pin-derived coverage is adapter-agnostic:
// the same collector attaches to an ASM, behavioural or RTL run (or to a
// recorded TraceRecorder transcript) without change.
//
// The closure driver in src/tgen re-biases constrained-random weights
// toward whatever this model reports uncovered.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/device_model.hpp"
#include "harness/trace.hpp"
#include "util/json.hpp"

namespace la1::cov {

/// One coverage bin: a named protocol event plus its hit count.
struct Bin {
  std::string name;
  std::uint64_t hits = 0;

  bool covered() const { return hits > 0; }
};

/// A named set of related bins (one protocol dimension or cross).
struct Covergroup {
  std::string name;
  std::vector<Bin> bins;

  int covered() const;
  double coverage() const;
  const Bin* bin(const std::string& bin_name) const;
  /// Names of the bins with zero hits, in definition order.
  std::vector<std::string> uncovered() const;
};

/// The full coverage model plus its accumulated counts. `make_model`
/// defines the bins for a geometry; the collector increments them; the
/// report's JSON makes closure trajectories machine-checkable.
struct CoverageReport {
  harness::Geometry geometry;
  std::uint64_t cycles = 0;  // K cycles observed
  std::vector<Covergroup> groups;

  int total_bins() const;
  int covered_bins() const;
  /// Fraction of defined bins with at least one hit (1.0 when no bins).
  double coverage() const;

  Covergroup* group(const std::string& name);
  const Covergroup* group(const std::string& name) const;

  util::Json to_json() const;
  std::string render() const;
};

/// Defines the LA-1 covergroups for a geometry (all counts zero):
///
///   op_kind           idle / read_only / write_only / read_write
///   read_bank         b<i> per bank             (banks > 1)
///   write_bank        b<i> per bank             (banks > 1)
///   read_addr_class   first_word / mid / last_word (mid iff depth > 2)
///   write_addr_class  likewise
///   write_enables     full_word / partial / no_lanes
///   read_gap          gap0 / gap1 / gap2_3 / gap4_7 / gap8_plus
///   write_gap         likewise
///   bank_cross        b<i>.read / b<i>.write / b<i>.read_write
///   read_after_write  raw_d1 / raw_d2_4 / war_d1
///   fig3_read_window  b2b_any / b2b_same_bank / b2b_same_addr /
///                     pipeline_full (3 consecutive reads)
///   read_burst        len1 / len2 / len3 / len4_7 / len8_plus
///                     (consecutive same-bank reads)
///   write_burst       likewise
///   idle_run          len1 / len2_3 / len4_7 / len8_plus
CoverageReport make_model(const harness::Geometry& geometry);

/// Fills a CoverageReport from EdgePins observations. Decodes the
/// documented transactor discipline — read select + read address at K,
/// write address + high byte-enable lanes at the following K# — so it
/// reconstructs full transactions from pins without touching any model.
class CoverageCollector {
 public:
  explicit CoverageCollector(const harness::Geometry& geometry);

  /// Observes one half-cycle edge (call for every edge, in order).
  void observe_edge(const harness::EdgePins& pins);

  /// Replays a recorded trace through observe_edge, then ends the stream.
  void observe_trace(const harness::TraceRecorder& trace);

  /// Flushes open run-length bins and rewinds the sequential trackers.
  /// Call between stimulus streams (epoch boundaries) so bursts and gaps
  /// never span two independent streams; hit counts are preserved.
  void end_stream();

  const CoverageReport& report() const { return report_; }
  CoverageReport& report() { return report_; }

 private:
  void hit(const std::string& group, const std::string& bin);
  void observe_cycle(bool read, std::uint64_t read_addr, bool write,
                     std::uint64_t write_addr, std::uint32_t be_lanes);
  void close_runs();

  CoverageReport report_;
  int bank_shift_ = 0;
  std::uint32_t lane_mask_ = 0;

  // --- sequential trackers (reset by end_stream) ------------------------
  std::int64_t cycle_ = 0;         // K-cycle index in the current stream
  bool write_pending_ = false;     // a write's K half seen, K# half pending
  std::uint32_t pending_be_ = 0;   // low-beat lanes captured at K
  bool pending_read_ = false;      // the same cycle's read port activity
  std::uint64_t pending_read_addr_ = 0;
  std::int64_t last_read_cycle_ = -1000;
  std::int64_t prev_read_cycle_ = -1000;
  std::uint64_t last_read_addr_ = 0;
  int last_read_bank_ = -1;
  std::int64_t last_write_cycle_ = -1000;
  int read_run_ = 0;
  int read_run_bank_ = -1;
  int write_run_ = 0;
  int write_run_bank_ = -1;
  int idle_run_ = 0;
  std::vector<std::int64_t> last_write_at_;  // per address, -1000 = never
  std::vector<std::int64_t> last_read_at_;
};

}  // namespace la1::cov
