// The three compilers off one parsed chart (the tentpole of the MSC layer):
//
//   to_psl       chart -> PSL monitor suite     (asserts + cover directives)
//   to_coverage  chart -> cov::Covergroup list  (occurrence / gap / window)
//   to_profile   chart -> tgen::Profile         (stimulus biased at the spec)
//
// plus a GraphViz rendering (to_dot).
//
// Compilation semantics, in terms of the chart's half-cycle tick timeline:
//
//   * Consecutive mandatory messages (a, b) with exact annotations become
//     `always (sig_a -> next[dt] sig_b)` with dt the tick distance, so
//     monitors compiled from the Figure-3 chart are verdict-identical to
//     the hand-written P1/P2 properties.
//   * A latency window (`[lo..hi]` on either side) becomes
//     `always ({sig_a} |-> {true[*lo':hi']; sig_b})` with the window
//     clamped to non-negative tick distances.
//   * `opt` regions emit the same pairwise properties over their local
//     timeline. Because each property is anchored on the region's earlier
//     message, the monitors say nothing when the region never starts.
//   * `loop [n] period p` regions are scenario *goals*, not obligations:
//     they emit a cover directive for the full n-iteration window, window
//     coverage bins (the Figure-3 back-to-back cross) and stimulus burst
//     bias — never asserts.
//   * Every operation must have a `signal` binding; `$bank` inside the
//     bound name is substituted with CompileOptions.bank. A missing
//     binding is a CompileError (the parser cannot know the tap universe).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cov/coverage.hpp"
#include "msc/ast.hpp"
#include "psl/temporal.hpp"
#include "tgen/closure.hpp"
#include "tgen/constrained.hpp"

namespace la1::msc {

/// Chart-level compilation failure (e.g. an operation without a signal
/// binding). Parse/shape errors are ParseError / Chart::validate instead.
class CompileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct CompileOptions {
  int bank = 0;  // substituted for `$bank` in signal bindings
};

/// One derived directive with provenance back to the chart annotations.
struct CompiledProperty {
  std::string name;
  psl::PropPtr prop;
  std::string source;  // e.g. "OnReadRequest[0]()@K => ReleaseBeat0[2]()@K"
};

struct CompiledCover {
  std::string name;
  psl::SerePtr sere;
  std::string source;
};

/// The monitor artifact: latency/ordering asserts plus cover directives.
struct MonitorSuite {
  std::string name;
  std::vector<CompiledProperty> asserts;
  std::vector<CompiledCover> covers;

  /// Packages the suite as a PSL vunit (asserts first, covers after, in
  /// the order stored here) for VUnitRunner / mc::check consumption.
  psl::VUnit vunit() const;
};

MonitorSuite to_psl(const Chart& chart, const CompileOptions& opts = {});

/// The coverage artifact: zero-hit covergroups named "msc.<chart>.*":
///
///   .ops     one bin per mandatory message operation (each counted once
///            per scenario instance — the instance is observed from the
///            trigger pin, the rest of the timeline is the protocol's
///            deterministic contract)
///   .gap     inter-instance gap bins, same thresholds as src/cov
///   .window  only when the chart has a top-level loop region: the
///            back-to-back cross (b2b_any / b2b_same_bank / b2b_same_addr
///            / pipeline_full for a read trigger; bank/addr need the read
///            address pins, so a write trigger gets b2b_any /
///            pipeline_full)
std::vector<cov::Covergroup> to_coverage(const Chart& chart);

/// The stimulus artifact: a Profile biased toward the chart's scenarios —
/// traffic on the trigger port, burst bias when a loop region asks for
/// back-to-back instances, address repetition when the window cross needs
/// it, and idle bursts so the long-gap bins stay reachable.
tgen::Profile to_profile(const Chart& chart);

/// GraphViz rendering of the chart (lifelines as nodes, messages as edges
/// labelled with their annotations; region-local messages dashed).
std::string to_dot(const Chart& chart);

/// Fills the to_coverage bins from the pin bus, tgen::CoveragePlugin-style,
/// so run_closure can close over spec-derived bins. The sequential decode
/// mirrors cov::CoverageCollector exactly (instances counted at the K edge,
/// gap = cycle distance minus one, window conditions bit-for-bit), which is
/// what makes the derived window/gap counts comparable bin-for-bin with the
/// hand-written fig3_read_window / read_gap groups.
class ScenarioCoverage : public tgen::CoveragePlugin {
 public:
  ScenarioCoverage(const Chart& chart, const harness::Geometry& geometry);

  std::vector<cov::Covergroup> groups() const override { return groups_; }
  void observe_edge(const harness::EdgePins& pins) override;
  void end_stream() override;
  bool owns(const std::string& group) const override;
  tgen::Profile profile_for(const std::string& group, const std::string& bin,
                            const harness::Geometry& geometry) const override;

  /// All bins hit at least once.
  bool complete() const;

 private:
  void hit(const std::string& group, const std::string& bin);
  void record_instance(std::int64_t cycle, std::uint64_t addr);

  Chart chart_;
  std::vector<cov::Covergroup> groups_;
  std::string ops_group_;
  std::string gap_group_;
  std::string window_group_;  // empty when the chart has no loop region
  int bank_shift_ = 0;

  // Sequential trackers (reset by end_stream, mirroring CoverageCollector).
  std::int64_t cycle_ = 0;
  std::int64_t last_cycle_ = -1000;
  std::int64_t prev_cycle_ = -1000;
  std::uint64_t last_addr_ = 0;
  int last_bank_ = -1;
};

}  // namespace la1::msc
