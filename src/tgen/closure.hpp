// Closed-loop coverage closure: run constrained-random traffic, measure
// the coverage model, re-bias the Profile toward the emptiest bin, repeat
// until a target percentage or the budget is exhausted. The re-bias rule
// table (profile_for) is deterministic, so a closure run is a pure
// function of (geometry, options, seed).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "cov/coverage.hpp"
#include "harness/stimulus.hpp"
#include "tgen/constrained.hpp"
#include "util/json.hpp"

namespace la1::tgen {

/// Resource ceiling for a closure run, mc::Budget-style: zero means
/// unlimited for the two soft limits; max_epochs always bounds the loop.
struct ClosureBudget {
  int max_epochs = 40;
  std::uint64_t max_transactions = 0;  // total across epochs, 0 = unlimited
  std::uint64_t wall_ms = 0;           // wall-clock ceiling, 0 = unlimited
};

/// Extension point for spec-compiled coverage models (e.g. the MSC scenario
/// coverage in src/msc): a plugin observes the same pin stream as the
/// built-in CoverageCollector, contributes extra covergroups to the closure
/// report, and supplies the re-bias Profile for the bins it owns — so
/// closure can aim at spec-derived bins exactly as it aims at the built-in
/// ones. Plugins are non-owning: the caller keeps them alive for the run.
class CoveragePlugin {
 public:
  virtual ~CoveragePlugin() = default;

  /// The plugin's covergroups with their current hit counts. Group names
  /// must not collide with cov::make_model's.
  virtual std::vector<cov::Covergroup> groups() const = 0;

  /// Observes one half-cycle edge (called for every edge, in order).
  virtual void observe_edge(const harness::EdgePins& pins) = 0;

  /// Epoch boundary: rewind sequential trackers, keep hit counts.
  virtual void end_stream() = 0;

  /// True when `group` is one of this plugin's groups.
  virtual bool owns(const std::string& group) const = 0;

  /// The profile most likely to hit `group`.`bin` (the plugin-side
  /// equivalent of tgen::profile_for).
  virtual Profile profile_for(const std::string& group,
                              const std::string& bin,
                              const harness::Geometry& geometry) const = 0;
};

struct ClosureOptions {
  harness::Geometry geometry;
  std::uint64_t seed = 1;
  double target = 0.95;  // stop once coverage() reaches this fraction
  std::uint64_t transactions_per_epoch = 250;
  ClosureBudget budget;
  /// Extra coverage models closed over alongside the built-in one.
  std::vector<CoveragePlugin*> plugins;
  /// Cooperative cancellation (SIGINT token, parallel-shard flag): polled
  /// at epoch boundaries; a raised flag stops the loop with `cancelled`
  /// set and the trajectory so far intact. Non-owning.
  const std::atomic<bool>* cancel = nullptr;
};

/// One epoch of the closure trajectory: which bin the profile was aimed at
/// and the cumulative coverage after running it.
struct EpochRecord {
  int epoch = 0;
  std::string targeted;  // "group.bin", empty for the uniform warm-up epoch
  double coverage = 0.0;
};

struct ClosureResult {
  cov::CoverageReport report;
  int epochs = 0;
  std::uint64_t transactions = 0;
  bool reached_target = false;
  bool budget_exhausted = false;
  /// ClosureOptions::cancel fired before the target/budget was reached.
  bool cancelled = false;
  std::vector<EpochRecord> trajectory;

  double coverage() const { return report.coverage(); }
  util::Json to_json() const;
};

/// Runs `transactions` K cycles of `source` through a Transactor into the
/// collector — pin-level only, no DeviceModel, so measuring coverage of a
/// stimulus shape costs just the transactor. Ends the collector's stream.
void collect_stream(cov::CoverageCollector& collector,
                    harness::StimulusSource& source,
                    std::uint64_t transactions);

/// As above, but also broadcasts every edge to the plugins and ends their
/// streams (the plugin-aware path run_closure uses).
void collect_stream(cov::CoverageCollector& collector,
                    harness::StimulusSource& source,
                    std::uint64_t transactions,
                    const std::vector<CoveragePlugin*>& plugins);

/// The deterministic re-bias rule table: the Profile most likely to hit
/// `group`.`bin` for this geometry. Unknown names return the default
/// Profile (uniform-ish traffic).
Profile profile_for(const std::string& group, const std::string& bin,
                    const harness::Geometry& geometry);

/// The closed loop. Epoch 0 runs the default Profile; every later epoch
/// re-aims at the first uncovered bin of the least-covered group.
ClosureResult run_closure(const ClosureOptions& options);

/// Baseline: coverage of plain uniform StimulusStream traffic (the PR-1
/// generator) at the same transaction count — what closure must beat.
cov::CoverageReport uniform_coverage(const harness::Geometry& geometry,
                                     std::uint64_t seed,
                                     std::uint64_t transactions);

}  // namespace la1::tgen
