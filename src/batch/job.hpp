// Batch verification jobs: the JSON job descriptions la1batch executes.
//
// A batch file names a list of jobs, each an independent verification
// workload over the LA-1 device —
//
//   faults          N-seed mutation campaigns (fault/campaign.hpp)
//   cov-closure     N-seed coverage-closure runs (tgen/closure.hpp)
//   mc-sweep        the RTL property suite, one symbolic check per shard
//   lockstep-soak   N-seed behavioural-vs-RTL lockstep runs
//
// Every job expands to a fixed shard list — a pure function of the spec —
// so the runner (runner.hpp) can schedule all shards of all jobs on one
// work-stealing executor and still merge a byte-identical report at any
// worker count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace la1::batch {

enum class JobKind { kFaults, kCovClosure, kMcSweep, kLockstepSoak };

const char* to_string(JobKind kind);
JobKind job_kind_from_string(const std::string& name);

struct JobSpec {
  std::string name;
  JobKind kind = JobKind::kLockstepSoak;
  int banks = 1;
  std::uint64_t seed = 1;
  /// Seed-indexed shard count for faults/cov-closure/lockstep-soak (shard
  /// s runs at seed + s). Ignored by mc-sweep, whose shards are the RTL
  /// property suite — one check per property.
  int shards = 2;
  /// The most shards a job file may ask for.
  static constexpr int kMaxShards = 4096;

  // faults / lockstep-soak: K cycles of seeded traffic per run.
  int transactions = 120;

  // faults: plan size and whether to run the (slow) symbolic-MC column.
  int structural_faults = 4;
  int protocol_faults = 2;
  bool run_mc = false;

  // cov-closure
  double target = 0.95;
  int max_epochs = 12;
  std::uint64_t transactions_per_epoch = 150;

  // mc-sweep: per-property budget.
  std::uint64_t mc_wall_ms = 5000;

  /// Robustness injection (tests and the CI gate): shard indices whose
  /// body hangs until its deadline fires / throws immediately. Exercises
  /// the retry, quarantine, and degraded-cell paths end to end.
  std::vector<int> inject_hang;
  std::vector<int> inject_crash;

  util::Json to_json() const;
  /// Reads a job object. Every whole-number field is range-checked (banks
  /// 1..4, shards 1..kMaxShards, counts and seeds never negative); a value
  /// out of range or of the wrong kind throws naming the job and field.
  static JobSpec from_json(const util::Json& j);
};

struct BatchSpec {
  std::string name = "batch";
  std::vector<JobSpec> jobs;

  util::Json to_json() const;
  static BatchSpec from_json(const util::Json& j);
  /// Parses a batch file's text (throws std::runtime_error with the parse
  /// or validation failure).
  static BatchSpec parse(const std::string& text);
};

}  // namespace la1::batch
