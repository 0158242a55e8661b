// The batch verification runner: every shard of every job in a BatchSpec
// scheduled on one work-stealing executor (exec/executor.hpp), merged back
// into per-job reports in canonical shard order.
//
// Determinism contract: each JobResult's `merged` array (and its FNV-1a
// hash) contains only shard payloads and dispositions — never timing or
// worker telemetry — so a batch report hashes identically at 1, 2, 4, or 8
// workers, and a journal-resumed run hashes identically to an
// uninterrupted one.
//
// Robustness contract: a shard that overruns its deadline is retried once
// under a perturbed attempt and then degraded to a `timeout` entry; a
// shard that throws is quarantined as `crashed` with the replay seed
// recorded; SIGINT (exec/signal.hpp) cancels the remaining shards and the
// batch still emits valid JSON with `interrupted` set.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "batch/job.hpp"
#include "exec/executor.hpp"
#include "util/json.hpp"

namespace la1::batch {

/// The executor's scheduling knobs, plus the journal.
struct RunnerOptions : exec::Options {
  /// JSONL journal path; empty = no journal. With `resume`, shards already
  /// recorded (ok/timeout/crashed) are replayed instead of re-run.
  std::string journal_path;
  bool resume = false;
};

/// One job's merged outcome.
struct JobResult {
  std::string name;
  JobKind kind = JobKind::kLockstepSoak;
  int shards = 0;
  int ok = 0;
  int timed_out = 0;
  int crashed = 0;
  int cancelled = 0;
  int replayed = 0;  // shards satisfied from the journal
  /// "pass" (every shard ok), "degraded" (some timeout/crashed), or
  /// "cancelled" (interrupted before completion).
  std::string verdict;
  /// FNV-1a 64 of merged.dump() — the byte-identity fingerprint.
  std::uint64_t hash = 0;
  /// Deterministic per-shard array: {shard, status, [error], [value]}.
  util::Json merged;
};

struct BatchResult {
  std::string name;
  std::vector<JobResult> jobs;
  bool all_pass = false;
  bool interrupted = false;
  /// FNV-1a 64 over the per-job hashes, in job order.
  std::uint64_t hash = 0;
  exec::PoolStats stats;

  /// Telemetry (pool stats, wall times) is additive and excluded from the
  /// hashed payload; pass false for a fully deterministic document.
  util::Json to_json(bool include_telemetry = true) const;
};

/// The shard list a job expands to: `shards` seed-indexed runs, except
/// mc-sweep whose shards are the banks-level RTL property suite.
int job_shard_count(const JobSpec& job);

/// Runs one (job, shard) body — the unit the executor schedules. Exposed
/// for tests; honours the Context deadline/cancellation cooperatively and
/// applies the spec's inject_hang/inject_crash lists.
util::Json run_job_shard(const JobSpec& job, int shard,
                         const exec::Context& ctx);

BatchResult run_batch(const BatchSpec& spec, const RunnerOptions& options);

}  // namespace la1::batch
