// Coverage-closure bench — the coverage-driven companion to the fault
// campaign.
//
// Five experiments per run:
//
//   1. Closure vs uniform: for 1..max banks, run the closed-loop closure
//      driver (src/tgen) to its target, then measure what plain uniform
//      StimulusStream traffic covers at the *same* transaction count. The
//      interesting column: the coverage gap — what the feedback loop buys
//      over open-loop random stimulus.
//   2. Shrinker: reduce a seeded failing stream (corrupt-read-data mutant
//      vs pristine reference in lockstep) to a locally-minimal reproducer;
//      reports the reduction ratio and whether the failure survived.
//   3. Coverage vs detection: run a ladder of stimulus profiles from
//      near-idle to closure-shaped, measure each profile's bin coverage
//      and its lockstep detection score over a fixed protocol-fault set,
//      and report the Pearson correlation — the cross-validation that the
//      coverage model measures something the fault campaign cares about.
//   4. Parallel seed sweep: one `cov-closure` batch job of N seeds
//      (batch::run_batch, the la1batch runner, on its fixed geometry),
//      pick the best-covering seed, and assert the job's hash is
//      byte-identical at 1 worker and at --sweep-workers.
//   5. Backend verdict equality: the protocol-fault lockstep detection
//      run of experiment 3, with the real RTL device as the faulted
//      model, once on the interpreted simulator and once on the compiled
//      bit-parallel backend (src/csim) — every verdict, divergence tick,
//      and comparison count must agree.
//
//   --max-banks N       highest bank count (default 2)
//   --seed S            seed (default 1)
//   --target C          closure target fraction (default 0.95)
//   --epochs N          closure epoch budget (default 40)
//   --transactions N    transactions per closure epoch (default 250)
//   --sweep-shards N    seeds in the parallel sweep (default 4)
//   --sweep-workers N   workers for the sweep run (default 4)
//   --json PATH         write the {bench, params, metrics} report
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "batch/runner.hpp"
#include "cov/coverage.hpp"
#include "fault/fault.hpp"
#include "harness/adapters.hpp"
#include "harness/lockstep.hpp"
#include "tgen/closure.hpp"
#include "tgen/shrink.hpp"
#include "util/bench_report.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace la1;

core::Config behavioral_config(const harness::Geometry& g) {
  core::Config cfg;
  cfg.banks = g.banks;
  cfg.data_bits = g.data_bits;
  cfg.addr_bits = g.mem_addr_bits + cfg.bank_bits();
  return cfg;
}

/// Lockstep detection score of `profile` traffic against the four
/// protocol-fault kinds: the fraction of mutants whose divergence the run
/// exposes.
double detection_score(const harness::Geometry& g,
                       const tgen::Profile& profile, std::uint64_t seed,
                       std::uint64_t transactions) {
  const fault::FaultKind kinds[] = {
      fault::FaultKind::kCorruptReadData, fault::FaultKind::kGlitchBankSelect,
      fault::FaultKind::kDroppedTransfer, fault::FaultKind::kDelayedTransfer};
  int caught = 0;
  int total = 0;
  for (fault::FaultKind kind : kinds) {
    fault::FaultSpec spec;
    spec.kind = kind;
    spec.cycle = 3;
    harness::BehavioralDeviceModel reference(behavioral_config(g));
    fault::ProtocolFaultModel faulty(
        std::make_unique<harness::BehavioralDeviceModel>(behavioral_config(g)),
        spec);
    tgen::ConstrainedStream stream(g, profile, seed);
    harness::LockstepOptions lo;
    lo.transactions = transactions;
    const harness::LockstepReport r =
        harness::run_lockstep({&reference, &faulty}, stream, lo);
    ++total;
    if (!r.ok) ++caught;
  }
  return total == 0 ? 0.0 : static_cast<double>(caught) / total;
}

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0 || syy <= 0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const int max_banks = cli.get_bounded("max-banks", 2, 1);
  const std::uint64_t seed = cli.get_u64("seed", 1);
  // Default to full closure: the loop keeps re-biasing until every defined
  // bin is hit, which is what makes the equal-transaction uniform baseline
  // comparison meaningful (a partial target lets the baseline catch up).
  const double target = cli.get_double("target", 1.0);
  const int epochs = cli.get_bounded("epochs", 40, 0);
  const std::uint64_t per_epoch = cli.get_u64("transactions", 250);
  const int sweep_shards = cli.get_bounded("sweep-shards", 4, 0);
  const int sweep_workers = cli.get_bounded("sweep-workers", 4, 0);
  util::BenchReport report("bench_coverage_closure");
  report.param("max_banks", util::Json(max_banks))
      .param("seed", util::Json(seed))
      .param("target", util::Json(target))
      .param("epochs", util::Json(epochs))
      .param("transactions_per_epoch", util::Json(per_epoch))
      .param("sweep_shards", util::Json(sweep_shards))
      .param("sweep_workers", util::Json(sweep_workers));
  cli.get("json", "");
  for (const auto& unused : cli.unused()) {
    std::fprintf(stderr, "unknown option --%s\n", unused.c_str());
    return 2;
  }

  std::puts("Coverage Closure - Closed-Loop vs Open-Loop Stimulus");
  std::printf("seed = %llu, target %.0f%%, %llu transactions/epoch\n\n",
              static_cast<unsigned long long>(seed), 100.0 * target,
              static_cast<unsigned long long>(per_epoch));

  bool ok = true;

  // --- 1. closure vs uniform at equal transaction count -----------------
  util::Table table({"Number of Banks", "Bins", "Closure (%)", "Uniform (%)",
                     "Epochs", "Transactions", "Beats Baseline"});
  for (int banks = 1; banks <= max_banks; ++banks) {
    tgen::ClosureOptions opt;
    opt.geometry.banks = banks;
    opt.seed = seed;
    opt.target = target;
    opt.transactions_per_epoch = per_epoch;
    opt.budget.max_epochs = epochs;
    const tgen::ClosureResult closure = tgen::run_closure(opt);
    const cov::CoverageReport uniform =
        tgen::uniform_coverage(opt.geometry, seed, closure.transactions);
    const bool beats = closure.coverage() > uniform.coverage();
    ok = ok && beats && closure.reached_target;

    table.add_row({std::to_string(banks),
                   std::to_string(closure.report.total_bins()),
                   util::fmt_double(100.0 * closure.coverage(), 1),
                   util::fmt_double(100.0 * uniform.coverage(), 1),
                   std::to_string(closure.epochs),
                   std::to_string(closure.transactions),
                   beats ? "yes" : "NO"});

    util::Json row = util::Json::object();
    row.set("kind", "closure");
    row.set("banks", banks);
    row.set("total_bins", closure.report.total_bins());
    row.set("closure_coverage", closure.coverage());
    row.set("uniform_coverage", uniform.coverage());
    row.set("epochs", closure.epochs);
    row.set("transactions", closure.transactions);
    row.set("reached_target", closure.reached_target);
    row.set("beats_baseline", beats);
    report.metric(std::move(row));
  }
  std::fputs(table.render().c_str(), stdout);

  // --- 2. shrinker on a seeded lockstep failure -------------------------
  harness::Geometry g;
  g.banks = max_banks;
  const std::uint64_t shrink_txns = 200;
  harness::StimulusOptions so;
  so.banks = g.banks;
  so.mem_addr_bits = g.mem_addr_bits;
  so.data_bits = g.data_bits;
  harness::StimulusStream uniform_stream(so, seed);
  std::vector<harness::Stimulus> stimuli;
  for (std::uint64_t i = 0; i < shrink_txns; ++i) {
    stimuli.push_back(uniform_stream.next());
  }
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kCorruptReadData;
  spec.cycle = 0;
  const tgen::ShrinkResult shrunk = tgen::shrink(
      harness::RecordedStream(g, std::move(stimuli)),
      [&](harness::RecordedStream& candidate) {
        harness::BehavioralDeviceModel reference(behavioral_config(g));
        fault::ProtocolFaultModel faulty(
            std::make_unique<harness::BehavioralDeviceModel>(
                behavioral_config(g)),
            spec);
        harness::LockstepOptions lo;
        lo.transactions = shrink_txns;
        candidate.reset();
        return !harness::run_lockstep({&reference, &faulty}, candidate, lo).ok;
      });
  ok = ok && shrunk.failure_preserved;
  std::printf("\nshrink: %zu -> %zu transaction(s) (%.1f%% reduction), "
              "%d probe(s), failure %s\n",
              shrunk.original_size, shrunk.shrunk_size,
              100.0 * shrunk.reduction(), shrunk.probes,
              shrunk.failure_preserved ? "preserved" : "NOT preserved");
  {
    util::Json row = util::Json::object();
    row.set("kind", "shrink");
    row.set("banks", g.banks);
    row.set("fault", spec.id());
    row.set("original", shrunk.original_size);
    row.set("shrunk", shrunk.shrunk_size);
    row.set("reduction", shrunk.reduction());
    row.set("probes", shrunk.probes);
    row.set("still_fails", shrunk.failure_preserved);
    report.metric(std::move(row));
  }

  // --- 3. coverage vs fault detection across a profile ladder -----------
  struct Rung {
    const char* name;
    tgen::Profile profile;
  };
  std::vector<Rung> ladder;
  {
    tgen::Profile idle;
    idle.read_rate = idle.write_rate = 0.0;
    ladder.push_back({"idle", idle});
    tgen::Profile wo;
    wo.read_rate = 0.0;
    wo.write_rate = 0.5;
    ladder.push_back({"write_only", wo});
    tgen::Profile sparse;
    sparse.read_rate = 0.04;
    sparse.write_rate = 0.04;
    ladder.push_back({"sparse", sparse});
    ladder.push_back({"uniform", tgen::Profile{}});
    tgen::Profile rich;
    rich.read_burst = 0.6;
    rich.write_burst = 0.5;
    rich.idle_burst = 0.5;
    rich.raw = 0.3;
    rich.war = 0.2;
    ladder.push_back({"closure_shaped", rich});
  }
  const std::uint64_t ladder_txns = 200;
  std::vector<double> coverages, scores;
  util::Json rungs = util::Json::array();
  std::printf("\n%-16s %10s %10s\n", "profile", "coverage", "detection");
  for (const Rung& rung : ladder) {
    cov::CoverageCollector collector(g);
    tgen::ConstrainedStream stream(g, rung.profile, seed);
    tgen::collect_stream(collector, stream, ladder_txns);
    const double coverage = collector.report().coverage();
    const double score = detection_score(g, rung.profile, seed, ladder_txns);
    coverages.push_back(coverage);
    scores.push_back(score);
    std::printf("%-16s %9.1f%% %9.0f%%\n", rung.name, 100.0 * coverage,
                100.0 * score);
    util::Json jr = util::Json::object();
    jr.set("profile", rung.name);
    jr.set("coverage", coverage);
    jr.set("detection", score);
    rungs.push(std::move(jr));
  }
  const double r = pearson(coverages, scores);
  std::printf("coverage-detection correlation (Pearson): %.2f\n", r);
  {
    util::Json row = util::Json::object();
    row.set("kind", "correlation");
    row.set("banks", g.banks);
    row.set("transactions", ladder_txns);
    row.set("pearson", r);
    row.set("rungs", std::move(rungs));
    report.metric(std::move(row));
  }

  // --- 4. parallel seed sweep: one cov-closure batch job ----------------
  {
    batch::JobSpec job;
    job.name = "seed_sweep";
    job.kind = batch::JobKind::kCovClosure;
    job.banks = max_banks;
    job.seed = seed;
    job.shards = std::max(1, sweep_shards);
    job.target = target;
    job.max_epochs = epochs;
    job.transactions_per_epoch = per_epoch;
    batch::BatchSpec spec;
    spec.jobs.push_back(job);

    // Same sweep at 1 worker and at --sweep-workers: the job's merged
    // shard array (and its hash) must be byte-identical — schedule-
    // independence is what makes the "best seed" answer trustworthy.
    batch::RunnerOptions ropt;
    ropt.workers = 1;
    const batch::BatchResult sequential = batch::run_batch(spec, ropt);
    ropt.workers = sweep_workers;
    const batch::BatchResult parallel = batch::run_batch(spec, ropt);
    const exec::PoolStats& par_stats = parallel.stats;
    for (const exec::WorkerStats& ws : par_stats.per_worker) {
      report.add_worker_cpu(ws.cpu_seconds);
    }

    // Shard k ran closure at seed + k; its value is ClosureResult::to_json.
    const batch::JobResult& sweep = parallel.jobs.front();
    int best_shard = -1;
    double best_coverage = 0.0;
    std::uint64_t total_transactions = 0;
    for (const util::Json& row : sweep.merged.items()) {
      const util::Json* value = row.find("value");
      if (value == nullptr) continue;
      const double c = value->find("coverage")->as_double();
      if (c > best_coverage) {
        best_coverage = c;
        best_shard = static_cast<int>(row.find("shard")->as_int());
      }
      total_transactions +=
          static_cast<std::uint64_t>(value->find("transactions")->as_int());
    }
    const std::uint64_t best_seed =
        seed + static_cast<std::uint64_t>(best_shard);
    const int degraded = sweep.shards - sweep.ok;

    const std::uint64_t seq_hash = sequential.jobs.front().hash;
    const std::uint64_t par_hash = sweep.hash;
    const bool same = seq_hash == par_hash;
    const bool all_ok = degraded == 0 && best_shard >= 0;
    ok = ok && same && all_ok;

    std::printf("\nparallel seed sweep: %d seed(s) from %llu, best seed %llu "
                "at %.1f%% coverage (%d ok, %d degraded)\n",
                sweep.shards, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(best_seed),
                100.0 * best_coverage, sweep.ok, degraded);
    std::printf("sweep determinism: hash %016llx at 1 worker, %016llx at %d "
                "-> %s\n",
                static_cast<unsigned long long>(seq_hash),
                static_cast<unsigned long long>(par_hash), sweep_workers,
                same ? "identical" : "MISMATCH");

    util::Json row = util::Json::object();
    row.set("kind", "seed_sweep");
    row.set("banks", max_banks);
    row.set("shards", sweep_shards);
    row.set("workers", sweep_workers);
    row.set("best_seed", best_seed);
    row.set("best_coverage", best_coverage);
    row.set("ok", sweep.ok);
    row.set("degraded", degraded);
    row.set("total_transactions",
            static_cast<std::int64_t>(total_transactions));
    row.set("wall_seconds_1", sequential.stats.wall_seconds);
    row.set("wall_seconds_n", par_stats.wall_seconds);
    row.set("worker_cpu_seconds", par_stats.total_cpu_seconds());
    row.set("utilization", par_stats.utilization());
    row.set("hash_matches", same);
    report.metric(std::move(row));
  }

  // --- 5. RTL lockstep verdicts across simulation backends --------------
  {
    core::RtlConfig rc;
    rc.banks = g.banks;
    rc.data_bits = g.data_bits;
    rc.mem_addr_bits = g.mem_addr_bits;
    const std::uint64_t rtl_txns = 120;

    // One fingerprint per backend: verdicts, tick counts, comparison
    // counts and the divergence text (with the backend's model name
    // normalized out) across the four protocol-fault kinds.
    auto fingerprint = [&](harness::RtlBackend backend, int* caught) {
      const fault::FaultKind kinds[] = {fault::FaultKind::kCorruptReadData,
                                        fault::FaultKind::kGlitchBankSelect,
                                        fault::FaultKind::kDroppedTransfer,
                                        fault::FaultKind::kDelayedTransfer};
      std::string fp;
      *caught = 0;
      for (fault::FaultKind kind : kinds) {
        fault::FaultSpec spec;
        spec.kind = kind;
        spec.cycle = 3;
        harness::BehavioralDeviceModel reference(behavioral_config(g));
        harness::RtlDevice dev = harness::make_rtl_device(rc, backend);
        fault::ProtocolFaultModel faulty(std::move(dev.model), spec);
        tgen::ConstrainedStream stream(g, tgen::Profile{}, seed);
        harness::LockstepOptions lo;
        lo.transactions = rtl_txns;
        const harness::LockstepReport r =
            harness::run_lockstep({&reference, &faulty}, stream, lo);
        if (!r.ok) ++*caught;
        std::string mismatch = r.mismatch;
        const std::string name =
            harness::to_string(backend) == std::string("compiled") ? "csim"
                                                                   : "rtl";
        for (std::size_t at = mismatch.find(name); at != std::string::npos;
             at = mismatch.find(name, at)) {
          mismatch.replace(at, name.size(), "<rtl>");
          at += 5;
        }
        fp += spec.id() + "|" + (r.ok ? "ok" : "caught") + "|" +
              std::to_string(r.ticks_run) + "|" +
              std::to_string(r.comparisons) + "|" + mismatch + "\n";
      }
      return fp;
    };

    int caught_interp = 0;
    int caught_csim = 0;
    const std::string fp_interp =
        fingerprint(harness::RtlBackend::kInterpreted, &caught_interp);
    const std::string fp_csim =
        fingerprint(harness::RtlBackend::kCompiled, &caught_csim);
    const std::uint64_t hash_interp = util::fnv1a64(fp_interp);
    const std::uint64_t hash_csim = util::fnv1a64(fp_csim);
    const bool same = fp_interp == fp_csim;
    ok = ok && same;

    std::printf("\nRTL backend verdicts: interpreted caught %d/4, compiled "
                "caught %d/4, fingerprint %016llx vs %016llx -> %s\n",
                caught_interp, caught_csim,
                static_cast<unsigned long long>(hash_interp),
                static_cast<unsigned long long>(hash_csim),
                same ? "identical" : "MISMATCH");

    util::Json row = util::Json::object();
    row.set("kind", "backend_verdicts");
    row.set("banks", g.banks);
    row.set("transactions", static_cast<std::int64_t>(rtl_txns));
    row.set("caught_interpreted", caught_interp);
    row.set("caught_compiled", caught_csim);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash_interp));
    row.set("hash_interpreted", hex);
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash_csim));
    row.set("hash_compiled", hex);
    row.set("verdicts_equal", same);
    report.metric(std::move(row));
  }

  if (!report.finish(cli)) return 2;
  return ok ? 0 : 1;
}
