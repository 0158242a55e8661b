// Mutation-coverage campaign bench — the robustness companion to the
// Table 2/3 reports.
//
// For 1..max banks, runs the deterministic fault campaign (src/fault):
// a seeded plan of structural RTL mutants and protocol-level harness
// faults, each pushed through the full detection stack (PSL monitors,
// OVL monitors, lockstep vs a pristine reference, budgeted symbolic MC).
// The interesting columns: the per-checker catch counts — which layer of
// the methodology actually earns its keep against which fault class —
// plus the overall mutation score and the clean-run (false-alarm) gate.
//
// The campaign is dispatched through the work-stealing executor
// (src/exec) at every worker count in --workers, and the bench asserts
// the determinism contract: the campaign report hashes byte-identically
// at 1, 2, 4, ... workers. The scaling table reports wall time, speedup
// over one worker, pool utilization, steal counts, and each worker's
// shards, busy and thread-CPU milliseconds (the JSON rows carry the whole
// exec::PoolStats); the speedup gate only arms when the host actually has
// the cores to show one.
//
// Each bank count then re-runs the whole campaign on the compiled
// bit-parallel RTL backend (src/csim) and asserts the report hashes
// byte-identically to the interpreted run — backend choice must be
// unobservable in every verdict, score, and rendered cell.
//
// The exit status is the final `gate:` line, which names each of its
// inputs: the score, the control run, the determinism hash, the backend
// hash and the speedup.
//
//   --max-banks N       highest bank count (default 2)
//   --seed S            campaign seed (default 1)
//   --transactions N    K cycles of traffic per mutant (default 300)
//   --workers LIST      comma-separated worker counts (default 1,2,4,8)
//   --steal-seed S      steal-victim order seed (default 1)
//   --no-mc             skip the symbolic-MC column
//   --json PATH         write the {bench, params, metrics} report
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "fault/campaign.hpp"
#include "util/bench_report.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

/// One "shards busy/cpu" entry per worker (milliseconds): a speedup near 1x
/// with busy time well above CPU time means the workers were stalled inside
/// the shard bodies, not starved of shards.
std::string per_worker(const la1::exec::PoolStats& stats) {
  std::string out;
  for (const la1::exec::WorkerStats& w : stats.per_worker) {
    if (!out.empty()) out += ", ";
    out += std::to_string(w.shards) + " " +
           la1::util::fmt_double(1e3 * w.busy_seconds, 0) + "/" +
           la1::util::fmt_double(1e3 * w.cpu_seconds, 0);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace la1;
  const util::Cli cli(argc, argv);
  const int max_banks = cli.get_bounded("max-banks", 2, 1);
  const std::uint64_t seed = cli.get_u64("seed", 1);
  const int transactions = cli.get_bounded("transactions", 300, 0);
  const bool run_mc = !cli.get_bool("no-mc", false);
  std::vector<int> workers_list;
  try {
    workers_list =
        util::parse_positive_list(cli.get("workers", "1,2,4,8"), "--workers");
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const std::uint64_t steal_seed = cli.get_u64("steal-seed", 1);
  util::BenchReport report("bench_fault_campaign");
  {
    util::Json jw = util::Json::array();
    for (int w : workers_list) jw.push(w);
    report.param("max_banks", util::Json(max_banks))
        .param("seed", util::Json(seed))
        .param("transactions", util::Json(transactions))
        .param("run_mc", util::Json(run_mc))
        .param("workers", std::move(jw))
        .param("steal_seed", util::Json(steal_seed));
  }
  cli.get("json", "");
  for (const auto& unused : cli.unused()) {
    std::fprintf(stderr, "unknown option --%s\n", unused.c_str());
    return 2;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::puts("Fault-Injection Campaign - Mutation Coverage of the Stack");
  std::printf("seed = %llu, %d transactions per mutant, %u hardware thread(s)\n\n",
              static_cast<unsigned long long>(seed), transactions, hw);

  util::Table table({"Number of Banks", "Faults", "Caught", "Score (%)",
                     "psl", "ovl", "lockstep", "mc", "Clean Run",
                     "CPU Time (s)"});
  util::Table scaling({"Number of Banks", "Workers", "Wall (s)", "Speedup",
                       "Util (%)", "Steals", "Retried",
                       "Per Worker (shards busy/cpu ms)", "Report Hash",
                       "Identical"});
  bool score_ok = true;
  bool clean_ok = true;
  bool hashes_ok = true;
  bool backend_ok = true;
  double speedup_best = 1.0;
  for (int banks = 1; banks <= max_banks; ++banks) {
    fault::CampaignOptions opt;
    opt.banks = banks;
    opt.seed = seed;
    opt.transactions = transactions;
    opt.run_mc = run_mc;

    // One campaign per worker count; the report must hash identically at
    // every one of them — that is the executor's determinism contract.
    fault::CampaignReport campaign;
    double base_wall = 0.0;
    std::uint64_t base_hash = 0;
    double cpu_total = 0.0;
    for (std::size_t i = 0; i < workers_list.size(); ++i) {
      exec::Options par;
      par.workers = workers_list[i];
      par.steal_seed = steal_seed;
      exec::PoolStats stats;
      util::CpuStopwatch watch;
      fault::CampaignReport run = fault::run_campaign_parallel(opt, par, &stats);
      const double cpu = watch.seconds();
      const std::uint64_t hash = util::fnv1a64(run.to_json().dump());
      for (const exec::WorkerStats& ws : stats.per_worker) {
        report.add_worker_cpu(ws.cpu_seconds);
      }
      if (i == 0) {
        campaign = std::move(run);
        base_wall = stats.wall_seconds;
        base_hash = hash;
        cpu_total = cpu;
      }
      const bool same = hash == base_hash;
      hashes_ok = hashes_ok && same;
      const double speedup =
          stats.wall_seconds > 0 ? base_wall / stats.wall_seconds : 1.0;
      if (workers_list[i] > 1) {
        speedup_best = std::max(speedup_best, speedup);
      }
      char hash_hex[17];
      std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                    static_cast<unsigned long long>(hash));
      scaling.add_row({std::to_string(banks),
                       std::to_string(workers_list[i]),
                       util::fmt_double(stats.wall_seconds, 2),
                       util::fmt_double(speedup, 2),
                       util::fmt_double(100.0 * stats.utilization(), 0),
                       std::to_string([&] {
                         int steals = 0;
                         for (const exec::WorkerStats& ws : stats.per_worker) {
                           steals += ws.steals;
                         }
                         return steals;
                       }()),
                       std::to_string(stats.retried), per_worker(stats),
                       hash_hex, same ? "yes" : "NO"});

      util::Json m = util::Json::object();
      m.set("kind", "scaling");
      m.set("banks", banks);
      m.set("workers", workers_list[i]);
      m.set("wall_seconds", stats.wall_seconds);
      m.set("cpu_seconds", cpu);
      m.set("worker_cpu_seconds", stats.total_cpu_seconds());
      m.set("utilization", stats.utilization());
      m.set("speedup", speedup);
      m.set("retried", stats.retried);
      m.set("crashed", stats.crashed);
      m.set("hash", hash_hex);
      m.set("hash_matches", same);
      m.set("pool", stats.to_json());
      report.metric(std::move(m));
    }

    // The same campaign on the compiled backend: one run, one hash, one
    // equality check against the interpreted report.
    {
      fault::CampaignOptions copt = opt;
      copt.backend = harness::RtlBackend::kCompiled;
      exec::Options par;
      par.workers = workers_list.front();
      par.steal_seed = steal_seed;
      util::CpuStopwatch watch;
      const fault::CampaignReport run = fault::run_campaign_parallel(copt, par);
      const double cpu = watch.seconds();
      const std::uint64_t hash = util::fnv1a64(run.to_json().dump());
      const bool same = hash == base_hash;
      backend_ok = backend_ok && same;
      char hash_hex[17];
      std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                    static_cast<unsigned long long>(hash));
      util::Json m = util::Json::object();
      m.set("kind", "backend");
      m.set("banks", banks);
      m.set("backend", harness::to_string(harness::RtlBackend::kCompiled));
      m.set("cpu_seconds", cpu);
      m.set("hash", hash_hex);
      m.set("hash_matches", same);
      report.metric(std::move(m));
    }

    util::Json by_checker = util::Json::object();
    std::vector<std::string> row{std::to_string(banks),
                                 std::to_string(campaign.rows.size()),
                                 std::to_string(campaign.caught_count()),
                                 util::fmt_double(
                                     100.0 * campaign.mutation_score(), 1)};
    for (const std::string& checker : campaign.checkers) {
      int caught = 0;
      for (const fault::CampaignRow& r : campaign.rows) {
        const fault::CampaignCell* cell = r.cell(checker);
        if (cell != nullptr && cell->outcome == fault::CellOutcome::kCaught) {
          ++caught;
        }
      }
      by_checker.set(checker, caught);
      row.push_back(std::to_string(caught));
    }
    row.push_back(campaign.clean_ok ? "clean" : "FALSE ALARM");
    row.push_back(util::fmt_double(cpu_total, 2));
    table.add_row(std::move(row));

    util::Json m = util::Json::object();
    m.set("kind", "campaign");
    m.set("banks", banks);
    m.set("faults", static_cast<std::int64_t>(campaign.rows.size()));
    m.set("caught", campaign.caught_count());
    m.set("mutation_score", campaign.mutation_score());
    m.set("caught_by_checker", std::move(by_checker));
    m.set("clean_ok", campaign.clean_ok);
    m.set("cpu_seconds", cpu_total);
    report.metric(std::move(m));

    score_ok = score_ok && campaign.mutation_score() >= 0.9;
    clean_ok = clean_ok && campaign.clean_ok;
    if (banks == 1) {
      std::fputs(campaign.render().c_str(), stdout);
      std::puts("");
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::puts("");
  std::fputs(scaling.render().c_str(), stdout);

  const auto verdict = [](bool pass) { return pass ? "PASS" : "FAIL"; };
  std::printf("determinism: report hash identical at every worker count -> %s\n",
              verdict(hashes_ok));
  std::printf("backend: compiled report hash identical to interpreted -> %s\n",
              verdict(backend_ok));
  // Speedup is only gated where the host can physically provide one; on a
  // single-core box the scaling table is still printed for the record.
  const bool speedup_gated = hw >= 4;
  const bool speedup_ok = !speedup_gated || speedup_best >= 1.2;
  if (speedup_gated) {
    std::printf("speedup: best %.2fx over one worker (need >= 1.20x) -> %s\n",
                speedup_best, verdict(speedup_ok));
  } else {
    std::printf("speedup: best %.2fx (not gated: %u hardware thread(s))\n",
                speedup_best, hw);
  }
  const bool ok =
      score_ok && clean_ok && hashes_ok && backend_ok && speedup_ok;
  std::printf("gate: score >= 90%% at every bank count %s, clean control run "
              "%s, determinism hash %s, backend hash %s, speedup %s -> %s\n",
              verdict(score_ok), verdict(clean_ok), verdict(hashes_ok),
              verdict(backend_ok),
              speedup_gated ? verdict(speedup_ok) : "not gated", verdict(ok));
  if (!report.finish(cli)) return 2;
  return ok ? 0 : 1;
}
