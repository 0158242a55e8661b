// la1batch — batch verification service for the LA-1 stack: runs every job
// of a batch file (faults campaigns, coverage closure, MC sweeps, lockstep
// soaks) on the deterministic work-stealing executor (src/exec), sharded and
// merged in canonical order so the report (and its FNV-1a hash) is
// byte-identical at any worker count. The subcommands and their flags come
// from the kCommands table at the end of this file.
//
// Robustness: shards that overrun their deadline are retried once with
// exponential backoff, then degraded to qualified timeout entries; shards
// that throw are quarantined as crashed with the replay seed recorded; ^C
// cancels the remaining shards and still emits valid JSON. Finished shards
// can be journaled to a JSONL file that a resumed run replays, so a killed
// batch completes without redoing its work.
#include <cstdio>

#include "batch/job.hpp"
#include "batch/runner.hpp"
#include "exec/signal.hpp"
#include "util/cli.hpp"

namespace {

using namespace la1;

int run_example(const util::Cli&) {
  batch::BatchSpec spec;
  spec.name = "nightly";
  {
    batch::JobSpec job;
    job.name = "lockstep";
    job.kind = batch::JobKind::kLockstepSoak;
    job.banks = 2;
    job.shards = 4;
    job.transactions = 200;
    spec.jobs.push_back(job);
  }
  {
    batch::JobSpec job;
    job.name = "campaign";
    job.kind = batch::JobKind::kFaults;
    job.banks = 1;
    job.shards = 2;
    job.transactions = 120;
    job.structural_faults = 4;
    job.protocol_faults = 2;
    spec.jobs.push_back(job);
  }
  {
    batch::JobSpec job;
    job.name = "closure";
    job.kind = batch::JobKind::kCovClosure;
    job.shards = 2;
    job.target = 0.9;
    job.max_epochs = 8;
    spec.jobs.push_back(job);
  }
  {
    batch::JobSpec job;
    job.name = "properties";
    job.kind = batch::JobKind::kMcSweep;
    job.banks = 1;
    spec.jobs.push_back(job);
  }
  std::fputs((spec.to_json().dump(2) + "\n").c_str(), stdout);
  return 0;
}

int run_run(const util::Cli& cli) {
  const std::string path = cli.positional()[1];
  const std::string text = util::read_input(path);

  batch::BatchSpec spec;
  try {
    spec = batch::BatchSpec::parse(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 2;
  }

  batch::RunnerOptions opt;
  opt.workers = cli.get_bounded("workers", 1, 1);
  opt.steal_seed = static_cast<std::uint64_t>(cli.get_int("steal-seed", 1));
  opt.shard_wall_ms =
      static_cast<std::uint64_t>(cli.get_int("shard-wall-ms", 0));
  opt.max_retries = cli.get_bounded("retries", 1, 0);
  opt.backoff_ms = static_cast<std::uint64_t>(cli.get_int("backoff-ms", 10));
  opt.journal_path = cli.get("journal", "");
  opt.resume = cli.get_bool("resume", false);

  // ^C / SIGTERM: cancel the remaining shards, let running ones observe
  // the flag, and still emit the (partial) report below.
  exec::install_interrupt_handler();
  opt.cancel = &exec::interrupt_token();

  const batch::BatchResult result = batch::run_batch(spec, opt);

  const bool telemetry = !cli.get_bool("no-telemetry", false);
  const std::string json = cli.get("json", "");
  if (json != "-") {
    std::printf("batch '%s': %zu job(s), %d worker(s)\n", result.name.c_str(),
                result.jobs.size(), result.stats.workers);
    for (const batch::JobResult& jr : result.jobs) {
      std::printf(
          "  %-14s %-13s %d shard(s): %d ok, %d timeout, %d crashed, "
          "%d cancelled, %d replayed  %-9s hash %016llx\n",
          jr.name.c_str(), to_string(jr.kind), jr.shards, jr.ok, jr.timed_out,
          jr.crashed, jr.cancelled, jr.replayed, jr.verdict.c_str(),
          static_cast<unsigned long long>(jr.hash));
    }
    std::printf("pool: %.2fs wall, %.2fs cpu, utilization %.0f%%, "
                "%d retried\n",
                result.stats.wall_seconds, result.stats.total_cpu_seconds(),
                100.0 * result.stats.utilization(), result.stats.retried);
    std::printf("batch hash %016llx  %s\n",
                static_cast<unsigned long long>(result.hash),
                result.interrupted ? "INTERRUPTED"
                : result.all_pass  ? "all pass"
                                   : "DEGRADED");
  }
  if (!util::write_json(json, result.to_json(telemetry), "report")) return 2;
  if (result.interrupted) return 130;
  return result.all_pass ? 0 : 1;
}

const std::vector<util::Command> kCommands = {
    {"run", "JOB.json",
     "execute a batch job file on the work-stealing executor",
     {{"workers", "N"}, {"steal-seed", "S"}, {"shard-wall-ms", "MS"},
      {"retries", "N"}, {"backoff-ms", "MS"}, {"journal", "PATH"},
      {"resume", ""}, {"json", "FILE|-"}, {"no-telemetry", ""}},
     run_run},
    {"example", "", "print an example job file", {}, run_example},
};

}  // namespace

int main(int argc, char** argv) {
  return util::run_command("la1batch", kCommands, argc, argv);
}
