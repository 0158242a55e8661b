#include "batch/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "exec/journal.hpp"
#include "fault/campaign.hpp"
#include "harness/adapters.hpp"
#include "harness/lockstep.hpp"
#include "harness/stimulus.hpp"
#include "la1/rtl_model.hpp"
#include "mc/symbolic.hpp"
#include "rtl/bitblast.hpp"
#include "tgen/closure.hpp"
#include "util/strings.hpp"

namespace la1::batch {

namespace {

// Fixed simulation geometry for batch jobs: wide enough to be a real
// workload, small enough that a shard is seconds not minutes.
constexpr int kDataBits = 8;
constexpr int kMemAddrBits = 3;

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool contains(const std::vector<int>& v, int x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

/// The shard deadline folded into an engine wall budget: the tighter of
/// the two wins, so the engine winds down cooperatively before the
/// executor declares the attempt overrun.
std::uint64_t clamp_wall(std::uint64_t wall_ms, const exec::Context& ctx) {
  const std::uint64_t remaining = ctx.remaining_ms();
  if (remaining == ~0ull) return wall_ms;
  return wall_ms == 0 ? remaining : std::min(wall_ms, remaining);
}

util::Json faults_shard(const JobSpec& job, int shard,
                        const exec::Context& ctx) {
  fault::CampaignOptions copt;
  copt.banks = job.banks;
  copt.seed = job.seed + static_cast<std::uint64_t>(shard);
  copt.transactions = job.transactions;
  copt.mem_addr_bits = kMemAddrBits;
  copt.data_bits = kDataBits;
  copt.plan.structural = job.structural_faults;
  copt.plan.protocol = job.protocol_faults;
  copt.run_mc = job.run_mc;
  copt.mc_budget.wall_ms = clamp_wall(copt.mc_budget.wall_ms, ctx);
  copt.cancel = ctx.cancel_flag();
  return fault::run_campaign(copt).to_json();
}

util::Json closure_shard(const JobSpec& job, int shard,
                         const exec::Context& ctx) {
  tgen::ClosureOptions opt;
  opt.geometry.banks = job.banks;
  opt.geometry.mem_addr_bits = kMemAddrBits;
  opt.geometry.data_bits = kDataBits;
  opt.seed = job.seed + static_cast<std::uint64_t>(shard);
  opt.target = job.target;
  opt.transactions_per_epoch = job.transactions_per_epoch;
  opt.budget.max_epochs = job.max_epochs;
  opt.budget.wall_ms = clamp_wall(opt.budget.wall_ms, ctx);
  opt.cancel = ctx.cancel_flag();
  return tgen::run_closure(opt).to_json();
}

util::Json mc_shard(const JobSpec& job, int shard, const exec::Context& ctx) {
  const core::RtlConfig mc_cfg = core::RtlConfig::model_checking(job.banks);
  const auto props = core::rtl_properties(mc_cfg);
  if (shard < 0 || static_cast<std::size_t>(shard) >= props.size()) {
    throw std::runtime_error("mc-sweep shard out of range");
  }
  core::RtlDevice dev = core::build_device(mc_cfg);
  const rtl::Module flat = dev.flatten();
  const rtl::Module expanded = rtl::expand_memories(flat);
  const rtl::BitBlast bb = rtl::bitblast(expanded, core::clock_schedule(flat));

  mc::SymbolicOptions sopt;
  sopt.budget.wall_ms = clamp_wall(job.mc_wall_ms, ctx);
  sopt.budget.cancel = ctx.cancel_flag();
  const auto& [name, prop] = props[static_cast<std::size_t>(shard)];
  const mc::SymbolicResult r = mc::check(bb, prop, sopt);

  util::Json j = util::Json::object();
  j.set("property", name);
  j.set("verdict", mc::to_string(r.verdict.kind));
  j.set("depth", r.verdict.depth);
  j.set("reason", r.verdict.reason);
  j.set("retries", r.verdict.retries);
  j.set("iterations", r.iterations);
  return j;
}

util::Json lockstep_shard(const JobSpec& job, int shard,
                          const exec::Context& ctx) {
  core::Config bcfg;
  bcfg.banks = job.banks;
  bcfg.data_bits = kDataBits;
  bcfg.addr_bits = kMemAddrBits + bcfg.bank_bits();
  core::RtlConfig rcfg;
  rcfg.banks = job.banks;
  rcfg.data_bits = kDataBits;
  rcfg.mem_addr_bits = kMemAddrBits;

  harness::BehavioralDeviceModel beh(bcfg);
  harness::RtlDeviceModel rtl(rcfg);
  harness::StimulusOptions so;
  so.banks = job.banks;
  so.mem_addr_bits = kMemAddrBits;
  so.data_bits = kDataBits;
  harness::StimulusStream stream(so,
                                 job.seed + static_cast<std::uint64_t>(shard));
  harness::LockstepOptions lo;
  lo.transactions = static_cast<std::uint64_t>(job.transactions);
  const harness::LockstepReport r =
      harness::run_lockstep({&beh, &rtl}, stream, lo);
  (void)ctx;

  util::Json j = util::Json::object();
  j.set("ok", r.ok);
  j.set("seed", r.seed);
  j.set("ticks", r.ticks_run);
  j.set("transactions", r.transactions);
  j.set("reads", r.reads_issued);
  j.set("writes", r.writes_issued);
  j.set("comparisons", r.comparisons);
  if (!r.mismatch.empty()) j.set("mismatch", r.mismatch);
  return j;
}

}  // namespace

int job_shard_count(const JobSpec& job) {
  if (job.kind == JobKind::kMcSweep) {
    return static_cast<int>(
        core::rtl_properties(core::RtlConfig::model_checking(job.banks))
            .size());
  }
  return job.shards;
}

util::Json run_job_shard(const JobSpec& job, int shard,
                         const exec::Context& ctx) {
  if (contains(job.inject_crash, shard)) {
    throw std::runtime_error("injected crash (job '" + job.name + "' shard " +
                             std::to_string(shard) + ")");
  }
  if (contains(job.inject_hang, shard)) {
    // Hung-shard stand-in: spins until the deadline or cancellation fires
    // through poll(). Never returns on its own, like the real thing.
    for (;;) {
      ctx.poll();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  switch (job.kind) {
    case JobKind::kFaults: return faults_shard(job, shard, ctx);
    case JobKind::kCovClosure: return closure_shard(job, shard, ctx);
    case JobKind::kMcSweep: return mc_shard(job, shard, ctx);
    case JobKind::kLockstepSoak: return lockstep_shard(job, shard, ctx);
  }
  throw std::runtime_error("unhandled job kind");
}

BatchResult run_batch(const BatchSpec& spec, const RunnerOptions& options) {
  BatchResult out;
  out.name = spec.name;

  struct GlobalShard {
    std::size_t job;
    int local;
  };
  std::vector<GlobalShard> all;
  std::vector<int> counts;
  for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
    const int n = job_shard_count(spec.jobs[j]);
    counts.push_back(n);
    for (int local = 0; local < n; ++local) all.push_back({j, local});
  }

  std::unique_ptr<exec::Journal> journal;
  if (!options.journal_path.empty()) {
    journal =
        std::make_unique<exec::Journal>(options.journal_path, options.resume);
  }
  const auto key_of = [&](const GlobalShard& gs) {
    return spec.jobs[gs.job].name + "/" + std::to_string(gs.local);
  };

  // Satisfy shards from the journal first; only the remainder is scheduled.
  std::vector<exec::ShardResult> results(all.size());
  std::vector<bool> from_journal(all.size(), false);
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const exec::JournalEntry* entry =
        journal != nullptr && options.resume ? journal->find(key_of(all[i]))
                                             : nullptr;
    if (entry == nullptr) {
      pending.push_back(i);
      continue;
    }
    exec::ShardResult r;
    r.shard = all[i].local;
    r.status = exec::shard_status_from_string(entry->status);
    if (r.status == exec::ShardStatus::kOk) {
      r.value = entry->value;
    } else if (const util::Json* err = entry->value.find("error")) {
      r.error = err->as_string();
    }
    results[i] = std::move(r);
    from_journal[i] = true;
  }

  const auto body = [&](const exec::Context& ctx) -> util::Json {
    const GlobalShard& gs = all[pending[static_cast<std::size_t>(ctx.shard())]];
    const JobSpec& job = spec.jobs[gs.job];
    try {
      util::Json value = run_job_shard(job, gs.local, ctx);
      ctx.poll();  // work finished after cancellation is not "ok"
      if (journal != nullptr) journal->append(key_of(gs), "ok", value);
      return value;
    } catch (const exec::ShardInterrupted&) {
      throw;  // retries/timeouts are resolved (and journaled) by the caller
    } catch (const std::exception& e) {
      if (journal != nullptr) {
        util::Json v = util::Json::object();
        v.set("error", std::string(e.what()));
        v.set("replay_seed", job.seed + static_cast<std::uint64_t>(gs.local));
        journal->append(key_of(gs), "crashed", v);
      }
      throw;
    }
  };
  const std::vector<exec::ShardResult> fresh = exec::run_shards(
      static_cast<int>(pending.size()), body, options, &out.stats);

  for (std::size_t k = 0; k < fresh.size(); ++k) {
    const std::size_t gi = pending[k];
    exec::ShardResult res = fresh[k];
    res.shard = all[gi].local;
    // Final timeouts are journaled here (the executor owns the verdict);
    // a resumed run then skips the shard instead of re-timing-out.
    if (journal != nullptr && res.status == exec::ShardStatus::kTimeout) {
      util::Json v = util::Json::object();
      v.set("error", res.error);
      journal->append(key_of(all[gi]), "timeout", v);
    }
    results[gi] = std::move(res);
  }

  // Merge per job, in canonical (job, shard) order.
  std::size_t idx = 0;
  std::string hash_feed;
  for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
    const JobSpec& job = spec.jobs[j];
    JobResult jr;
    jr.name = job.name;
    jr.kind = job.kind;
    jr.shards = counts[j];
    util::Json arr = util::Json::array();
    for (int local = 0; local < counts[j]; ++local, ++idx) {
      const exec::ShardResult& r = results[idx];
      if (from_journal[idx]) ++jr.replayed;
      switch (r.status) {
        case exec::ShardStatus::kOk: ++jr.ok; break;
        case exec::ShardStatus::kTimeout: ++jr.timed_out; break;
        case exec::ShardStatus::kCrashed: ++jr.crashed; break;
        case exec::ShardStatus::kCancelled: ++jr.cancelled; break;
      }
      util::Json row = util::Json::object();
      row.set("shard", local);
      row.set("status", exec::to_string(r.status));
      if (!r.error.empty()) row.set("error", r.error);
      if (r.status == exec::ShardStatus::kCrashed) {
        row.set("replay_seed",
                job.seed + static_cast<std::uint64_t>(local));
      }
      if (r.status == exec::ShardStatus::kOk) row.set("value", r.value);
      arr.push(std::move(row));
    }
    jr.merged = std::move(arr);
    jr.hash = util::fnv1a64(jr.merged.dump());
    jr.verdict = jr.cancelled > 0
                     ? "cancelled"
                     : (jr.ok == jr.shards ? "pass" : "degraded");
    hash_feed += hex64(jr.hash);
    hash_feed += '\n';
    out.jobs.push_back(std::move(jr));
  }
  out.hash = util::fnv1a64(hash_feed);
  out.all_pass = true;
  for (const JobResult& jr : out.jobs) {
    if (jr.verdict != "pass") out.all_pass = false;
    if (jr.cancelled > 0) out.interrupted = true;
  }
  if (options.cancel != nullptr && options.cancel->cancelled()) {
    out.interrupted = true;
  }
  return out;
}

util::Json BatchResult::to_json(bool include_telemetry) const {
  util::Json doc = util::Json::object();
  doc.set("batch", name);
  util::Json arr = util::Json::array();
  for (const JobResult& jr : jobs) {
    util::Json row = util::Json::object();
    row.set("job", jr.name);
    row.set("kind", to_string(jr.kind));
    row.set("shards", jr.shards);
    row.set("ok", jr.ok);
    row.set("timed_out", jr.timed_out);
    row.set("crashed", jr.crashed);
    row.set("cancelled", jr.cancelled);
    row.set("replayed", jr.replayed);
    row.set("verdict", jr.verdict);
    row.set("hash", hex64(jr.hash));
    row.set("shard_results", jr.merged);
    arr.push(std::move(row));
  }
  doc.set("jobs", std::move(arr));
  doc.set("all_pass", all_pass);
  doc.set("interrupted", interrupted);
  doc.set("hash", hex64(hash));
  if (include_telemetry) doc.set("pool", stats.to_json());
  return doc;
}

}  // namespace la1::batch
