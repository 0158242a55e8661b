// Workload `campaign`: the mutation campaign at 2 banks through
// fault::run_campaign_parallel — compiled backend, MC column on, 20
// structural + 4 protocol faults, 2 executor workers. One batch runs the
// whole campaign twice, first on 1 worker (the executor's inline reference
// schedule) and then on 2; the two report hashes must match. Host time is
// wall time (the only multi-threaded workload). The 1-worker half keeps
// batch_s steady: on the shared 4-core host the best 2-worker wall of a run
// varies by ~13% between runs (two vCPUs must be quiet at once) against ~3%
// for 1 worker. batch_s is the best 1-worker wall plus the best 2-worker
// wall of the run, each half taking its own quietest moment.
//
// 300 transactions per mutant (CampaignOptions' default) keep one campaign
// near 0.3 s on 1 worker, so a run holds dozens of them; at 2000 the lockstep
// simulation was 90% of the campaign and one run held only ~10, too few for
// its best to land in a quiet stretch of the shared host. At 300 the
// per-mutant compile, the simulation and the MC column take similar shares;
// the score stays at or above 0.9 with no MC cell timed out.
//
// The campaign's own seed — which picks the fault plan, the traffic and the
// bit-flip activation windows — is fixed at 1, bench_fault_campaign's
// default. Across seeds the plan changes the MC column's cost by up to 70%
// (bit flips snapped to late windows need deep reachability), which would
// drown any regression in seed-to-seed spread. The benchmark's --seed
// drives the executor's steal-victim order instead; the report hash must
// not depend on it.
//
// run_campaign_parallel is one opaque call, so the per-layer split comes
// from a replay of every planned fault through the same public calls the
// campaign makes (fault::plan_faults, fault::apply_structural,
// harness::make_rtl_device, apply_edge on mutant and reference,
// psl::VUnitRunner::step, rtl::bitblast, mc::check), single-threaded. The
// replay uses plan_faults' raw activation cycles; the campaign additionally
// snaps bit-flip cycles to live pipeline windows (a private step), so the
// replay's simulated traffic matches the campaign's but a few bit-flip
// activation cycles do not.
#include <algorithm>
#include <memory>

#include "csim/compile.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "harness/adapters.hpp"
#include "harness/lockstep.hpp"
#include "harness/stimulus.hpp"
#include "la1/rtl_model.hpp"
#include "mc/symbolic.hpp"
#include "ovl/ovl.hpp"
#include "perf.hpp"
#include "plan/plan.hpp"
#include "psl/monitor.hpp"
#include "psl/parse.hpp"
#include "rtl/bitblast.hpp"
#include "util/strings.hpp"

namespace la1perf {
namespace {

using namespace la1;

constexpr int kBanks = 2;
constexpr int kTransactions = 300;
constexpr int kStructural = 20;
constexpr int kProtocol = 4;
constexpr int kWorkers = 2;
constexpr std::uint64_t kCampaignSeed = 1;
constexpr double kMinScore = 0.9;

fault::CampaignOptions campaign_options(harness::RtlBackend backend) {
  fault::CampaignOptions o;
  o.banks = kBanks;
  o.seed = kCampaignSeed;
  o.transactions = kTransactions;
  o.plan.structural = kStructural;
  o.plan.protocol = kProtocol;
  o.run_mc = true;
  o.backend = backend;
  return o;
}

core::RtlConfig sim_config(const fault::CampaignOptions& o) {
  core::RtlConfig cfg;
  cfg.banks = o.banks;
  cfg.data_bits = o.data_bits;
  cfg.mem_addr_bits = o.mem_addr_bits;
  return cfg;
}

/// The campaign's OVL monitor set (fault/campaign.cpp attach_ovl).
void attach_ovl(rtl::Module& flat, ovl::OvlBank& bank, int banks) {
  const rtl::NetId k = flat.find_net("K");
  const rtl::NetId ks = flat.find_net("KS");
  std::vector<rtl::ExprId> enables;
  for (int b = 0; b < banks; ++b) {
    const std::string p = "bank" + std::to_string(b) + ".";
    const std::string sb = std::to_string(b);
    ovl::assert_next(flat, bank, "read_latency_b" + sb, ks,
                     flat.ref(p + "read_start_q"),
                     flat.ref(p + "dout_valid_k_q"), 2);
    ovl::assert_implication(flat, bank, "read_burst_b" + sb, ks,
                            flat.ref(p + "dout_valid_k_q"),
                            flat.ref(p + "beat1_pend"));
    ovl::assert_implication(flat, bank, "write_ready_b" + sb, k,
                            flat.ref(p + "addr_captured_q"),
                            flat.ref(p + "w_ready"));
    enables.push_back(flat.ref(p + "en_q"));
  }
  ovl::assert_zero_one_hot(flat, bank, "exclusive_drive", banks > 1 ? ks : k,
                           banks > 1 ? flat.concat(enables) : enables.front());
}

/// The campaign's PSL suite over harness tap names (fault/campaign.cpp).
psl::VUnit campaign_vunit(int banks, int latency_ticks) {
  psl::VUnit vunit("fault_campaign");
  const std::string lt = std::to_string(latency_ticks);
  for (int b = 0; b < banks; ++b) {
    const std::string p = "b" + std::to_string(b) + ".";
    const std::string sb = std::to_string(b);
    vunit.add_assert("P1_read_latency_b" + sb,
                     psl::parse_property("always (" + p + "read_start -> next[" +
                                         lt + "] " + p + "dout_valid_k)"));
    vunit.add_assert("P2_read_burst_b" + sb,
                     psl::parse_property("always (" + p +
                                         "dout_valid_k -> next[1] " + p +
                                         "dout_valid_ks)"));
  }
  vunit.add_assert(
      "P3_write_addr_edge",
      psl::parse_property("always (write_start -> next[1] addr_captured)"));
  vunit.add_assert(
      "P3b_write_commit",
      psl::parse_property("always (addr_captured -> next[1] write_commit)"));
  vunit.add_assert("P4_exclusive_drive",
                   psl::parse_property("never {bus_conflict}"));
  return vunit;
}

class TapEnv : public psl::Env {
 public:
  explicit TapEnv(const harness::DeviceModel& model) : model_(&model) {}
  bool sample(const std::string& signal) const override {
    return model_->tap(signal);
  }

 private:
  const harness::DeviceModel* model_;
};

struct Names {
  int setup, elaborate, plan_faults, instrument, compile;
  int replay, mutant, device_build, apply, stimulus, transactor, lockstep,
      monitor, bitblast, small_check;

  template <typename T>
  explicit Names(T& t)
      : setup(t.id("campaign.setup")),
        elaborate(t.id("la1.elaborate")),
        plan_faults(t.id("fault.plan_faults")),
        instrument(t.id("ovl.instrument")),
        compile(t.id("csim.compile")),
        replay(t.id("campaign.replay")),
        mutant(t.id("fault.mutant")),
        device_build(t.id("harness.device_build")),
        apply(t.id("fault.apply_structural")),
        stimulus(t.id("harness.stimulus")),
        transactor(t.id("harness.transactor")),
        lockstep(t.id("harness.lockstep")),
        monitor(t.id("psl.monitor")),
        bitblast(t.id("rtl.bitblast")),
        small_check(t.id("mc.small_check")) {}
};

/// The benchmark's set-up before the first timed campaign: the fault plan
/// (elaborate + flatten + plan_faults) and one compile of the stock
/// OVL-instrumented device, the unit of work every compiled shard repeats.
struct Setup {
  fault::CampaignOptions options;
  std::uint64_t steal_seed = 1;  // the benchmark seed
  std::vector<fault::FaultSpec> plan;
  /// Size of the compiled stock device, for the report.
  std::int64_t instructions = 0;
  int slots = 0;
};

template <typename T>
Setup build(std::uint64_t seed, T& tr, const Names& n) {
  Setup s;
  s.options = campaign_options(harness::RtlBackend::kCompiled);
  s.steal_seed = seed;
  Span<T> root(tr, n.setup);
  rtl::Module flat("flat");
  {
    Span<T> sp(tr, n.elaborate);
    flat = core::build_device(sim_config(s.options)).flatten();
  }
  {
    Span<T> sp(tr, n.plan_faults);
    s.plan = fault::plan_faults(flat, s.options.plan, s.options.seed);
  }
  ovl::OvlBank bank;
  {
    Span<T> sp(tr, n.instrument);
    attach_ovl(flat, bank, kBanks);
  }
  Span<T> sp(tr, n.compile);
  plan::PlanOptions po;
  po.schedule = core::clock_schedule(flat);
  const csim::Compiled compiled = csim::compile(flat, plan::analyze(flat, po));
  s.instructions = compiled.total_instructions();
  s.slots = compiled.slot_count();
  return s;
}

/// One timed campaign and what its report says.
struct BatchResult {
  double wall_s = 0;
  exec::PoolStats stats;
  std::uint64_t hash = 0;
  bool clean_ok = false;
  double score = 0;
  int rows = 0;
  int mc_cells = 0;
  int mc_timeouts = 0;
  std::string missed;    // ids of faults no checker caught
  std::string timeouts;  // ids of faults whose MC cell timed out
};

BatchResult run_campaign_once(const fault::CampaignOptions& options,
                              int workers, std::uint64_t steal_seed) {
  BatchResult r;
  fault::ParallelOptions par;
  par.workers = workers;
  par.steal_seed = steal_seed;
  const double t0 = wall_s();
  const fault::CampaignReport report =
      fault::run_campaign_parallel(options, par, &r.stats);
  r.wall_s = wall_s() - t0;
  r.hash = util::fnv1a64(report.to_json().dump());
  r.clean_ok = report.clean_ok;
  r.score = report.mutation_score();
  r.rows = static_cast<int>(report.rows.size());
  for (const fault::CampaignRow& row : report.rows) {
    if (!row.caught()) r.missed += " " + row.fault.id();
    const fault::CampaignCell* cell = row.cell("mc");
    if (cell == nullptr || cell->outcome == fault::CellOutcome::kNotApplicable) {
      continue;
    }
    ++r.mc_cells;
    if (cell->outcome == fault::CellOutcome::kTimeout) {
      ++r.mc_timeouts;
      r.timeouts += " " + row.fault.id() + " (" + cell->detail + ")";
    }
  }
  return r;
}

/// Counts one campaign's operations and checks its report.
void check_campaign(const BatchResult& r, const std::string& at, Outcome& out) {
  const int not_ok = r.stats.shards - r.stats.ok;
  out.attempted += r.stats.shards + r.mc_cells;
  out.failed += not_ok + r.mc_timeouts;
  out.check(not_ok == 0, std::to_string(not_ok) + " shards not ok" + at);
  out.check(r.mc_timeouts == 0, std::to_string(r.mc_timeouts) +
                                    " MC cells timed out:" + r.timeouts + at);
  out.check(r.clean_ok, "control run raised false alarms" + at);
  out.check(r.score >= kMinScore, "mutation score " + std::to_string(r.score) +
                                      " below " + std::to_string(kMinScore) +
                                      "; missed:" + r.missed + at);
  out.check(r.rows == kStructural + kProtocol, "campaign row count" + at);
}

struct Series {
  std::vector<double> setup_s, batch_s, wall1_s, wall_s, cpu_s, utilization,
      idle_s, steals, busy_max_s, busy_min_s;
  std::vector<std::uint64_t> hashes;
  int shards = 0;
};

/// `seconds` of untraced repetitions (set-up rebuilt into `s`, then the
/// campaign on 1 and on 2 workers), checking each campaign.
Series untraced_batches(Setup& s, std::uint64_t seed, double seconds,
                        int min_reps, Outcome& out) {
  NoTrace off;
  const Names n(off);
  Series series;
  const auto rebuild = [&] { s = build(seed, off, n); };
  series.setup_s = interleave(seconds, min_reps, rebuild, [&](int rep) {
    const std::string at = " (repetition " + std::to_string(rep) + ")";
    const BatchResult r1 = run_campaign_once(s.options, 1, s.steal_seed);
    const BatchResult r = run_campaign_once(s.options, kWorkers, s.steal_seed);
    check_campaign(r1, at, out);
    check_campaign(r, at, out);
    out.check(r1.hash == r.hash,
              "report hash differs between 1 and 2 workers" + at);
    series.batch_s.push_back(r1.wall_s + r.wall_s);
    series.wall1_s.push_back(r1.wall_s);
    series.wall_s.push_back(r.wall_s);
    series.cpu_s.push_back(r.stats.total_cpu_seconds());
    series.utilization.push_back(r.stats.utilization());
    double busy = 0, busy_max = 0, busy_min = 1e300, steals = 0;
    for (const exec::WorkerStats& w : r.stats.per_worker) {
      busy += w.busy_seconds;
      busy_max = std::max(busy_max, w.busy_seconds);
      busy_min = std::min(busy_min, w.busy_seconds);
      steals += w.steals;
    }
    series.idle_s.push_back(r.stats.workers * r.stats.wall_seconds - busy);
    series.steals.push_back(steals);
    series.busy_max_s.push_back(busy_max);
    series.busy_min_s.push_back(busy_min);
    series.hashes.push_back(r.hash);
    series.shards = r.stats.shards;
    return r1.wall_s + r.wall_s;
  });
  for (std::uint64_t h : series.hashes) {
    out.check(h == series.hashes.front(),
              "campaign report hash differs between repetitions");
  }
  return series;
}

/// The report hash of the same campaign on the interpreted backend, run
/// once after timing.
void check_against_interpreter(const Setup& s, const Series& series,
                               Outcome& out) {
  fault::CampaignOptions o = s.options;
  o.backend = harness::RtlBackend::kInterpreted;
  const BatchResult r = run_campaign_once(o, kWorkers, s.steal_seed);
  out.check(r.hash == series.hashes.front(),
            "compiled campaign report hash " + hex(series.hashes.front()) +
                " differs from the interpreted backend's " + hex(r.hash));
  out.detail.set("interpreted_report_hash", hex(r.hash));
}

void describe(const Series& series, Outcome& out) {
  out.detail.set("batch_s", summarize(series.batch_s, "s"));
  out.detail.set("campaign_wall_s", summarize(series.wall_s, "s"));
  out.detail.set("campaign_1worker_wall_s", summarize(series.wall1_s, "s"));
  out.detail.set("speedup_2_workers", best(series.wall1_s) / best(series.wall_s));
  out.detail.set("campaign_worker_cpu_s", summarize(series.cpu_s, "s"));
  out.detail.set("setup_s", summarize(series.setup_s, "s"));
  out.detail.set("exec.utilization", summarize(series.utilization, "frac"));
  out.detail.set("exec.idle_s", summarize(series.idle_s, "s"));
  out.detail.set("report_hash", hex(series.hashes.front()));
  out.detail.set("workers", kWorkers);
  out.detail.set("transactions", kTransactions);
}

/// Per-layer observations of one replay.
struct ReplayResult {
  int mutants = 0;
  std::int64_t edges = 0;
  int small_checks = 0;
  std::uint64_t peak_nodes = 0;
  int diverged = 0;  // mutants whose taps, dout or memory left the reference
};

/// Replays every planned fault through the campaign's public calls.
template <typename T>
ReplayResult replay(const Setup& s, T& tr, const Names& n) {
  ReplayResult rr;
  const fault::CampaignOptions& o = s.options;
  const core::RtlConfig cfg = sim_config(o);
  const psl::VUnit vunit = campaign_vunit(o.banks, cfg.latency_ticks());
  Span<T> root(tr, n.replay);
  for (const fault::FaultSpec& spec : s.plan) {
    Span<T> fault_span(tr, n.mutant);
    const bool structural = fault::is_structural(spec.kind);
    ovl::OvlBank bank;
    harness::RtlDevice dev;
    {
      Span<T> sp(tr, n.device_build);
      dev = harness::make_rtl_device(cfg, o.backend, [&](rtl::Module& m) {
        if (structural) {
          Span<T> apply(tr, n.apply);
          fault::apply_structural(m, spec);
        }
        attach_ovl(m, bank, o.banks);
      });
    }
    std::unique_ptr<harness::DeviceModel> mutant;
    if (structural) {
      mutant = std::move(dev.model);
    } else {
      mutant = std::make_unique<fault::ProtocolFaultModel>(std::move(dev.model),
                                                           spec);
    }
    harness::RtlDevice ref;
    {
      Span<T> sp(tr, n.device_build);
      ref = harness::make_rtl_device(cfg, o.backend);
    }
    ++rr.mutants;

    psl::VUnitRunner runner(vunit);
    const TapEnv env(*mutant);
    const std::vector<std::string> taps =
        harness::tap_intersection({ref.model.get(), mutant.get()});
    harness::StimulusOptions so;
    so.banks = o.banks;
    so.mem_addr_bits = o.mem_addr_bits;
    so.data_bits = o.data_bits;
    harness::StimulusStream stream(so, o.seed);
    harness::Transactor tx(so.geometry());
    bool diverged = false;
    int issued = 0;
    const int ticks = 2 * o.transactions + o.drain_ticks;
    for (int tick = 0; tick < ticks; ++tick) {
      const harness::Edge edge = harness::edge_of_tick(tick);
      if (edge == harness::Edge::kK && issued < o.transactions) {
        Span<T> sp(tr, n.stimulus);
        tx.enqueue(stream.next());
        ++issued;
      }
      harness::EdgePins pins;
      {
        Span<T> sp(tr, n.transactor);
        pins = tx.next(edge);
      }
      {
        Span<T> sp(tr, n.lockstep);
        ref.model->apply_edge(pins);
        mutant->apply_edge(pins);
        for (const std::string& name : taps) {
          diverged = diverged || ref.model->tap(name) != mutant->tap(name);
        }
        diverged = diverged || !(ref.model->dout() == mutant->dout());
      }
      Span<T> sp(tr, n.monitor);
      runner.step(env);
    }
    rr.edges += ticks;
    if (diverged) ++rr.diverged;

    if (!structural || !o.run_mc) continue;
    const core::RtlConfig mc_cfg = core::RtlConfig::model_checking(o.banks);
    rtl::Module flat("flat");
    {
      Span<T> sp(tr, n.elaborate);
      flat = core::build_device(mc_cfg).flatten();
    }
    {
      Span<T> sp(tr, n.apply);
      fault::apply_structural(flat, spec);
    }
    rtl::BitBlast bb;
    {
      Span<T> sp(tr, n.bitblast);
      bb = rtl::bitblast(rtl::expand_memories(flat), core::clock_schedule(flat));
    }
    mc::SymbolicOptions sopt;
    sopt.budget = o.mc_budget;
    for (const auto& [name, prop] : core::rtl_properties(mc_cfg)) {
      Span<T> sp(tr, n.small_check);
      const mc::SymbolicResult r = mc::check(bb, prop, sopt);
      rr.peak_nodes = std::max(rr.peak_nodes, r.peak_bdd_nodes);
      ++rr.small_checks;
    }
  }
  return rr;
}

}  // namespace

Outcome run_campaign(const RunOptions& opt) {
  Outcome out;
  Setup s;
  const Series series = untraced_batches(s, opt.seed, opt.seconds, 3, out);
  check_against_interpreter(s, series, out);
  out.detail.set("stock_instructions", s.instructions);
  out.detail.set("stock_slots", s.slots);
  out.metrics["setup_s"] = setup_estimate(series.setup_s);
  out.metrics["batch_s"] = best(series.wall1_s) + best(series.wall_s);
  describe(series, out);
  return out;
}

Outcome trace_campaign(const RunOptions& opt, Tracer& tracer) {
  Outcome out;
  NoTrace off;
  const Names n_off(off);
  Setup s;
  const Series base = untraced_batches(s, opt.seed, opt.seconds, 2, out);
  describe(base, out);

  // Overhead baseline: the same replay untraced.
  double t0 = thread_cpu_s();
  const ReplayResult plain = replay(s, off, n_off);
  const double plain_s = thread_cpu_s() - t0;

  const Names n(tracer);
  tracer.begin_group("campaign/setup");
  build(opt.seed, tracer, n);
  tracer.begin_group("campaign/rep0");
  t0 = thread_cpu_s();
  const ReplayResult rr = replay(s, tracer, n);
  const double traced_s = thread_cpu_s() - t0;
  out.check(rr.peak_nodes == plain.peak_nodes,
            "replay peak BDD nodes differ between traced and untraced runs");

  const auto self = [&](const char* name) {
    return tracer.self_total_ns(name, "campaign/rep");
  };
  auto& m = out.metrics;
  m["exec.utilization"] = median(base.utilization);
  m["exec.idle_s"] = median(base.idle_s);
  m["exec.steals"] = median(base.steals);
  m["exec.busy_max_s"] = median(base.busy_max_s);
  m["exec.busy_min_s"] = median(base.busy_min_s);
  m["fault.shards"] = base.shards;
  m["harness.device_build_ms"] = self("harness.device_build") / rr.mutants / 1e6;
  m["harness.lockstep_us"] =
      self("harness.lockstep") / static_cast<double>(rr.edges) / 1e3;
  m["mc.small_check_ms"] = self("mc.small_check") / rr.small_checks / 1e6;
  m["bdd.small_peak_nodes"] = static_cast<double>(rr.peak_nodes);
  m["campaign_wall_s"] = best(base.wall_s);
  m["trace.overhead_campaign_pct"] = 100.0 * (traced_s / plain_s - 1.0);
  out.detail.set("replay_untraced_s", plain_s);
  out.detail.set("replay_traced_s", traced_s);
  out.detail.set("replay_diverged_mutants", rr.diverged);
  out.detail.set("replay_note",
                 "replay keeps plan_faults' raw bit-flip cycles; the campaign's "
                 "private window snapping and the executor's per-shard phases "
                 "are not reachable through public calls");
  return out;
}

}  // namespace la1perf
