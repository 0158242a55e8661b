#include "fault/campaign.hpp"

#include <memory>
#include <sstream>
#include <stdexcept>

#include "harness/adapters.hpp"
#include "harness/lockstep.hpp"
#include "harness/stimulus.hpp"
#include "la1/rtl_model.hpp"
#include "mc/symbolic.hpp"
#include "ovl/ovl.hpp"
#include "psl/monitor.hpp"
#include "psl/parse.hpp"
#include "rtl/bitblast.hpp"
#include "util/table.hpp"

namespace la1::fault {

const char* to_string(CellOutcome outcome) {
  switch (outcome) {
    case CellOutcome::kCaught: return "caught";
    case CellOutcome::kMissed: return "missed";
    case CellOutcome::kTimeout: return "timeout";
    case CellOutcome::kNotApplicable: return "n/a";
  }
  return "missed";
}

CellOutcome cell_outcome_from_string(const std::string& name) {
  if (name == "caught") return CellOutcome::kCaught;
  if (name == "missed") return CellOutcome::kMissed;
  if (name == "timeout") return CellOutcome::kTimeout;
  if (name == "n/a") return CellOutcome::kNotApplicable;
  throw std::invalid_argument("unknown cell outcome: " + name);
}

bool CampaignRow::caught() const {
  for (const CampaignCell& c : cells) {
    if (c.outcome == CellOutcome::kCaught) return true;
  }
  return false;
}

const CampaignCell* CampaignRow::cell(const std::string& checker) const {
  for (const CampaignCell& c : cells) {
    if (c.checker == checker) return &c;
  }
  return nullptr;
}

int CampaignReport::caught_count() const {
  int n = 0;
  for (const CampaignRow& r : rows) {
    if (r.caught()) ++n;
  }
  return n;
}

double CampaignReport::mutation_score() const {
  if (rows.empty()) return 1.0;
  return static_cast<double>(caught_count()) /
         static_cast<double>(rows.size());
}

namespace {

/// The campaign's PSL suite: the protocol properties expressible over the
/// canonical harness tap names (shared by every DeviceModel level, so the
/// same vunit monitors any mutant).
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

/// Env adapter: PSL atoms are harness tap names of the observed model.
class TapEnv : public psl::Env {
 public:
  explicit TapEnv(const harness::DeviceModel& model) : model_(&model) {}
  bool sample(const std::string& signal) const override {
    return model_->tap(signal);
  }

 private:
  const harness::DeviceModel* model_;
};

/// Simulation-side verdicts of one mutant run.
struct SimVerdicts {
  std::size_t psl_failures = 0;
  std::string psl_detail;
  std::size_t ovl_failures = 0;
  bool lockstep_diverged = false;
  std::string lockstep_detail;
};

/// Drives `model` and a pristine reference in lockstep over the campaign's
/// seeded traffic, stepping the PSL monitors on the mutant's taps every
/// edge. Unlike harness::run_lockstep this never stops at the first
/// divergence — every checker observes the full run.
SimVerdicts run_sim(const CampaignOptions& options,
                    harness::DeviceModel& model,
                    harness::DeviceModel& reference, psl::VUnitRunner& runner,
                    const core::RtlConfig& rtl_cfg) {
  SimVerdicts v;
  model.reset();
  reference.reset();
  runner.reset();

  harness::StimulusOptions sopt;
  sopt.banks = options.banks;
  sopt.mem_addr_bits = options.mem_addr_bits;
  sopt.data_bits = options.data_bits;
  harness::StimulusStream stream(sopt, options.seed);
  harness::Transactor transactor(sopt.geometry());

  const std::vector<std::string> taps =
      harness::tap_intersection({&reference, &model});
  const TapEnv env(model);

  int issued = 0;
  const std::uint64_t total_ticks =
      2ull * static_cast<std::uint64_t>(options.transactions) +
      static_cast<std::uint64_t>(options.drain_ticks);
  for (std::uint64_t tick = 0; tick < total_ticks; ++tick) {
    const harness::Edge edge = harness::edge_of_tick(static_cast<int>(tick % 2));
    if (edge == harness::Edge::kK && issued < options.transactions) {
      transactor.enqueue(stream.next());
      ++issued;
    }
    const harness::EdgePins pins = transactor.next(edge);
    reference.apply_edge(pins);
    model.apply_edge(pins);
    runner.step(env);

    if (!v.lockstep_diverged) {
      for (const std::string& name : taps) {
        const bool expect = reference.tap(name);
        const bool got = model.tap(name);
        if (got != expect) {
          v.lockstep_diverged = true;
          std::ostringstream os;
          os << "tick " << tick << " (" << harness::edge_name(edge)
             << "): tap '" << name << "' ref=" << expect << " mutant=" << got;
          v.lockstep_detail = os.str();
          break;
        }
      }
    }
    if (!v.lockstep_diverged && reference.models_dout() && model.models_dout()) {
      const harness::DoutSample a = reference.dout();
      const harness::DoutSample b = model.dout();
      if (!(a == b)) {
        v.lockstep_diverged = true;
        std::ostringstream os;
        os << "tick " << tick << " (" << harness::edge_name(edge)
           << "): dout diverges";
        v.lockstep_detail = os.str();
      }
    }
  }

  if (!v.lockstep_diverged) {
    const harness::Geometry g = model.geometry();
    for (int bank = 0; bank < g.banks && !v.lockstep_diverged; ++bank) {
      for (std::uint64_t addr = 0; addr < g.mem_depth(); ++addr) {
        if (model.memory_word(bank, addr) !=
            reference.memory_word(bank, addr)) {
          v.lockstep_diverged = true;
          std::ostringstream os;
          os << "end of run: memory b" << bank << "[" << addr << "] diverges";
          v.lockstep_detail = os.str();
          break;
        }
      }
    }
  }

  v.psl_failures = runner.failures();
  if (v.psl_failures > 0) {
    const auto& dirs = runner.vunit().directives();
    for (std::size_t i = 0; i < dirs.size(); ++i) {
      if (dirs[i].kind == psl::DirectiveKind::kAssert &&
          runner.verdict(i) == psl::Verdict::kFailed) {
        v.psl_detail = dirs[i].name + " failed";
        break;
      }
    }
  }
  (void)rtl_cfg;
  return v;
}

/// The symbolic-MC column: re-applies the structural fault to the reduced
/// model-checking geometry and checks the RTL property suite under the
/// campaign budget. Any Falsified property catches the fault; an
/// inconclusive (BoundedPass/Unknown) run with no Falsified property is a
/// timeout, not a miss.
CampaignCell mc_cell(const CampaignOptions& options, const FaultSpec& spec) {
  CampaignCell cell;
  cell.checker = "mc";
  if (!is_structural(spec.kind)) {
    cell.outcome = CellOutcome::kNotApplicable;
    cell.detail = "protocol fault: not expressible as a netlist mutant";
    return cell;
  }
  const core::RtlConfig mc_cfg = core::RtlConfig::model_checking(options.banks);
  core::RtlDevice dev = core::build_device(mc_cfg);
  rtl::Module flat = dev.flatten();
  apply_structural(flat, spec);
  const rtl::Module expanded = rtl::expand_memories(flat);
  const rtl::BitBlast bb =
      rtl::bitblast(expanded, core::clock_schedule(flat));

  mc::SymbolicOptions sopt;
  sopt.budget = options.mc_budget;
  bool inconclusive = false;
  std::string inconclusive_reason;
  for (const auto& [name, prop] : core::rtl_properties(mc_cfg)) {
    const mc::SymbolicResult r = mc::check(bb, prop, sopt);
    if (r.verdict.kind == mc::Verdict::Kind::kFalsified) {
      cell.outcome = CellOutcome::kCaught;
      cell.detail = name + " falsified at depth " +
                    std::to_string(r.verdict.depth);
      if (r.verdict.retries > 0) cell.detail += " (after retry)";
      return cell;
    }
    if (!r.verdict.decisive()) {
      inconclusive = true;
      inconclusive_reason = name + ": " + r.verdict.reason;
    }
  }
  if (inconclusive) {
    cell.outcome = CellOutcome::kTimeout;
    cell.detail = inconclusive_reason;
  } else {
    cell.outcome = CellOutcome::kMissed;
    cell.detail = "all properties proven on the mutant";
  }
  return cell;
}

/// Activation-aware SEU scheduling. A transient bit flip is only
/// observable if it lands while the affected pipeline is live; a flip in
/// an idle read-data register is recomputed away one cycle later. The
/// stimulus is a pure function of (options, seed), so replay it once and
/// snap every bank-local bit-flip cycle to the first window at or after
/// the planned cycle where the target bank has back-to-back reads (and,
/// preferably, a concurrent write for the write-path registers).
void schedule_bitflips(std::vector<FaultSpec>& plan,
                       const CampaignOptions& options) {
  harness::StimulusOptions sopt;
  sopt.banks = options.banks;
  sopt.mem_addr_bits = options.mem_addr_bits;
  sopt.data_bits = options.data_bits;
  harness::StimulusStream stream(sopt, options.seed);

  std::vector<std::vector<bool>> read_at(options.banks);
  std::vector<std::vector<bool>> write_at(options.banks);
  for (int t = 0; t < options.transactions; ++t) {
    const harness::Stimulus s = stream.next();
    const auto r_bank = static_cast<int>(s.read_addr >> options.mem_addr_bits);
    const auto w_bank = static_cast<int>(s.write_addr >> options.mem_addr_bits);
    for (int b = 0; b < options.banks; ++b) {
      read_at[b].push_back(s.read && r_bank == b);
      write_at[b].push_back(s.write && w_bank == b);
    }
  }

  for (FaultSpec& spec : plan) {
    if (spec.kind != FaultKind::kBitFlip) continue;
    if (spec.net.rfind("bank", 0) != 0) continue;
    const std::size_t dot = spec.net.find('.');
    if (dot == std::string::npos) continue;
    const int bank = std::stoi(spec.net.substr(4, dot - 4));
    if (bank < 0 || bank >= options.banks) continue;

    int best = -1;
    // Preferred: reads at t and t+1 plus a write at t+1, so a flip at
    // t+1 lands on live state regardless of the register's pipeline
    // stage or port.
    for (int t = static_cast<int>(spec.cycle);
         t + 1 < options.transactions; ++t) {
      if (read_at[bank][t] && read_at[bank][t + 1] && write_at[bank][t + 1]) {
        best = t + 1;
        break;
      }
    }
    if (best < 0) {  // fall back to a read-only window
      for (int t = static_cast<int>(spec.cycle);
           t + 1 < options.transactions; ++t) {
        if (read_at[bank][t] && read_at[bank][t + 1]) {
          best = t + 1;
          break;
        }
      }
    }
    if (best < 0) {  // last resort: any read on the bank
      for (int t = static_cast<int>(spec.cycle); t < options.transactions;
           ++t) {
        if (read_at[bank][t]) {
          best = t;
          break;
        }
      }
    }
    if (best >= 0) spec.cycle = best;
  }
}

/// Everything both campaign entry points derive before the per-fault work:
/// the simulation geometry, the activation-scheduled fault plan, and the
/// shared PSL suite. Pure function of `options`.
struct CampaignSetup {
  core::RtlConfig rtl_cfg;
  std::vector<FaultSpec> plan;
  psl::VUnit vunit;
};

CampaignSetup campaign_setup(const CampaignOptions& options) {
  CampaignSetup s{core::RtlConfig{}, {}, psl::VUnit("fault_campaign")};
  s.rtl_cfg.banks = options.banks;
  s.rtl_cfg.data_bits = options.data_bits;
  s.rtl_cfg.mem_addr_bits = options.mem_addr_bits;
  {
    core::RtlDevice dev = core::build_device(s.rtl_cfg);
    const rtl::Module flat = dev.flatten();
    s.plan = plan_faults(flat, options.plan, options.seed);
  }
  schedule_bitflips(s.plan, options);
  s.vunit = campaign_vunit(options.banks, s.rtl_cfg.latency_ticks());
  return s;
}

/// Control run: every checker over the unmutated device. Any alarm here is
/// a false alarm and poisons the whole campaign. Shared verbatim by the
/// sequential and parallel paths so their reports stay byte-identical.
std::vector<std::string> control_alarms(const CampaignOptions& options,
                                        const psl::VUnit& vunit,
                                        const core::RtlConfig& rtl_cfg) {
  std::vector<std::string> alarms;
  ovl::OvlBank ovl_bank;
  harness::RtlDevice device =
      harness::make_rtl_device(rtl_cfg, options.backend, [&](rtl::Module& m) {
        core::attach_ovl_monitors(m, ovl_bank, options.banks);
      });
  harness::RtlDevice reference =
      harness::make_rtl_device(rtl_cfg, options.backend);
  psl::VUnitRunner runner(vunit);
  const SimVerdicts v =
      run_sim(options, *device.model, *reference.model, runner, rtl_cfg);
  if (v.psl_failures != 0) {
    alarms.push_back("psl: " + v.psl_detail);
  }
  const std::size_t ovl_failures = ovl_bank.failures(
      [&device](rtl::NetId flag) { return device.model->net_is_one(flag); });
  if (ovl_failures != 0) {
    alarms.push_back("ovl: " + std::to_string(ovl_failures) +
                     " monitor failures");
  }
  if (v.lockstep_diverged) {
    alarms.push_back("lockstep: " + v.lockstep_detail);
  }
  if (options.run_mc) {
    const core::RtlConfig mc_cfg =
        core::RtlConfig::model_checking(options.banks);
    core::RtlDevice dev = core::build_device(mc_cfg);
    const rtl::Module flat = dev.flatten();
    const rtl::Module expanded = rtl::expand_memories(flat);
    const rtl::BitBlast bb =
        rtl::bitblast(expanded, core::clock_schedule(flat));
    mc::SymbolicOptions sopt;
    sopt.budget = options.mc_budget;
    for (const auto& [name, prop] : core::rtl_properties(mc_cfg)) {
      const mc::SymbolicResult r = mc::check(bb, prop, sopt);
      if (r.verdict.kind == mc::Verdict::Kind::kFalsified) {
        alarms.push_back("mc: " + name + " falsified on the stock device");
      }
    }
  }
  return alarms;
}

/// One mutant through the full detection stack — the unit of work a
/// parallel shard executes. Pure function of (options, spec).
CampaignRow mutant_row(const CampaignOptions& options, const psl::VUnit& vunit,
                       const core::RtlConfig& rtl_cfg, const FaultSpec& spec) {
  CampaignRow row;
  row.fault = spec;

  ovl::OvlBank ovl_bank;
  auto instrument = [&](rtl::Module& m) {
    if (is_structural(spec.kind)) apply_structural(m, spec);
    core::attach_ovl_monitors(m, ovl_bank, options.banks);
  };
  harness::RtlDevice rtl_dev =
      harness::make_rtl_device(rtl_cfg, options.backend, instrument);
  const harness::NetlistDeviceModel& netlist = *rtl_dev.model;
  std::unique_ptr<harness::DeviceModel> mutant;
  if (is_structural(spec.kind)) {
    mutant = std::move(rtl_dev.model);
  } else {
    mutant =
        std::make_unique<ProtocolFaultModel>(std::move(rtl_dev.model), spec);
  }
  harness::RtlDevice reference =
      harness::make_rtl_device(rtl_cfg, options.backend);
  psl::VUnitRunner runner(vunit);
  const SimVerdicts v =
      run_sim(options, *mutant, *reference.model, runner, rtl_cfg);

  CampaignCell psl_cell;
  psl_cell.checker = "psl";
  psl_cell.outcome =
      v.psl_failures > 0 ? CellOutcome::kCaught : CellOutcome::kMissed;
  psl_cell.detail = v.psl_detail;
  row.cells.push_back(std::move(psl_cell));

  CampaignCell ovl_cell;
  ovl_cell.checker = "ovl";
  const std::size_t ovl_failures = ovl_bank.failures(
      [&netlist](rtl::NetId flag) { return netlist.net_is_one(flag); });
  ovl_cell.outcome =
      ovl_failures > 0 ? CellOutcome::kCaught : CellOutcome::kMissed;
  if (ovl_failures > 0) {
    ovl_cell.detail = std::to_string(ovl_failures) + " monitor failures";
  }
  row.cells.push_back(std::move(ovl_cell));

  CampaignCell ls_cell;
  ls_cell.checker = "lockstep";
  ls_cell.outcome =
      v.lockstep_diverged ? CellOutcome::kCaught : CellOutcome::kMissed;
  ls_cell.detail = v.lockstep_detail;
  row.cells.push_back(std::move(ls_cell));

  if (options.run_mc) {
    row.cells.push_back(mc_cell(options, spec));
  } else {
    CampaignCell cell;
    cell.checker = "mc";
    cell.outcome = CellOutcome::kNotApplicable;
    cell.detail = "mc column disabled";
    row.cells.push_back(std::move(cell));
  }
  return row;
}

util::Json row_to_json(const CampaignRow& r) {
  util::Json row = util::Json::object();
  row.set("fault", r.fault.to_json());
  row.set("caught", r.caught());
  util::Json cells = util::Json::array();
  for (const CampaignCell& c : r.cells) {
    util::Json cell = util::Json::object();
    cell.set("checker", c.checker);
    cell.set("outcome", to_string(c.outcome));
    cell.set("detail", c.detail);
    cells.push(std::move(cell));
  }
  row.set("cells", std::move(cells));
  return row;
}

CampaignRow row_from_json(const util::Json& row_j) {
  CampaignRow row;
  if (const util::Json* f = row_j.find("fault")) {
    row.fault = FaultSpec::from_json(*f);
  }
  if (const util::Json* cells = row_j.find("cells")) {
    for (const util::Json& cell_j : cells->items()) {
      CampaignCell cell;
      if (const util::Json* v = cell_j.find("checker")) {
        cell.checker = v->as_string();
      }
      if (const util::Json* v = cell_j.find("outcome")) {
        cell.outcome = cell_outcome_from_string(v->as_string());
      }
      if (const util::Json* v = cell_j.find("detail")) {
        cell.detail = v->as_string();
      }
      row.cells.push_back(std::move(cell));
    }
  }
  return row;
}

/// Quarantined row for a shard the executor could not complete: every
/// checker cell is kTimeout with the shard's disposition, so the report
/// shape (and mutation-score denominator) is unchanged.
CampaignRow degraded_row(const FaultSpec& spec,
                         const std::vector<std::string>& checkers,
                         const exec::ShardResult& r) {
  CampaignRow row;
  row.fault = spec;
  std::string detail = std::string("shard ") + exec::to_string(r.status);
  if (!r.error.empty()) detail += ": " + r.error;
  for (const std::string& checker : checkers) {
    CampaignCell cell;
    cell.checker = checker;
    cell.outcome = CellOutcome::kTimeout;
    cell.detail = detail;
    row.cells.push_back(std::move(cell));
  }
  return row;
}

/// options with the cancellation flag threaded into the per-check budget,
/// so a raised flag reaches a running BDD build.
CampaignOptions with_cancel(const CampaignOptions& options,
                            const std::atomic<bool>* cancel) {
  CampaignOptions opt = options;
  if (cancel != nullptr) {
    opt.cancel = cancel;
    opt.mc_budget.cancel = cancel;
  }
  return opt;
}

}  // namespace

CampaignReport run_campaign(const CampaignOptions& options) {
  const CampaignOptions opt = with_cancel(options, options.cancel);
  CampaignReport report;
  report.banks = opt.banks;
  report.seed = opt.seed;
  report.transactions = opt.transactions;
  report.checkers = {"psl", "ovl", "lockstep", "mc"};

  const CampaignSetup setup = campaign_setup(opt);

  report.clean_alarms = control_alarms(opt, setup.vunit, setup.rtl_cfg);
  report.clean_ok = report.clean_alarms.empty();

  for (const FaultSpec& spec : setup.plan) {
    // Graceful ^C: stop between faults; the rows so far form a valid
    // partial report.
    if (opt.cancel != nullptr &&
        opt.cancel->load(std::memory_order_relaxed)) {
      break;
    }
    report.rows.push_back(mutant_row(opt, setup.vunit, setup.rtl_cfg, spec));
  }
  return report;
}

CampaignReport run_campaign_parallel(const CampaignOptions& options,
                                     const ParallelOptions& parallel,
                                     exec::PoolStats* stats) {
  CampaignReport report;
  report.banks = options.banks;
  report.seed = options.seed;
  report.transactions = options.transactions;
  report.checkers = {"psl", "ovl", "lockstep", "mc"};

  const CampaignSetup setup = campaign_setup(options);

  exec::Options eopt;
  eopt.workers = parallel.workers;
  eopt.steal_seed = parallel.steal_seed;
  eopt.shard_wall_ms = parallel.shard_wall_ms;
  eopt.max_retries = parallel.max_retries;
  eopt.backoff_ms = parallel.backoff_ms;
  eopt.cancel = parallel.cancel;

  // Shard 0 is the control run; shard i (i >= 1) is fault plan[i-1]. The
  // merge below walks results in shard order, so the report is a pure
  // function of the shard bodies regardless of worker count.
  const int shard_count = 1 + static_cast<int>(setup.plan.size());
  const auto body = [&](const exec::Context& ctx) -> util::Json {
    const CampaignOptions opt = with_cancel(options, ctx.cancel_flag());
    if (ctx.shard() == 0) {
      const std::vector<std::string> alarms =
          control_alarms(opt, setup.vunit, setup.rtl_cfg);
      util::Json j = util::Json::object();
      util::Json arr = util::Json::array();
      for (const std::string& a : alarms) arr.push(a);
      j.set("alarms", std::move(arr));
      ctx.poll();  // a cancelled control run must not pass for clean
      return j;
    }
    const FaultSpec& spec = setup.plan[static_cast<std::size_t>(ctx.shard()) - 1];
    const CampaignRow row = mutant_row(opt, setup.vunit, setup.rtl_cfg, spec);
    ctx.poll();  // ditto: discard rows finished after cancellation
    return row_to_json(row);
  };
  const std::vector<exec::ShardResult> results =
      exec::run_shards(shard_count, body, eopt, stats);

  const exec::ShardResult& control = results[0];
  if (control.ok()) {
    if (const util::Json* alarms = control.value.find("alarms")) {
      for (const util::Json& a : alarms->items()) {
        report.clean_alarms.push_back(a.as_string());
      }
    }
  } else {
    std::string detail =
        std::string("control run ") + exec::to_string(control.status);
    if (!control.error.empty()) detail += ": " + control.error;
    report.clean_alarms.push_back(detail);
  }
  report.clean_ok = report.clean_alarms.empty();

  for (std::size_t i = 1; i < results.size(); ++i) {
    const exec::ShardResult& r = results[i];
    if (r.ok()) {
      report.rows.push_back(row_from_json(r.value));
    } else {
      report.rows.push_back(degraded_row(setup.plan[i - 1], report.checkers, r));
    }
  }
  return report;
}

util::Json CampaignReport::to_json() const {
  util::Json j = util::Json::object();
  j.set("banks", banks);
  j.set("seed", seed);
  j.set("transactions", transactions);
  util::Json names = util::Json::array();
  for (const std::string& c : checkers) names.push(c);
  j.set("checkers", std::move(names));
  util::Json rows_j = util::Json::array();
  for (const CampaignRow& r : rows) rows_j.push(row_to_json(r));
  j.set("rows", std::move(rows_j));
  util::Json clean = util::Json::object();
  clean.set("ok", clean_ok);
  util::Json alarms = util::Json::array();
  for (const std::string& a : clean_alarms) alarms.push(a);
  clean.set("alarms", std::move(alarms));
  j.set("clean", std::move(clean));
  j.set("caught", caught_count());
  j.set("mutation_score", mutation_score());
  return j;
}

CampaignReport CampaignReport::from_json(const util::Json& j) {
  CampaignReport report;
  if (const util::Json* v = j.find("banks")) {
    report.banks = static_cast<int>(v->as_int());
  }
  if (const util::Json* v = j.find("seed")) {
    report.seed = static_cast<std::uint64_t>(v->as_int());
  }
  if (const util::Json* v = j.find("transactions")) {
    report.transactions = static_cast<int>(v->as_int());
  }
  if (const util::Json* v = j.find("checkers")) {
    for (const util::Json& c : v->items()) {
      report.checkers.push_back(c.as_string());
    }
  }
  if (const util::Json* rows_j = j.find("rows")) {
    for (const util::Json& row_j : rows_j->items()) {
      report.rows.push_back(row_from_json(row_j));
    }
  }
  if (const util::Json* clean = j.find("clean")) {
    if (const util::Json* v = clean->find("ok")) report.clean_ok = v->as_bool();
    if (const util::Json* v = clean->find("alarms")) {
      for (const util::Json& a : v->items()) {
        report.clean_alarms.push_back(a.as_string());
      }
    }
  }
  return report;
}

std::string CampaignReport::render() const {
  std::vector<std::string> header{"fault"};
  for (const std::string& c : checkers) header.push_back(c);
  header.push_back("detected");
  util::Table table(std::move(header));
  for (const CampaignRow& r : rows) {
    std::vector<std::string> cells{r.fault.id()};
    for (const std::string& c : checkers) {
      const CampaignCell* cell = r.cell(c);
      cells.push_back(cell != nullptr ? to_string(cell->outcome) : "-");
    }
    cells.push_back(r.caught() ? "yes" : "NO");
    table.add_row(std::move(cells));
  }
  std::ostringstream out;
  out << "fault campaign: banks=" << banks << " seed=" << seed
      << " transactions=" << transactions << "\n"
      << table.render() << "mutation score: " << caught_count() << "/"
      << rows.size() << " (" << util::fmt_double(100.0 * mutation_score(), 1)
      << "%)\n"
      << "clean run: "
      << (clean_ok ? "no false alarms" :
                     std::to_string(clean_alarms.size()) + " FALSE ALARMS")
      << "\n";
  for (const std::string& a : clean_alarms) out << "  false alarm: " << a << "\n";
  return out.str();
}

}  // namespace la1::fault
