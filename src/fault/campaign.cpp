#include "fault/campaign.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "harness/adapters.hpp"
#include "harness/lane_batch.hpp"
#include "harness/stimulus.hpp"
#include "la1/properties.hpp"
#include "la1/rtl_model.hpp"
#include "mc/symbolic.hpp"
#include "ovl/ovl.hpp"
#include "psl/dfa.hpp"
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

rtl::BitBlast mc_blast(int banks, const FaultSpec* spec) {
  core::RtlDevice dev =
      core::build_device(core::RtlConfig::model_checking(banks));
  rtl::Module flat = dev.flatten();
  if (spec != nullptr) apply_structural(flat, *spec);
  const rtl::Module expanded = rtl::expand_memories(flat);
  return rtl::bitblast(expanded, core::clock_schedule(flat));
}

namespace {

/// The register a state bit belongs to: its name up to the "[i]" suffix.
std::string register_of(const std::string& bit) {
  const std::size_t lb = bit.rfind('[');
  return lb == std::string::npos ? bit : bit.substr(0, lb);
}

/// Sorted, distinct names of the design registers among the state bits
/// `keep` selects (the blaster's "__phase" schedule bits are no register).
std::vector<std::string> registers_of(const rtl::BitBlast& bb,
                                      const std::vector<char>& keep) {
  std::vector<std::string> out;
  for (std::size_t k = 0; k < bb.state_vars.size(); ++k) {
    std::string reg = register_of(
        bb.vars[static_cast<std::size_t>(bb.state_vars[k])].name);
    if (keep[k] && reg != "__phase") out.push_back(std::move(reg));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool contains(const std::vector<std::string>& sorted, const std::string& name) {
  return std::binary_search(sorted.begin(), sorted.end(), name);
}

}  // namespace

McSuite::McSuite(int banks, const mc::Budget& budget) {
  const rtl::BitBlast stock = mc_blast(banks, nullptr);
  registers =
      registers_of(stock, std::vector<char>(stock.state_vars.size(), 1));
  mc::SymbolicOptions sopt;
  sopt.budget = budget;
  for (const auto& [name, prop] :
       core::rtl_properties(core::RtlConfig::model_checking(banks))) {
    mc::preflight_lint(stock, prop);
    McRow row{name, mc::build_observer(prop), {}, {}};
    row.cone =
        registers_of(stock, flow::mc_cone(stock, row.observer.atoms,
                                          std::vector<flow::McCone::Subst>{})
                                .state_in_cone);
    row.stock = mc::check(stock, row.observer, sopt);
    rows.push_back(std::move(row));
  }
}

bool McSuite::must_check(const McRow& row, const FaultSpec& spec) const {
  return !rewrites_only_target(spec.kind) || !contains(registers, spec.net) ||
         contains(row.cone, spec.net);
}

namespace {

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

/// The most mutants one lane batch holds: lane 0 is the golden device.
constexpr std::size_t kMaxBatchMutants = 63;

/// Everything both campaign entry points derive before the per-fault work:
/// the simulation geometry, the activation-scheduled fault plan, the lane
/// batch size, the shared PSL suite and its determinized monitors (one
/// table per assert or assume directive, in vunit order), and the
/// symbolic-MC suite with its stock results, which the control run reads
/// and every mutant check starts from. Pure function of `options` (up to a
/// wall-clock budget); read-only once built, so shards on any worker
/// share it.
struct CampaignSetup {
  core::RtlConfig rtl_cfg;
  std::vector<FaultSpec> plan;
  /// Mutants per lane batch: a compiled batch fills one Machine; on the
  /// interpreted backend every fault is its own batch (and its own shard).
  std::size_t batch_mutants = 1;
  psl::VUnit vunit{"fault_campaign"};
  std::vector<psl::DfaTable> monitors;
  /// Empty with the MC column off.
  McSuite mc;

  std::size_t batches() const {
    return (plan.size() + batch_mutants - 1) / batch_mutants;
  }
};

CampaignSetup campaign_setup(const CampaignOptions& options) {
  CampaignSetup s;
  s.rtl_cfg.banks = options.banks;
  s.rtl_cfg.data_bits = options.data_bits;
  s.rtl_cfg.mem_addr_bits = options.mem_addr_bits;
  {
    core::RtlDevice dev = core::build_device(s.rtl_cfg);
    const rtl::Module flat = dev.flatten();
    s.plan = plan_faults(flat, options.plan, options.seed);
  }
  schedule_bitflips(s.plan, options);
  if (options.backend == harness::RtlBackend::kCompiled) {
    s.batch_mutants = kMaxBatchMutants;
  }
  // The catalog rows the taps every DeviceModel shares observe, so the
  // same monitors watch any mutant.
  for (auto& [name, prop] : core::level_suite(
           core::Level::kHarness, options.banks, s.rtl_cfg.latency_ticks())) {
    s.monitors.push_back(psl::determinize(prop));
    s.vunit.add_assert(std::move(name), std::move(prop));
  }
  if (options.run_mc) s.mc = McSuite(options.banks, options.mc_budget);
  return s;
}

/// The symbolic-MC column: checks the compiled RTL property suite on the
/// structural fault's mutant of the reduced model-checking geometry, row
/// by row in catalog order under the campaign budget. A row the fault
/// cannot reach (McSuite::must_check) takes its stock result; the mutant is
/// blasted on the first row that needs it, if any. Any Falsified property
/// catches the fault; an inconclusive (BoundedPass/Unknown) run with no
/// Falsified property is a timeout, not a miss.
CampaignCell mc_cell(const CampaignOptions& options, const CampaignSetup& setup,
                     const FaultSpec& spec) {
  CampaignCell cell;
  cell.checker = "mc";
  if (!is_structural(spec.kind)) {
    cell.outcome = CellOutcome::kNotApplicable;
    cell.detail = "protocol fault: not expressible as a netlist mutant";
    return cell;
  }
  mc::SymbolicOptions sopt;
  sopt.budget = options.mc_budget;
  std::optional<rtl::BitBlast> mutant;
  bool inconclusive = false;
  std::string inconclusive_reason;
  for (const McRow& row : setup.mc.rows) {
    mc::SymbolicResult checked;
    const mc::SymbolicResult* r = &row.stock;
    if (setup.mc.must_check(row, spec)) {
      if (!mutant) mutant = mc_blast(options.banks, &spec);
      checked = mc::check(*mutant, row.observer, sopt);
      r = &checked;
    }
    if (r->verdict.kind == mc::Verdict::Kind::kFalsified) {
      cell.outcome = CellOutcome::kCaught;
      cell.detail = row.name + " falsified at depth " +
                    std::to_string(r->verdict.depth);
      if (r->verdict.retries > 0) cell.detail += " (after retry)";
      return cell;
    }
    if (!r->verdict.decisive()) {
      inconclusive = true;
      inconclusive_reason = row.name + ": " + r->verdict.reason;
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

/// The campaign's PSL suite on every lane at once: each determinized
/// monitor reads its atoms from pre-resolved tap words, one table lookup
/// per lane and edge — no string Env per step.
class LaneMonitors {
 public:
  LaneMonitors(const CampaignSetup& setup,
               const std::vector<std::string>& tap_names, int lanes)
      : setup_(&setup), lanes_(lanes) {
    for (const psl::DfaTable& t : setup.monitors) {
      std::vector<std::size_t> taps;
      for (const std::string& atom : t.atoms) {
        const auto it = std::find(tap_names.begin(), tap_names.end(), atom);
        if (it == tap_names.end()) {
          throw std::invalid_argument("campaign PSL atom is not a tap: " + atom);
        }
        taps.push_back(static_cast<std::size_t>(it - tap_names.begin()));
      }
      atom_taps_.push_back(std::move(taps));
      states_.emplace_back(static_cast<std::size_t>(lanes), t.init_state);
    }
  }

  void step(const std::vector<std::uint64_t>& tap_words) {
    for (std::size_t m = 0; m < states_.size(); ++m) {
      const psl::DfaTable& table = setup_->monitors[m];
      const std::vector<std::size_t>& taps = atom_taps_[m];
      std::vector<int>& states = states_[m];
      for (int l = 1; l < lanes_; ++l) {
        unsigned letter = 0;
        for (std::size_t a = 0; a < taps.size(); ++a) {
          letter |= static_cast<unsigned>((tap_words[taps[a]] >> l) & 1) << a;
        }
        int& st = states[static_cast<std::size_t>(l)];
        st = table.step(st, letter);  // failed states are absorbing
      }
    }
  }

  /// The psl cell of lane `l`: caught when any monitor failed, naming the
  /// first failed assert (psl::VUnitRunner's reading).
  CampaignCell cell(int l) const {
    CampaignCell cell;
    cell.checker = "psl";
    std::size_t m = 0;
    for (const psl::Directive& d : setup_->vunit.directives()) {
      if (d.kind == psl::DirectiveKind::kCover) continue;
      const psl::DfaTable& table = setup_->monitors[m];
      const int st = states_[m][static_cast<std::size_t>(l)];
      ++m;
      if (table.verdict[static_cast<std::size_t>(st)] !=
          psl::Verdict::kFailed) {
        continue;
      }
      cell.outcome = CellOutcome::kCaught;
      if (d.kind == psl::DirectiveKind::kAssert && cell.detail.empty()) {
        cell.detail = d.name + " failed";
      }
    }
    return cell;
  }

 private:
  const CampaignSetup* setup_;
  int lanes_;
  std::vector<std::vector<std::size_t>> atom_taps_;  // per monitor, per atom
  std::vector<std::vector<int>> states_;             // per monitor, per lane
};

/// One lane batch and what the checkers read from it: lane 0 is the
/// reference every other lane is held against, `models[l]` is lane l as
/// the checkers drive it (a protocol fault's lane behind its
/// ProtocolFaultModel), and OVL flags read back through `ovl(l)`.
struct Batch {
  std::unique_ptr<harness::LaneBatch> lanes;
  std::vector<ovl::OvlBank> ovl_banks;  // one shared bank, or one per lane
  std::vector<std::unique_ptr<ProtocolFaultModel>> wrappers;
  std::vector<harness::DeviceModel*> models;

  const ovl::OvlBank& ovl(int lane) const {
    return ovl_banks[ovl_banks.size() == 1 ? 0 : static_cast<std::size_t>(lane)];
  }

  /// Fills `models`: lane l + 1 carries `faults[l]`, wrapped when it is a
  /// protocol fault.
  void wrap(const std::vector<const FaultSpec*>& faults) {
    models.push_back(&lanes->lane(0));
    for (std::size_t i = 0; i < faults.size(); ++i) {
      harness::DeviceModel& lane = lanes->lane(static_cast<int>(i) + 1);
      if (faults[i] != nullptr && !is_structural(faults[i]->kind)) {
        wrappers.push_back(std::make_unique<ProtocolFaultModel>(lane, *faults[i]));
        models.push_back(wrappers.back().get());
      } else {
        models.push_back(&lane);
      }
    }
  }
};

/// One interpreted netlist model per lane: lane 0 the golden
/// OVL-instrumented device, lane l the OVL-instrumented mutant of
/// `faults[l - 1]` (an apply_structural netlist for a structural fault).
/// The interpreted backend's batches, the compiled backend's X-unsafe
/// forces, and the independent oracle for the compiled lane forces.
Batch netlist_batch(const CampaignOptions& options, const core::RtlConfig& cfg,
                    const std::vector<const FaultSpec*>& faults) {
  Batch b;
  const std::size_t lanes = 1 + faults.size();
  b.ovl_banks.resize(lanes);
  std::vector<std::unique_ptr<harness::RtlDeviceModel>> models;
  for (std::size_t l = 0; l < lanes; ++l) {
    const FaultSpec* spec = l == 0 ? nullptr : faults[l - 1];
    ovl::OvlBank& bank = b.ovl_banks[l];
    models.push_back(std::make_unique<harness::RtlDeviceModel>(
        cfg, [&](rtl::Module& m) {
          if (spec != nullptr && is_structural(spec->kind)) {
            apply_structural(m, *spec);
          }
          core::attach_ovl_monitors(m, bank, options.banks);
        }));
  }
  b.lanes = std::make_unique<harness::ModelLaneBatch>(std::move(models));
  b.wrap(faults);
  return b;
}

using LaneCells = std::vector<std::vector<CampaignCell>>;

/// The psl, ovl and lockstep cells of lanes 1.. of `b`, held against lane
/// 0 over the campaign's seeded traffic. Every checker observes the full
/// run (no stop at the first divergence). nullopt when `cancel` was raised
/// before the run finished.
std::optional<LaneCells> lane_cells(const CampaignOptions& options,
                                    const CampaignSetup& setup, Batch& b,
                                    const std::atomic<bool>* cancel) {
  harness::LaneBatch& batch = *b.lanes;
  const int lanes = batch.lanes();
  const std::uint64_t checked =
      (lanes == 64 ? ~0ull : (1ull << lanes) - 1) & ~1ull;
  batch.reset();
  for (auto& w : b.wrappers) w->reset();

  harness::StimulusOptions sopt;
  sopt.banks = options.banks;
  sopt.mem_addr_bits = options.mem_addr_bits;
  sopt.data_bits = options.data_bits;
  harness::StimulusStream stream(sopt, options.seed);
  harness::Transactor transactor(sopt.geometry());

  const std::vector<std::string>& taps = batch.tap_names();
  LaneMonitors psl_monitors(setup, taps, lanes);
  std::vector<std::uint64_t> words(taps.size());
  std::uint64_t diverged = 0;
  std::vector<std::string> lockstep_detail(static_cast<std::size_t>(lanes));

  int issued = 0;
  const std::uint64_t total_ticks =
      2ull * static_cast<std::uint64_t>(options.transactions) +
      static_cast<std::uint64_t>(options.drain_ticks);
  for (std::uint64_t tick = 0; tick < total_ticks; ++tick) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return std::nullopt;
    }
    const harness::Edge edge = harness::edge_of_tick(static_cast<int>(tick % 2));
    if (edge == harness::Edge::kK && issued < options.transactions) {
      transactor.enqueue(stream.next());
      ++issued;
    }
    const harness::EdgePins pins = transactor.next(edge);
    for (harness::DeviceModel* m : b.models) m->apply_edge(pins);
    batch.edge();

    // Taps: one XOR per tap against lane 0's broadcast bit.
    std::uint64_t differs = 0;
    for (std::size_t t = 0; t < taps.size(); ++t) {
      words[t] = batch.tap_word(t);
      differs |= words[t] ^ (0 - (words[t] & 1));
    }
    psl_monitors.step(words);
    for (std::uint64_t fresh = differs & checked & ~diverged; fresh != 0;
         fresh &= fresh - 1) {
      const int l = __builtin_ctzll(fresh);
      for (std::size_t t = 0; t < taps.size(); ++t) {
        const bool expect = (words[t] & 1) != 0;
        const bool got = ((words[t] >> l) & 1) != 0;
        if (got == expect) continue;
        std::ostringstream os;
        os << "tick " << tick << " (" << harness::edge_name(edge)
           << "): tap '" << taps[t] << "' ref=" << expect
           << " mutant=" << got;
        lockstep_detail[static_cast<std::size_t>(l)] = os.str();
        break;
      }
    }
    diverged |= differs & checked;

    const harness::DoutSample golden = b.models.front()->dout();
    for (std::uint64_t rest = checked & ~diverged; rest != 0;
         rest &= rest - 1) {
      const int l = __builtin_ctzll(rest);
      if (b.models[static_cast<std::size_t>(l)]->dout() == golden) continue;
      diverged |= 1ull << l;
      std::ostringstream os;
      os << "tick " << tick << " (" << harness::edge_name(edge)
         << "): dout diverges";
      lockstep_detail[static_cast<std::size_t>(l)] = os.str();
    }
  }

  const harness::Geometry g = b.models.front()->geometry();
  for (std::uint64_t rest = checked & ~diverged; rest != 0; rest &= rest - 1) {
    const int l = __builtin_ctzll(rest);
    const harness::DeviceModel& model = *b.models[static_cast<std::size_t>(l)];
    for (int bank = 0; bank < g.banks && ((diverged >> l) & 1) == 0; ++bank) {
      for (std::uint64_t addr = 0; addr < g.mem_depth(); ++addr) {
        if (model.memory_word(bank, addr) !=
            b.models.front()->memory_word(bank, addr)) {
          diverged |= 1ull << l;
          std::ostringstream os;
          os << "end of run: memory b" << bank << "[" << addr << "] diverges";
          lockstep_detail[static_cast<std::size_t>(l)] = os.str();
          break;
        }
      }
    }
  }

  LaneCells out;
  for (int l = 1; l < lanes; ++l) {
    std::vector<CampaignCell> cells;
    cells.push_back(psl_monitors.cell(l));

    CampaignCell ovl_cell;
    ovl_cell.checker = "ovl";
    const std::size_t ovl_failures = b.ovl(l).failures(
        [&batch, l](rtl::NetId flag) { return batch.net_is_one(l, flag); });
    ovl_cell.outcome =
        ovl_failures > 0 ? CellOutcome::kCaught : CellOutcome::kMissed;
    if (ovl_failures > 0) {
      ovl_cell.detail = std::to_string(ovl_failures) + " monitor failures";
    }
    cells.push_back(std::move(ovl_cell));

    CampaignCell ls_cell;
    ls_cell.checker = "lockstep";
    ls_cell.outcome = ((diverged >> l) & 1) != 0 ? CellOutcome::kCaught
                                                 : CellOutcome::kMissed;
    ls_cell.detail = lockstep_detail[static_cast<std::size_t>(l)];
    cells.push_back(std::move(ls_cell));
    out.push_back(std::move(cells));
  }
  return out;
}

/// The psl, ovl and lockstep cells of `faults` (one lane batch of the
/// plan), in order. The compiled backend runs the batch as one Machine
/// with every structural fault a lane force; a force the plan cannot keep
/// X-safe (csim::x_safe_forces) runs on its own interpreted mutant netlist
/// (netlist_batch) instead. The interpreted backend runs netlist_batch.
/// nullopt when cancelled.
std::optional<LaneCells> batch_cells(const CampaignOptions& options,
                                     const CampaignSetup& setup,
                                     const std::vector<const FaultSpec*>& faults,
                                     const std::atomic<bool>* cancel) {
  if (options.backend != harness::RtlBackend::kCompiled) {
    Batch b = netlist_batch(options, setup.rtl_cfg, faults);
    return lane_cells(options, setup, b, cancel);
  }
  Batch b;
  b.ovl_banks.resize(1);
  rtl::Module flat = core::build_device(setup.rtl_cfg).flatten();
  core::attach_ovl_monitors(flat, b.ovl_banks.front(), options.banks);
  const plan::CompilePlan plan = harness::device_plan(flat);
  std::vector<csim::Force> forces;
  for (const FaultSpec* f : faults) {
    if (is_structural(f->kind)) forces.push_back(lane_force(flat, *f, 0));
  }
  const std::vector<bool> safe = csim::x_safe_forces(flat, plan, forces);

  std::vector<const FaultSpec*> on_machine;
  std::vector<const FaultSpec*> apart;
  std::vector<csim::Force> lane_forces;
  std::size_t next_force = 0;
  for (const FaultSpec* f : faults) {
    if (!is_structural(f->kind)) {
      on_machine.push_back(f);
    } else if (safe[next_force]) {
      on_machine.push_back(f);
      lane_forces.push_back(forces[next_force]);
      lane_forces.back().lane = static_cast<int>(on_machine.size());
      ++next_force;
    } else {
      apart.push_back(f);
      ++next_force;
    }
  }
  b.lanes = std::make_unique<harness::CsimLaneBatch>(
      setup.rtl_cfg, std::move(flat), plan,
      1 + static_cast<int>(on_machine.size()), lane_forces);
  b.wrap(on_machine);
  std::optional<LaneCells> machine_cells = lane_cells(options, setup, b, cancel);
  if (!machine_cells || apart.empty()) return machine_cells;

  Batch rest = netlist_batch(options, setup.rtl_cfg, apart);
  std::optional<LaneCells> apart_cells = lane_cells(options, setup, rest, cancel);
  if (!apart_cells) return std::nullopt;
  LaneCells out;
  std::size_t m = 0;
  std::size_t a = 0;
  for (const FaultSpec* f : faults) {
    const bool on = a == apart.size() || apart[a] != f;
    out.push_back(std::move(on ? (*machine_cells)[m++] : (*apart_cells)[a++]));
  }
  return out;
}

/// Control run: every checker over the unmutated device, as a two-lane
/// interpreted batch on either backend (one stream gains nothing from
/// compiling) — lane 0 the uninstrumented stock device, lane 1 the
/// OVL-instrumented one every fault batch uses as its golden lane, so a
/// clean control also proves that lane a faithful lockstep reference. Any
/// alarm here is a false alarm and poisons the whole campaign. Shared
/// verbatim by the sequential and parallel paths so their reports stay
/// byte-identical.
std::vector<std::string> control_alarms(const CampaignOptions& options,
                                        const CampaignSetup& setup) {
  Batch b;
  b.ovl_banks.resize(2);
  std::vector<std::unique_ptr<harness::RtlDeviceModel>> models;
  models.push_back(std::make_unique<harness::RtlDeviceModel>(setup.rtl_cfg));
  models.push_back(std::make_unique<harness::RtlDeviceModel>(
      setup.rtl_cfg, [&](rtl::Module& m) {
        core::attach_ovl_monitors(m, b.ovl_banks[1], options.banks);
      }));
  b.lanes = std::make_unique<harness::ModelLaneBatch>(std::move(models));
  b.wrap({nullptr});

  std::vector<std::string> alarms;
  const LaneCells cells = *lane_cells(options, setup, b, /*cancel=*/nullptr);
  for (const CampaignCell& c : cells.front()) {
    if (c.outcome == CellOutcome::kCaught) {
      alarms.push_back(c.checker + ": " + c.detail);
    }
  }
  for (const McRow& row : setup.mc.rows) {
    if (row.stock.verdict.kind == mc::Verdict::Kind::kFalsified) {
      alarms.push_back("mc: " + row.name + " falsified on the stock device");
    }
  }
  return alarms;
}

/// The faults of lane batch `index`: plan order, at most
/// setup.batch_mutants.
std::vector<const FaultSpec*> batch_faults(const CampaignSetup& setup,
                                           std::size_t index) {
  std::vector<const FaultSpec*> out;
  const std::size_t first = index * setup.batch_mutants;
  for (std::size_t i = first;
       i < setup.plan.size() && i < first + setup.batch_mutants; ++i) {
    out.push_back(&setup.plan[i]);
  }
  return out;
}

/// Whether `spec` gets a symbolic check (its own shard when parallel).
bool needs_mc_check(const CampaignOptions& options, const FaultSpec& spec) {
  return options.run_mc && is_structural(spec.kind);
}

/// The mc cell of `spec`: the symbolic check, n/a for a protocol fault, or
/// n/a with the column disabled.
CampaignCell mc_column(const CampaignOptions& options,
                       const CampaignSetup& setup, const FaultSpec& spec) {
  if (options.run_mc) return mc_cell(options, setup, spec);
  CampaignCell cell;
  cell.checker = "mc";
  cell.outcome = CellOutcome::kNotApplicable;
  cell.detail = "mc column disabled";
  return cell;
}

util::Json cell_to_json(const CampaignCell& c) {
  util::Json cell = util::Json::object();
  cell.set("checker", c.checker);
  cell.set("outcome", to_string(c.outcome));
  cell.set("detail", c.detail);
  return cell;
}

CampaignCell cell_from_json(const util::Json& cell_j) {
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
  return cell;
}

util::Json row_to_json(const CampaignRow& r) {
  util::Json row = util::Json::object();
  row.set("fault", r.fault.to_json());
  row.set("caught", r.caught());
  util::Json cells = util::Json::array();
  for (const CampaignCell& c : r.cells) cells.push(cell_to_json(c));
  row.set("cells", std::move(cells));
  return row;
}

/// Quarantined cell for a shard the executor could not complete: kTimeout
/// with the shard's disposition, so the report shape (and mutation-score
/// denominator) is unchanged. A failed lane-batch shard degrades only its
/// lanes' psl/ovl/lockstep cells, a failed MC shard only its mc cell.
CampaignCell degraded_cell(const std::string& checker,
                           const exec::ShardResult& r) {
  CampaignCell cell;
  cell.checker = checker;
  cell.outcome = CellOutcome::kTimeout;
  cell.detail = std::string("shard ") + exec::to_string(r.status);
  if (!r.error.empty()) cell.detail += ": " + r.error;
  return cell;
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

  report.clean_alarms = control_alarms(opt, setup);
  report.clean_ok = report.clean_alarms.empty();

  // Graceful ^C: a row finished while the flag was up may carry a
  // cancelled check, so it is dropped; the rows kept are a prefix of the
  // uncancelled report.
  const auto cancelled = [&opt] {
    return opt.cancel != nullptr && opt.cancel->load(std::memory_order_relaxed);
  };
  for (std::size_t index = 0; index < setup.batches(); ++index) {
    const std::vector<const FaultSpec*> faults = batch_faults(setup, index);
    std::optional<LaneCells> sim = batch_cells(opt, setup, faults, opt.cancel);
    if (!sim) break;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      CampaignRow row;
      row.fault = *faults[i];
      row.cells = std::move((*sim)[i]);
      row.cells.push_back(mc_column(opt, setup, row.fault));
      if (cancelled()) return report;
      report.rows.push_back(std::move(row));
    }
  }
  return report;
}

CampaignReport run_campaign_parallel(const CampaignOptions& options,
                                     const exec::Options& parallel,
                                     exec::PoolStats* stats) {
  CampaignReport report;
  report.banks = options.banks;
  report.seed = options.seed;
  report.transactions = options.transactions;
  report.checkers = {"psl", "ovl", "lockstep", "mc"};

  const CampaignSetup setup = campaign_setup(options);

  // Shard 0 is the control run, shards 1..B the lane batches, then one MC
  // shard per fault that gets a symbolic check. The merge below walks the
  // plan in order, so the report is a pure function of the shard bodies
  // regardless of worker count.
  const std::size_t batches = setup.batches();
  std::vector<std::size_t> mc_faults;  // plan index of each MC shard
  std::vector<std::size_t> mc_shard(setup.plan.size(), 0);
  for (std::size_t i = 0; i < setup.plan.size(); ++i) {
    if (!needs_mc_check(options, setup.plan[i])) continue;
    mc_shard[i] = 1 + batches + mc_faults.size();
    mc_faults.push_back(i);
  }
  const int shard_count = static_cast<int>(1 + batches + mc_faults.size());
  const auto body = [&](const exec::Context& ctx) -> util::Json {
    const CampaignOptions opt = with_cancel(options, ctx.cancel_flag());
    const auto shard = static_cast<std::size_t>(ctx.shard());
    util::Json j = util::Json::object();
    if (shard == 0) {
      util::Json arr = util::Json::array();
      for (const std::string& a : control_alarms(opt, setup)) arr.push(a);
      j.set("alarms", std::move(arr));
    } else if (shard <= batches) {
      const std::optional<LaneCells> sim =
          batch_cells(opt, setup, batch_faults(setup, shard - 1), opt.cancel);
      // Cancelled through CampaignOptions::cancel alone: ctx.poll() below
      // would not notice, and a short batch must not pass for a finished one.
      if (!sim) throw exec::ShardInterrupted{/*cancelled=*/true};
      util::Json lanes = util::Json::array();
      for (const auto& cells : *sim) {
        util::Json lane = util::Json::array();
        for (const CampaignCell& c : cells) lane.push(cell_to_json(c));
        lanes.push(std::move(lane));
      }
      j.set("lanes", std::move(lanes));
    } else {
      j.set("mc", cell_to_json(mc_cell(
                      opt, setup, setup.plan[mc_faults[shard - 1 - batches]])));
    }
    ctx.poll();  // a cancelled shard must not pass for a finished one
    return j;
  };
  const std::vector<exec::ShardResult> results =
      exec::run_shards(shard_count, body, parallel, stats);

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

  for (std::size_t i = 0; i < setup.plan.size(); ++i) {
    CampaignRow row;
    row.fault = setup.plan[i];
    const exec::ShardResult& sim = results[1 + i / setup.batch_mutants];
    if (sim.ok()) {
      const util::Json& lane =
          sim.value.find("lanes")->items().at(i % setup.batch_mutants);
      for (const util::Json& c : lane.items()) {
        row.cells.push_back(cell_from_json(c));
      }
    } else {
      for (const char* checker : {"psl", "ovl", "lockstep"}) {
        row.cells.push_back(degraded_cell(checker, sim));
      }
    }
    if (!needs_mc_check(options, row.fault)) {
      row.cells.push_back(mc_column(options, setup, row.fault));
    } else if (const exec::ShardResult& mc = results[mc_shard[i]]; mc.ok()) {
      row.cells.push_back(cell_from_json(*mc.value.find("mc")));
    } else {
      row.cells.push_back(degraded_cell("mc", mc));
    }
    report.rows.push_back(std::move(row));
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
