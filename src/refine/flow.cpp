#include "refine/flow.hpp"

#include <set>
#include <sstream>

#include "la1/asm_model.hpp"
#include "la1/behavioral.hpp"
#include "la1/host_bfm.hpp"
#include "la1/properties.hpp"
#include "la1/rtl_model.hpp"
#include "dfa/sweep.hpp"
#include "fault/campaign.hpp"
#include "flow/analyze.hpp"
#include "harness/adapters.hpp"
#include "harness/lockstep.hpp"
#include "lint/netlist_lint.hpp"
#include "lint/psl_lint.hpp"
#include "lint/seq_lint.hpp"
#include "mc/explicit.hpp"
#include "mc/symbolic.hpp"
#include "msc/charts.hpp"
#include "msc/compile.hpp"
#include "ovl/ovl.hpp"
#include "plan/plan.hpp"
#include "psl/monitor.hpp"
#include "rtl/verilog.hpp"
#include "tgen/closure.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace la1::refine {

std::string FlowReport::render() const {
  std::ostringstream out;
  out << "LA-1 design & verification flow (paper Figure 2)\n";
  for (const FlowStage& s : stages) {
    out << "  [" << (s.ok ? "PASS" : "FAIL") << "] " << s.name << " ("
        << static_cast<int>(s.seconds * 1000) << " ms)";
    if (!s.detail.empty()) out << " — " << s.detail;
    out << '\n';
  }
  if (!properties.empty()) {
    std::vector<std::string> header = {"Property"};
    for (core::Level level : core::kLevels) {
      header.emplace_back(core::to_string(level));
    }
    util::Table matrix(std::move(header));
    for (const core::MatrixRow& row : properties) {
      std::vector<std::string> cells = {row.name};
      for (const core::LevelBinding& b : row.levels) {
        cells.push_back(b.missing_tap.empty()
                            ? core::to_string(b.status)
                            : std::string(core::to_string(b.status)) +
                                  ": no " + b.missing_tap);
      }
      matrix.add_row(std::move(cells));
    }
    out << "property x level:\n" << matrix.render();
  }
  out << (ok ? "flow complete: all stages passed\n" : "flow FAILED\n");
  return out.str();
}

namespace {

template <typename Fn>
void stage(FlowReport& report, const std::string& name, Fn&& body) {
  if (!report.ok) return;  // earlier failure stops the flow, as in Figure 2
  util::CpuStopwatch watch;
  FlowStage s;
  s.name = name;
  s.ok = body(s.detail);
  s.seconds = watch.seconds();
  report.ok = report.ok && s.ok;
  report.stages.push_back(std::move(s));
}

}  // namespace

FlowReport run_flow(const FlowOptions& options) {
  FlowReport report;
  const int banks = options.banks;
  report.properties =
      core::property_matrix(banks, core::Config{}.latency_ticks());

  // 1. Spec compilation: validate the shipped .msc charts, then compile
  // the three artifacts the later stages consume — monitors (stage 4),
  // coverage bins and biased stimulus (stage 12).
  stage(report, "MSC spec compilation", [&](std::string& detail) {
    const msc::Chart read_chart = msc::read_mode_chart();
    const msc::Chart write_chart = msc::write_mode_chart();
    auto issues = read_chart.validate();
    for (const auto& i : write_chart.validate()) issues.push_back(i);
    std::set<std::string> lifelines;
    std::size_t asserts = 0;
    std::size_t covers = 0;
    std::size_t bins = 0;
    for (const msc::Chart* chart : {&read_chart, &write_chart}) {
      lifelines.insert(chart->lifelines.begin(), chart->lifelines.end());
      const msc::MonitorSuite suite = msc::to_psl(*chart);
      asserts += suite.asserts.size();
      covers += suite.covers.size();
      for (const cov::Covergroup& g : msc::to_coverage(*chart)) {
        bins += g.bins.size();
      }
    }
    detail = std::to_string(lifelines.size()) + " lifelines, 2 charts -> " +
             std::to_string(asserts) + " asserts, " + std::to_string(covers) +
             " covers, " + std::to_string(bins) + " coverage bins";
    return issues.empty();
  });

  // 2. ASM level: model-check the PSL suite by guided exploration.
  core::AsmConfig acfg;
  acfg.banks = banks;
  stage(report, "ASM model checking (AsmL-style)", [&](std::string& detail) {
    const asml::Machine machine = core::build_asm_model(acfg);
    mc::ExplicitOptions mopt;
    mopt.max_states = options.explore_max_states;
    const auto outcomes =
        mc::check_all(machine, core::asm_properties(acfg), mopt);
    std::size_t held = 0;
    for (const auto& o : outcomes) {
      if (o.holds) ++held;
    }
    detail = std::to_string(held) + "/" + std::to_string(outcomes.size()) +
             " properties hold";
    return held == outcomes.size();
  });

  // 3. ASM -> behavioural conformance (the AsmL conformance test): both
  // levels co-executed edge by edge on one stream drawn from the ASM rule
  // domains, every shared tap compared after every edge and the memories
  // at the end.
  stage(report, "ASM/behavioural conformance", [&](std::string& detail) {
    harness::AsmDeviceModel asm_model(acfg);
    core::Config ccfg;
    ccfg.banks = banks;
    ccfg.data_bits = asm_model.geometry().data_bits;
    ccfg.addr_bits = acfg.mem_addr_bits + ccfg.bank_bits();
    harness::BehavioralDeviceModel beh_model(ccfg);
    harness::StimulusStream stream(asm_model.stimulus_options(), options.seed);
    harness::LockstepOptions lo;
    lo.transactions = static_cast<std::uint64_t>(options.conformance_steps / 2);
    lo.drain_ticks = options.conformance_steps % 2;
    const harness::LockstepReport r =
        harness::run_lockstep({&asm_model, &beh_model}, stream, lo);
    detail = std::to_string(r.comparisons) + " comparisons over " +
             std::to_string(r.ticks_run) + " edges";
    if (!r.ok) detail += "; mismatch: " + r.mismatch;
    return r.ok;
  });

  // 4. Behavioural ABV: compiled PSL monitors over random traffic — the
  // hand-written suite plus the monitors compiled from the stage-1 charts.
  core::Config bcfg;
  bcfg.banks = banks;
  stage(report, "behavioural ABV (PSL monitors)", [&](std::string& detail) {
    core::KernelHarness harness(bcfg);
    util::Rng rng(options.seed);
    harness.host().push_random(rng, options.abv_ticks / 2);
    psl::VUnit vunit = core::behavioral_vunit(bcfg);
    psl::VUnitRunner runner(vunit);
    psl::VUnit derived("msc_derived");
    for (int b = 0; b < banks; ++b) {
      msc::CompileOptions copts;
      copts.bank = b;
      const msc::MonitorSuite suite =
          msc::to_psl(msc::read_mode_chart(), copts);
      for (const msc::CompiledProperty& d : suite.asserts) {
        derived.add_assert("b" + std::to_string(b) + "." + d.name, d.prop,
                           psl::DirSeverity::kMajor, d.source);
      }
    }
    for (const msc::CompiledProperty& d :
         msc::to_psl(msc::write_mode_chart()).asserts) {
      derived.add_assert(d.name, d.prop, psl::DirSeverity::kMajor, d.source);
    }
    psl::VUnitRunner derived_runner(derived);
    harness.run_ticks(options.abv_ticks, [&](int) {
      runner.step(harness.env());
      derived_runner.step(harness.env());
    });
    detail = std::to_string(vunit.directives().size()) + " directives + " +
             std::to_string(derived.directives().size()) +
             " spec-compiled, " +
             std::to_string(runner.failures() + derived_runner.failures()) +
             " failures, scoreboard " +
             std::to_string(harness.host().data_mismatches()) + " mismatches";
    return runner.failures() == 0 && derived_runner.failures() == 0 &&
           harness.host().data_mismatches() == 0 &&
           harness.host().parity_errors() == 0;
  });

  // 5. Behavioural -> RTL lockstep: the same pin activity into both models,
  // every registered RTL tap and each valid DOUT beat compared per edge.
  stage(report, "behavioural/RTL lockstep", [&](std::string& detail) {
    harness::BehavioralDeviceModel beh_model(bcfg);
    core::RtlConfig lcfg;
    lcfg.banks = banks;
    lcfg.data_bits = bcfg.data_bits;
    lcfg.mem_addr_bits = bcfg.mem_addr_bits();
    lcfg.read_latency = bcfg.read_latency;
    harness::RtlDeviceModel rtl_model(lcfg);
    harness::StimulusOptions so;
    so.banks = banks;
    so.mem_addr_bits = bcfg.mem_addr_bits();
    so.data_bits = bcfg.data_bits;
    harness::StimulusStream stream(so, options.seed);
    harness::LockstepOptions lo;
    lo.transactions =
        static_cast<std::uint64_t>(options.lockstep_transactions);
    const harness::LockstepReport r =
        harness::run_lockstep({&beh_model, &rtl_model}, stream, lo);
    detail = std::to_string(r.comparisons) + " comparisons over " +
             std::to_string(r.ticks_run) + " ticks";
    if (!r.ok) detail += "; mismatch: " + r.mismatch;
    return r.ok;
  });

  // 6. RTL static lint: netlist + property analysis before any expensive
  // RTL stage touches the design (simulation, bit-blasting, BDDs).
  const core::RtlConfig mc_cfg = core::RtlConfig::model_checking(banks);
  stage(report, "RTL static lint", [&](std::string& detail) {
    lint::LintReport all;
    // Full-geometry device (what stages 7-9 simulate and emit)...
    core::RtlConfig full_cfg;
    full_cfg.banks = banks;
    full_cfg.data_bits = bcfg.data_bits;
    full_cfg.mem_addr_bits = bcfg.mem_addr_bits();
    all.merge(lint::lint_netlist(*core::build_device(full_cfg).top));
    // ...and the reduced model-checking geometry plus its property suite.
    core::RtlDevice mc_dev = core::build_device(mc_cfg);
    const rtl::Module mc_flat = rtl::expand_memories(mc_dev.flatten());
    all.merge(lint::lint_netlist(mc_flat));
    const lint::NetlistSignals signals(mc_flat);
    for (const auto& [name, prop] : core::rtl_properties(mc_cfg)) {
      all.merge(lint::lint_property(prop, name, &signals));
    }
    detail = std::to_string(all.errors()) + " errors, " +
             std::to_string(all.warnings()) + " warnings, " +
             std::to_string(all.size()) + " findings";
    return !all.fails(lint::Severity::kError);
  });

  // 7. Sequential dataflow analysis: ternary fixpoint over the reset state
  // plus inductive register sweeping. Defects it proves (stuck registers,
  // unrecoverable X, dead cones, duplicated state) fail the flow before the
  // symbolic engine runs; the invariants it proves strengthen stage 9.
  dfa::InvariantSet invariants;
  stage(report, "sequential dataflow analysis", [&](std::string& detail) {
    core::RtlDevice dev = core::build_device(mc_cfg);
    const rtl::Module flat = dev.flatten();
    const lint::LintReport seq = lint::lint_sequential(flat);
    const rtl::Module expanded = rtl::expand_memories(flat);
    invariants =
        dfa::sweep(rtl::bitblast(expanded, core::clock_schedule(flat)));
    detail = std::to_string(seq.size()) + " findings, " +
             std::to_string(invariants.size()) + " invariants proven";
    return !seq.fails(lint::Severity::kWarning);
  });

  // 8. Flow analysis: bit-level taint over the dependence graph proves the
  // banks non-interfering (write data of one bank cannot reach another's
  // read path, control levels cannot leak into data) and that no property
  // atom is undriven or statically dead — the vacuity and isolation checks
  // the symbolic stage silently assumes.
  stage(report, "flow analysis (taint + cones)", [&](std::string& detail) {
    core::RtlDevice dev = core::build_device(mc_cfg);
    const rtl::Module flat = dev.flatten();
    const flow::FlowReport fr =
        flow::analyze(flat, core::rtl_mc_properties(mc_cfg));
    detail = std::to_string(fr.findings.size()) + " findings over " +
             std::to_string(fr.banks) + " isolation domain(s), " +
             std::to_string(fr.labels.size()) + " taint labels";
    return fr.clean(lint::Severity::kWarning);
  });

  // 9. Lowering-legality compile plan: prove the full-geometry netlist
  // lowerable to the bit-parallel backend — per-bit two-state X/Z safety,
  // a dependency-valid levelized schedule, and none of the PLAN-* legality
  // findings (x-live hot paths, write-port conflicts, unlowerable
  // tristates). The ≥90% two-state floor matches the CI gate.
  stage(report, "lowering-legality compile plan", [&](std::string& detail) {
    core::RtlConfig full_cfg;
    full_cfg.banks = banks;
    full_cfg.data_bits = bcfg.data_bits;
    full_cfg.mem_addr_bits = bcfg.mem_addr_bits();
    core::RtlDevice dev = core::build_device(full_cfg);
    const rtl::Module flat = dev.flatten();
    plan::PlanOptions popt;
    popt.schedule = core::clock_schedule(flat);
    const plan::CompilePlan cp = plan::analyze(flat, popt);
    const double pct = 100.0 * cp.two_state_fraction(true);
    std::ostringstream d;
    d << cp.findings.size() << " findings, " << util::fmt_double(pct, 1)
      << "% state bits two-state, " << cp.schedule.nodes << " nodes / depth "
      << cp.schedule.depth << ", peak " << cp.schedule.peak_slots
      << " word slots";
    detail = d.str();
    return cp.findings.empty() && pct >= 90.0;
  });

  // 10. RTL symbolic model checking (RuleBase-style), read-mode property,
  // under the semantic cone of influence: the stage-7 invariants folded
  // into the cone (substituted into the encoding before reachability) and
  // out-of-cone primary inputs dropped from the encoding entirely.
  stage(report, "RTL symbolic model checking", [&](std::string& detail) {
    core::RtlDevice dev = core::build_device(mc_cfg);
    const rtl::Module flat = rtl::expand_memories(dev.flatten());
    const rtl::BitBlast bb = rtl::bitblast(flat, core::clock_schedule(flat));
    mc::SymbolicOptions sopt;
    sopt.node_limit = 4'000'000;
    sopt.use_coi = true;
    sopt.invariants = &invariants;
    const mc::SymbolicResult r =
        mc::check(bb, core::rtl_read_mode_property(mc_cfg), sopt);
    std::ostringstream d;
    d << r.state_bits << " state bits, " << r.input_bits << " input bits, "
      << r.iterations << " iterations, " << r.peak_bdd_nodes
      << " peak BDD nodes, " << r.invariants_applied
      << " invariants substituted";
    detail = d.str();
    return r.outcome == mc::SymbolicResult::Outcome::kHolds;
  });

  // 11. RTL simulation with OVL monitors.
  core::RtlConfig rcfg;
  rcfg.banks = banks;
  rcfg.data_bits = bcfg.data_bits;
  rcfg.mem_addr_bits = bcfg.mem_addr_bits();
  stage(report, "RTL ABV (OVL monitors)", [&](std::string& detail) {
    core::RtlDevice dev = core::build_device(rcfg);
    // OVL monitors instantiated into the flattened design — the monitor
    // logic simulates with the DUT, as in the paper.
    rtl::Module flat = dev.flatten();
    ovl::OvlBank bank;
    core::attach_ovl_monitors(flat, bank, banks);
    rtl::CycleSim sim(flat);
    // Drive random traffic straight at the pins.
    util::Rng rng(options.seed);
    const int ticks = 2000;
    for (int t = 0; t < ticks; ++t) {
      if (t % 2 == 0) {
        sim.set_input_bit("R_n", !rng.next_bool());
        sim.set_input_bit("W_n", !rng.next_bool());
        sim.set_input("A", rng.below(1u << rcfg.addr_bits()));
        sim.set_input("D", core::pack_beat(static_cast<std::uint32_t>(
                                               rng.below(1u << rcfg.data_bits)),
                                           rcfg.data_bits));
        sim.set_input("BWE_n", 0);
        sim.edge("K", rtl::Edge::kPos);
      } else {
        sim.set_input("A", rng.below(1u << rcfg.addr_bits()));
        sim.set_input("D", core::pack_beat(static_cast<std::uint32_t>(
                                               rng.below(1u << rcfg.data_bits)),
                                           rcfg.data_bits));
        sim.edge("KS", rtl::Edge::kPos);
      }
    }
    detail = std::to_string(bank.entries().size()) + " OVL monitors, " +
             std::to_string(bank.failures(sim)) + " failures over " +
             std::to_string(ticks) + " edges";
    return bank.failures(sim) == 0;
  });

  // 12. Coverage closure: the constrained-random driver re-biases its
  // weights toward uncovered protocol bins until the functional coverage
  // model (src/cov) reports the target percentage. Gates on nearly-full
  // coverage so the lockstep/ABV verdicts above rest on stimulus that
  // demonstrably exercised the protocol space.
  stage(report, "coverage closure", [&](std::string& detail) {
    tgen::ClosureOptions copt;
    copt.geometry.banks = banks;
    copt.seed = options.seed;
    copt.target = options.closure_target;
    copt.transactions_per_epoch =
        static_cast<std::uint64_t>(options.closure_transactions);
    copt.budget.max_epochs = options.closure_epochs;
    // The stage-1 chart contributes its scenario bins to the closure
    // target, and its compiled profile to the re-bias rule table.
    msc::ScenarioCoverage scenario(msc::read_mode_chart(), copt.geometry);
    copt.plugins.push_back(&scenario);
    const tgen::ClosureResult closure = tgen::run_closure(copt);
    std::ostringstream os;
    os << closure.report.covered_bins() << "/" << closure.report.total_bins()
       << " bins in " << closure.epochs << " epoch(s), "
       << closure.transactions << " transactions";
    detail = os.str();
    return closure.coverage() >= options.closure_fail_under;
  });

  // 13. Fault-injection campaign: attack the checkers the earlier stages
  // relied on. A small fixed-seed mutant set must be overwhelmingly
  // caught, and the unmutated device must raise no alarm.
  stage(report, "fault-injection campaign", [&](std::string& detail) {
    fault::CampaignOptions copt;
    copt.banks = banks;
    copt.seed = options.seed;
    copt.transactions = 150;
    copt.plan.structural = 5;
    copt.plan.protocol = 2;
    copt.run_mc = false;  // the symbolic column already ran as stage 9
    const fault::CampaignReport campaign = fault::run_campaign(copt);
    detail = std::to_string(campaign.caught_count()) + "/" +
             std::to_string(campaign.rows.size()) + " mutants caught, " +
             (campaign.clean_ok ? "no false alarms"
                                : "FALSE ALARMS on the clean device");
    return campaign.clean_ok && campaign.mutation_score() >= 0.8;
  });

  // 14. Verilog emission — the flow's final artifact.
  stage(report, "Verilog emission", [&](std::string& detail) {
    core::RtlDevice dev = core::build_device(rcfg);
    report.verilog = rtl::to_verilog(*dev.top);
    detail = std::to_string(report.verilog.size()) + " bytes of Verilog";
    return !report.verilog.empty();
  });

  return report;
}

}  // namespace la1::refine
