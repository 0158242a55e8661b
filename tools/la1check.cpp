// la1check — command-line driver for the LA-1 verification stack: runs a
// PSL property or an analysis against a chosen level of the Figure-2 flow.
// The subcommands, their flags and `--help` all come from the kCommands
// table at the end of this file.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <set>
#include <stdexcept>

#include "cov/coverage.hpp"
#include "csim/compile.hpp"
#include "csim/machine.hpp"
#include "dfa/sweep.hpp"
#include "exec/signal.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "flow/analyze.hpp"
#include "flow/fixtures.hpp"
#include "harness/adapters.hpp"
#include "harness/lockstep.hpp"
#include "la1/asm_model.hpp"
#include "la1/behavioral.hpp"
#include "la1/rtl_model.hpp"
#include "lint/fixtures.hpp"
#include "lint/netlist_lint.hpp"
#include "lint/psl_lint.hpp"
#include "lint/seq_lint.hpp"
#include "mc/explicit.hpp"
#include "mc/symbolic.hpp"
#include "msc/compile.hpp"
#include "msc/parse.hpp"
#include "plan/fixtures.hpp"
#include "plan/plan.hpp"
#include "psl/parse.hpp"
#include "refine/flow.hpp"
#include "rtl/verilog.hpp"
#include "tgen/closure.hpp"
#include "tgen/shrink.hpp"
#include "rtl/sim.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace la1;

/// Total address pins of the `sim` device: 4 words per bank at 1 bank.
constexpr int kSimAddrBits = 6;

/// Parses --fail-on before any work is done: the severity at which findings
/// fail the command, or nullopt for "never". An unknown value throws: exit 2.
std::optional<lint::Severity> fail_threshold(const util::Cli& cli) {
  const std::string text = cli.get("fail-on", "error");
  if (text == "never") return std::nullopt;
  return lint::severity_from_string(text);
}

/// The --fail-under gate: 1, naming `what`, when `score` is below it.
int fail_under(const util::Cli& cli, const char* what, double score) {
  const double threshold = cli.get_double("fail-under", 0.0);
  if (score >= threshold) return 0;
  std::fprintf(stderr, "FAIL: %s %.3f below threshold %.2f\n", what, score,
               threshold);
  return 1;
}

int run_sim(const util::Cli& cli) {
  core::Config cfg;
  cfg.banks = cli.get_bounded("banks", 1, 1);
  cfg.addr_bits = kSimAddrBits;
  const int ticks = cli.get_bounded("ticks", 4000, 1);

  psl::VUnit vunit("cli");
  if (cli.has("vunit-file")) {
    vunit = psl::parse_vunit(util::read_input(cli.get("vunit-file", "")));
  } else if (cli.has("prop")) {
    vunit.add_assert("cli_prop", psl::parse_property(cli.get("prop", "")));
  } else {
    throw std::invalid_argument("sim needs --prop or --vunit-file");
  }

  harness::BehavioralDeviceModel model(cfg);
  // Unknown atoms fail here, before the monitors unroll any repetition.
  for (const psl::Directive& d : vunit.directives()) {
    std::set<std::string> signals;
    if (d.kind == psl::DirectiveKind::kCover) {
      psl::collect_signals(*d.cover_sere, signals);
    } else {
      psl::collect_signals(*d.prop, signals);
    }
    for (const std::string& signal : signals) {
      if (!model.env().has(signal)) {
        throw std::invalid_argument("ProbeEnv: unknown signal: " + signal);
      }
    }
  }
  // One draw per K cycle: memory stays constant at any --ticks.
  harness::StimulusStream stream(
      harness::StimulusOptions::for_geometry(model.geometry()),
      cli.get_u64("seed", 1));
  harness::Scoreboard scoreboard(model.geometry(), cfg.read_latency);
  psl::VUnitRunner monitors(vunit);
  for (int t = 0; t < ticks; ++t) {
    const harness::Edge edge = harness::edge_of_tick(t);
    if (edge == harness::Edge::kK) model.enqueue(stream.next());
    scoreboard.step(model.tick(edge), model);
    monitors.step(model.env());
  }

  std::printf("simulated %d half-cycles on %d bank(s)\n", ticks, cfg.banks);
  bool failed = false;
  for (std::size_t i = 0; i < vunit.directives().size(); ++i) {
    const auto& d = vunit.directives()[i];
    if (d.kind == psl::DirectiveKind::kCover) {
      std::printf("  cover  %-24s %llu match(es)\n", d.name.c_str(),
                  static_cast<unsigned long long>(monitors.cover_count(i)));
    } else {
      const psl::Verdict v = monitors.verdict(i);
      std::printf("  %s %-24s %s\n",
                  d.kind == psl::DirectiveKind::kAssume ? "assume" : "assert",
                  d.name.c_str(), psl::to_string(v));
      failed = failed || v == psl::Verdict::kFailed;
    }
  }
  std::printf("scoreboard: %llu reads checked, %llu mismatches\n",
              static_cast<unsigned long long>(scoreboard.reads_checked()),
              static_cast<unsigned long long>(scoreboard.data_mismatches()));
  return failed ? 1 : 0;
}

int run_asm(const util::Cli& cli) {
  core::AsmConfig cfg;
  cfg.banks = cli.get_bounded("banks", 1, 1);
  if (!cli.has("prop")) throw std::invalid_argument("asm needs --prop");
  const auto prop = psl::parse_property(cli.get("prop", ""));

  mc::ExplicitOptions opt;
  opt.max_states = cli.get_u64("max-states", 200000);
  const mc::ExplicitResult r =
      mc::check(core::build_asm_model(cfg), prop, opt);
  std::printf("explored %llu product states (%llu ASM states), %.2fs\n",
              static_cast<unsigned long long>(r.product_states),
              static_cast<unsigned long long>(r.fsm_states), r.cpu_seconds);
  if (r.violated) {
    std::puts("VIOLATED; counterexample (rule path from the initial state):");
    for (const std::string& step : r.counterexample) {
      std::printf("  %s\n", step.c_str());
    }
    return 1;
  }
  std::printf("property %s%s\n", r.holds ? "holds" : "UNDECIDED",
              r.complete ? "" : " (bounded exploration)");
  return 0;
}

int run_rtl(const util::Cli& cli) {
  const core::RtlConfig cfg =
      core::RtlConfig::model_checking(cli.get_bounded("banks", 1, 1));
  if (!cli.has("prop")) throw std::invalid_argument("rtl needs --prop");
  const auto prop = psl::parse_property(cli.get("prop", ""));

  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = rtl::expand_memories(dev.flatten());
  const rtl::BitBlast bb = rtl::bitblast(flat, core::clock_schedule(flat));

  mc::SymbolicOptions opt;
  opt.node_limit = cli.get_u64("node-limit", 8000000);
  opt.cone_of_influence = !cli.get_bool("no-coi", false);
  const mc::SymbolicResult r = mc::check(bb, prop, opt);
  std::printf("%d state bits, %d iterations, %llu peak BDD nodes, %.2fs\n",
              r.state_bits, r.iterations,
              static_cast<unsigned long long>(r.peak_bdd_nodes),
              r.cpu_seconds);
  switch (r.outcome) {
    case mc::SymbolicResult::Outcome::kHolds:
      std::printf("property holds (%.0f reachable states)\n",
                  r.reachable_states);
      return 0;
    case mc::SymbolicResult::Outcome::kFails: {
      std::puts("VIOLATED; counterexample trace (changed state bits per step):");
      std::map<std::string, bool> prev;
      for (std::size_t i = 0; i < r.trace.size(); ++i) {
        std::printf("  step %zu:", i);
        for (const auto& [name, value] : r.trace[i]) {
          auto it = prev.find(name);
          if (it == prev.end() ? value : it->second != value) {
            std::printf(" %s=%d", name.c_str(), value ? 1 : 0);
          }
        }
        prev = r.trace[i];
        std::puts("");
      }
      return 1;
    }
    case mc::SymbolicResult::Outcome::kStateExplosion:
      std::puts("state explosion (node budget exceeded)");
      return 3;
  }
  return 0;
}

int run_verilog(const util::Cli& cli) {
  core::RtlConfig cfg;
  cfg.banks = cli.get_bounded("banks", 1, 1);
  const core::RtlDevice dev = core::build_device(cfg);
  const std::string verilog = rtl::to_verilog(*dev.top);
  const std::string out = cli.get("out", "");
  if (out.empty()) {
    std::fputs(verilog.c_str(), stdout);
  } else {
    if (!util::write_file(out, verilog)) return 2;
    std::printf("wrote %zu bytes to %s\n", verilog.size(), out.c_str());
  }
  return 0;
}

int run_lint(const util::Cli& cli) {
  const std::optional<lint::Severity> fail_on = fail_threshold(cli);
  lint::LintReport report;
  std::string target;

  if (cli.has("inject")) {
    const std::string name = cli.get("inject", "");
    target = "injected defect '" + name + "'";
    report = lint::find_defect(lint::injected_defects(), name).run();
  } else {
    const int banks = cli.get_bounded("banks", 1, 1);
    target = std::to_string(banks) + "-bank device";
    // Full-geometry device (what `verilog` emits and `sim` exercises).
    core::RtlConfig cfg;
    cfg.banks = banks;
    report.merge(lint::lint_netlist(*core::build_device(cfg).top));
    // Properties are linted against the model-checking geometry — the
    // netlist `la1check rtl` would hand to the symbolic engine.
    const core::RtlConfig mc_cfg = core::RtlConfig::model_checking(banks);
    core::RtlDevice mc_dev = core::build_device(mc_cfg);
    const rtl::Module mc_flat = rtl::expand_memories(mc_dev.flatten());
    const lint::NetlistSignals signals(mc_flat);
    for (const auto& [name, prop] : core::rtl_properties(mc_cfg)) {
      report.merge(lint::lint_property(prop, name, &signals));
    }
    if (cli.has("prop")) {
      report.merge(lint::lint_property(psl::parse_property(cli.get("prop", "")),
                                       "cli_prop", &signals));
    }
    if (cli.has("vunit-file")) {
      report.merge(lint::lint_vunit(
          psl::parse_vunit(util::read_input(cli.get("vunit-file", ""))),
          &signals));
    }
  }

  return util::emit_report(
      cli, "lint target: " + target + "\n" + report.render(),
      report.to_json(), "findings",
      [&] { return fail_on && report.fails(*fail_on) ? 1 : 0; });
}

int run_dfa(const util::Cli& cli) {
  const std::optional<lint::Severity> fail_on = fail_threshold(cli);
  const int banks = cli.get_bounded("banks", 1, 1);

  // Sequential analyses need the bit-blastable model-checking geometry —
  // the same netlist `la1check rtl` hands to the symbolic engine.
  const core::RtlConfig cfg = core::RtlConfig::model_checking(banks);
  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = dev.flatten();

  const lint::LintReport report = lint::lint_sequential(flat);
  const rtl::Module expanded = rtl::expand_memories(flat);
  const dfa::InvariantSet invariants =
      dfa::sweep(rtl::bitblast(expanded, core::clock_schedule(flat)));

  util::Json out = report.to_json();
  const util::Json inv_json = invariants.to_json();
  if (const util::Json* arr = inv_json.find("invariants")) {
    out.set("invariants", *arr);
  }
  using Kind = dfa::Invariant::Kind;
  const auto n = [&](Kind k) { return std::to_string(invariants.count(k)); };
  std::string text = "dfa target: " + std::to_string(banks) +
                     "-bank device (model-checking geometry)\n" +
                     report.render() + "sweep: " +
                     std::to_string(invariants.size()) +
                     " invariant(s) proven (" + n(Kind::kConst) + " const, " +
                     n(Kind::kEqual) + " equal, " + n(Kind::kComplement) +
                     " complement)\n";
  for (const dfa::Invariant& inv : invariants.invariants()) {
    text += "  " + inv.a + " == " +
            (inv.kind == Kind::kConst ? std::string(inv.value ? "1" : "0")
             : inv.kind == Kind::kEqual ? inv.b
                                        : "!" + inv.b) +
            "\n";
  }
  return util::emit_report(
      cli, text, out, "findings",
      [&] { return fail_on && report.fails(*fail_on) ? 1 : 0; });
}

int run_faults(const util::Cli& cli) {
  fault::CampaignOptions opt;
  opt.banks = cli.get_bounded("banks", 1, 1);
  opt.seed = cli.get_u64("seed", 1);
  opt.transactions = cli.get_bounded("transactions", 300, 1);
  opt.plan.structural =
      cli.get_bounded("structural", opt.plan.structural, 0);
  opt.plan.protocol =
      cli.get_bounded("protocol", opt.plan.protocol, 0);
  opt.run_mc = !cli.get_bool("no-mc", false);
  opt.backend =
      harness::rtl_backend_from_string(cli.get("backend", "interpreted"));

  // ^C cancels the remaining faults; the rows finished so far still form
  // a valid (partial) report, emitted below before the nonzero exit.
  exec::install_interrupt_handler();
  opt.cancel = exec::interrupt_token().flag();

  const int workers = cli.get_bounded("workers", 1, 1);
  fault::CampaignReport report;
  if (workers > 1) {
    exec::Options par;
    par.workers = workers;
    par.steal_seed = cli.get_u64("steal-seed", 1);
    par.shard_wall_ms = cli.get_u64("shard-wall-ms", 0);
    par.cancel = &exec::interrupt_token();
    report = fault::run_campaign_parallel(opt, par);
  } else {
    report = fault::run_campaign(opt);
  }

  return util::emit_report(cli, report.render(), report.to_json(), "report",
                           [&] {
    if (exec::interrupted()) {
      std::fprintf(stderr, "interrupted: %zu fault row(s) completed\n",
                   report.rows.size());
      return 130;
    }
    if (!report.clean_ok) {
      std::fputs("FAIL: false alarm(s) on the unmutated device\n", stderr);
      return 1;
    }
    return fail_under(cli, "mutation score", report.mutation_score());
  });
}

core::Config behavioral_config(const harness::Geometry& g) {
  core::Config cfg;
  cfg.banks = g.banks;
  cfg.data_bits = g.data_bits;
  cfg.addr_bits = g.mem_addr_bits + cfg.bank_bits();
  return cfg;
}

/// Replays `stream` in lockstep: a pristine behavioural reference against
/// the same model wrapped in the protocol-fault decorator. Returns the
/// lockstep report (ok == false when the fault is visible).
harness::LockstepReport replay_fault(const harness::Geometry& g,
                                     harness::RecordedStream& stream,
                                     const fault::FaultSpec& spec,
                                     std::uint64_t transactions) {
  harness::BehavioralDeviceModel reference(behavioral_config(g));
  fault::ProtocolFaultModel faulty(
      std::make_unique<harness::BehavioralDeviceModel>(behavioral_config(g)),
      spec);
  harness::LockstepOptions lo;
  lo.transactions = transactions;
  stream.reset();
  return harness::run_lockstep({&reference, &faulty}, stream, lo);
}

int run_cov_replay(const util::Cli& cli) {
  const std::string path = cli.get("replay", "");
  const util::Json doc = util::Json::parse(util::read_input(path));

  const util::Json* jstream = doc.find("stream");
  const util::Json* jfault = doc.find("fault");
  if (jstream == nullptr || jfault == nullptr) {
    std::fprintf(stderr, "%s: not a reproducer (need 'stream' + 'fault')\n",
                 path.c_str());
    return 2;
  }
  harness::RecordedStream stream = harness::RecordedStream::from_json(*jstream);
  const fault::FaultSpec spec = fault::FaultSpec::from_json(*jfault);
  std::uint64_t transactions = stream.size();
  if (const util::Json* v = doc.find("transactions")) {
    transactions = static_cast<std::uint64_t>(v->as_int());
  }

  const harness::LockstepReport report =
      replay_fault(stream.geometry(), stream, spec, transactions);
  std::printf("replayed %zu transaction(s) against fault %s\n", stream.size(),
              spec.id().c_str());
  if (!report.ok) {
    std::printf("failure reproduced: %s\n", report.mismatch.c_str());
    return 0;
  }
  std::puts("failure did NOT reproduce");
  return 1;
}

int run_cov_shrink(const util::Cli& cli) {
  const std::uint64_t seed = cli.get_u64("seed", 1);
  const std::uint64_t transactions = cli.get_u64("transactions", 200);

  // Seeded failure: uniform traffic against a corrupt-read-data mutant.
  harness::StimulusOptions so;
  so.banks = cli.get_bounded("banks", 1, 1);
  const harness::Geometry g = so.geometry();
  harness::StimulusStream uniform(so, seed);
  std::vector<harness::Stimulus> stimuli;
  for (std::uint64_t i = 0; i < transactions; ++i) {
    stimuli.push_back(uniform.next());
  }
  harness::RecordedStream failing(g, std::move(stimuli));

  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::kCorruptReadData;
  spec.cycle = 0;

  const tgen::ShrinkResult result = tgen::shrink(
      failing,
      [&](harness::RecordedStream& candidate) {
        return !replay_fault(g, candidate, spec, transactions).ok;
      });

  std::printf("shrink: %zu -> %zu transaction(s) (%.1f%% reduction), "
              "%d probe(s), failure %s\n",
              result.original_size, result.shrunk_size,
              100.0 * result.reduction(), result.probes,
              result.failure_preserved ? "preserved" : "NOT preserved");

  const std::string out = cli.get("out", "");
  if (!out.empty()) {
    util::Json doc = util::Json::object();
    doc.set("stream", result.stream.to_json());
    doc.set("fault", spec.to_json());
    doc.set("transactions", transactions);
    if (!util::write_file(out, doc.dump(2) + "\n")) return 2;
    std::printf("wrote reproducer to %s\n", out.c_str());
  }
  return result.failure_preserved ? 0 : 1;
}

int run_cov(const util::Cli& cli) {
  if (cli.has("replay")) return run_cov_replay(cli);
  if (cli.get_bool("shrink", false)) return run_cov_shrink(cli);

  tgen::ClosureOptions opt;
  opt.geometry.banks = cli.get_bounded("banks", 1, 1);
  opt.seed = cli.get_u64("seed", 1);
  opt.target = cli.get_double("target", 0.95);
  opt.transactions_per_epoch = cli.get_u64("transactions", 250);
  opt.budget.max_epochs = cli.get_bounded("epochs", 40, 1);
  opt.budget.wall_ms = cli.get_u64("wall-ms", 0);

  // ^C stops after the current epoch; the partial report is still emitted.
  exec::install_interrupt_handler();
  opt.cancel = exec::interrupt_token().flag();

  const tgen::ClosureResult result = tgen::run_closure(opt);

  const std::string text =
      result.report.render() + "closure: " + std::to_string(result.epochs) +
      " epoch(s), " + std::to_string(result.transactions) +
      " transaction(s), target " + util::fmt_double(100.0 * opt.target, 0) +
      "% " +
      (result.reached_target     ? "reached"
       : result.budget_exhausted ? "NOT reached (budget exhausted)"
                                 : "NOT reached") +
      "\n";
  return util::emit_report(cli, text, result.to_json(), "report", [&] {
    if (exec::interrupted()) {
      std::fprintf(stderr, "interrupted after %d epoch(s)\n", result.epochs);
      return 130;
    }
    return fail_under(cli, "coverage", result.coverage());
  });
}

int run_msc(const util::Cli& cli) {
  const std::optional<lint::Severity> fail_on = fail_threshold(cli);
  const std::string path = cli.positional()[1];
  const std::string text = util::read_input(path);

  msc::Chart chart;
  try {
    chart = msc::parse_chart(text, path);
  } catch (const msc::ParseError& e) {
    std::fputs((e.diagnostic().render() + "\n").c_str(), stderr);
    return 1;
  }
  const std::vector<std::string> issues = chart.validate();
  if (!issues.empty()) {
    for (const std::string& issue : issues) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), issue.c_str());
    }
    return 1;
  }

  msc::CompileOptions copts;
  copts.bank = cli.get_bounded("bank", 0, 0);
  const msc::MonitorSuite suite = msc::to_psl(chart, copts);
  const std::vector<cov::Covergroup> groups = msc::to_coverage(chart);
  int bins = 0;
  for (const cov::Covergroup& g : groups) {
    bins += static_cast<int>(g.bins.size());
  }

  const std::string emit = cli.get("emit", "");
  if (emit == "text") {
    std::fputs(msc::to_text(chart).c_str(), stdout);
  } else if (emit == "dot") {
    std::fputs(msc::to_dot(chart).c_str(), stdout);
  } else if (emit == "psl") {
    for (const msc::CompiledProperty& d : suite.asserts) {
      std::printf("assert %-36s -- %s\n  %s\n", d.name.c_str(),
                  d.source.c_str(), psl::to_string(*d.prop).c_str());
    }
    for (const msc::CompiledCover& c : suite.covers) {
      std::printf("cover  %-36s -- %s\n  {%s}\n", c.name.c_str(),
                  c.source.c_str(), psl::to_string(*c.sere).c_str());
    }
  } else if (emit == "cov") {
    for (const cov::Covergroup& g : groups) {
      std::printf("covergroup %s\n", g.name.c_str());
      for (const cov::Bin& b : g.bins) std::printf("  bin %s\n", b.name.c_str());
    }
  } else if (emit == "profile") {
    std::fputs((msc::to_profile(chart).to_json().dump(2) + "\n").c_str(),
               stdout);
  } else if (!emit.empty()) {
    std::fprintf(stderr,
                 "unknown --emit '%s' (expected psl|cov|profile|dot|text)\n",
                 emit.c_str());
    return 2;
  } else {
    std::printf("%s: chart '%s' ok: %zu lifeline(s), %zu mandatory + %zu "
                "total message(s)\n",
                path.c_str(), chart.name.c_str(), chart.lifelines.size(),
                chart.mandatory().size(), chart.all_messages().size());
    std::printf("  compiles to %zu assert(s), %zu cover(s), %d coverage "
                "bin(s)\n",
                suite.asserts.size(), suite.covers.size(), bins);
  }

  lint::LintReport lint_report;
  const bool do_lint = cli.get_bool("lint", false);
  if (do_lint) {
    lint_report = lint::lint_vunit(suite.vunit());
    if (emit.empty()) std::fputs(lint_report.render().c_str(), stdout);
  }

  util::Json doc = util::Json::object();
  doc.set("file", util::Json(path));
  doc.set("chart", util::Json(chart.name));
  doc.set("asserts",
          util::Json(static_cast<std::int64_t>(suite.asserts.size())));
  doc.set("covers", util::Json(static_cast<std::int64_t>(suite.covers.size())));
  doc.set("coverage_bins", util::Json(static_cast<std::int64_t>(bins)));
  if (do_lint) doc.set("lint", lint_report.to_json());
  if (!util::write_json(cli.get("json", ""), doc, "summary")) return 2;
  return do_lint && fail_on && lint_report.fails(*fail_on) ? 1 : 0;
}

int run_flow(const util::Cli& cli) {
  refine::FlowOptions opt;
  opt.banks = cli.get_bounded("banks", 1, 1);
  const refine::FlowReport report = refine::run_flow(opt);
  std::fputs(report.render().c_str(), stdout);
  return report.ok ? 0 : 1;
}

int run_flowan(const util::Cli& cli) {
  const std::optional<lint::Severity> fail_on = fail_threshold(cli);
  flow::FlowReport report;

  if (cli.has("inject")) {
    const std::string name = cli.get("inject", "");
    report = lint::find_defect(flow::injected_defects(), name).run();
  } else {
    const int banks = cli.get_bounded("banks", 1, 1);
    // Model-checking geometry: the same netlist the symbolic engine (and
    // therefore the semantic cone under `rtl`'s use_coi) actually sees.
    const core::RtlConfig cfg = core::RtlConfig::model_checking(banks);
    core::RtlDevice dev = core::build_device(cfg);
    const rtl::Module flat = dev.flatten();
    const rtl::Module expanded = rtl::expand_memories(flat);
    const rtl::BitBlast bb =
        rtl::bitblast(expanded, core::clock_schedule(flat));
    const dfa::InvariantSet invariants = dfa::sweep(bb);

    report = flow::analyze(flat, core::rtl_mc_properties(cfg), {}, &bb,
                           &invariants);
  }

  if (cli.has("label")) {
    // Keep only the requested label's flow summary (findings untouched).
    const std::string want = cli.get("label", "");
    std::vector<flow::LabelFlow> kept;
    for (flow::LabelFlow& l : report.labels) {
      if (l.label == want) kept.push_back(std::move(l));
    }
    report.labels = std::move(kept);
  }

  return util::emit_report(
      cli, report.render(), report.to_json(), "flow report",
      [&] { return fail_on && !report.clean(*fail_on) ? 1 : 0; });
}

int run_plan(const util::Cli& cli) {
  const std::optional<lint::Severity> fail_on = fail_threshold(cli);
  const double min_two_state = cli.get_double("min-two-state", -1.0);

  plan::CompilePlan p;
  if (cli.has("inject")) {
    const std::string name = cli.get("inject", "");
    p = lint::find_defect(plan::injected_defects(), name).run();
  } else {
    const int banks = cli.get_bounded("banks", 1, 1);
    // Full production geometry: the plan targets the compiled bit-parallel
    // backend, which lowers the real device, not the shrunk model-checking
    // netlist the symbolic engine sees.
    core::RtlConfig cfg;
    cfg.banks = banks;
    core::RtlDevice dev = core::build_device(cfg);
    const rtl::Module flat = dev.flatten();
    plan::PlanOptions opt;
    opt.schedule = core::clock_schedule(flat);
    opt.max_cycles = cli.get_bounded("max-cycles", 256, 1);
    p = plan::analyze(flat, opt);
  }

  return util::emit_report(cli, p.render(), p.to_json(), "compile plan", [&] {
    int rc = fail_on && p.findings.fails(*fail_on) ? 1 : 0;
    const double state_pct = 100.0 * p.two_state_fraction(true);
    if (min_two_state >= 0.0 && state_pct < min_two_state) {
      std::fprintf(stderr,
                   "two-state proof covers %.1f%% of state bits, below the "
                   "--min-two-state %.1f%% threshold\n",
                   state_pct, min_two_state);
      rc = 1;
    }
    return rc;
  });
}

int run_csim(const util::Cli& cli) {
  const int banks = cli.get_bounded("banks", 1, 1);
  const std::uint64_t seed = cli.get_u64("seed", 1);
  const int cycles = cli.get_bounded("cycles", 2000, 1);
  const int parity_cycles =
      cli.get_bounded("parity-cycles", 200, 0);

  // Full production geometry, lowered through the compile plan — the same
  // pipeline `la1check plan` reports on and the harness adapter uses.
  core::RtlConfig cfg;
  cfg.banks = banks;
  core::RtlDevice dev = core::build_device(cfg);
  const rtl::Module flat = dev.flatten();
  plan::PlanOptions popt;
  popt.schedule = core::clock_schedule(flat);
  const plan::CompilePlan p = plan::analyze(flat, popt);
  const csim::Compiled compiled = csim::compile(flat, p);
  csim::Machine machine(compiled);

  std::vector<rtl::NetId> free_inputs;
  for (rtl::NetId id = 0; id < static_cast<rtl::NetId>(flat.nets().size());
       ++id) {
    if (flat.net(id).kind != rtl::NetKind::kInput) continue;
    const bool is_clock =
        std::any_of(popt.schedule.begin(), popt.schedule.end(),
                    [&](const rtl::ClockStep& s) { return s.clock == id; });
    if (!is_clock) free_inputs.push_back(id);
  }

  // Parity proof: the machine's lane 0 in differential lockstep with a
  // fresh interpreter under identical random two-state traffic, every net
  // compared after every clock step of every cycle.
  rtl::CycleSim sim(flat);
  util::Rng parity_rng(seed);
  // Park every clock low on both executors: a fresh interpreter holds
  // undriven clock nets at X until their first edge.
  for (const rtl::ClockStep& s : popt.schedule) {
    const rtl::LVec low = rtl::LVec::zeros(flat.net(s.clock).width);
    sim.set_input(s.clock, low);
    machine.set_input(s.clock, low);
  }
  std::uint64_t comparisons = 0;
  for (int c = 0; c < parity_cycles; ++c) {
    for (rtl::NetId id : free_inputs) {
      const rtl::LVec v =
          rtl::LVec::from_uint(parity_rng.next_u64(), flat.net(id).width);
      sim.set_input(id, v);
      machine.set_input(id, v);
    }
    for (const rtl::ClockStep& s : popt.schedule) {
      sim.edge(s.clock, s.edge);
      machine.edge(s.clock, s.edge);
      for (rtl::NetId net = 0; net < static_cast<rtl::NetId>(flat.nets().size());
           ++net) {
        ++comparisons;
        if (!(sim.get(net) == machine.get(net, 0))) {
          std::fprintf(stderr,
                       "PARITY MISMATCH at cycle %d on net '%s': "
                       "interpreter=%s compiled=%s\n",
                       c, flat.net(net).name.c_str(),
                       sim.get(net).to_string().c_str(),
                       machine.get(net, 0).to_string().c_str());
          return 1;
        }
      }
    }
  }

  // Throughput: both executors over the same traffic generator. One
  // machine pass advances all 64 lanes, so the per-stream figure divides
  // the pass cost by the lane count.
  auto measure = [&](auto&& set_input, auto&& edge) {
    util::Rng rng(seed + 1);
    const auto run = [&](int n) {
      for (int c = 0; c < n; ++c) {
        for (rtl::NetId id : free_inputs) {
          set_input(id,
                    rtl::LVec::from_uint(rng.next_u64(), flat.net(id).width));
        }
        for (const rtl::ClockStep& s : popt.schedule) edge(s.clock, s.edge);
      }
    };
    run(cycles / 10 + 1);  // warm-up
    util::CpuStopwatch watch;
    run(cycles);
    return watch.seconds() / cycles * 1e6;
  };
  rtl::CycleSim timed_sim(flat);
  const double interp_us = measure(
      [&](rtl::NetId id, const rtl::LVec& v) { timed_sim.set_input(id, v); },
      [&](rtl::NetId clk, rtl::Edge e) { timed_sim.edge(clk, e); });
  machine.reset();
  const double csim_us = measure(
      [&](rtl::NetId id, const rtl::LVec& v) { machine.set_input(id, v); },
      [&](rtl::NetId clk, rtl::Edge e) { machine.edge(clk, e); });
  const double per_stream_us = csim_us / 64.0;
  const double speedup = per_stream_us > 0 ? interp_us / per_stream_us : 0.0;

  const std::string json = cli.get("json", "");
  util::Json doc = util::Json::object();
  doc.set("banks", util::Json(banks));
  doc.set("seed", util::Json(seed));
  doc.set("nets", util::Json(static_cast<std::int64_t>(flat.nets().size())));
  doc.set("slots", util::Json(compiled.slot_count()));
  doc.set("instructions",
          util::Json(static_cast<std::int64_t>(compiled.total_instructions())));
  doc.set("two_state_pct", util::Json(100.0 * p.two_state_fraction(true)));
  doc.set("parity_cycles", util::Json(parity_cycles));
  doc.set("parity_comparisons",
          util::Json(static_cast<std::int64_t>(comparisons)));
  doc.set("parity_ok", util::Json(true));
  doc.set("cycles", util::Json(cycles));
  doc.set("interp_us_per_cycle", util::Json(interp_us));
  doc.set("csim_us_per_cycle", util::Json(csim_us));
  doc.set("per_stream_us_per_cycle", util::Json(per_stream_us));
  doc.set("per_stream_speedup", util::Json(speedup));
  doc.set("machine", machine.stats().to_json());
  if (json != "-") {
    std::printf("compiled %d-bank device: %zu net(s) -> %d word slot(s), "
                "%zu instruction(s), %.1f%% of state bits proven two-state\n",
                banks, flat.nets().size(), compiled.slot_count(),
                compiled.total_instructions(),
                100.0 * p.two_state_fraction(true));
    std::printf("parity: %d cycle(s), %llu net comparison(s) vs the "
                "interpreter -> identical\n",
                parity_cycles, static_cast<unsigned long long>(comparisons));
    std::printf("throughput over %d cycle(s):\n", cycles);
    std::printf("  interpreter      %8.2f us/cycle\n", interp_us);
    std::printf("  compiled pass    %8.2f us/cycle (64 lanes)\n", csim_us);
    std::printf("  per stream       %8.2f us/cycle  (%.1fx the interpreter)\n",
                per_stream_us, speedup);
  }
  return util::write_json(json, doc, "report") ? 0 : 2;
}

constexpr util::Flag kBanks{"banks", "N"};
constexpr util::Flag kSeed{"seed", "S"};
constexpr util::Flag kJson{"json", "FILE|-"};
constexpr util::Flag kFailOn{"fail-on", "warn|error|never"};
constexpr util::Flag kProp{"prop", "PSL"};
constexpr util::Flag kVunitFile{"vunit-file", "FILE"};
constexpr util::Flag kInject{"inject", "DEFECT"};
constexpr util::Flag kTransactions{"transactions", "N"};

const std::vector<util::Command> kCommands = {
    {"sim", "",
     "assertion-based verification: PSL monitors on the behavioural model",
     {kBanks, kSeed, {"ticks", "T"}, kProp, kVunitFile},
     run_sim},
    {"asm", "", "explicit-state model checking over the ASM model",
     {kBanks, kProp, {"max-states", "N"}},
     run_asm},
    {"rtl", "", "symbolic (BDD) model checking on the synthesizable RTL",
     {kBanks, kProp, {"node-limit", "N"}, {"no-coi", ""}},
     run_rtl},
    {"verilog", "", "emit the synthesizable Verilog for the configured device",
     {kBanks, {"out", "FILE"}},
     run_verilog},
    {"flow", "", "run the full Figure-2 refinement flow", {kBanks}, run_flow},
    {"flowan", "", "bit-level taint dataflow analysis and semantic MC cones",
     {kBanks, kJson, kFailOn, {"label", "L"}, kInject},
     run_flowan},
    {"lint", "", "static analysis of the netlist and the property suite",
     {kBanks, kJson, kFailOn, kProp, kVunitFile, kInject},
     run_lint},
    {"dfa", "", "sequential ternary fixpoint analysis + register sweeping",
     {kBanks, kJson, kFailOn},
     run_dfa},
    {"faults", "", "fault-injection campaign with detection scoring",
     {kBanks, kSeed, kTransactions, {"structural", "N"}, {"protocol", "N"},
      {"no-mc", ""}, {"backend", "interpreted|compiled"}, {"workers", "N"},
      {"steal-seed", "S"}, {"shard-wall-ms", "MS"}, kJson,
      {"fail-under", "SCORE"}},
     run_faults},
    {"cov", "", "coverage closure, trace shrinking and replay",
     {kBanks, kSeed, {"target", "C"}, {"epochs", "N"}, kTransactions,
      {"wall-ms", "MS"}, kJson, {"fail-under", "C"}, {"shrink", ""},
      {"out", "FILE"}, {"replay", "FILE"}},
     run_cov},
    {"msc", "FILE", "compile a clock-annotated MSC chart to monitors/coverage",
     {{"emit", "psl|cov|profile|dot|text"}, {"bank", "N"}, {"lint", ""},
      kJson, kFailOn},
     run_msc},
    {"plan", "", "lowering-legality compile plan: X/Z proofs, schedule, cost",
     {kBanks, kJson, kFailOn, {"min-two-state", "PCT"}, {"max-cycles", "N"},
      kInject},
     run_plan},
    {"csim", "",
     "compiled 64-lane simulation: parity proof + per-stream speedup",
     {kBanks, kSeed, {"cycles", "N"}, {"parity-cycles", "N"}, kJson},
     run_csim},
};

}  // namespace

int main(int argc, char** argv) {
  return util::run_command("la1check", kCommands, argc, argv);
}
