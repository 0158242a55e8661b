// MSC spec compilation bench — the one-spec-three-artifacts acceptance run.
//
// The Figure-3 read scenario is authored once (examples/read_mode.msc) and
// compiled three ways; each experiment checks one derived artifact against
// its hand-written counterpart:
//
//   1. Monitors: the compiled suite must be verdict-identical to the
//      hand-written P1/P2 latency properties over seeded lockstep runs —
//      clean at the spec latency, and both failing on an LA-1B-depth
//      (read_latency = 3) device.
//   2. Coverage: closed-loop closure with the spec-derived ScenarioCoverage
//      plugin must reach 100% of the spec bins at 1 and 2 banks.
//   3. Stimulus: the spec-biased profile must cover all spec bins in fewer
//      transactions than the uniform default profile.
//
//   --max-banks N       highest bank count for the closure experiment (2)
//   --seed S            seed (default 1)
//   --epochs N          closure epoch budget (default 40)
//   --transactions N    transactions per closure epoch (default 250)
//   --json PATH         write the {bench, params, metrics} report
#include <cstdio>
#include <string>
#include <vector>

#include "cov/coverage.hpp"
#include "harness/adapters.hpp"
#include "la1/behavioral.hpp"
#include "la1/properties.hpp"
#include "msc/charts.hpp"
#include "msc/compile.hpp"
#include "psl/monitor.hpp"
#include "tgen/closure.hpp"
#include "tgen/constrained.hpp"
#include "util/bench_report.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace la1;

/// The catalog's bank-0 read mode (P1, P2) at the spec latency.
psl::VUnit hand_written_read() {
  psl::VUnit v("hand_written");
  for (auto& [name, prop] : core::read_mode_suite(core::Level::kBehavioural,
                                                  core::kReadLatencyTicks)) {
    v.add_assert(std::move(name), std::move(prop));
  }
  return v;
}

struct VerdictRow {
  std::uint64_t seed = 0;
  int read_latency = 2;
  std::uint64_t compiled_failures = 0;
  std::uint64_t hand_failures = 0;

  bool match() const {
    return (compiled_failures == 0) == (hand_failures == 0);
  }
};

VerdictRow run_verdict(std::uint64_t seed, int read_latency) {
  VerdictRow row;
  row.seed = seed;
  row.read_latency = read_latency;

  core::Config cfg;
  cfg.banks = 1;
  cfg.addr_bits = 4;
  cfg.read_latency = read_latency;
  harness::BehavioralDeviceModel model(cfg);
  harness::StimulusStream stream(
      harness::StimulusOptions::for_geometry(model.geometry()), seed);

  psl::VUnitRunner compiled(msc::to_psl(msc::read_mode_chart()).vunit());
  psl::VUnitRunner hand(hand_written_read());
  for (int t = 0; t < 500; ++t) {
    const harness::Edge edge = harness::edge_of_tick(t);
    if (edge == harness::Edge::kK) model.enqueue(stream.next());
    model.tick(edge);
    compiled.step(model.env());
    hand.step(model.env());
  }
  row.compiled_failures = compiled.failures();
  row.hand_failures = hand.failures();
  return row;
}

double spec_coverage(const std::vector<cov::Covergroup>& groups) {
  int total = 0;
  int covered = 0;
  for (const cov::Covergroup& g : groups) {
    total += static_cast<int>(g.bins.size());
    covered += g.covered();
  }
  return total == 0 ? 1.0 : static_cast<double>(covered) / total;
}

/// Transactions of `profile` traffic until every spec bin is hit (chunked
/// so both contenders pay the same end-of-stream tracker resets), or `cap`.
std::uint64_t transactions_to_cover(const harness::Geometry& g,
                                    const tgen::Profile& profile,
                                    std::uint64_t seed, std::uint64_t cap,
                                    bool* covered) {
  msc::ScenarioCoverage scenario(msc::read_mode_chart(), g);
  std::vector<tgen::CoveragePlugin*> plugins{&scenario};
  tgen::ConstrainedStream stream(g, profile, seed);
  const std::uint64_t chunk = 50;
  std::uint64_t spent = 0;
  while (spent < cap) {
    cov::CoverageCollector sink(g);
    tgen::collect_stream(sink, stream, chunk, plugins);
    spent += chunk;
    if (scenario.complete()) {
      *covered = true;
      return spent;
    }
  }
  *covered = false;
  return spent;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const int max_banks = cli.get_bounded("max-banks", 2, 1);
  const std::uint64_t seed = cli.get_u64("seed", 1);
  const int epochs = cli.get_bounded("epochs", 40, 0);
  const std::uint64_t per_epoch = cli.get_u64("transactions", 250);
  util::BenchReport report("bench_msc_compile");
  report.param("max_banks", util::Json(max_banks))
      .param("seed", util::Json(seed))
      .param("epochs", util::Json(epochs))
      .param("transactions_per_epoch", util::Json(per_epoch));
  cli.get("json", "");
  for (const auto& unused : cli.unused()) {
    std::fprintf(stderr, "unknown option --%s\n", unused.c_str());
    return 2;
  }

  std::puts("MSC Spec Compilation - One Spec, Three Artifacts");
  std::puts("spec: examples/read_mode.msc (Figure 3, read mode)\n");
  bool ok = true;

  // --- 1. monitor verdict equivalence -----------------------------------
  std::puts("1. compiled monitors vs hand-written P1/P2");
  util::Table verdicts({"Seed", "Read Latency", "Compiled Failures",
                        "Hand-Written Failures", "Verdicts Match"});
  for (const std::uint64_t s : {seed, seed + 1, seed + 2}) {
    for (const int latency : {2, 3}) {
      const VerdictRow row = run_verdict(s, latency);
      ok = ok && row.match();
      // The latency-3 device violates the Figure-3 timing: both suites
      // must actually catch it, not merely agree.
      if (latency == 3) ok = ok && row.compiled_failures > 0;
      verdicts.add_row({std::to_string(row.seed),
                        std::to_string(row.read_latency),
                        std::to_string(row.compiled_failures),
                        std::to_string(row.hand_failures),
                        row.match() ? "yes" : "NO"});
      util::Json m = util::Json::object();
      m.set("kind", "verdict_equivalence");
      m.set("seed", row.seed);
      m.set("read_latency", row.read_latency);
      m.set("compiled_failures", row.compiled_failures);
      m.set("hand_failures", row.hand_failures);
      m.set("match", row.match());
      report.metric(std::move(m));
    }
  }
  std::fputs(verdicts.render().c_str(), stdout);

  // --- 2. closure over the spec-derived bins ----------------------------
  std::puts("\n2. coverage closure over the spec bins");
  util::Table closure_table({"Number of Banks", "Spec Bins", "Coverage (%)",
                             "Epochs", "Transactions", "Complete"});
  for (int banks = 1; banks <= max_banks; ++banks) {
    tgen::ClosureOptions opt;
    opt.geometry.banks = banks;
    opt.seed = seed;
    opt.target = 1.0;
    opt.transactions_per_epoch = per_epoch;
    opt.budget.max_epochs = epochs;
    msc::ScenarioCoverage scenario(msc::read_mode_chart(), opt.geometry);
    opt.plugins.push_back(&scenario);
    const tgen::ClosureResult closure = tgen::run_closure(opt);

    const std::vector<cov::Covergroup> groups = scenario.groups();
    int bins = 0;
    for (const cov::Covergroup& g : groups) {
      bins += static_cast<int>(g.bins.size());
    }
    const double coverage = spec_coverage(groups);
    const bool complete = scenario.complete();
    ok = ok && complete;

    closure_table.add_row({std::to_string(banks), std::to_string(bins),
                           util::fmt_double(100.0 * coverage, 1),
                           std::to_string(closure.epochs),
                           std::to_string(closure.transactions),
                           complete ? "yes" : "NO"});
    util::Json m = util::Json::object();
    m.set("kind", "spec_closure");
    m.set("banks", banks);
    m.set("spec_bins", bins);
    m.set("spec_coverage", coverage);
    m.set("epochs", closure.epochs);
    m.set("transactions", closure.transactions);
    m.set("complete", complete);
    report.metric(std::move(m));
  }
  std::fputs(closure_table.render().c_str(), stdout);

  // --- 3. spec-biased profile vs uniform, transactions to cover ---------
  // Averaged over three seeds: a single draw is noisy enough for the
  // uniform baseline to get lucky on one long-gap bin.
  std::puts("\n3. spec-biased profile vs uniform default");
  harness::Geometry g;
  g.banks = 1;
  const std::uint64_t cap = 20000;
  std::uint64_t biased_total = 0;
  std::uint64_t uniform_total = 0;
  bool all_biased_done = true;
  for (const std::uint64_t s : {seed, seed + 1, seed + 2}) {
    bool biased_done = false;
    bool uniform_done = false;
    const std::uint64_t biased_txns = transactions_to_cover(
        g, msc::to_profile(msc::read_mode_chart()), s, cap, &biased_done);
    const std::uint64_t uniform_txns =
        transactions_to_cover(g, tgen::Profile{}, s, cap, &uniform_done);
    all_biased_done = all_biased_done && biased_done;
    biased_total += biased_txns;
    uniform_total += uniform_txns;
    std::printf("  seed %llu: spec-biased %llu%s, uniform %llu%s\n",
                static_cast<unsigned long long>(s),
                static_cast<unsigned long long>(biased_txns),
                biased_done ? "" : " (NOT covered)",
                static_cast<unsigned long long>(uniform_txns),
                uniform_done ? "" : " (not covered at cap)");
    util::Json m = util::Json::object();
    m.set("kind", "profile_vs_uniform");
    m.set("seed", s);
    m.set("biased_transactions", biased_txns);
    m.set("biased_covered", biased_done);
    m.set("uniform_transactions", uniform_txns);
    m.set("uniform_covered", uniform_done);
    report.metric(std::move(m));
  }
  const bool beats = all_biased_done && biased_total < uniform_total;
  ok = ok && beats;
  std::printf("  total: spec-biased %llu vs uniform %llu — spec profile %s "
              "the uniform baseline\n",
              static_cast<unsigned long long>(biased_total),
              static_cast<unsigned long long>(uniform_total),
              beats ? "beats" : "does NOT beat");

  util::Json verdict = util::Json::object();
  verdict.set("ok", ok);
  report.metric(std::move(verdict));
  std::printf("\n%s: one spec compiled to monitors, coverage and stimulus\n",
              ok ? "PASS" : "FAIL");
  if (!report.finish(cli)) return 1;
  return ok ? 0 : 1;
}
