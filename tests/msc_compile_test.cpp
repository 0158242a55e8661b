// The three compilers off one chart: monitor equivalence with the
// hand-written Figure-3 properties, bin-for-bin agreement of the derived
// coverage decode with src/cov, closure over the plugin bins, and the
// stimulus-profile bias.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cov/coverage.hpp"
#include "la1/behavioral.hpp"
#include "la1/host_bfm.hpp"
#include "la1/properties.hpp"
#include "msc/charts.hpp"
#include "msc/compile.hpp"
#include "msc/parse.hpp"
#include "psl/monitor.hpp"
#include "tgen/closure.hpp"
#include "tgen/constrained.hpp"
#include "util/rng.hpp"

namespace la1::msc {
namespace {

/// The catalog's Figure-3 read path (P1/P2 of bank 0) at `latency_ticks`
/// half-cycles.
psl::VUnit hand_written_read(int latency_ticks) {
  psl::VUnit v("hand_written");
  for (auto& [name, prop] :
       core::read_mode_suite(core::Level::kBehavioural, latency_ticks)) {
    v.add_assert(std::move(name), std::move(prop));
  }
  return v;
}

/// Runs both monitor suites over the same seeded traffic; returns
/// {msc_failures, hand_failures}.
std::pair<std::uint64_t, std::uint64_t> run_lockstep(const core::Config& cfg,
                                                     std::uint64_t seed) {
  const MonitorSuite suite = to_psl(read_mode_chart());
  psl::VUnitRunner derived(suite.vunit());
  psl::VUnitRunner hand(hand_written_read(4));

  core::KernelHarness h(cfg);
  util::Rng rng(seed);
  h.host().push_random(rng, 150);
  h.run_ticks(500, [&](int) {
    derived.step(h.env());
    hand.step(h.env());
  });
  return {derived.failures(), hand.failures()};
}

TEST(MscToPsl, VerdictMatchesHandWrittenOnCleanRuns) {
  core::Config cfg;
  cfg.banks = 1;
  cfg.addr_bits = 4;
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const auto [derived, hand] = run_lockstep(cfg, seed);
    EXPECT_EQ(derived, 0u) << "seed " << seed;
    EXPECT_EQ(hand, 0u) << "seed " << seed;
  }
}

TEST(MscToPsl, VerdictMatchesHandWrittenOnLatencyFault) {
  // A deeper pipeline (LA-1B read_latency=3) breaks the Figure-3 timing:
  // both the compiled chain and the hand-written P1 must fail.
  core::Config cfg;
  cfg.banks = 1;
  cfg.addr_bits = 4;
  cfg.read_latency = 3;
  const auto [derived, hand] = run_lockstep(cfg, 7);
  EXPECT_GT(derived, 0u);
  EXPECT_GT(hand, 0u);
}

TEST(MscToPsl, SuiteShapeAndProvenance) {
  const MonitorSuite suite = to_psl(read_mode_chart());
  // Three pairwise latency asserts over the 4-message mandatory timeline.
  ASSERT_EQ(suite.asserts.size(), 3u);
  EXPECT_NE(suite.asserts[0].source.find("OnReadRequest[0]()@K"),
            std::string::npos);
  // One occurrence cover per mandatory operation + the loop-window cover.
  EXPECT_EQ(suite.covers.size(), 5u);
  EXPECT_EQ(suite.vunit().directives().size(),
            suite.asserts.size() + suite.covers.size());
}

TEST(DeriveTest, LatencyPropertiesFromFigure3) {
  const Chart chart = read_mode_chart();
  EXPECT_TRUE(chart.validate().empty());
  const MonitorSuite suite = to_psl(chart);
  ASSERT_GE(suite.asserts.size(), 3u);
  // Request -> fetch is 2 ticks (1 K cycle).
  EXPECT_NE(suite.asserts[0].source.find("OnReadRequest[0]()@K"),
            std::string::npos);
  // The compiled property mentions the bound tap names.
  std::set<std::string> sigs;
  psl::collect_signals(*suite.asserts[0].prop, sigs);
  EXPECT_TRUE(sigs.count("b0.read_start"));
  EXPECT_TRUE(sigs.count("b0.fetch"));
}

TEST(DeriveTest, CoversPerMessage) {
  const Chart chart = read_mode_chart();
  const MonitorSuite suite = to_psl(chart);
  // One occurrence cover per distinct mandatory message, plus the loop cover.
  EXPECT_GE(suite.covers.size(), chart.mandatory().size());
}

TEST(MscToPsl, BankSubstitution) {
  CompileOptions opts;
  opts.bank = 2;
  const MonitorSuite suite = to_psl(read_mode_chart(), opts);
  std::set<std::string> sigs;
  for (const auto& d : suite.asserts) psl::collect_signals(*d.prop, sigs);
  EXPECT_TRUE(sigs.count("b2.read_start"));
  EXPECT_TRUE(sigs.count("b2.fetch"));
  EXPECT_FALSE(sigs.count("b0.read_start"));
}

TEST(MscToPsl, MissingBindingIsCompileError) {
  const Chart c = parse_chart(
      "msc X {\n"
      "  lifeline A\n"
      "  A -> A : Unbound[0]()@K\n"
      "}\n");
  EXPECT_THROW(to_psl(c), CompileError);
}

TEST(MscToPsl, OptRegionAnchorsAndCovers) {
  const Chart c = parse_chart(
      "msc X {\n"
      "  lifeline A\n"
      "  signal Start = s_a\n"
      "  signal Done = s_b\n"
      "  opt {\n"
      "    A -> A : Start[0]()@K\n"
      "    A -> A : Done[1]()@K\n"
      "  }\n"
      "}\n");
  const MonitorSuite suite = to_psl(c);
  // The opt body's pairwise assert is anchored on the region's first
  // message, so the monitor stays silent when the region never starts.
  ASSERT_EQ(suite.asserts.size(), 1u);
  std::set<std::string> sigs;
  psl::collect_signals(*suite.asserts[0].prop, sigs);
  EXPECT_TRUE(sigs.count("s_a"));
  bool has_entry_cover = false;
  for (const auto& cv : suite.covers) {
    has_entry_cover =
        has_entry_cover || cv.name.find("cover_entry") != std::string::npos;
  }
  EXPECT_TRUE(has_entry_cover);

  // Anchored: traffic that never raises s_a never fails the monitor.
  auto monitor = psl::compile(suite.asserts[0].prop);
  psl::MapEnv env;
  env.set("s_a", false);
  env.set("s_b", false);
  for (int t = 0; t < 20; ++t) monitor->step(env);
  EXPECT_NE(monitor->current(), psl::Verdict::kFailed);
}

// ---- lowering --------------------------------------------------------

TEST(MscLowering, MandatoryTimelineOnly) {
  const Chart chart = read_mode_chart();
  const std::vector<const Message*> timeline = chart.mandatory();
  ASSERT_EQ(timeline.size(), 4u);  // the loop region is not on the timeline
  EXPECT_EQ(timeline[0]->tick_lo(), 0);
  EXPECT_EQ(timeline[3]->tick_lo(), 5);
  for (const Message* m : timeline) {
    EXPECT_TRUE(m->exact()) << m->annotation();
  }
  EXPECT_TRUE(chart.validate().empty());
}

TEST(MscLowering, ToDotNamesLifelinesAndMessages) {
  const std::string dot = to_dot(read_mode_chart());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("NetworkProcessor"), std::string::npos);
  EXPECT_NE(dot.find("OnReadRequest[0]()@K"), std::string::npos);
}

// ---- coverage --------------------------------------------------------

harness::Geometry small_geometry() {
  harness::Geometry g;
  g.banks = 1;
  g.mem_addr_bits = 2;
  g.data_bits = 8;
  return g;
}

TEST(MscCoverage, GroupShape) {
  const auto groups = to_coverage(read_mode_chart());
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].name, "msc.ReadMode.ops");
  EXPECT_EQ(groups[0].bins.size(), 4u);
  EXPECT_EQ(groups[1].name, "msc.ReadMode.gap");
  EXPECT_EQ(groups[1].bins.size(), 5u);
  EXPECT_EQ(groups[2].name, "msc.ReadMode.window");
  EXPECT_EQ(groups[2].bins.size(), 4u);  // read trigger: full Figure-3 cross

  // No top-level loop on the write chart -> no window group; a write
  // trigger would anyway lack the read-address bins.
  const auto wgroups = to_coverage(write_mode_chart());
  ASSERT_EQ(wgroups.size(), 2u);
  EXPECT_EQ(wgroups[0].name, "msc.WriteMode.ops");
  EXPECT_EQ(wgroups[1].name, "msc.WriteMode.gap");
}

TEST(MscCoverage, GapAndWindowBinsAgreeWithCovDecode) {
  // Same pin stream through the built-in collector and the spec-derived
  // plugin: the shared bins must agree bin-for-bin.
  const harness::Geometry g = small_geometry();
  cov::CoverageCollector collector(g);
  ScenarioCoverage scenario(read_mode_chart(), g);

  tgen::Profile profile;
  profile.read_burst = 0.6;
  profile.same_addr = 0.5;
  profile.idle_burst = 0.5;
  tgen::ConstrainedStream stream(g, profile, 11);
  std::vector<tgen::CoveragePlugin*> plugins{&scenario};
  tgen::collect_stream(collector, stream, 600, plugins);

  const cov::CoverageReport& cov_report = collector.report();
  std::vector<cov::Covergroup> msc_groups = scenario.groups();
  auto msc_group = [&](const std::string& name) -> const cov::Covergroup& {
    for (const auto& grp : msc_groups) {
      if (grp.name == name) return grp;
    }
    ADD_FAILURE() << "missing group " << name;
    static cov::Covergroup empty;
    return empty;
  };

  const cov::Covergroup& gap = msc_group("msc.ReadMode.gap");
  const cov::Covergroup* read_gap = cov_report.group("read_gap");
  ASSERT_NE(read_gap, nullptr);
  for (const cov::Bin& b : gap.bins) {
    const cov::Bin* ref = read_gap->bin(b.name);
    ASSERT_NE(ref, nullptr) << b.name;
    EXPECT_EQ(b.hits, ref->hits) << "gap bin " << b.name;
  }

  const cov::Covergroup& window = msc_group("msc.ReadMode.window");
  const cov::Covergroup* fig3 = cov_report.group("fig3_read_window");
  ASSERT_NE(fig3, nullptr);
  for (const cov::Bin& b : window.bins) {
    const cov::Bin* ref = fig3->bin(b.name);
    ASSERT_NE(ref, nullptr) << b.name;
    EXPECT_EQ(b.hits, ref->hits) << "window bin " << b.name;
  }

  // Every mandatory-op bin counts once per scenario instance.
  const cov::Covergroup& ops = msc_group("msc.ReadMode.ops");
  ASSERT_FALSE(ops.bins.empty());
  EXPECT_GT(ops.bins[0].hits, 0u);
  for (const cov::Bin& b : ops.bins) EXPECT_EQ(b.hits, ops.bins[0].hits);
}

TEST(MscCoverage, ClosureWithPluginReachesAllSpecBins) {
  tgen::ClosureOptions opt;
  opt.geometry = small_geometry();
  opt.seed = 1;
  opt.target = 1.0;
  opt.transactions_per_epoch = 250;
  opt.budget.max_epochs = 40;
  ScenarioCoverage scenario(read_mode_chart(), opt.geometry);
  opt.plugins.push_back(&scenario);

  const tgen::ClosureResult result = tgen::run_closure(opt);
  EXPECT_TRUE(scenario.complete())
      << "uncovered spec bins after " << result.epochs << " epochs";
  // The plugin's groups ride along in the merged closure report.
  EXPECT_NE(result.report.group("msc.ReadMode.ops"), nullptr);
  EXPECT_NE(result.report.group("msc.ReadMode.window"), nullptr);
}

// ---- stimulus --------------------------------------------------------

TEST(MscProfile, BiasFollowsTheChart) {
  const tgen::Profile read = to_profile(read_mode_chart());
  // Traffic on the trigger port, burst bias from the loop [3] region,
  // idle bursts so the long-gap bins stay reachable.
  EXPECT_GE(read.read_rate, 0.4);
  EXPECT_GT(read.read_burst, 0.5);
  EXPECT_GT(read.same_addr, 0.0);
  EXPECT_GT(read.idle_burst, 0.0);
  EXPECT_LT(read.write_rate, read.read_rate);

  const tgen::Profile write = to_profile(write_mode_chart());
  EXPECT_GE(write.write_rate, 0.4);
  EXPECT_LT(write.read_rate, write.write_rate);
}

TEST(MscProfile, PluginProfileForTargetsItsBins) {
  const harness::Geometry g = small_geometry();
  ScenarioCoverage scenario(read_mode_chart(), g);
  EXPECT_TRUE(scenario.owns("msc.ReadMode.gap"));
  EXPECT_FALSE(scenario.owns("read_gap"));
  const tgen::Profile burst =
      scenario.profile_for("msc.ReadMode.window", "pipeline_full", g);
  EXPECT_GT(burst.read_burst, 0.8);
  const tgen::Profile idle =
      scenario.profile_for("msc.ReadMode.gap", "gap8_plus", g);
  EXPECT_GT(idle.idle_burst, 0.8);
  EXPECT_LT(idle.read_rate, burst.read_rate);
}

}  // namespace
}  // namespace la1::msc
