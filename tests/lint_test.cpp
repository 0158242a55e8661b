#include <gtest/gtest.h>

#include <stdexcept>

#include "la1/rtl_model.hpp"
#include "lint/fixtures.hpp"
#include "lint/netlist_lint.hpp"
#include "lint/psl_lint.hpp"
#include "lint/report.hpp"
#include "mc/symbolic.hpp"
#include "psl/boolean.hpp"
#include "psl/parse.hpp"
#include "rtl/bitblast.hpp"
#include "rtl/netlist.hpp"
#include "rtl/verilog.hpp"
#include "util/json.hpp"

namespace la1::lint {
namespace {

// ---------------------------------------------------------------------------
// Injected-defect fixtures: each must trip exactly its catalogued rule.

TEST(LintFixtures, EveryDefectTripsItsRule) {
  for (const Defect<LintReport>& d : injected_defects()) {
    const LintReport report = find_defect(injected_defects(), d.name).run();
    EXPECT_TRUE(report.has(d.expected_rule))
        << d.name << " did not report " << d.expected_rule << "\n"
        << report.render();
    EXPECT_TRUE(report.fails(Severity::kWarning))
        << d.name << " produced no warning-or-worse finding";
  }
}

TEST(LintFixtures, UnknownDefectNameThrows) {
  try {
    find_defect(injected_defects(), "no-such-defect");
    FAIL() << "no throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'no-such-defect'"), std::string::npos) << what;
    EXPECT_NE(what.find("known: loop, double-driver,"), std::string::npos)
        << what;
  }
}

TEST(LintFixtures, CombLoopNamesTheCycle) {
  const LintReport report = lint_netlist(broken_comb_loop());
  const Finding* f = report.first("NET-COMB-LOOP");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  // The cycle runs through nets a and b; the finding anchors on one of them.
  EXPECT_TRUE(f->location == "a" || f->location == "b") << f->location;
  EXPECT_NE(f->message.find("a"), std::string::npos);
  EXPECT_NE(f->message.find("b"), std::string::npos);
}

TEST(LintFixtures, DoubleDriverIsAnError) {
  const LintReport report = lint_netlist(broken_double_driver());
  const Finding* f = report.first("NET-MULTI-DRIVE");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->location, "bus");
}

TEST(LintFixtures, MemAddrWidthBothPortsFlagged) {
  const LintReport report = lint_netlist(broken_width_mismatch());
  // 5-bit address into a depth-8 memory: read and write port both alias.
  EXPECT_EQ(report.count(Severity::kError), 2) << report.render();
  const Finding* f = report.first("NET-MEM-ADDR");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->location, "mem");
}

TEST(LintFixtures, MissingResetIsAnError) {
  const LintReport report = lint_netlist(broken_missing_reset());
  const Finding* f = report.first("NET-NO-RESET");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
  EXPECT_EQ(f->location, "r");
}

// ---------------------------------------------------------------------------
// Name collisions and the uniquifying Verilog emitter.

TEST(LintSanitize, CollisionFlaggedAndEmitterUniquifies) {
  const rtl::Module m = broken_name_collision();
  const LintReport report = lint_netlist(m);
  const Finding* f = report.first("NET-NAME-COLLISION");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kWarning);

  // The emitter must keep the two inputs distinct rather than silently
  // shorting them: first claimant keeps the plain form, second is suffixed.
  const std::string v = rtl::to_verilog(m);
  EXPECT_NE(v.find("input bank0_state;"), std::string::npos) << v;
  EXPECT_NE(v.find("input bank0_state__2;"), std::string::npos) << v;
  EXPECT_NE(v.find("bank0_state ^ bank0_state__2"), std::string::npos) << v;
}

TEST(LintSanitize, CleanNamesAreUntouched) {
  const LintReport report = lint_netlist(lint::broken_comb_loop());
  EXPECT_FALSE(report.has("NET-NAME-COLLISION"));
}

// ---------------------------------------------------------------------------
// The stock device is lint-clean at every supported geometry.

TEST(LintDevice, StockDeviceCleanAtEveryBankCount) {
  for (int banks : {1, 2, 4}) {
    core::RtlConfig cfg;
    cfg.banks = banks;
    const LintReport report = lint_netlist(*core::build_device(cfg).top);
    EXPECT_EQ(report.errors(), 0) << banks << " banks:\n" << report.render();
    EXPECT_EQ(report.warnings(), 0) << banks << " banks:\n" << report.render();
  }
}

TEST(LintDevice, ShippedPropertySuiteCleanAgainstMcGeometry) {
  for (int banks : {1, 2}) {
    const core::RtlConfig cfg = core::RtlConfig::model_checking(banks);
    core::RtlDevice dev = core::build_device(cfg);
    const rtl::Module flat = rtl::expand_memories(dev.flatten());
    const NetlistSignals signals(flat);
    for (const auto& [name, prop] : core::rtl_properties(cfg)) {
      const LintReport report = lint_property(prop, name, &signals);
      EXPECT_EQ(report.errors(), 0) << name << ":\n" << report.render();
    }
  }
}

// ---------------------------------------------------------------------------
// PSL analysis building blocks.

TEST(LintPsl, StaticBoolDecidesContradictionsAndTautologies) {
  using namespace psl;
  EXPECT_EQ(static_bool(*b_and(b_sig("a"), b_not(b_sig("a")))),
            std::optional<bool>(false));
  EXPECT_EQ(static_bool(*b_or(b_sig("a"), b_not(b_sig("a")))),
            std::optional<bool>(true));
  EXPECT_EQ(static_bool(*b_sig("a")), std::nullopt);
}

TEST(LintPsl, SereEmptinessAndNullability) {
  EXPECT_TRUE(sere_language_empty(*psl::parse_sere("{a && !a}")));
  EXPECT_FALSE(sere_language_empty(*psl::parse_sere("{a; b}")));
  EXPECT_TRUE(sere_nullable(*psl::parse_sere("{a[*]}")));
  EXPECT_FALSE(sere_nullable(*psl::parse_sere("{a}")));
}

TEST(LintPsl, UnsatConsequentReported) {
  const LintReport report = lint_property(
      psl::parse_property(broken_unsat_sere_text()), "p", nullptr);
  const Finding* f = report.first("PSL-UNSAT");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::kError);
}

TEST(LintPsl, MissingNetNeedsAModel) {
  const auto prop = psl::parse_property(broken_missing_net_text());
  // Without a signal model the existence rules are off...
  EXPECT_FALSE(lint_property(prop, "p", nullptr).has("PSL-MISSING-NET"));
  // ...with one, both phantom signals are reported.
  rtl::Module m("empty");
  m.input("clk", 1);
  const NetlistSignals signals(m);
  const LintReport report = lint_property(prop, "p", &signals);
  EXPECT_EQ(report.count(Severity::kError), 2) << report.render();
  EXPECT_TRUE(report.has("PSL-MISSING-NET"));
}

TEST(LintPsl, MultiBitAtomReported) {
  rtl::Module m("wide");
  m.input("bus", 4);
  const NetlistSignals signals(m);
  const LintReport report =
      lint_property(psl::parse_property("always (bus)"), "p", &signals);
  EXPECT_TRUE(report.has("PSL-SIGNAL-WIDTH")) << report.render();
}

TEST(LintPsl, UnmonitorableNestingReported) {
  const LintReport report = lint_property(
      psl::parse_property("always (a until b)"), "p", nullptr);
  EXPECT_TRUE(report.has("PSL-UNMONITORABLE")) << report.render();
}

// ---------------------------------------------------------------------------
// Report plumbing: JSON export and severity parsing.

// Reports are write-only: a parse of the JSON text re-dumps it byte for byte,
// and it carries every finding field plus the severity counts.
TEST(LintReportTest, JsonRoundTrip) {
  const LintReport report =
      find_defect(injected_defects(), "width-mismatch").run();
  const std::string text = report.to_json().dump(2);
  const util::Json j = util::Json::parse(text);
  EXPECT_EQ(j.dump(2), text);
  const util::Json* findings = j.find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->size(), report.size());
  for (std::size_t i = 0; i < report.size(); ++i) {
    const Finding& f = report.findings()[i];
    const util::Json& item = findings->items()[i];
    EXPECT_EQ(item.find("rule_id")->as_string(), f.rule_id);
    EXPECT_EQ(item.find("severity")->as_string(), to_string(f.severity));
    EXPECT_EQ(item.find("location")->as_string(), f.location);
    EXPECT_EQ(item.find("message")->as_string(), f.message);
  }
  const util::Json* counts = j.find("counts");
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->find("errors")->as_int(), report.errors());
  EXPECT_EQ(counts->find("warnings")->as_int(), report.warnings());
  EXPECT_EQ(counts->find("infos")->as_int(), report.count(Severity::kInfo));
}

TEST(LintReportTest, FindingsKeepCanonicalOrder) {
  // Insertion order must not leak into reports: findings sort by rule id,
  // then location, regardless of the order analyses ran in.
  LintReport scrambled;
  scrambled.add("ZZZ-LAST", Severity::kError, "a", "m1");
  scrambled.add("AAA-FIRST", Severity::kWarning, "b", "m2");
  scrambled.add("MMM-MID", Severity::kInfo, "z", "m3");
  scrambled.add("MMM-MID", Severity::kInfo, "a", "m4");

  LintReport reversed;
  reversed.add("MMM-MID", Severity::kInfo, "a", "m4");
  reversed.add("MMM-MID", Severity::kInfo, "z", "m3");
  reversed.add("AAA-FIRST", Severity::kWarning, "b", "m2");
  reversed.add("ZZZ-LAST", Severity::kError, "a", "m1");

  ASSERT_EQ(scrambled.findings().size(), 4u);
  EXPECT_EQ(scrambled.findings()[0].rule_id, "AAA-FIRST");
  EXPECT_EQ(scrambled.findings()[1].location, "a");
  EXPECT_EQ(scrambled.findings()[2].location, "z");
  EXPECT_EQ(scrambled.findings()[3].rule_id, "ZZZ-LAST");
  EXPECT_EQ(scrambled.render(), reversed.render());
  EXPECT_EQ(scrambled.to_json().dump(), reversed.to_json().dump());

  // merge() routes through the same canonical insertion.
  LintReport merged;
  merged.add("MMM-MID", Severity::kInfo, "z", "m3");
  LintReport other;
  other.add("AAA-FIRST", Severity::kWarning, "b", "m2");
  merged.merge(other);
  EXPECT_EQ(merged.findings()[0].rule_id, "AAA-FIRST");
}

TEST(LintReportTest, DuplicateFindingsCollapseKeepingHighestSeverity) {
  // Two analyzer passes over one module (netlist + seq + flow run, then
  // merge) can diagnose the same defect identically: the report must hold
  // one finding per (rule, location, message), not one per pass.
  LintReport r;
  r.add("NET-CONST", Severity::kWarning, "top.q", "stuck at 0");
  r.add("NET-CONST", Severity::kWarning, "top.q", "stuck at 0");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.findings().front().severity, Severity::kWarning);

  // A higher-severity duplicate upgrades the survivor in place...
  r.add("NET-CONST", Severity::kError, "top.q", "stuck at 0");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.findings().front().severity, Severity::kError);
  // ...and a lower-severity one is absorbed without a downgrade.
  r.add("NET-CONST", Severity::kInfo, "top.q", "stuck at 0");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.findings().front().severity, Severity::kError);

  // A different message (or location, or rule) is a distinct finding.
  r.add("NET-CONST", Severity::kWarning, "top.q", "stuck at 1");
  EXPECT_EQ(r.size(), 2u);

  // merge() routes through add(), so cross-report duplicates collapse too,
  // and the canonical order survives the dedupe.
  LintReport other;
  other.add("NET-CONST", Severity::kWarning, "top.q", "stuck at 0");
  other.add("AAA-FIRST", Severity::kInfo, "a", "m");
  r.merge(other);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.findings().front().rule_id, "AAA-FIRST");
}

TEST(LintReportTest, SeverityNames) {
  EXPECT_EQ(severity_from_string("warn"), Severity::kWarning);
  EXPECT_EQ(severity_from_string("warning"), Severity::kWarning);
  EXPECT_EQ(severity_from_string("info"), Severity::kInfo);
  EXPECT_EQ(severity_from_string("error"), Severity::kError);
  EXPECT_THROW(severity_from_string("fatal"), std::invalid_argument);
}

TEST(LintReportTest, FailsThreshold) {
  LintReport r;
  r.add("X", Severity::kInfo, "a", "m");
  EXPECT_FALSE(r.fails(Severity::kWarning));
  r.add("Y", Severity::kWarning, "b", "m");
  EXPECT_TRUE(r.fails(Severity::kWarning));
  EXPECT_FALSE(r.fails(Severity::kError));
}

// ---------------------------------------------------------------------------
// The model checker's pre-flight rejects broken properties with findings.

TEST(LintPreflight, McCheckRejectsMissingNetProperty) {
  rtl::Module m("dut");
  const rtl::NetId clk = m.input("clk", 1);
  const rtl::NetId d = m.input("d", 1);
  const rtl::NetId q = m.reg("q", 1, 0u);
  const rtl::ProcId p = m.process("ff", clk, rtl::Edge::kPos);
  m.nonblocking(p, q, m.ref(d));
  const rtl::BitBlast bb =
      rtl::bitblast(m, {{clk, rtl::Edge::kPos}});
  try {
    mc::check(bb, psl::parse_property("always (phantom_q)"));
    FAIL() << "expected the pre-flight lint to throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("PSL-MISSING-NET"),
              std::string::npos)
        << e.what();
  }
}

TEST(LintPreflight, McCheckStillRunsCleanProperties) {
  rtl::Module m("dut");
  const rtl::NetId clk = m.input("clk", 1);
  const rtl::NetId q = m.reg("q", 1, 0u);
  const rtl::ProcId p = m.process("ff", clk, rtl::Edge::kPos);
  m.nonblocking(p, q, m.ref(q));  // q stays 0 forever
  const rtl::BitBlast bb = rtl::bitblast(m, {{clk, rtl::Edge::kPos}});
  const mc::SymbolicResult r =
      mc::check(bb, psl::parse_property("always (!q)"));
  EXPECT_EQ(r.outcome, mc::SymbolicResult::Outcome::kHolds);
}

}  // namespace
}  // namespace la1::lint
