// The `.msc` front end: lexing/parsing, source-anchored diagnostics, and
// the render <-> parse round trip (fixed cases plus a property test over
// randomly generated charts).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "la1/msc_spec.hpp"
#include "msc/ast.hpp"
#include "msc/charts.hpp"
#include "msc/parse.hpp"
#include "proptest.hpp"
#include "util/rng.hpp"

namespace la1::msc {
namespace {

const char kTiny[] =
    "msc Tiny {\n"
    "  lifeline A\n"
    "  lifeline B\n"
    "  trigger read\n"
    "  signal Req = b$bank.req\n"
    "  A -> B : Req[0]()@K\n"
    "}\n";

TEST(MscParse, TinyChart) {
  const Chart c = parse_chart(kTiny, "tiny.msc");
  EXPECT_EQ(c.name, "Tiny");
  ASSERT_EQ(c.lifelines.size(), 2u);
  EXPECT_EQ(c.trigger, Trigger::kRead);
  ASSERT_EQ(c.mandatory().size(), 1u);
  const Message& m = *c.mandatory()[0];
  EXPECT_EQ(m.operation, "Req");
  EXPECT_TRUE(m.exact());
  EXPECT_EQ(m.tick_lo(), 0);
  ASSERT_NE(c.binding("Req"), nullptr);
  EXPECT_EQ(c.binding("Req")->signal, "b$bank.req");
  EXPECT_TRUE(c.validate().empty());
}

TEST(MscParse, WindowDurationAndSharpIdentifiers) {
  const Chart c = parse_chart(
      "msc W {\n"
      "  lifeline A\n"
      "  A -> A : W#[1..3]()@K#/2\n"
      "}\n");
  const Message& m = *c.mandatory()[0];
  EXPECT_EQ(m.operation, "W#");  // '#' lexes inside identifiers
  EXPECT_EQ(m.cycle_lo, 1);
  EXPECT_EQ(m.cycle_hi, 3);
  EXPECT_FALSE(m.exact());
  EXPECT_EQ(m.clock, Clock::kKs);
  EXPECT_EQ(m.duration, 2);
  EXPECT_EQ(m.annotation(), "W#[1..3]()@K#/2");
}

TEST(MscParse, ShippedFixturesParseAndValidate) {
  const Chart read = parse_chart(core::read_mode_msc(), "read_mode.msc");
  EXPECT_TRUE(read.validate().empty());
  EXPECT_EQ(read.mandatory().size(), 4u);
  EXPECT_EQ(read.all_messages().size(), 5u);  // + the loop-region message

  const Chart write = parse_chart(core::write_mode_msc(), "write_mode.msc");
  EXPECT_TRUE(write.validate().empty());
  EXPECT_EQ(write.trigger, Trigger::kWrite);
  EXPECT_EQ(write.mandatory().size(), 3u);
}

// The Figure-3 read scenario as the flow consumes it: request at K(0),
// SRAM access at K(1), the two DDR beats at K(2) and K#(2).
TEST(La1Spec, ReadModeTicksMatchFigure3) {
  const Chart chart = read_mode_chart();
  const std::vector<const Message*> msgs = chart.mandatory();
  ASSERT_EQ(msgs.size(), 4u);
  EXPECT_EQ(msgs[0]->tick_lo(), 0);  // request at K(0)
  EXPECT_EQ(msgs[1]->tick_lo(), 2);  // SRAM at K(1)
  EXPECT_EQ(msgs[2]->tick_lo(), 4);  // beat0 at K(2)
  EXPECT_EQ(msgs[3]->tick_lo(), 5);  // beat1 at K#(2)
  EXPECT_EQ(msgs[3]->annotation(), "ReleaseBeat1[2]()@K#");
}

TEST(La1Spec, WriteModeValidates) {
  EXPECT_TRUE(write_mode_chart().validate().empty());
}

TEST(SequenceDiagramTest, AnnotationFormat) {
  Message m;
  m.operation = "OnReadRequest";
  m.cycle_lo = m.cycle_hi = 2;
  m.clock = Clock::kKs;
  EXPECT_EQ(m.annotation(), "OnReadRequest[2]()@K#");
  EXPECT_EQ(m.tick_lo(), 5);
  m.cycle_lo = m.cycle_hi = 1;
  m.clock = Clock::kK;
  EXPECT_EQ(m.tick_lo(), 2);
}

TEST(SequenceDiagramTest, ValidateOrderAndLifelines) {
  const auto msg = [](std::string from, std::string to, std::string op,
                      int cycle) {
    Message m;
    m.from = std::move(from);
    m.to = std::move(to);
    m.operation = std::move(op);
    m.cycle_lo = m.cycle_hi = cycle;
    return Item::of(std::move(m));
  };
  Chart unknown;
  unknown.name = "s";
  unknown.lifelines = {"A"};
  unknown.items = {msg("A", "B", "op", 0)};  // unknown B
  EXPECT_FALSE(unknown.validate().empty());

  Chart ordered;
  ordered.name = "o";
  ordered.lifelines = {"A"};
  ordered.items = {msg("A", "A", "second", 1),
                   msg("A", "A", "first", 0)};  // goes back in time
  bool found_order_issue = false;
  for (const auto& issue : ordered.validate()) {
    if (issue.find("order") != std::string::npos) found_order_issue = true;
  }
  EXPECT_TRUE(found_order_issue);
}

TEST(MscParse, RoundTripIsByteStable) {
  for (const char* text : {core::read_mode_msc(), core::write_mode_msc(),
                           kTiny}) {
    const std::string canonical = to_text(parse_chart(text));
    EXPECT_EQ(to_text(parse_chart(canonical)), canonical);
  }
}

// ---- diagnostics -----------------------------------------------------

Diagnostic diag_of(const std::string& text) {
  try {
    parse_chart(text, "t.msc");
  } catch (const ParseError& e) {
    return e.diagnostic();
  }
  ADD_FAILURE() << "expected ParseError on:\n" << text;
  return {};
}

TEST(MscDiagnostics, UnknownClock) {
  const Diagnostic d = diag_of(
      "msc X {\n"
      "  lifeline A\n"
      "  A -> A : Op[0]()@J\n"
      "}\n");
  EXPECT_EQ(d.file, "t.msc");
  EXPECT_EQ(d.line, 3);
  EXPECT_EQ(d.column, 20);
  EXPECT_NE(d.message.find("unknown clock 'J'"), std::string::npos);
  // The rendering carries the source line and a caret under the clock.
  const std::string rendered = d.render();
  EXPECT_NE(rendered.find("t.msc:3:20:"), std::string::npos);
  EXPECT_NE(rendered.find("A -> A : Op[0]()@J"), std::string::npos);
  EXPECT_NE(rendered.find('^'), std::string::npos);
}

TEST(MscDiagnostics, NegativeCycle) {
  const Diagnostic d = diag_of(
      "msc X {\n"
      "  lifeline A\n"
      "  A -> A : Op[-1]()@K\n"
      "}\n");
  EXPECT_EQ(d.line, 3);
  EXPECT_NE(d.message.find("negative"), std::string::npos);
}

TEST(MscDiagnostics, UnterminatedRegion) {
  const Diagnostic d = diag_of(
      "msc X {\n"
      "  lifeline A\n"
      "  opt {\n"
      "    A -> A : Op[0]()@K\n");
  EXPECT_EQ(d.line, 3);  // anchored at the region keyword
  EXPECT_NE(d.message.find("unterminated"), std::string::npos);
}

TEST(MscDiagnostics, DuplicateLifeline) {
  const Diagnostic d = diag_of(
      "msc X {\n"
      "  lifeline A\n"
      "  lifeline A\n"
      "}\n");
  EXPECT_EQ(d.line, 3);
  EXPECT_NE(d.message.find("duplicate lifeline 'A'"), std::string::npos);
}

TEST(MscDiagnostics, TrailingGarbageAndBadTokens) {
  EXPECT_THROW(parse_chart("msc X { lifeline A } extra"), ParseError);
  EXPECT_THROW(parse_chart("msc X { lifeline A ! }"), ParseError);
  EXPECT_THROW(parse_chart("msc X { trigger sideways }"), ParseError);
  EXPECT_THROW(parse_chart("msc X { lifeline A\n A -> A : Op[3..1]()@K }"),
               ParseError);
  EXPECT_THROW(parse_chart(""), ParseError);
}

TEST(MscValidate, CatchesStructuralIssues) {
  // Unknown lifeline ends and non-monotone timelines are whole-chart
  // checks: the parser accepts them, validate() reports them.
  Chart c = parse_chart(
      "msc X {\n"
      "  lifeline A\n"
      "  A -> Ghost : Op[0]()@K\n"
      "}\n");
  EXPECT_FALSE(c.validate().empty());

  Chart late = parse_chart(
      "msc X {\n"
      "  lifeline A\n"
      "  A -> A : First[2]()@K\n"
      "  A -> A : Second[0]()@K\n"
      "}\n");
  EXPECT_FALSE(late.validate().empty());
}

// ---- property test: random chart -> render -> parse -> re-render -----

std::string lifeline_name(int i) { return "L" + std::to_string(i); }

Message random_message(util::Rng& rng, int lifelines, int& cycle) {
  Message m;
  m.from = lifeline_name(static_cast<int>(rng.below(
      static_cast<std::uint64_t>(lifelines))));
  m.to = lifeline_name(static_cast<int>(rng.below(
      static_cast<std::uint64_t>(lifelines))));
  m.operation = "Op" + std::to_string(rng.below(8));
  m.cycle_lo = cycle + static_cast<int>(rng.below(3));
  m.cycle_hi = m.cycle_lo +
               (rng.below(4) == 0 ? static_cast<int>(rng.below(3)) : 0);
  m.clock = rng.next_bool() ? Clock::kK : Clock::kKs;
  m.duration = rng.below(4) == 0 ? static_cast<int>(1 + rng.below(3)) : 0;
  // Advancing past cycle_hi keeps every timeline strictly monotone
  // whatever clocks were drawn, so the generated chart always validates.
  cycle = m.cycle_hi + 1;
  return m;
}

Chart random_chart(util::Rng& rng) {
  Chart c;
  c.name = "Chart" + std::to_string(rng.below(1000));
  const int lifelines = static_cast<int>(1 + rng.below(3));
  for (int i = 0; i < lifelines; ++i) c.lifelines.push_back(lifeline_name(i));
  c.trigger = rng.next_bool() ? Trigger::kRead : Trigger::kWrite;
  for (int op = 0; op < 8; ++op) {
    if (rng.below(3) == 0) {
      c.signals.push_back(
          {"Op" + std::to_string(op), "b$bank.t" + std::to_string(op)});
    }
  }
  int cycle = 0;
  const int items = static_cast<int>(1 + rng.below(5));
  for (int i = 0; i < items; ++i) {
    if (rng.below(4) == 0) {
      Region r;
      r.kind = rng.next_bool() ? Region::Kind::kOpt : Region::Kind::kLoop;
      if (r.kind == Region::Kind::kLoop) {
        r.count = static_cast<int>(1 + rng.below(4));
        r.period = static_cast<int>(1 + rng.below(3));
      }
      int local = 0;
      const int body = static_cast<int>(1 + rng.below(3));
      for (int j = 0; j < body; ++j) {
        r.items.push_back(Item::of(random_message(rng, lifelines, local)));
      }
      c.items.push_back(Item::of(std::move(r)));
    } else {
      c.items.push_back(Item::of(random_message(rng, lifelines, cycle)));
    }
  }
  return c;
}

TEST(MscProperty, RenderParseRenderIsIdentity) {
  const auto result = proptest::check<Chart>(
      /*seed=*/7, /*cases=*/300,
      [](util::Rng& rng) { return random_chart(rng); },
      [](const Chart& c) {
        const std::string text = to_text(c);
        Chart reparsed;
        try {
          reparsed = parse_chart(text);
        } catch (const ParseError&) {
          return false;
        }
        return to_text(reparsed) == text && reparsed.validate().empty();
      });
  EXPECT_TRUE(result.ok) << "case " << result.failing_case << " (seed "
                         << result.seed << "):\n"
                         << to_text(result.counterexample);
}

}  // namespace
}  // namespace la1::msc
