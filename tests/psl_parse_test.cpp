#include <gtest/gtest.h>

#include "psl/monitor.hpp"
#include "psl/parse.hpp"

namespace la1::psl {
namespace {

TEST(Parse, BooleanLayer) {
  const BExprPtr e = parse_bexpr("!a && (b || c) -> d <-> e");
  EXPECT_EQ(e->kind, BExpr::Kind::kIff);
  std::set<std::string> sigs;
  collect_signals(*e, sigs);
  EXPECT_EQ(sigs.size(), 5u);
}

TEST(Parse, SignalNamesWithDotsAndHash) {
  const BExprPtr e = parse_bexpr("b0.read_start && W#");
  std::set<std::string> sigs;
  collect_signals(*e, sigs);
  EXPECT_TRUE(sigs.count("b0.read_start"));
  EXPECT_TRUE(sigs.count("W#"));
}

TEST(Parse, TrueFalseLiterals) {
  EXPECT_EQ(parse_bexpr("true")->kind, BExpr::Kind::kConst);
  EXPECT_TRUE(parse_bexpr("true")->value);
  EXPECT_FALSE(parse_bexpr("false")->value);
}

TEST(Parse, SereOperators) {
  const SerePtr s = parse_sere("{a ; b} | {a : b}");
  EXPECT_EQ(s->kind, Sere::Kind::kOr);
  EXPECT_EQ(s->a->kind, Sere::Kind::kConcat);
  EXPECT_EQ(s->b->kind, Sere::Kind::kFusion);
}

TEST(Parse, SereRepetitions) {
  EXPECT_EQ(parse_sere("a[*]")->kind, Sere::Kind::kStar);
  EXPECT_EQ(parse_sere("a[+]")->min, 1);
  const SerePtr exact = parse_sere("a[*3]");
  EXPECT_EQ(exact->min, 3);
  EXPECT_EQ(exact->max, 3);
  const SerePtr range = parse_sere("a[*2:5]");
  EXPECT_EQ(range->min, 2);
  EXPECT_EQ(range->max, 5);
}

TEST(Parse, SereGotoAndOccurrence) {
  // Both are sugar that expands to star structures.
  EXPECT_NO_THROW(parse_sere("b[->3]"));
  EXPECT_NO_THROW(parse_sere("b[=2]"));
  EXPECT_THROW(parse_sere("{a;b}[->1]"), ParseError);
}

TEST(Parse, PropertyForms) {
  EXPECT_EQ(parse_property("always (a -> next[2] b)")->kind, Prop::Kind::kAlways);
  EXPECT_EQ(parse_property("never {a ; b}")->kind, Prop::Kind::kNever);
  EXPECT_EQ(parse_property("eventually! a")->kind, Prop::Kind::kEventually);
  EXPECT_EQ(parse_property("a until b")->kind, Prop::Kind::kUntil);
  EXPECT_TRUE(parse_property("a until! b")->strong);
  EXPECT_EQ(parse_property("a before b")->kind, Prop::Kind::kBefore);
  EXPECT_EQ(parse_property("next[3] a")->kind, Prop::Kind::kNext);
  EXPECT_EQ(parse_property("{a} |-> {b}")->kind, Prop::Kind::kSuffixImpl);
  EXPECT_FALSE(parse_property("{a} |=> {b}")->overlap);
  EXPECT_TRUE(parse_property("{a} |-> {b}!")->strong);
}

TEST(Parse, NestedAlways) {
  const PropPtr p = parse_property("always always (a -> b)");
  EXPECT_EQ(p->kind, Prop::Kind::kAlways);
  EXPECT_EQ(p->child->kind, Prop::Kind::kAlways);
}

TEST(Parse, Errors) {
  EXPECT_THROW(parse_property(""), ParseError);
  EXPECT_THROW(parse_property("always"), ParseError);
  EXPECT_THROW(parse_property("never a"), ParseError);  // needs braces
  EXPECT_THROW(parse_property("{a} |-> b"), ParseError);
  EXPECT_THROW(parse_property("a -> next[] b"), ParseError);
  EXPECT_THROW(parse_bexpr("a &&"), ParseError);
  EXPECT_THROW(parse_bexpr("(a"), ParseError);
  EXPECT_THROW(parse_property("eventually a"), ParseError);  // must be strong
  EXPECT_THROW(parse_sere("a[*2:1]"), std::exception);  // bad bounds
}

TEST(Parse, ErrorCarriesOffset) {
  try {
    parse_bexpr("a && &");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_GE(e.offset, 5u);
  }
}

// Counts are ints: a literal above INT_MAX is a diagnostic at the literal,
// never a wrapped (negative) count or signed overflow in the lexer.
TEST(Parse, OversizedCountIsRejectedAtTheLiteral) {
  const auto offset_of = [](const std::string& text) -> std::size_t {
    try {
      parse_property(text);
    } catch (const ParseError& e) {
      return e.offset;
    }
    ADD_FAILURE() << "expected ParseError on: " << text;
    return 0;
  };
  EXPECT_EQ(offset_of("always (a -> next[12345678901234567890] b)"), 18u);
  EXPECT_EQ(offset_of("never {a[*3000000000]}"), 10u);
  EXPECT_EQ(offset_of("never {a[*2147483648]; b}"), 10u);
  // INT_MAX still lexes as a number; the count bound rejects it at the
  // same literal.
  EXPECT_EQ(offset_of("never {a[*2147483647]; b}"), 10u);
}

// A repetition unrolls one NFA copy per count, so a huge count used to
// hang monitor construction; every count is now bounded by kMaxCount.
TEST(Parse, CountsAboveTheLimitAreADiagnostic) {
  const std::string over = std::to_string(kMaxCount + 1);
  const std::string at = std::to_string(kMaxCount);
  for (const std::string& form :
       {"never {a[*N]; b}", "never {a[*1:N]}", "never {a[->N]}",
        "never {a[=N]}", "always (a -> next[N] b)"}) {
    std::string bad = form;
    bad.replace(bad.find('N'), 1, over);
    try {
      parse_property(bad);
      ADD_FAILURE() << "expected ParseError on: " << bad;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("exceeds the limit of " + at),
                std::string::npos)
          << e.what();
    }
    std::string good = form;
    good.replace(good.find('N'), 1, at);
    EXPECT_NO_THROW(parse_property(good)) << good;
  }
  EXPECT_THROW(parse_property("never {a[*100000]; b}"), ParseError);
}

/// Semantic round trip: the parsed property behaves like the built one.
class PairEnv : public Env {
 public:
  PairEnv(bool a, bool b) : a_(a), b_(b) {}
  bool sample(const std::string& s) const override {
    if (s == "a") return a_;
    if (s == "b") return b_;
    throw std::invalid_argument("unknown: " + s);
  }

 private:
  bool a_, b_;
};

Verdict run(const PropPtr& p, const std::vector<std::pair<bool, bool>>& trace) {
  auto m = compile(p);
  m->reset();
  for (const auto& [a, b] : trace) m->step(PairEnv(a, b));
  return m->current();
}

TEST(Parse, ParsedEqualsBuiltSemantics) {
  const PropPtr parsed = parse_property("always (a -> next[2] b)");
  const PropPtr built = p_impl_next(b_sig("a"), 2, b_sig("b"));
  const std::vector<std::vector<std::pair<bool, bool>>> traces{
      {{true, false}, {false, false}, {false, true}},
      {{true, false}, {false, false}, {false, false}},
      {{false, false}, {false, false}, {false, false}},
      {{true, true}, {true, false}, {false, true}, {false, true}},
  };
  for (const auto& t : traces) {
    EXPECT_EQ(run(parsed, t), run(built, t));
  }
}

TEST(Parse, ParenthesizedBooleanProperty) {
  const PropPtr p = parse_property("(a || b) -> next[1] a");
  EXPECT_EQ(p->kind, Prop::Kind::kSuffixImpl);
  EXPECT_EQ(run(p, {{false, true}, {true, false}}), Verdict::kHolds);
  EXPECT_EQ(run(p, {{false, true}, {false, false}}), Verdict::kFailed);
}

TEST(Parse, SereLevelBooleanAnd) {
  // && between booleans inside a SERE is boolean conjunction semantically.
  const PropPtr p = parse_property("never {a && b}");
  EXPECT_EQ(run(p, {{true, false}, {false, true}}), Verdict::kHolds);
  EXPECT_EQ(run(p, {{true, true}}), Verdict::kFailed);
}

TEST(Parse, ToStringIsReparseable) {
  const PropPtr p = parse_property("always ({a ; b[*2]} |-> {true ; b})");
  const PropPtr again = parse_property(to_string(*p));
  EXPECT_EQ(to_string(*p), to_string(*again));
}

}  // namespace
}  // namespace la1::psl
