#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace la1::util {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BelowCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitNoSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a"), "a");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, ToBinary) {
  EXPECT_EQ(to_binary(5, 4), "0101");
  EXPECT_EQ(to_binary(0, 3), "000");
  EXPECT_EQ(to_binary(255, 8), "11111111");
}

TEST(Strings, Fnv1a64ReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_NE(fnv1a64("foobar"), fnv1a64("foobas"));
}

TEST(Table, RenderContainsCells) {
  Table t({"Banks", "Time"});
  t.add_row({"1", "0.5"});
  t.add_row({"2", "1.25"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Banks"), std::string::npos);
  EXPECT_NE(out.find("1.25"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.row(0).size(), 3u);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_double(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_count(1234567), "1,234,567");
  EXPECT_NE(fmt_sci(0.000012, 2).find("e-05"), std::string::npos);
}

TEST(Cli, ParsesForms) {
  // Note: a bare "--flag" greedily takes a following non-option token as
  // its value, so positionals come first.
  const char* argv[] = {"prog", "pos", "--a=1", "--b", "2", "--flag"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("a", 0), 1);
  EXPECT_EQ(cli.get("b", ""), "2");
  EXPECT_TRUE(cli.get_bool("flag", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos");
  EXPECT_TRUE(cli.unused().empty());
}

TEST(Cli, BooleanFlagsNeverTakeTheNextArgument) {
  const char* argv[] = {"prog", "--lint", "chart.msc", "--json", "-"};
  Cli cli(5, argv, {"lint"});
  EXPECT_TRUE(cli.get_bool("lint", false));
  EXPECT_EQ(cli.get("json", ""), "-");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "chart.msc");
}

TEST(Cli, CommandsMayQueryOnlyTheFlagsTheyDeclare) {
  // The table is the one list of a command's flags: a handler reading a
  // flag its row does not declare fails instead of silently defaulting.
  const std::vector<Command> table = {
      {"go", "", "does nothing", {{"n", "N"}}, [](const Cli& cli) {
         return static_cast<int>(cli.get_int("n", 0) + cli.get_int("m", 0));
       }}};
  const char* argv[] = {"tool", "go", "--n", "1"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(run_command("tool", table, 4, argv), 2);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "error: query of undeclared flag --m\n");
}

TEST(Cli, UnusedReported) {
  const char* argv[] = {"prog", "--typo=3"};
  Cli cli(2, argv);
  EXPECT_EQ(cli.unused().size(), 1u);
}

TEST(Cli, Defaults) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("n", 42), 42);
  EXPECT_EQ(cli.get_double("d", 1.5), 1.5);
  EXPECT_FALSE(cli.has("x"));
}

TEST(Cli, MalformedNumbersNameTheFlag) {
  const char* argv[] = {"prog",        "--cycles", "abc", "--banks=2x",
                        "--empty=",    "--big=99999999999999999999",
                        "--ratio=1.5x", "--inf=inf", "--bare"};
  Cli cli(9, argv);
  for (const char* flag : {"cycles", "banks", "empty", "big", "bare"}) {
    try {
      cli.get_int(flag, 0);
      ADD_FAILURE() << flag << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(cli.get_double("ratio", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("inf", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("bare", 0), std::invalid_argument);
}

TEST(Cli, BoundedNumbersRejectValuesOutsideTheirRange) {
  const char* argv[] = {"prog", "--ticks", "4294967297", "--banks", "0",
                        "--bank", "3", "--n", "x"};
  Cli cli(9, argv);
  const auto message = [&cli](const char* flag, int min, int max) {
    try {
      cli.get_bounded(flag, 0, min, max);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message("ticks", 1, std::numeric_limits<int>::max()),
            "--ticks must be at most 2147483647");
  EXPECT_EQ(message("banks", 1, 8), "--banks must be at least 1");
  EXPECT_EQ(message("bank", 0, 2), "--bank must be at most 2");
  EXPECT_EQ(message("n", 0, 1), "--n: expected an integer, got 'x'");
  EXPECT_EQ(cli.get_bounded("bank", 0, 0), 3);
  EXPECT_EQ(cli.get_bounded("absent", 7, 0), 7);

  const char* unsigned_argv[] = {"prog", "--seed", "-1", "--limit",
                                 "9223372036854775807"};
  Cli u(5, unsigned_argv);
  try {
    u.get_u64("seed", 1);
    ADD_FAILURE() << "--seed -1 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--seed must be at least 0");
  }
  EXPECT_EQ(u.get_u64("limit", 0), 9223372036854775807u);
  EXPECT_EQ(u.get_u64("absent", ~std::uint64_t{0}), ~std::uint64_t{0});
}

TEST(Cli, WellFormedNumbersParse) {
  const char* argv[] = {"prog", "--n", "-12", "--hex=0x10", "--d", "2.5e-1"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("n", 0), -12);
  EXPECT_EQ(cli.get_int("hex", 0), 16);
  EXPECT_DOUBLE_EQ(cli.get_double("d", 0), 0.25);
  const char* spaced[] = {"prog", "--n", " 7"};
  EXPECT_THROW(Cli(3, spaced).get_int("n", 0), std::invalid_argument);
}

TEST(Cli, PositiveListRejectsJunkEmptyAndNonPositive) {
  EXPECT_EQ(parse_positive_list("1,2,4", "--banks-list"),
            (std::vector<int>{1, 2, 4}));
  for (const char* bad : {"1x", "1,,2", "", "1,", "0", "-2", "1.5",
                          "99999999999"}) {
    EXPECT_THROW(parse_positive_list(bad, "--banks-list"),
                 std::invalid_argument)
        << bad;
  }
}

TEST(JsonErrors, TruncatedInputThrows) {
  EXPECT_THROW(Json::parse(""), std::invalid_argument);
  EXPECT_THROW(Json::parse("{"), std::invalid_argument);
  EXPECT_THROW(Json::parse(R"({"a": )"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1, 2"), std::invalid_argument);
  EXPECT_THROW(Json::parse(R"("unterminated)"), std::invalid_argument);
  EXPECT_THROW(Json::parse("tru"), std::invalid_argument);
}

TEST(JsonErrors, BadEscapesThrow) {
  EXPECT_THROW(Json::parse(R"("\q")"), std::invalid_argument);
  EXPECT_THROW(Json::parse(R"("\u12")"), std::invalid_argument);
  EXPECT_THROW(Json::parse(R"("\uZZZZ")"), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"\\"), std::invalid_argument);
}

TEST(JsonErrors, BadNumbersAndTrailingGarbageThrow) {
  EXPECT_THROW(Json::parse("1.2.3"), std::invalid_argument);
  EXPECT_THROW(Json::parse("--1"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{} extra"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1] 2"), std::invalid_argument);
}

TEST(JsonErrors, DeepNestingRejectedNotCrashed) {
  // A pathological "[[[[..." input must throw, not overflow the native
  // stack in the recursive-descent parser.
  const std::string bomb(100000, '[');
  EXPECT_THROW(Json::parse(bomb), std::invalid_argument);
  try {
    Json::parse(bomb);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("nesting too deep"),
              std::string::npos)
        << e.what();
  }
}

TEST(JsonErrors, ModerateNestingStillParses) {
  std::string nested;
  for (int i = 0; i < 100; ++i) nested += '[';
  nested += "42";
  for (int i = 0; i < 100; ++i) nested += ']';
  const Json j = Json::parse(nested);
  const Json* p = &j;
  for (int i = 0; i < 100; ++i) p = &p->items().front();
  EXPECT_EQ(p->as_int(), 42);
}

TEST(Stopwatch, MeasuresNonNegative) {
  Stopwatch w;
  CpuStopwatch c;
  volatile unsigned sink = 0;  // unsigned: the sum wraps instead of overflowing
  for (unsigned i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(w.seconds(), 0.0);
  EXPECT_GE(c.seconds(), 0.0);
}

}  // namespace
}  // namespace la1::util
