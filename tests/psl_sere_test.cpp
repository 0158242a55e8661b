#include <gtest/gtest.h>

#include <vector>

#include "psl/sere.hpp"
#include "util/rng.hpp"

namespace la1::psl {
namespace {

/// A trace letter: values of signals "a" and "b".
struct Letter {
  bool a = false;
  bool b = false;
};

class LetterEnv : public Env {
 public:
  explicit LetterEnv(Letter l) : l_(l) {}
  bool sample(const std::string& signal) const override {
    if (signal == "a") return l_.a;
    if (signal == "b") return l_.b;
    throw std::invalid_argument("unknown signal " + signal);
  }

 private:
  Letter l_;
};

/// Reference matcher: does trace[i, j) match the SERE? Exponential, used
/// only on tiny traces to validate the NFA construction.
bool matches(const Sere& s, const std::vector<Letter>& w, int i, int j);

bool matches_star(const Sere& body, int min, int max,
                  const std::vector<Letter>& w, int i, int j) {
  if (min <= 0 && i == j) return true;
  if (max == 0) return i == j && min <= 0;
  // Try a first non-empty repetition; empty repetitions never consume, so
  // only min bookkeeping matters for them.
  if (min <= 0 && i == j) return true;
  for (int k = i + 1; k <= j; ++k) {
    if (matches(body, w, i, k) &&
        matches_star(body, min - 1, max < 0 ? -1 : max - 1, w, k, j)) {
      return true;
    }
  }
  // The body may itself match the empty word, absorbing the min count.
  if (min > 0 && matches(body, w, i, i)) {
    return matches_star(body, 0, max, w, i, j);
  }
  return false;
}

bool matches(const Sere& s, const std::vector<Letter>& w, int i, int j) {
  switch (s.kind) {
    case Sere::Kind::kBool:
      return j == i + 1 && eval(*s.expr, LetterEnv(w[static_cast<std::size_t>(i)]));
    case Sere::Kind::kConcat:
      for (int k = i; k <= j; ++k) {
        if (matches(*s.a, w, i, k) && matches(*s.b, w, k, j)) return true;
      }
      return false;
    case Sere::Kind::kFusion:
      for (int k = i + 1; k <= j; ++k) {
        if (matches(*s.a, w, i, k) && matches(*s.b, w, k - 1, j)) return true;
      }
      return false;
    case Sere::Kind::kOr:
      return matches(*s.a, w, i, j) || matches(*s.b, w, i, j);
    case Sere::Kind::kAnd:
      return matches(*s.a, w, i, j) && matches(*s.b, w, i, j);
    case Sere::Kind::kStar:
      return matches_star(*s.a, s.min, s.max, w, i, j);
  }
  return false;
}

/// Runs the NFA as the monitors do (match may start at any letter) and
/// reports, per position t, whether some match ends at t.
std::vector<bool> scan(const Nfa& nfa, const std::vector<Letter>& w) {
  std::vector<bool> out;
  std::set<int> active;
  for (const Letter& l : w) {
    std::set<int> from = active;
    for (int st : nfa.initial()) from.insert(st);
    active = nfa.step(from, LetterEnv(l));
    out.push_back(nfa.accepting(active));
  }
  return out;
}

std::vector<bool> scan_reference(const Sere& s, const std::vector<Letter>& w) {
  std::vector<bool> out;
  for (int t = 0; t < static_cast<int>(w.size()); ++t) {
    bool any = false;
    for (int i = 0; i <= t && !any; ++i) any = matches(s, w, i, t + 1);
    out.push_back(any);
  }
  return out;
}

SerePtr random_sere(util::Rng& rng, int depth) {
  if (depth == 0 || rng.chance(0.35)) {
    switch (rng.below(4)) {
      case 0: return s_bool(b_sig("a"));
      case 1: return s_bool(b_sig("b"));
      case 2: return s_bool(b_not(b_sig("a")));
      default: return s_bool(b_and(b_sig("a"), b_sig("b")));
    }
  }
  switch (rng.below(6)) {
    case 0: return s_concat(random_sere(rng, depth - 1), random_sere(rng, depth - 1));
    case 1: return s_fusion(random_sere(rng, depth - 1), random_sere(rng, depth - 1));
    case 2: return s_or(random_sere(rng, depth - 1), random_sere(rng, depth - 1));
    case 3: return s_and(random_sere(rng, depth - 1), random_sere(rng, depth - 1));
    case 4: return s_star(random_sere(rng, depth - 1), 0, 2);
    default: return s_plus(random_sere(rng, depth - 1));
  }
}

/// Property sweep: NFA scanning equals the reference matcher on random
/// SEREs and random traces.
class SereNfaEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SereNfaEquivalence, ScanMatchesReference) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1337);
  for (int round = 0; round < 25; ++round) {
    const SerePtr sere = random_sere(rng, 3);
    const Nfa nfa = build_nfa(*sere);
    std::vector<Letter> trace(6);
    for (Letter& l : trace) {
      l.a = rng.next_bool();
      l.b = rng.next_bool();
    }
    EXPECT_EQ(scan(nfa, trace), scan_reference(*sere, trace))
        << "sere: " << to_string(*sere);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SereNfaEquivalence, ::testing::Range(1, 11));

TEST(Sere, BoolMatchesSingleLetter) {
  const Nfa nfa = build_nfa(*s_bool(b_sig("a")));
  EXPECT_EQ(scan(nfa, {{true, false}}), (std::vector<bool>{true}));
  EXPECT_EQ(scan(nfa, {{false, false}}), (std::vector<bool>{false}));
}

TEST(Sere, ConcatOrder) {
  // {a ; b}: accept exactly when previous letter had a and current has b.
  const Nfa nfa = build_nfa(*s_concat(s_bool(b_sig("a")), s_bool(b_sig("b"))));
  const std::vector<Letter> trace{{true, false}, {false, true}, {false, true}};
  EXPECT_EQ(scan(nfa, trace), (std::vector<bool>{false, true, false}));
}

TEST(Sere, FusionOverlapsOneLetter) {
  // {a : b}: one letter satisfying both.
  const Nfa nfa = build_nfa(*s_fusion(s_bool(b_sig("a")), s_bool(b_sig("b"))));
  EXPECT_EQ(scan(nfa, {{true, true}}), (std::vector<bool>{true}));
  EXPECT_EQ(scan(nfa, {{true, false}}), (std::vector<bool>{false}));
}

TEST(Sere, StarBounds) {
  // a[*2] — exactly two a's.
  const Nfa nfa = build_nfa(*s_rep(b_sig("a"), 2));
  const std::vector<Letter> trace{{true, false}, {true, false}, {true, false}};
  // Matches end at positions 1 and 2 (two consecutive a's ending there).
  EXPECT_EQ(scan(nfa, trace), (std::vector<bool>{false, true, true}));
}

TEST(Sere, LongRepetitionUnrollsLinearly) {
  // a[*1024]: state 0 plus one two-state copy of {a} per count, built in
  // one pass (the old fold copied the whole prefix once per count).
  const Nfa nfa = build_nfa(*s_rep(b_sig("a"), 1024));
  EXPECT_EQ(nfa.state_count(), 1 + 2 * 1024);
  const std::vector<bool> hits =
      scan(nfa, std::vector<Letter>(1025, Letter{true, false}));
  EXPECT_FALSE(hits[1022]);
  EXPECT_TRUE(hits[1023]);
  EXPECT_TRUE(hits[1024]);
}

// Bounded repetitions with both bounds drawn, against the reference matcher.
TEST(Sere, BoundedRepetitionMatchesReference) {
  util::Rng rng(2004);
  for (int round = 0; round < 40; ++round) {
    const int min = static_cast<int>(rng.below(3));
    const int max = min + static_cast<int>(rng.below(3));
    const SerePtr sere = s_concat(s_star(random_sere(rng, 1), min, max),
                                  s_bool(b_sig("b")));
    std::vector<Letter> trace(7);
    for (Letter& l : trace) {
      l.a = rng.next_bool();
      l.b = rng.next_bool();
    }
    EXPECT_EQ(scan(build_nfa(*sere), trace), scan_reference(*sere, trace))
        << "sere: " << to_string(*sere);
  }
}

TEST(Sere, GotoEndsAtNthOccurrence) {
  // b[->2]: ends exactly at the 2nd b.
  const Nfa nfa = build_nfa(*s_goto(b_sig("b"), 2));
  const std::vector<Letter> trace{
      {false, true}, {false, false}, {false, true}, {false, true}};
  EXPECT_EQ(scan(nfa, trace), (std::vector<bool>{false, false, true, true}));
}

TEST(Sere, SkipIsExactLength) {
  const Nfa nfa = build_nfa(*s_skip(3));
  const std::vector<Letter> trace(5);
  EXPECT_EQ(scan(nfa, trace),
            (std::vector<bool>{false, false, true, true, true}));
}

TEST(Sere, NullableDetection) {
  EXPECT_TRUE(build_nfa(*s_star(s_bool(b_sig("a")))).nullable());
  EXPECT_FALSE(build_nfa(*s_plus(s_bool(b_sig("a")))).nullable());
  EXPECT_FALSE(build_nfa(*s_bool(b_sig("a"))).nullable());
}

TEST(Sere, RemoveEpsilonPreservesLanguage) {
  util::Rng rng(4242);
  for (int round = 0; round < 20; ++round) {
    const SerePtr sere = random_sere(rng, 3);
    const Nfa nfa = build_nfa(*sere);
    const Nfa eps_free = remove_epsilon(nfa);
    std::vector<Letter> trace(5);
    for (Letter& l : trace) {
      l.a = rng.next_bool();
      l.b = rng.next_bool();
    }
    EXPECT_EQ(scan(nfa, trace), scan(eps_free, trace))
        << "sere: " << to_string(*sere);
  }
}

TEST(Sere, BadBoundsRejected) {
  EXPECT_THROW(s_star(s_bool(b_sig("a")), 3, 2), std::invalid_argument);
  EXPECT_THROW(s_star(s_bool(b_sig("a")), -1, 2), std::invalid_argument);
}

TEST(Sere, ToStringRoundTrips) {
  const SerePtr s = s_concat(s_bool(b_sig("a")), s_star(s_bool(b_sig("b")), 1, 3));
  const std::string text = to_string(*s);
  EXPECT_NE(text.find(';'), std::string::npos);
  EXPECT_NE(text.find("[*1:3]"), std::string::npos);
}

TEST(Sere, CollectSignals) {
  std::set<std::string> sigs;
  collect_signals(*s_and(s_bool(b_sig("a")), s_bool(b_sig("b"))), sigs);
  EXPECT_EQ(sigs.size(), 2u);
}

}  // namespace
}  // namespace la1::psl
