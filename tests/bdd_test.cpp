#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace la1::bdd {
namespace {

TEST(Bdd, Terminals) {
  Manager m(3);
  EXPECT_EQ(m.constant(false), kFalse);
  EXPECT_EQ(m.constant(true), kTrue);
  EXPECT_TRUE(m.is_const(kFalse));
}

TEST(Bdd, VarAndEval) {
  Manager m(2);
  const NodeId x0 = m.var(0);
  const NodeId x1 = m.nvar(1);
  EXPECT_TRUE(m.eval(x0, {true, false}));
  EXPECT_FALSE(m.eval(x0, {false, true}));
  EXPECT_TRUE(m.eval(x1, {false, false}));
  EXPECT_FALSE(m.eval(x1, {false, true}));
}

TEST(Bdd, Canonicity) {
  Manager m(3);
  // (x0 & x1) | (x1 & x0) must intern to the same node.
  const NodeId a = m.apply_and(m.var(0), m.var(1));
  const NodeId b = m.apply_and(m.var(1), m.var(0));
  EXPECT_EQ(a, b);
  // De Morgan.
  const NodeId lhs = m.apply_not(m.apply_or(m.var(0), m.var(2)));
  const NodeId rhs = m.apply_and(m.apply_not(m.var(0)), m.apply_not(m.var(2)));
  EXPECT_EQ(lhs, rhs);
}

TEST(Bdd, IteBasics) {
  Manager m(2);
  EXPECT_EQ(m.ite(kTrue, m.var(0), m.var(1)), m.var(0));
  EXPECT_EQ(m.ite(kFalse, m.var(0), m.var(1)), m.var(1));
  EXPECT_EQ(m.ite(m.var(0), kTrue, kFalse), m.var(0));
  EXPECT_EQ(m.ite(m.var(0), kFalse, kTrue), m.apply_not(m.var(0)));
}

/// Random-expression property test: the BDD agrees with direct evaluation
/// on every assignment, for every boolean operator.
class BddRandomExpr : public ::testing::TestWithParam<int> {};

TEST_P(BddRandomExpr, MatchesTruthTable) {
  const int vars = 5;
  Manager m(vars);
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));

  // Build a random expression tree as (node, eval-function) pairs.
  using Fn = std::function<bool(unsigned)>;
  std::vector<std::pair<NodeId, Fn>> pool;
  for (int v = 0; v < vars; ++v) {
    pool.emplace_back(m.var(v), [v](unsigned a) { return ((a >> v) & 1u) != 0; });
  }
  for (int step = 0; step < 30; ++step) {
    const auto& [na, fa] = pool[rng.below(pool.size())];
    const auto& [nb, fb] = pool[rng.below(pool.size())];
    const int op = static_cast<int>(rng.below(4));
    NodeId n;
    Fn f;
    switch (op) {
      case 0:
        n = m.apply_and(na, nb);
        f = [fa, fb](unsigned a) { return fa(a) && fb(a); };
        break;
      case 1:
        n = m.apply_or(na, nb);
        f = [fa, fb](unsigned a) { return fa(a) || fb(a); };
        break;
      case 2:
        n = m.apply_xor(na, nb);
        f = [fa, fb](unsigned a) { return fa(a) != fb(a); };
        break;
      default:
        n = m.apply_not(na);
        f = [fa](unsigned a) { return !fa(a); };
        break;
    }
    pool.emplace_back(n, f);
  }

  for (const auto& [node, fn] : pool) {
    double expected_count = 0;
    for (unsigned a = 0; a < (1u << vars); ++a) {
      std::vector<bool> assignment(vars);
      for (int v = 0; v < vars; ++v) assignment[v] = ((a >> v) & 1u) != 0;
      EXPECT_EQ(m.eval(node, assignment), fn(a));
      if (fn(a)) ++expected_count;
    }
    EXPECT_DOUBLE_EQ(m.sat_count(node), expected_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomExpr, ::testing::Range(1, 9));

TEST(Bdd, ExistsForall) {
  Manager m(3);
  // f = x0 & x1
  const NodeId f = m.apply_and(m.var(0), m.var(1));
  std::vector<bool> mask{true, false, false};  // quantify x0
  EXPECT_EQ(m.exists(f, mask), m.var(1));
  EXPECT_EQ(m.forall(f, mask), kFalse);
  // forall x0. (x0 | x1) == x1
  const NodeId g = m.apply_or(m.var(0), m.var(1));
  EXPECT_EQ(m.forall(g, mask), m.var(1));
}

TEST(Bdd, AndExistsMatchesComposition) {
  Manager m(4);
  util::Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    // Random small functions f and g.
    NodeId f = m.constant(rng.next_bool());
    NodeId g = m.constant(rng.next_bool());
    for (int i = 0; i < 4; ++i) {
      if (rng.next_bool()) f = m.apply_or(f, m.var(static_cast<int>(rng.below(4))));
      if (rng.next_bool()) f = m.apply_and(f, m.nvar(static_cast<int>(rng.below(4))));
      if (rng.next_bool()) g = m.apply_xor(g, m.var(static_cast<int>(rng.below(4))));
    }
    std::vector<bool> mask(4);
    for (int v = 0; v < 4; ++v) mask[static_cast<std::size_t>(v)] = rng.next_bool();
    EXPECT_EQ(m.and_exists(f, g, mask), m.exists(m.apply_and(f, g), mask));
  }
}

TEST(Bdd, RenameShiftsVariables) {
  Manager m(4);
  // f over vars {0, 2}; rename 0->1, 2->3.
  const NodeId f = m.apply_and(m.var(0), m.apply_not(m.var(2)));
  std::vector<int> ren{1, 1, 3, 3};
  const NodeId g = m.rename(f, ren);
  EXPECT_EQ(g, m.apply_and(m.var(1), m.apply_not(m.var(3))));
}

TEST(Bdd, RenameRejectsInversions) {
  Manager m(4);
  const NodeId f = m.var(1);
  std::vector<int> bad{3, 0, 1, 2};
  EXPECT_THROW(m.rename(f, bad), std::invalid_argument);
}

TEST(Bdd, Cofactor) {
  Manager m(3);
  const NodeId f = m.ite(m.var(0), m.var(1), m.var(2));
  EXPECT_EQ(m.cofactor(f, 0, true), m.var(1));
  EXPECT_EQ(m.cofactor(f, 0, false), m.var(2));
  EXPECT_EQ(m.cofactor(m.var(1), 0, true), m.var(1));  // var below unaffected
}

TEST(Bdd, AnySatSatisfies) {
  Manager m(6);
  util::Rng rng(7);
  NodeId f = kTrue;
  for (int i = 0; i < 6; ++i) {
    f = m.apply_and(f, rng.next_bool() ? m.var(i) : m.nvar(i));
  }
  const auto sat = m.any_sat(f);
  EXPECT_TRUE(m.eval(f, sat));
  EXPECT_THROW(m.any_sat(kFalse), std::invalid_argument);
}

TEST(Bdd, SupportFindsVariables) {
  Manager m(5);
  const NodeId f = m.apply_xor(m.var(1), m.var(3));
  const auto sup = m.support(f);
  EXPECT_FALSE(sup[0]);
  EXPECT_TRUE(sup[1]);
  EXPECT_FALSE(sup[2]);
  EXPECT_TRUE(sup[3]);
}

TEST(Bdd, DagSizeOfVariable) {
  Manager m(3);
  // A single variable: node + two terminals.
  EXPECT_EQ(m.dag_size(m.var(0)), 3u);
  EXPECT_EQ(m.dag_size(kTrue), 1u);
}

TEST(Bdd, GarbageCollection) {
  Manager m(8);
  NodeId keep = m.apply_and(m.var(0), m.var(1));
  m.ref(keep);
  // Create garbage.
  for (int i = 0; i < 100; ++i) {
    NodeId junk = kTrue;
    for (int v = 0; v < 8; ++v) {
      junk = m.apply_xor(junk, m.apply_and(m.var(v), m.var((v + i) % 8)));
    }
  }
  const std::uint64_t before = m.live_nodes();
  const std::uint64_t reclaimed = m.collect_garbage();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_LT(m.live_nodes(), before);
  // The kept function still evaluates correctly and new ops still work.
  EXPECT_TRUE(m.eval(keep, {true, true, false, false, false, false, false, false}));
  EXPECT_EQ(m.apply_and(m.var(0), m.var(1)), keep);
}

TEST(Bdd, DagSizeBoundedStopsPastTheBound) {
  Manager m(12);
  NodeId f = kFalse;
  for (int v = 0; v < 12; ++v) f = m.apply_xor(f, m.var(v));
  const std::uint64_t size = m.dag_size(f);
  EXPECT_EQ(m.dag_size_bounded(f, size), size);
  EXPECT_EQ(m.dag_size_bounded(f, size + 10), size);
  EXPECT_EQ(m.dag_size_bounded(f, size - 1), size);
  EXPECT_EQ(m.dag_size_bounded(f, 3), 4u);
  EXPECT_EQ(m.dag_size_bounded(kTrue, 0), 1u);
  EXPECT_EQ(m.dag_size_bounded(f, ~std::uint64_t{0}), size);
}

/// Every node reachable from `roots`, each once.
std::vector<NodeId> reachable_nodes(const Manager& m,
                                    const std::vector<NodeId>& roots) {
  std::vector<NodeId> out;
  std::vector<NodeId> work = roots;
  while (!work.empty()) {
    const NodeId id = work.back();
    work.pop_back();
    if (m.is_const(id) ||
        std::find(out.begin(), out.end(), id) != out.end()) {
      continue;
    }
    out.push_back(id);
    work.push_back(m.low(id));
    work.push_back(m.high(id));
  }
  return out;
}

TEST(Bdd, UniqueTableGrowsAfterGarbageCollection) {
  // Collecting garbage leaves tombstones on the free list; new nodes reuse
  // those slots and then double the unique table, which rehashes the node
  // array. Every survivor must still be found by make (rebuilding it
  // returns its id and creates nothing), and equal functions stay equal.
  Manager m(20);
  util::Rng rng(11);
  const auto grow = [&](std::vector<NodeId>& kept, int count) {
    for (int i = 0; i < count; ++i) {
      NodeId f = kFalse;
      for (int t = 0; t < 6; ++t) {
        const int a = static_cast<int>(rng.below(20));
        const int b = static_cast<int>(rng.below(20));
        f = m.apply_xor(f, m.apply_and(m.var(a), m.nvar(b)));
      }
      if (i % 2 == 0) {
        m.ref(f);
        kept.push_back(f);
      }
    }
  };
  std::vector<NodeId> kept;
  grow(kept, 200);
  const std::uint64_t buckets = m.stats().unique_buckets;
  ASSERT_GT(m.collect_garbage(), 0u);
  while (m.stats().unique_buckets == buckets) grow(kept, 50);

  const std::uint64_t created = m.created_nodes();
  for (const NodeId id : reachable_nodes(m, kept)) {
    EXPECT_EQ(m.ite(m.var(m.top_var(id)), m.high(id), m.low(id)), id);
  }
  EXPECT_EQ(m.created_nodes(), created);
  const NodeId x = m.apply_xor(m.var(3), m.apply_and(m.var(7), m.var(15)));
  EXPECT_EQ(m.apply_xor(m.apply_and(m.var(15), m.var(7)), m.var(3)), x);
}

TEST(Bdd, NodeLimitThrows) {
  Manager m(16);
  m.set_node_limit(64);
  EXPECT_THROW(
      {
        NodeId f = kTrue;
        for (int v = 0; v < 16; ++v) {
          f = m.apply_xor(f, m.var(v));
        }
      },
      ResourceExhausted);
}

TEST(Bdd, SatCountWide) {
  Manager m(10);
  // x0 | x1: 3/4 of assignments -> 3 * 2^8.
  const NodeId f = m.apply_or(m.var(0), m.var(1));
  EXPECT_DOUBLE_EQ(m.sat_count(f), 3.0 * 256.0);
}

// --- computed-cache tests over 6-variable truth tables ---------------------
// A function of 6 variables is a 64-bit truth table: bit a holds f(a), where
// assignment a gives variable v the value of a's bit v.

constexpr int kTruthVars = 6;
using Truth = std::uint64_t;

Truth tabulate(const std::function<bool(unsigned)>& fn) {
  Truth t = 0;
  for (unsigned a = 0; a < 64; ++a) {
    if (fn(a)) t |= Truth{1} << a;
  }
  return t;
}

Truth truth(const Manager& m, NodeId f) {
  return tabulate([&](unsigned a) {
    std::vector<bool> x(kTruthVars);
    for (int v = 0; v < kTruthVars; ++v) {
      x[static_cast<std::size_t>(v)] = ((a >> v) & 1u) != 0;
    }
    return m.eval(f, x);
  });
}

Truth var_truth(int v) {
  return tabulate([v](unsigned a) { return ((a >> v) & 1u) != 0; });
}

/// Existential quantification of a truth table: per masked variable v,
/// OR the v=0 and v=1 halves and spread the result over both.
Truth exists_truth(Truth t, const std::vector<bool>& mask) {
  for (int v = 0; v < kTruthVars; ++v) {
    if (!mask[static_cast<std::size_t>(v)]) continue;
    const unsigned shift = 1u << v;
    const Truth low_half = (t | (t >> shift)) & ~var_truth(v);
    t = low_half | (low_half << shift);
  }
  return t;
}

/// A random function built through the manager, with its truth table.
std::pair<NodeId, Truth> random_function(Manager& m, util::Rng& rng) {
  const int first = static_cast<int>(rng.below(kTruthVars));
  std::pair<NodeId, Truth> acc{m.var(first), var_truth(first)};
  for (int step = 0; step < 8; ++step) {
    const int v = static_cast<int>(rng.below(kTruthVars));
    switch (rng.below(3)) {
      case 0:
        acc = {m.apply_and(acc.first, m.nvar(v)), acc.second & ~var_truth(v)};
        break;
      case 1:
        acc = {m.apply_or(acc.first, m.var(v)), acc.second | var_truth(v)};
        break;
      default:
        acc = {m.apply_xor(acc.first, m.var(v)), acc.second ^ var_truth(v)};
        break;
    }
  }
  return acc;
}

std::vector<bool> random_mask(util::Rng& rng) {
  std::vector<bool> mask(kTruthVars);
  for (int v = 0; v < kTruthVars; ++v) {
    mask[static_cast<std::size_t>(v)] = rng.next_bool();
  }
  return mask;
}

/// Runs every cached operation on (f, g) and checks each result against
/// its truth table.
void check_ops(Manager& m, std::pair<NodeId, Truth> f,
               std::pair<NodeId, Truth> g, const std::vector<bool>& mask) {
  const auto [fn, ft] = f;
  const auto [gn, gt] = g;
  const NodeId h = m.apply_xor(fn, m.var(0));
  const Truth ht = ft ^ var_truth(0);
  EXPECT_EQ(truth(m, m.ite(fn, gn, h)), (ft & gt) | (~ft & ht));
  EXPECT_EQ(truth(m, m.and_exists(fn, gn, mask)), exists_truth(ft & gt, mask));
  EXPECT_EQ(truth(m, m.exists(fn, mask)), exists_truth(ft, mask));
  EXPECT_EQ(m.and_exists(fn, kTrue, mask), m.exists(fn, mask));
  for (int v = 0; v < kTruthVars; ++v) {
    for (const bool value : {false, true}) {
      const Truth expected = tabulate([&](unsigned a) {
        const unsigned fixed = value ? a | (1u << v) : a & ~(1u << v);
        return ((ft >> fixed) & 1u) != 0;
      });
      EXPECT_EQ(truth(m, m.cofactor(fn, v, value)), expected);
    }
  }
  // Renaming moves each even variable onto its odd neighbour, so it applies
  // to f with its odd variables quantified away.
  const std::vector<bool> odd{false, true, false, true, false, true};
  const NodeId even = m.exists(fn, odd);
  const Truth even_t = exists_truth(ft, odd);
  EXPECT_EQ(truth(m, m.exists(even, mask)), exists_truth(even_t, mask));
  const std::vector<int> shift{1, 1, 3, 3, 5, 5};
  EXPECT_EQ(truth(m, m.rename(even, shift)), tabulate([&](unsigned a) {
              unsigned moved = 0;
              for (int v = 0; v < kTruthVars; v += 2) {
                if (((a >> (v + 1)) & 1u) != 0) moved |= 1u << v;
              }
              return ((even_t >> moved) & 1u) != 0;
            }));
}

TEST(Bdd, CacheTagsSeparateMasks) {
  // and_exists, exists, rename and cofactor on the same operands share one
  // computed cache; the op tag and the interned mask id in each entry must
  // keep their results apart, including on repeated calls served from it.
  Manager m(kTruthVars);
  util::Rng rng(2024);
  for (int round = 0; round < 20; ++round) {
    const auto f = random_function(m, rng);
    const auto g = random_function(m, rng);
    const std::vector<bool> a = random_mask(rng);
    std::vector<bool> b = a;
    b[rng.below(kTruthVars)].flip();
    check_ops(m, f, g, a);
    check_ops(m, f, g, b);
    check_ops(m, f, g, a);
  }
}

TEST(Bdd, GcReusedIdsDoNotHitStaleCache) {
  // Fill the cache over functions that then die, collect them, and rebuild
  // different functions on the freed ids: no entry keyed on an old id may
  // answer for a new function.
  Manager m(kTruthVars);
  util::Rng rng(77);
  NodeId highest = 0;
  for (int round = 0; round < 20; ++round) {
    const auto f = random_function(m, rng);
    const auto g = random_function(m, rng);
    check_ops(m, f, g, random_mask(rng));
    highest = std::max({highest, f.first, g.first});
  }
  EXPECT_GT(m.collect_garbage(), 0u);
  util::Rng fresh(78);
  bool reused = false;
  for (int round = 0; round < 20; ++round) {
    const auto f = random_function(m, fresh);
    const auto g = random_function(m, fresh);
    reused = reused || f.first <= highest || g.first <= highest;
    check_ops(m, f, g, random_mask(fresh));
  }
  EXPECT_TRUE(reused);
}

TEST(Bdd, CofactorOnWideXorChain) {
  // A 64-variable XOR chain has two nodes per level but 2^63 paths to its
  // last level: cofactor must work per node, not per path.
  constexpr int kVars = 64;
  Manager m(kVars);
  NodeId f = kFalse;
  for (int v = 0; v < kVars; ++v) f = m.apply_xor(f, m.var(v));
  util::Rng rng(64);
  for (const int v : {0, 31, 62, 63}) {
    for (const bool value : {false, true}) {
      const NodeId c = m.cofactor(f, v, value);
      for (int trial = 0; trial < 32; ++trial) {
        std::vector<bool> x(kVars);
        for (std::size_t i = 0; i < x.size(); ++i) x[i] = rng.next_bool();
        std::vector<bool> fixed = x;
        fixed[static_cast<std::size_t>(v)] = value;
        EXPECT_EQ(m.eval(c, x), m.eval(f, fixed));
      }
    }
  }
}

TEST(Bdd, ToDotRenders) {
  Manager m(2);
  const NodeId f = m.apply_and(m.var(0), m.var(1));
  const std::string dot =
      m.to_dot(f, [](int v) { return util::cat({"x", std::to_string(v)}); });
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("x0"), std::string::npos);
}

}  // namespace
}  // namespace la1::bdd
