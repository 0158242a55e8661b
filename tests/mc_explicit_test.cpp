#include <gtest/gtest.h>

#include <algorithm>

#include "mc/explicit.hpp"
#include "psl/parse.hpp"
#include "psl/temporal.hpp"

namespace la1::mc {
namespace {

using asml::Args;
using asml::ArgDomain;
using asml::Machine;
using asml::Rule;
using asml::State;
using asml::UpdateSet;
using asml::Value;

/// req/ack machine: a request is eventually acked within `latency` steps;
/// when `buggy`, the ack can be dropped.
Machine handshake_machine(int latency, bool buggy) {
  Machine m("handshake");
  m.initial().set("req", Value(false));
  m.initial().set("ack", Value(false));
  m.initial().set("timer", Value(0));

  Rule idle;
  idle.name = "Idle";
  idle.require = [](const State& s, const Args&) { return !s.get_bool("req"); };
  idle.update = [](const State&, const Args&, UpdateSet& u) {
    u.set("ack", Value(false));
  };
  m.add_rule(std::move(idle));

  Rule request;
  request.name = "Request";
  request.require = [](const State& s, const Args&) { return !s.get_bool("req"); };
  request.update = [](const State&, const Args&, UpdateSet& u) {
    u.set("req", Value(true));
    u.set("timer", Value(0));
    u.set("ack", Value(false));
  };
  m.add_rule(std::move(request));

  Rule wait;
  wait.name = "Wait";
  wait.require = [latency](const State& s, const Args&) {
    return s.get_bool("req") && s.get_int("timer") < latency - 1;
  };
  wait.update = [](const State& s, const Args&, UpdateSet& u) {
    u.set("timer", Value(s.get_int("timer") + 1));
    u.set("ack", Value(false));
  };
  m.add_rule(std::move(wait));

  Rule acknowledge;
  acknowledge.name = "Ack";
  acknowledge.require = [latency, buggy](const State& s, const Args&) {
    if (!s.get_bool("req")) return false;
    return buggy || s.get_int("timer") >= latency - 1;
  };
  acknowledge.update = [](const State&, const Args&, UpdateSet& u) {
    u.set("req", Value(false));
    u.set("ack", Value(true));
    // The timer is preserved: it records when the ack happened, which is
    // what the early-ack property below inspects.
  };
  m.add_rule(std::move(acknowledge));

  if (buggy) {
    Rule drop;
    drop.name = "Drop";
    drop.require = [](const State& s, const Args&) { return s.get_bool("req"); };
    drop.update = [](const State&, const Args&, UpdateSet& u) {
      u.set("req", Value(false));
      u.set("ack", Value(false));
      u.set("timer", Value(0));
    };
    m.add_rule(std::move(drop));
  }
  return m;
}

// Plain reachability is a check of the always-true property: its monitor
// has one state, so the product is exactly the machine's state graph.
psl::PropPtr always_true() {
  return psl::p_always(psl::p_bool(psl::b_const(true)));
}

/// A counter machine modulo n with a reset rule enabled off zero.
Machine counter_machine(int n) {
  Machine m("counter");
  m.initial().set("count", Value(0));
  Rule inc;
  inc.name = "Inc";
  inc.update = [n](const State& s, const Args&, UpdateSet& u) {
    u.set("count", Value((s.get_int("count") + 1) % n));
  };
  m.add_rule(std::move(inc));
  Rule reset;
  reset.name = "Reset";
  reset.require = [](const State& s, const Args&) {
    return s.get_int("count") != 0;
  };
  reset.update = [](const State&, const Args&, UpdateSet& u) {
    u.set("count", Value(0));
  };
  m.add_rule(std::move(reset));
  return m;
}

TEST(Explore, CounterReachesAllResidues) {
  const ExplicitResult r = check(counter_machine(6), always_true());
  EXPECT_TRUE(r.holds);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.fsm_states, 6u);
  EXPECT_EQ(r.product_states, 6u);
  // Inc from every state + Reset from 5 non-zero states.
  EXPECT_EQ(r.product_transitions, 11u);
}

TEST(Explore, RuleFilterRestrictsBehavior) {
  ExplicitOptions opt;
  opt.enabled_rules = {"Inc"};
  const ExplicitResult r = check(counter_machine(6), always_true(), opt);
  EXPECT_EQ(r.fsm_states, 6u);
  EXPECT_EQ(r.product_transitions, 6u);  // cycle only
}

TEST(Explore, BoundsTruncate) {
  ExplicitOptions opt;
  opt.max_states = 10;
  const ExplicitResult r = check(counter_machine(100), always_true(), opt);
  EXPECT_TRUE(r.holds);
  EXPECT_FALSE(r.complete);
  EXPECT_LE(r.fsm_states, 11u);
}

TEST(Explore, StopFilterProducesCounterexample) {
  const Machine m = counter_machine(8);
  const ExplicitResult r = check(m, psl::parse_property("never {count=3}"));
  EXPECT_TRUE(r.violated);
  EXPECT_EQ(r.counterexample, (std::vector<std::string>{"Inc", "Inc", "Inc"}));
  State s = m.initial();
  for (const std::string& label : r.counterexample) {
    s = m.fire(m.rule(label), {}, s);
  }
  EXPECT_EQ(s.get_int("count"), 3);
}

TEST(Explore, StopFilterOnInitialState) {
  const ExplicitResult r =
      check(counter_machine(4), psl::parse_property("never {count=0}"));
  EXPECT_TRUE(r.violated);
  EXPECT_TRUE(r.counterexample.empty());
}

TEST(Explore, ParameterizedRulesEnumerateDomains) {
  Machine m("adder");
  m.initial().set("sum", Value(0));
  Rule add;
  add.name = "Add";
  add.params = {ArgDomain{"v", {Value(1), Value(2)}}};
  add.require = [](const State& s, const Args&) { return s.get_int("sum") < 4; };
  add.update = [](const State& s, const Args& a, UpdateSet& u) {
    u.set("sum", Value(std::min<std::int64_t>(4, s.get_int("sum") + a[0].as_int())));
  };
  m.add_rule(std::move(add));
  const ExplicitResult r = check(m, always_true());
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.fsm_states, 5u);  // sums 0..4
}

TEST(StateEnvTest, SamplesBoolsAndComparisons) {
  State s;
  s.set("flag", Value(true));
  s.set("mode", Value::symbol("INIT"));
  s.set("count", Value(3));
  StateEnv env(s);
  EXPECT_TRUE(env.sample("flag"));
  EXPECT_TRUE(env.sample("mode=INIT"));
  EXPECT_FALSE(env.sample("mode=RUN"));
  EXPECT_TRUE(env.sample("count=3"));
  EXPECT_THROW(env.sample("missing"), std::invalid_argument);
}

TEST(Explicit, SafetyPropertyHolds) {
  const Machine m = handshake_machine(3, false);
  // ack implies the request was in flight (never ack && req simultaneously
  // after the ack rule clears req).
  const auto prop = psl::parse_property("never {ack && req}");
  const ExplicitResult r = check(m, prop);
  EXPECT_TRUE(r.holds);
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.violated);
  EXPECT_GT(r.product_states, 0u);
}

TEST(Explicit, ViolationYieldsCounterexample) {
  const Machine m = handshake_machine(3, false);
  // False property: ack never happens.
  const auto prop = psl::parse_property("never {ack}");
  const ExplicitResult r = check(m, prop);
  EXPECT_TRUE(r.violated);
  EXPECT_FALSE(r.holds);
  ASSERT_FALSE(r.counterexample.empty());
  // Replaying the counterexample must end in an ack state.
  State s = m.initial();
  for (const std::string& label : r.counterexample) {
    const std::string rule_name = label.substr(0, label.find('('));
    s = m.fire(m.rule(rule_name), {}, s);
  }
  EXPECT_TRUE(s.get_bool("ack"));
}

TEST(Explicit, BuggyMachineCaught) {
  // In the correct machine, ack arrives only after the full latency; the
  // buggy machine can ack early.
  const auto prop = psl::parse_property("never {ack && timer=0}");
  // (ack with timer still 0 means the timer never advanced: an early ack —
  // reachable only in the buggy machine via Ack at timer==0.)
  const ExplicitResult good = check(handshake_machine(3, false), prop);
  EXPECT_TRUE(good.holds);
  const ExplicitResult bad = check(handshake_machine(3, true), prop);
  EXPECT_TRUE(bad.violated);
}

TEST(Explicit, BudgetTruncates) {
  const Machine m = handshake_machine(20, false);
  ExplicitOptions opt;
  opt.max_states = 5;
  const auto prop = psl::parse_property("never {ack && req}");
  const ExplicitResult r = check(m, prop, opt);
  EXPECT_TRUE(r.holds);      // no violation in the explored region
  EXPECT_FALSE(r.complete);  // but the region was truncated
}

TEST(Explicit, RuleFilter) {
  const Machine m = handshake_machine(3, false);
  ExplicitOptions opt;
  opt.enabled_rules = {"Idle"};
  const auto prop = psl::parse_property("never {ack}");
  const ExplicitResult r = check(m, prop, opt);
  EXPECT_TRUE(r.holds);  // without Request, ack is unreachable
  EXPECT_TRUE(r.complete);
}

TEST(Explicit, CheckAllReportsPerProperty) {
  const Machine m = handshake_machine(2, false);
  const auto outcomes = check_all(
      m, {{"no_ack", psl::parse_property("never {ack}")},
          {"consistent", psl::parse_property("never {ack && req}")}});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].holds);
  EXPECT_TRUE(outcomes[1].holds);
  EXPECT_FALSE(outcomes[0].counterexample.empty());
}

TEST(Explicit, TemporalLatencyProperty) {
  // In the correct machine with latency 2, ack follows request in exactly
  // 2 steps: Request -> Wait -> Ack.
  const Machine m = handshake_machine(2, false);
  const auto prop = psl::parse_property("always (req && timer=0 -> next[2] ack)");
  // Note: "req && timer=0" holds right after Request fires.
  const ExplicitResult r = check(m, prop);
  // The Request rule fires from !req states; after it, Wait is the only
  // enabled rule, then Ack. But Idle self-loops on !req states mean the
  // antecedent re-triggers... the property must still hold on every path.
  EXPECT_TRUE(r.holds) << r.counterexample.size();
}

TEST(Explicit, ProductLargerThanStateSpace) {
  // The product with a monitor can have more states than the machine alone.
  const Machine m = handshake_machine(4, false);
  const auto plain = psl::parse_property("never {ack && req}");
  const auto temporal = psl::parse_property("always (req -> next[3] true)");
  const ExplicitResult r1 = check(m, plain);
  const ExplicitResult r2 = check(m, temporal);
  EXPECT_GE(r2.product_states, r1.fsm_states);
}

}  // namespace
}  // namespace la1::mc
