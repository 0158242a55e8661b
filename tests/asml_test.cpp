#include <gtest/gtest.h>

#include "asml/machine.hpp"

namespace la1::asml {
namespace {

TEST(Value, TypesAndAccessors) {
  EXPECT_TRUE(Value(true).as_bool());
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_EQ(Value::symbol("CLK_UP").as_symbol().name, "CLK_UP");
  EXPECT_EQ(Value::word(5, 8).as_word().bits, 5u);
  EXPECT_THROW(Value(7).as_bool(), std::invalid_argument);
  EXPECT_THROW(Value(true).as_int(), std::invalid_argument);
}

TEST(Value, PrintingAndOrdering) {
  EXPECT_EQ(Value(true).to_string(), "true");
  EXPECT_EQ(Value(42).to_string(), "42");
  EXPECT_EQ(Value::symbol("A").to_string(), "A");
  EXPECT_LT(Value(1), Value(2));
  EXPECT_EQ(Value(3), Value(3));
}

TEST(State, EncodeIsCanonical) {
  State a;
  a.set("x", Value(1));
  a.set("y", Value(true));
  State b;
  b.set("y", Value(true));
  b.set("x", Value(1));
  EXPECT_EQ(a.encode(), b.encode());
  EXPECT_EQ(a, b);
}

TEST(State, UninitializedLocationThrows) {
  State s;
  EXPECT_THROW(s.get("missing"), std::invalid_argument);
}

TEST(UpdateSet, ConflictingUpdatesThrow) {
  UpdateSet u;
  u.set("x", Value(1));
  u.set("x", Value(1));  // identical: fine
  EXPECT_THROW(u.set("x", Value(2)), InconsistentUpdate);
}

TEST(UpdateSet, AppliesSimultaneously) {
  State s;
  s.set("a", Value(1));
  s.set("b", Value(2));
  UpdateSet u;
  u.set("a", Value(10));
  const State next = u.apply_to(s);
  EXPECT_EQ(next.get_int("a"), 10);
  EXPECT_EQ(next.get_int("b"), 2);
  EXPECT_EQ(s.get_int("a"), 1);  // original untouched
}

/// A counter machine modulo n with an optional reset rule.
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

TEST(Machine, FireRespectsPrecondition) {
  const Machine m = counter_machine(4);
  const State s0 = m.initial();
  EXPECT_THROW(m.fire(m.rule("Reset"), {}, s0), std::logic_error);
  const State s1 = m.fire(m.rule("Inc"), {}, s0);
  EXPECT_EQ(s1.get_int("count"), 1);
  const State s2 = m.fire(m.rule("Reset"), {}, s1);
  EXPECT_EQ(s2.get_int("count"), 0);
}

TEST(Machine, DuplicateRuleRejected) {
  Machine m("t");
  Rule r;
  r.name = "A";
  r.update = [](const State&, const Args&, UpdateSet&) {};
  m.add_rule(std::move(r));
  Rule r2;
  r2.name = "A";
  r2.update = [](const State&, const Args&, UpdateSet&) {};
  EXPECT_THROW(m.add_rule(std::move(r2)), std::invalid_argument);
}

TEST(Machine, ArgumentTuplesCartesian) {
  Rule r;
  r.name = "R";
  r.params = {ArgDomain{"a", {Value(0), Value(1)}},
              ArgDomain{"b", {Value(false), Value(true)}},
              ArgDomain{"c", {Value::symbol("X")}}};
  const auto tuples = Machine::argument_tuples(r);
  EXPECT_EQ(tuples.size(), 4u);
  EXPECT_EQ(tuples[0].size(), 3u);
}

TEST(Machine, EmptyDomainRejected) {
  Rule r;
  r.name = "R";
  r.params = {ArgDomain{"a", {}}};
  EXPECT_THROW(Machine::argument_tuples(r), std::invalid_argument);
}

}  // namespace
}  // namespace la1::asml
