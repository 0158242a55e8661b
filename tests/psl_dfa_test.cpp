#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/adapters.hpp"
#include "host.hpp"
#include "la1/behavioral.hpp"
#include "la1/properties.hpp"
#include "la1/rtl_model.hpp"
#include "psl/dfa.hpp"
#include "psl/parse.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace la1::psl {
namespace {

class PairEnv : public Env {
 public:
  PairEnv(bool a, bool b) : a_(a), b_(b) {}
  bool sample(const std::string& s) const override {
    if (s == "a") return a_;
    if (s == "b") return b_;
    throw std::invalid_argument("unknown " + s);
  }

 private:
  bool a_, b_;
};

TEST(Dfa, TableShape) {
  const DfaTable t = determinize(parse_property("always (a)"));
  EXPECT_EQ(t.atoms.size(), 1u);
  EXPECT_GE(t.state_count, 2);
  EXPECT_EQ(t.next.size(),
            static_cast<std::size_t>(t.state_count) * 2u);
  EXPECT_EQ(t.verdict.size(), static_cast<std::size_t>(t.state_count));
}

TEST(Dfa, TooManyAtomsRejected) {
  std::string text = "always (s0";
  for (int i = 1; i < 18; ++i) text += " && s" + std::to_string(i);
  text += ")";
  EXPECT_THROW(determinize(parse_property(text)), std::invalid_argument);
}

/// Property sweep: the DFA monitor agrees with the NFA monitor on random
/// traces, for a spread of properties.
class DfaVsNfa : public ::testing::TestWithParam<const char*> {};

TEST_P(DfaVsNfa, VerdictsAgree) {
  const PropPtr prop = parse_property(GetParam());
  auto nfa_monitor = compile(prop);
  auto dfa_monitor = compile_dfa(prop);
  util::Rng rng(4711);
  for (int round = 0; round < 40; ++round) {
    nfa_monitor->reset();
    dfa_monitor->reset();
    for (int t = 0; t < 15; ++t) {
      const bool a = rng.next_bool();
      const bool b = rng.next_bool();
      nfa_monitor->step(PairEnv(a, b));
      dfa_monitor->step(PairEnv(a, b));
      ASSERT_EQ(nfa_monitor->current(), dfa_monitor->current())
          << GetParam() << " diverged at round " << round << " t " << t;
      ASSERT_EQ(nfa_monitor->at_end(), dfa_monitor->at_end())
          << GetParam() << " (at_end) round " << round << " t " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Properties, DfaVsNfa,
    ::testing::Values("always (a -> next[2] b)", "never {a ; a ; b}",
                      "always ({a ; b} |-> {true ; a})", "a until b",
                      "a until! b", "eventually! b", "a before b",
                      "never {a[*2]}", "always (a -> b)"));

TEST(Dfa, CloneAndEncode) {
  auto m = compile_dfa(parse_property("always (a -> next[1] b)"));
  m->reset();
  m->step(PairEnv(true, false));
  auto copy = m->clone();
  EXPECT_EQ(m->encode(), copy->encode());
  m->step(PairEnv(false, false));   // violation
  copy->step(PairEnv(false, true)); // satisfied
  EXPECT_EQ(m->current(), Verdict::kFailed);
  EXPECT_EQ(copy->current(), Verdict::kHolds);
  EXPECT_EQ(m->failure_cycle(), 1u);
}

/// fnv1a64 over a text rendering of every field of `t`: atoms, state
/// count, initial state, the next-state table and both verdict vectors.
std::uint64_t table_hash(const DfaTable& t) {
  std::string text;
  for (const std::string& atom : t.atoms) text += atom + '\n';
  text += std::to_string(t.state_count) + ' ' + std::to_string(t.init_state);
  text += '\n';
  for (int to : t.next) text += std::to_string(to) + ',';
  text += '\n';
  for (Verdict v : t.verdict) text += to_string(v)[0];
  text += '\n';
  for (Verdict v : t.end_verdict) text += to_string(v)[0];
  return util::fnv1a64(text);
}

/// The determinized table of every catalog row at every level and 1, 2 and
/// 4 banks, and of the Table-2 read-mode property. Per level and bank
/// count the pin folds the rows' table hashes in catalog order; a failure
/// prints each row's hash. Determinization interns monitor states by their
/// encode() key, so a change to the key or to the monitors' stepping must
/// leave every table, state numbering included, exactly as it is.
TEST(Dfa, CatalogTablesPinned) {
  struct Pin {
    core::Level level;
    int banks;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {core::Level::kBehavioural, 1, 0xf7ddcea67099a194ull},
      {core::Level::kBehavioural, 2, 0x6ff652bcec954d38ull},
      {core::Level::kBehavioural, 4, 0xaf1eb832dea2a582ull},
      {core::Level::kAsm, 1, 0xab6b5e440c30e11aull},
      {core::Level::kAsm, 2, 0x6346b87aae94460dull},
      {core::Level::kAsm, 4, 0xaa94e1fd04a83ef1ull},
      {core::Level::kHarness, 1, 0xc0398a443cf0958full},
      {core::Level::kHarness, 2, 0x4b2af7ff198d9d65ull},
      {core::Level::kHarness, 4, 0x023933e435ad2954ull},
      {core::Level::kRtl, 1, 0x3851365591b2ccb4ull},
      {core::Level::kRtl, 2, 0x5b2be7bf645bb249ull},
      {core::Level::kRtl, 4, 0x1d53ed2bbc14ec6eull},
  };
  for (const Pin& pin : pins) {
    const int ticks =
        core::RtlConfig::model_checking(pin.banks).latency_ticks();
    std::string folded;
    std::string rows;
    for (const auto& [name, prop] :
         core::level_suite(pin.level, pin.banks, ticks)) {
      const std::uint64_t h = table_hash(determinize(prop));
      folded += std::to_string(h) + ',';
      rows += name + ' ' + std::to_string(h) + '\n';
    }
    EXPECT_EQ(util::fnv1a64(folded), pin.hash)
        << core::to_string(pin.level) << " at " << pin.banks << " banks:\n"
        << rows;
  }
  const DfaTable read_mode = determinize(
      core::rtl_read_mode_property(core::RtlConfig::model_checking(1)));
  EXPECT_EQ(table_hash(read_mode), 0xb8341bbfd6b4a0e2ull);
}

TEST(NextEvent, HoldsAtNthOccurrence) {
  class TriEnv : public Env {
   public:
    TriEnv(bool t, bool b, bool c) : t_(t), b_(b), c_(c) {}
    bool sample(const std::string& s) const override {
      if (s == "t") return t_;
      if (s == "b") return b_;
      if (s == "c") return c_;
      throw std::invalid_argument("unknown " + s);
    }

   private:
    bool t_, b_, c_;
  };

  // next_event(b)[2](c) after each trigger t: c holds at the 2nd b.
  const PropPtr prop = p_next_event(b_sig("t"), b_sig("b"), 2, b_sig("c"));
  auto m = compile(prop);
  auto run = [&](std::vector<std::tuple<bool, bool, bool>> trace) {
    m->reset();
    for (auto [t, b, c] : trace) m->step(TriEnv(t, b, c));
    return m->current();
  };
  // trigger at 0; b at 1 and 3; c at 3 -> holds.
  EXPECT_EQ(run({{true, false, false},
                 {false, true, false},
                 {false, false, false},
                 {false, true, true}}),
            Verdict::kHolds);
  // c absent at the 2nd b -> fails.
  EXPECT_EQ(run({{true, false, false},
                 {false, true, false},
                 {false, false, false},
                 {false, true, false}}),
            Verdict::kFailed);
  // second b never arrives -> still pending.
  EXPECT_EQ(run({{true, false, false}, {false, true, false}}),
            Verdict::kPending);
}

TEST(VUnitParse, FullUnit) {
  const VUnit vunit = parse_vunit(R"(
    vunit la1_read {
      // the Figure-3 contract
      assert P1 : always (a -> next[2] b);
      assume env : never {a && b};
      cover C1 : {a ; true ; b};
    }
  )");
  EXPECT_EQ(vunit.name(), "la1_read");
  ASSERT_EQ(vunit.directives().size(), 3u);
  EXPECT_EQ(vunit.directives()[0].kind, DirectiveKind::kAssert);
  EXPECT_EQ(vunit.directives()[0].name, "P1");
  EXPECT_EQ(vunit.directives()[1].kind, DirectiveKind::kAssume);
  EXPECT_EQ(vunit.directives()[2].kind, DirectiveKind::kCover);
  // The parsed unit runs.
  VUnitRunner runner(vunit);
  runner.step(PairEnv(true, false));
  runner.step(PairEnv(false, false));
  runner.step(PairEnv(false, true));
  EXPECT_EQ(runner.failures(), 0u);
  EXPECT_EQ(runner.cover_count(2), 1u);
}

TEST(VUnitParse, Errors) {
  EXPECT_THROW(parse_vunit("vunit x { assert }"), ParseError);
  EXPECT_THROW(parse_vunit("unit x {}"), ParseError);
  EXPECT_THROW(parse_vunit("vunit x { expect P : a; }"), ParseError);
  EXPECT_THROW(parse_vunit("vunit x { assert P : a }"), ParseError);  // no ';'
}

TEST(VUnitParse, CommentsAnywhere) {
  const VUnit vunit = parse_vunit(
      "// header\nvunit v { assert P : // mid\n always (a); }");
  EXPECT_EQ(vunit.directives().size(), 1u);
}

// --- index-bound atoms -----------------------------------------------------

/// Forwards sample-by-name to another Env and offers no ids, so a monitor
/// stepped on it takes the string path.
class ByNameEnv : public Env {
 public:
  explicit ByNameEnv(const Env& inner) : inner_(&inner) {}
  bool sample(const std::string& s) const override { return inner_->sample(s); }

 private:
  const Env* inner_;
};

TEST(DfaBinding, ProbeIdsGiveTheSameVerdictsAsNames) {
  core::Config cfg;
  cfg.banks = 2;
  test::Host<harness::BehavioralDeviceModel> h(cfg);
  h.random(23);
  const std::vector<std::string> props = {
      "always (b0.read_start -> next[4] b0.dout_valid_k)",
      "always (b1.dout_valid_k -> next[1] b1.dout_valid_ks)",
      "never {bus_conflict}",
      "never {read_start; write_start}",
      "never {read_start}",
      "always (dout_valid -> dout_parity_ok)",
  };
  std::vector<std::unique_ptr<Monitor>> by_id;
  std::vector<std::unique_ptr<Monitor>> by_name;
  for (const std::string& p : props) {
    by_id.push_back(compile_dfa(parse_property(p)));
    by_name.push_back(compile_dfa(parse_property(p)));
  }
  const core::ProbeEnv& env = h.model.env();
  EXPECT_GE(env.bind("b0.read_start"), 0);
  EXPECT_EQ(env.bind("no_such_probe"), -1);
  const ByNameEnv names(env);
  int failed = 0;
  h.run(800, [&](int tick) {
    for (std::size_t i = 0; i < props.size(); ++i) {
      by_id[i]->step(env);
      by_name[i]->step(names);
      ASSERT_EQ(by_id[i]->current(), by_name[i]->current())
          << props[i] << " at tick " << tick;
      if (by_id[i]->current() == Verdict::kFailed) ++failed;
    }
  });
  // The sequence property fails on this stream: both paths saw it.
  EXPECT_GT(failed, 0);
}

/// Serves atoms "a" and "b" by id in a per-instance order and counts the
/// name lookups it is asked for.
class OrderedEnv : public Env {
 public:
  OrderedEnv(std::vector<std::string> order, bool a, bool b)
      : order_(std::move(order)), a_(a), b_(b) {}
  bool sample(const std::string& s) const override {
    ++by_name;
    return value(s);
  }
  int bind(const std::string& s) const override {
    for (std::size_t i = 0; i < order_.size(); ++i) {
      if (order_[i] == s) return static_cast<int>(i);
    }
    return -1;
  }
  bool sample(int id) const override {
    return value(order_.at(static_cast<std::size_t>(id)));
  }
  mutable int by_name = 0;

 private:
  bool value(const std::string& s) const { return s == "a" ? a_ : b_; }
  std::vector<std::string> order_;
  bool a_, b_;
};

TEST(DfaBinding, RebindsForEveryEnvInstanceEvenAtARecycledAddress) {
  // Holds while b is high and a low. A monitor that kept the ids of the
  // first Env would read a and b swapped in the second and fail.
  auto m = compile_dfa(parse_property("always (b && !a)"));
  std::optional<OrderedEnv> slot;
  slot.emplace(std::vector<std::string>{"a", "b"}, false, true);
  const Env* first = &*slot;
  const std::uint64_t first_serial = slot->serial();
  for (int i = 0; i < 3; ++i) m->step(*slot);
  EXPECT_EQ(slot->by_name, 0);  // every atom came by id
  slot.reset();
  slot.emplace(std::vector<std::string>{"b", "a"}, false, true);
  ASSERT_EQ(&*slot, first);  // same address, new instance
  EXPECT_NE(slot->serial(), first_serial);
  for (int i = 0; i < 3; ++i) m->step(*slot);
  EXPECT_EQ(m->current(), Verdict::kHolds);

  // A copy is a new instance too, and an Env without ids (MapEnv) is read
  // by name.
  const OrderedEnv copy = *slot;
  EXPECT_NE(copy.serial(), slot->serial());
  m->step(copy);
  MapEnv map;
  map.set("a", false);
  map.set("b", true);
  EXPECT_EQ(map.bind("a"), -1);
  m->step(map);
  EXPECT_EQ(m->current(), Verdict::kHolds);
  map.set("a", true);
  m->step(map);
  EXPECT_EQ(m->current(), Verdict::kFailed);
}

}  // namespace
}  // namespace la1::psl
