// Abstract State Machines in the AsmL style.
//
// An ASM model is a set of named state *locations* plus guarded *rules*
// (AsmL methods). A rule has
//   * finite argument domains — AsmL's "domains" configuration, the key
//     knob the paper uses to keep exploration tractable (§5.1),
//   * a `require` precondition filtering the states where it may fire,
//   * an update body producing an *update set* applied simultaneously
//     (ASM fire semantics; conflicting updates are a modelling error).
//
// Nondeterministic choice (`any x in {..}` in Figure 4) is expressed as an
// extra rule argument with the choice set as its domain, which makes the
// explorer's enumeration exhaustive over the choices.
#pragma once

#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "asml/value.hpp"

namespace la1::asml {

/// The full ASM state: a finite map from location names to values.
class State {
 public:
  State() = default;

  const Value& get(const std::string& location) const;
  bool has(const std::string& location) const { return map_.count(location) != 0; }
  void set(const std::string& location, Value v) { map_[location] = std::move(v); }

  bool get_bool(const std::string& location) const { return get(location).as_bool(); }
  std::int64_t get_int(const std::string& location) const { return get(location).as_int(); }
  const std::string& get_symbol(const std::string& location) const {
    return get(location).as_symbol().name;
  }

  /// Canonical printable encoding (sorted by location); doubles as intern key.
  std::string encode() const;

  const std::map<std::string, Value>& locations() const { return map_; }

  bool operator==(const State& o) const { return map_ == o.map_; }

 private:
  std::map<std::string, Value> map_;
};

/// Thrown when two updates in one step write different values to the same
/// location — an inconsistent ASM update set.
class InconsistentUpdate : public std::runtime_error {
 public:
  explicit InconsistentUpdate(const std::string& location)
      : std::runtime_error("inconsistent update set at location: " + location) {}
};

/// The update set produced by one rule firing.
class UpdateSet {
 public:
  /// Records location := v; throws InconsistentUpdate on a conflicting
  /// double write, ignores an identical double write (ASM semantics).
  void set(const std::string& location, Value v);

  bool empty() const { return map_.empty(); }
  const std::map<std::string, Value>& updates() const { return map_; }

  /// Applies this update set to `s` simultaneously.
  State apply_to(const State& s) const;

 private:
  std::map<std::string, Value> map_;
};

/// A finite domain for one rule argument.
struct ArgDomain {
  std::string name;
  std::vector<Value> values;
};

using Args = std::vector<Value>;
using Guard = std::function<bool(const State&, const Args&)>;
using Update = std::function<void(const State&, const Args&, UpdateSet&)>;

struct Rule {
  std::string name;
  std::vector<ArgDomain> params;
  Guard require;   // may be empty (= always enabled)
  Update update;

  bool enabled(const State& s, const Args& args) const {
    return !require || require(s, args);
  }
};

/// An ASM machine: an initial state plus rules.
class Machine {
 public:
  explicit Machine(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  State& initial() { return initial_; }
  const State& initial() const { return initial_; }

  /// Registers a rule; returns its index.
  std::size_t add_rule(Rule rule);

  const std::vector<Rule>& rules() const { return rules_; }
  const Rule& rule(const std::string& name) const;

  /// Enumerates all argument tuples of `rule` (cartesian product of its
  /// domains); a rule without params yields the single empty tuple.
  static std::vector<Args> argument_tuples(const Rule& rule);

  /// Fires `rule` with `args` on `s`; returns the successor. Throws if the
  /// precondition fails.
  State fire(const Rule& rule, const Args& args, const State& s) const;

 private:
  std::string name_;
  State initial_;
  std::vector<Rule> rules_;
};

}  // namespace la1::asml
