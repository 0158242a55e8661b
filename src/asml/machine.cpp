#include "asml/machine.hpp"

#include <sstream>

namespace la1::asml {

const Value& State::get(const std::string& location) const {
  auto it = map_.find(location);
  if (it == map_.end()) {
    throw std::invalid_argument("uninitialized ASM location: " + location);
  }
  return it->second;
}

std::string State::encode() const {
  std::ostringstream out;
  for (const auto& [k, v] : map_) out << k << '=' << v.to_string() << ';';
  return out.str();
}

void UpdateSet::set(const std::string& location, Value v) {
  auto [it, inserted] = map_.try_emplace(location, v);
  if (!inserted && !(it->second == v)) throw InconsistentUpdate(location);
}

State UpdateSet::apply_to(const State& s) const {
  State out = s;
  for (const auto& [k, v] : map_) out.set(k, v);
  return out;
}

std::size_t Machine::add_rule(Rule rule) {
  for (const Rule& r : rules_) {
    if (r.name == rule.name) {
      throw std::invalid_argument("duplicate rule name: " + rule.name);
    }
  }
  rules_.push_back(std::move(rule));
  return rules_.size() - 1;
}

const Rule& Machine::rule(const std::string& name) const {
  for (const Rule& r : rules_) {
    if (r.name == name) return r;
  }
  throw std::invalid_argument("no such rule: " + name);
}

std::vector<Args> Machine::argument_tuples(const Rule& rule) {
  std::vector<Args> tuples{Args{}};
  for (const ArgDomain& d : rule.params) {
    if (d.values.empty()) {
      throw std::invalid_argument("empty domain for " + rule.name + "." + d.name);
    }
    std::vector<Args> next;
    next.reserve(tuples.size() * d.values.size());
    for (const Args& t : tuples) {
      for (const Value& v : d.values) {
        Args extended = t;
        extended.push_back(v);
        next.push_back(std::move(extended));
      }
    }
    tuples = std::move(next);
  }
  return tuples;
}

State Machine::fire(const Rule& rule, const Args& args, const State& s) const {
  if (!rule.enabled(s, args)) {
    throw std::logic_error("rule fired with false precondition: " + rule.name);
  }
  UpdateSet updates;
  rule.update(s, args, updates);
  return updates.apply_to(s);
}

}  // namespace la1::asml
