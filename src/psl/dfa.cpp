#include "psl/dfa.hpp"

#include <deque>
#include <stdexcept>
#include <unordered_map>

namespace la1::psl {

namespace {

/// Env over a fixed valuation of an atom list.
class LetterEnv : public Env {
 public:
  LetterEnv(const std::vector<std::string>& atoms, unsigned letter)
      : atoms_(&atoms), letter_(letter) {}

  bool sample(const std::string& signal) const override {
    for (std::size_t i = 0; i < atoms_->size(); ++i) {
      if ((*atoms_)[i] == signal) return ((letter_ >> i) & 1u) != 0;
    }
    throw std::invalid_argument("determinize: unknown atom " + signal);
  }

 private:
  const std::vector<std::string>* atoms_;
  unsigned letter_;
};

}  // namespace

DfaTable determinize(const PropPtr& prop, int max_states) {
  DfaTable table;
  std::set<std::string> signals;
  collect_signals(*prop, signals);
  table.atoms.assign(signals.begin(), signals.end());
  if (table.atoms.size() > 16) {
    throw std::invalid_argument("determinize: too many atoms (>16)");
  }
  const unsigned letters = 1u << table.atoms.size();

  std::vector<std::unique_ptr<Monitor>> reps;
  std::unordered_map<std::string, int> ids;

  std::string key;  // one buffer for every key: clear() keeps its capacity
  auto intern = [&](std::unique_ptr<Monitor> m) {
    key.clear();
    m->encode_to(key);
    auto it = ids.find(key);
    if (it != ids.end()) return std::pair<int, bool>{it->second, false};
    const int id = static_cast<int>(reps.size());
    if (id >= max_states) {
      throw std::invalid_argument("determinize: state budget exceeded");
    }
    ids.emplace(key, id);
    table.verdict.push_back(m->current());
    table.end_verdict.push_back(m->at_end());
    reps.push_back(std::move(m));
    table.next.resize(static_cast<std::size_t>(id + 1) * letters, -1);
    return std::pair<int, bool>{id, true};
  };

  const auto [init_id, init_new] = intern(compile(prop));
  (void)init_new;
  table.init_state = init_id;

  std::deque<int> frontier{init_id};
  while (!frontier.empty()) {
    const int at = frontier.front();
    frontier.pop_front();
    for (unsigned letter = 0; letter < letters; ++letter) {
      auto m = reps[static_cast<std::size_t>(at)]->clone();
      m->step(LetterEnv(table.atoms, letter));
      const auto [to, is_new] = intern(std::move(m));
      table.next[static_cast<std::size_t>(at) * letters + letter] = to;
      if (is_new) frontier.push_back(to);
    }
  }
  table.state_count = static_cast<int>(reps.size());
  return table;
}

DfaMonitor::DfaMonitor(std::shared_ptr<const DfaTable> table)
    : table_(std::move(table)), atom_ids_(table_->atoms.size(), -1) {
  DfaMonitor::reset();
}

void DfaMonitor::reset() {
  cycle_ = 0;
  failure_cycle_ = ~std::uint64_t{0};
  state_ = table_->init_state;
}

void DfaMonitor::do_step(const Env& env) {
  const std::vector<std::string>& atoms = table_->atoms;
  if (bound_serial_ != env.serial()) {
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      atom_ids_[i] = env.bind(atoms[i]);
    }
    bound_serial_ = env.serial();
  }
  unsigned letter = 0;
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    const int id = atom_ids_[i];
    if (id >= 0 ? env.sample(id) : env.sample(atoms[i])) letter |= (1u << i);
  }
  state_ = table_->step(state_, letter);
  if (table_->verdict[state()] == Verdict::kFailed &&
      failure_cycle_ == ~std::uint64_t{0}) {
    mark_failed();
  }
}

std::unique_ptr<Monitor> compile_dfa(const PropPtr& prop) {
  return std::make_unique<DfaMonitor>(
      std::make_shared<const DfaTable>(determinize(prop)));
}

}  // namespace psl
