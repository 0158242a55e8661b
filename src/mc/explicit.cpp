#include "mc/explicit.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>

#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace la1::mc {

bool StateEnv::sample(const std::string& signal) const {
  const std::size_t eq = signal.find('=');
  if (eq == std::string::npos) return state_->get_bool(signal);
  const std::string loc = std::string(util::trim(signal.substr(0, eq)));
  const std::string want = std::string(util::trim(signal.substr(eq + 1)));
  return state_->get(loc).to_string() == want;
}

namespace {

std::string label_of(const asml::Rule& rule, const asml::Args& args) {
  std::string label = rule.name;
  if (!args.empty()) {
    label += '(';
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (i != 0) label += ',';
      label += args[i].to_string();
    }
    label += ')';
  }
  return label;
}

}  // namespace

ExplicitResult check(const asml::Machine& machine, const psl::PropPtr& prop,
                     const ExplicitOptions& options) {
  util::CpuStopwatch cpu;
  ExplicitResult result;

  std::vector<const asml::Rule*> rules;
  if (options.enabled_rules.empty()) {
    for (const asml::Rule& r : machine.rules()) rules.push_back(&r);
  } else {
    for (const std::string& name : options.enabled_rules) {
      rules.push_back(&machine.rule(name));
    }
  }
  std::vector<std::vector<asml::Args>> tuples;
  tuples.reserve(rules.size());
  for (const auto* r : rules) tuples.push_back(asml::Machine::argument_tuples(*r));

  // ASM states and monitor states are each interned once, keyed by their
  // canonical encodings; a product state is the pair of their ids. The
  // deque keeps references to stored states valid while it grows.
  std::deque<asml::State> machine_states;
  std::unordered_map<std::string, std::uint32_t> machine_ids;
  std::vector<std::unique_ptr<psl::Monitor>> monitors;
  std::unordered_map<std::string, std::uint32_t> monitor_ids;

  struct ProductState {
    std::uint32_t state = 0;    // index into machine_states
    std::uint32_t monitor = 0;  // index into monitors
    std::int64_t parent = -1;   // BFS tree, for counterexamples
    std::size_t rule = 0;       // the step from the parent:
    std::size_t tuple = 0;      // rules[rule] fired with tuples[rule][tuple]
  };
  std::vector<ProductState> states;
  std::unordered_map<std::uint64_t, std::uint32_t> product_ids;

  auto intern_state = [&](asml::State s) {
    const auto [it, fresh] = machine_ids.try_emplace(
        s.encode(), static_cast<std::uint32_t>(machine_states.size()));
    if (fresh) machine_states.push_back(std::move(s));
    return it->second;
  };
  auto intern_monitor = [&](std::unique_ptr<psl::Monitor> m) {
    const auto [it, fresh] = monitor_ids.try_emplace(
        m->encode(), static_cast<std::uint32_t>(monitors.size()));
    if (fresh) monitors.push_back(std::move(m));
    return it->second;
  };
  auto intern = [&](const ProductState& p) -> std::pair<std::uint32_t, bool> {
    const std::uint64_t key = (std::uint64_t{p.state} << 32) | p.monitor;
    const auto [it, fresh] = product_ids.try_emplace(
        key, static_cast<std::uint32_t>(states.size()));
    if (fresh) states.push_back(p);
    return {it->second, fresh};
  };

  auto counterexample_to = [&](std::uint32_t target) {
    std::vector<std::string> path;
    for (std::size_t at = target; states[at].parent >= 0;
         at = static_cast<std::size_t>(states[at].parent)) {
      const ProductState& p = states[at];
      path.push_back(label_of(*rules[p.rule], tuples[p.rule][p.tuple]));
    }
    std::reverse(path.begin(), path.end());
    return path;
  };

  auto finish = [&](ExplicitResult r) {
    r.product_states = states.size();
    r.fsm_states = machine_states.size();
    r.cpu_seconds = cpu.seconds();
    return r;
  };

  // Initial product state: monitor samples the initial ASM state (cycle 0).
  {
    auto monitor = psl::compile(prop);
    StateEnv env(machine.initial());
    monitor->step(env);
    if (monitor->current() == psl::Verdict::kFailed) {
      result.violated = true;
      return finish(std::move(result));
    }
    intern({intern_state(machine.initial()),
            intern_monitor(std::move(monitor))});
  }

  std::deque<std::uint32_t> frontier{0};
  bool truncated = false;

  while (!frontier.empty() && !truncated) {
    const std::uint32_t at = frontier.front();
    frontier.pop_front();
    const asml::State& current = machine_states[states[at].state];
    const psl::Monitor& current_monitor = *monitors[states[at].monitor];

    for (std::size_t r = 0; r < rules.size() && !truncated; ++r) {
      for (std::size_t t = 0; t < tuples[r].size(); ++t) {
        const asml::Args& args = tuples[r][t];
        if (!rules[r]->enabled(current, args)) continue;
        if (result.product_transitions >= options.max_transitions) {
          truncated = true;
          break;
        }
        ++result.product_transitions;
        asml::State next = machine.fire(*rules[r], args, current);
        auto monitor = current_monitor.clone();
        StateEnv env(next);
        monitor->step(env);
        const bool failed = monitor->current() == psl::Verdict::kFailed;
        const auto [id, is_new] =
            intern({intern_state(std::move(next)),
                    intern_monitor(std::move(monitor)), at, r, t});
        if (failed) {
          result.violated = true;
          result.counterexample = counterexample_to(id);
          return finish(std::move(result));
        }
        if (is_new) {
          if (states.size() >= options.max_states) {
            truncated = true;
          } else {
            frontier.push_back(id);
          }
        }
      }
    }
  }

  result.holds = true;
  result.complete = !truncated;
  return finish(std::move(result));
}

std::vector<PropertyOutcome> check_all(
    const asml::Machine& machine,
    const std::vector<std::pair<std::string, psl::PropPtr>>& props,
    const ExplicitOptions& options) {
  std::vector<PropertyOutcome> out;
  out.reserve(props.size());
  for (const auto& [name, prop] : props) {
    const ExplicitResult r = check(machine, prop, options);
    PropertyOutcome o;
    o.name = name;
    o.holds = r.holds;
    o.complete = r.complete;
    o.counterexample = r.counterexample;
    out.push_back(std::move(o));
  }
  return out;
}

}  // namespace la1::mc
