#include "mc/symbolic.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <unordered_map>

#include "dfa/sweep.hpp"
#include "flow/mc_cone.hpp"
#include "lint/psl_lint.hpp"
#include "util/mem.hpp"
#include "util/stopwatch.hpp"

namespace la1::mc {

namespace {

/// Resolves property atoms against the blasted design's exported nets,
/// including the synthetic "<net>.__conflict" bits.
class BitBlastSignals : public lint::SignalModel {
 public:
  explicit BitBlastSignals(const rtl::BitBlast& bb) : bb_(&bb) {}

  int signal_width(const std::string& name) const override {
    // Mirrors atom_bit_node's grammar: "net", "net[i]", "net.__conflict".
    const std::string conflict_suffix = ".__conflict";
    if (name.size() > conflict_suffix.size() &&
        name.compare(name.size() - conflict_suffix.size(),
                     conflict_suffix.size(), conflict_suffix) == 0) {
      const std::string net =
          name.substr(0, name.size() - conflict_suffix.size());
      return bb_->conflict_bits.count(net) != 0 ? 1 : -1;
    }
    std::string net = name;
    int bit = -1;
    const std::size_t lb = name.rfind('[');
    if (lb != std::string::npos && name.back() == ']') {
      net = name.substr(0, lb);
      try {
        bit = std::stoi(name.substr(lb + 1, name.size() - lb - 2));
      } catch (const std::exception&) {
        return -1;
      }
    }
    auto it = bb_->net_bits.find(net);
    if (it == bb_->net_bits.end()) return -1;
    const int width = static_cast<int>(it->second.size());
    if (bit >= 0) return bit < width ? 1 : -1;
    return width;
  }

 private:
  const rtl::BitBlast* bb_;
};

}  // namespace

Observer build_observer(const psl::PropPtr& prop, int max_states) {
  // The observer is the safety view of the determinized monitor table.
  const psl::DfaTable table = psl::determinize(prop, max_states);
  Observer obs;
  obs.atoms = table.atoms;
  obs.state_count = table.state_count;
  obs.init_state = table.init_state;
  obs.next = table.next;
  obs.bad.reserve(table.verdict.size());
  for (const psl::Verdict v : table.verdict) {
    obs.bad.push_back(v == psl::Verdict::kFailed);
  }
  return obs;
}

namespace {

/// Internal control-flow exception: the wall-clock budget expired. Caught
/// at the top level of check_once and turned into a qualified verdict,
/// exactly like bdd::ResourceExhausted.
struct WallBudgetExpired {};

/// Internal control-flow exception: Budget::cancel was raised. Degrades to
/// Unknown{cancelled} with no variable-order retry (the caller asked the
/// whole check to stop, not this attempt).
struct CheckCancelled {};

/// Wall-clock deadline plus cooperative cancellation, polled at iteration
/// and conjunct boundaries (the two places a single BDD operation can run
/// long).
struct Deadline {
  bool enabled = false;
  std::chrono::steady_clock::time_point at{};
  const std::atomic<bool>* cancel = nullptr;

  static Deadline of(const Budget& budget) {
    Deadline d;
    if (budget.wall_ms != 0) {
      d.enabled = true;
      d.at = std::chrono::steady_clock::now() +
             std::chrono::milliseconds(budget.wall_ms);
    }
    d.cancel = budget.cancel;
    return d;
  }
  void poll() const {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      throw CheckCancelled{};
    }
    if (enabled && std::chrono::steady_clock::now() >= at) {
      throw WallBudgetExpired{};
    }
  }
};

/// Everything the reachability engine needs, bundled so the counterexample
/// extractor can reuse it.
struct Encoding {
  bdd::Manager* mgr = nullptr;
  const rtl::BitBlast* bb = nullptr;
  int n_model = 0;    // model state bits
  int n_obs = 0;      // observer state bits
  int n_state = 0;    // n_model + n_obs
  int n_inputs = 0;
  const Deadline* deadline = nullptr;

  int cur(int i) const { return 2 * i; }
  int nxt(int i) const { return 2 * i + 1; }
  int input(int j) const { return 2 * n_state + j; }

  std::vector<bdd::NodeId> conjuncts;  // per next-state bit: s'_i <-> f_i
  bdd::NodeId init = bdd::kFalse;
  bdd::NodeId bad = bdd::kFalse;
  std::vector<bool> quantify_mask;     // current + input vars
  std::vector<int> rename_next_to_cur;
  std::vector<int> state_at_rank;      // rank -> index into bb->state_vars
  std::vector<int> input_pos;          // encoded j -> index into bb->input_vars
  /// Early-quantification schedule: per conjunct, the current/input
  /// variables no later conjunct mentions (empty when there are none), and
  /// those no conjunct mentions at all, quantified out of `from` at the end.
  std::vector<std::vector<bool>> quantify_after;
  std::vector<bool> quantify_rest;

  std::string state_bit_name(int rank) const;
};

std::string Encoding::state_bit_name(int rank) const {
  if (rank < n_model) {
    const int k = state_at_rank[static_cast<std::size_t>(rank)];
    return bb->vars[static_cast<std::size_t>(
                        bb->state_vars[static_cast<std::size_t>(k)])]
        .name;
  }
  return "__observer[" + std::to_string(rank - n_model) + "]";
}

/// Translates a BitGraph node into a BDD over the encoding's variables.
/// `leaf_override` (optional, indexed by BitGraph variable) replaces a
/// variable leaf with an arbitrary BDD — the invariant-substitution hook
/// that rewrites redundant state bits to constants or (negated)
/// representative variables.
class Translator {
 public:
  Translator(const rtl::BitGraph& graph, bdd::Manager& mgr,
             const std::vector<int>& var_map,
             const std::vector<bdd::NodeId>* leaf_override = nullptr,
             const std::vector<char>* has_override = nullptr)
      : graph_(&graph),
        mgr_(&mgr),
        var_map_(&var_map),
        leaf_override_(leaf_override),
        has_override_(has_override) {}

  bdd::NodeId operator()(int node) {
    auto it = memo_.find(node);
    if (it != memo_.end()) return it->second;
    const rtl::BitGraph::Node& n = graph_->node(node);
    bdd::NodeId out = bdd::kFalse;
    using Kind = rtl::BitGraph::Kind;
    switch (n.kind) {
      case Kind::kConst: out = node == 1 ? bdd::kTrue : bdd::kFalse; break;
      case Kind::kVar: {
        if (has_override_ != nullptr &&
            (*has_override_)[static_cast<std::size_t>(n.var)]) {
          out = (*leaf_override_)[static_cast<std::size_t>(n.var)];
          break;
        }
        const int v = (*var_map_)[static_cast<std::size_t>(n.var)];
        if (v < 0) throw std::logic_error("unmapped BitGraph variable");
        out = mgr_->var(v);
        break;
      }
      case Kind::kNot: out = mgr_->apply_not((*this)(n.a)); break;
      case Kind::kAnd: out = mgr_->apply_and((*this)(n.a), (*this)(n.b)); break;
      case Kind::kOr: out = mgr_->apply_or((*this)(n.a), (*this)(n.b)); break;
      case Kind::kXor: out = mgr_->apply_xor((*this)(n.a), (*this)(n.b)); break;
      case Kind::kMux:
        out = mgr_->ite((*this)(n.a), (*this)(n.b), (*this)(n.c));
        break;
    }
    memo_.emplace(node, out);
    return out;
  }

 private:
  const rtl::BitGraph* graph_;
  bdd::Manager* mgr_;
  const std::vector<int>* var_map_;
  const std::vector<bdd::NodeId>* leaf_override_;
  const std::vector<char>* has_override_;
  std::unordered_map<int, bdd::NodeId> memo_;
};

/// How one state bit is substituted away by a proven invariant.
struct Substitution {
  enum class Kind { kNone, kConst, kAlias };
  Kind kind = Kind::kNone;
  bool value = false;        // kConst
  std::size_t root = 0;      // kAlias: state position of the representative
  bool negate = false;       // kAlias: complement pair
};

/// Validates `inv` against the design and builds the per-state-position
/// substitution table. Throws std::invalid_argument on facts that name
/// unknown state bits or contradict the reset state.
std::vector<Substitution> build_substitutions(const rtl::BitBlast& design,
                                              const dfa::InvariantSet& inv) {
  const std::size_t n = design.state_vars.size();
  std::map<std::string, std::size_t> pos_of;
  for (std::size_t k = 0; k < n; ++k) {
    pos_of[design.vars[static_cast<std::size_t>(design.state_vars[k])].name] =
        k;
  }
  auto position = [&](const std::string& name) {
    const auto it = pos_of.find(name);
    if (it == pos_of.end()) {
      throw std::invalid_argument(
          "mc::check: invariant names unknown state bit '" + name + "'");
    }
    return it->second;
  };
  auto init_of = [&](std::size_t k) {
    return design.vars[static_cast<std::size_t>(design.state_vars[k])].init;
  };

  std::vector<Substitution> subs(n);
  for (const dfa::Invariant& i : inv.invariants()) {
    if (i.kind == dfa::Invariant::Kind::kConst) {
      const std::size_t k = position(i.a);
      if (init_of(k) != i.value) {
        throw std::invalid_argument(
            "mc::check: constant invariant on '" + i.a +
            "' contradicts the reset state");
      }
      subs[k] = Substitution{Substitution::Kind::kConst, i.value, 0, false};
      continue;
    }
    const bool negate = i.kind == dfa::Invariant::Kind::kComplement;
    const std::size_t root = position(i.a);
    const std::size_t twin = position(i.b);
    if (root == twin || (init_of(twin) != (init_of(root) != negate))) {
      throw std::invalid_argument("mc::check: pair invariant '" + i.a +
                                  "' / '" + i.b +
                                  "' contradicts the reset state");
    }
    subs[twin] = Substitution{Substitution::Kind::kAlias, false, root, negate};
  }
  // Collapse chains (alias onto an aliased or constant representative) so
  // every surviving alias points at a live variable. The sweep itself
  // never emits chains; caller-provided sets might.
  for (std::size_t k = 0; k < n; ++k) {
    if (subs[k].kind != Substitution::Kind::kAlias) continue;
    std::size_t root = subs[k].root;
    bool negate = subs[k].negate;
    std::size_t hops = 0;
    while (subs[root].kind == Substitution::Kind::kAlias && hops++ <= n) {
      negate ^= subs[root].negate;
      root = subs[root].root;
    }
    if (hops > n) {
      throw std::invalid_argument("mc::check: cyclic pair invariants");
    }
    if (subs[root].kind == Substitution::Kind::kConst) {
      subs[k] = Substitution{Substitution::Kind::kConst,
                             subs[root].value != negate, 0, false};
    } else {
      subs[k].root = root;
      subs[k].negate = negate;
    }
  }
  return subs;
}

/// Resolves an atom name against the blasted design: "net" (1-bit),
/// "net[i]" (bit i), or "net.__conflict" (tristate conflict flag).
int atom_bit_node(const rtl::BitBlast& bb, const std::string& name) {
  const std::string conflict_suffix = ".__conflict";
  if (name.size() > conflict_suffix.size() &&
      name.compare(name.size() - conflict_suffix.size(), conflict_suffix.size(),
                   conflict_suffix) == 0) {
    const std::string net = name.substr(0, name.size() - conflict_suffix.size());
    auto it = bb.conflict_bits.find(net);
    if (it == bb.conflict_bits.end()) {
      throw std::invalid_argument("no tristate conflict bit for net: " + net);
    }
    return it->second;
  }
  std::string net = name;
  int bit = 0;
  const std::size_t lb = name.rfind('[');
  if (lb != std::string::npos && name.back() == ']') {
    net = name.substr(0, lb);
    bit = std::stoi(name.substr(lb + 1, name.size() - lb - 2));
  }
  auto it = bb.net_bits.find(net);
  if (it == bb.net_bits.end()) {
    throw std::invalid_argument("property atom refers to unknown net: " + net);
  }
  if (bit < 0 || bit >= static_cast<int>(it->second.size())) {
    throw std::invalid_argument("property atom bit out of range: " + name);
  }
  if (lb == std::string::npos && it->second.size() != 1) {
    throw std::invalid_argument("property atom must name a single bit: " + name);
  }
  return it->second[static_cast<std::size_t>(bit)];
}

/// Image of `from` under the transition conjuncts, renamed back to current
/// variables. `partitioned` enables early quantification.
bdd::NodeId image(const Encoding& enc, bdd::NodeId from, bool partitioned,
                  std::uint64_t gc_threshold, bool verbose) {
  bdd::Manager& mgr = *enc.mgr;
  if (!partitioned) {
    bdd::NodeId t = bdd::kTrue;
    for (bdd::NodeId c : enc.conjuncts) t = mgr.apply_and(t, c);
    const bdd::NodeId img = mgr.and_exists(from, t, enc.quantify_mask);
    return mgr.rename(img, enc.rename_next_to_cur);
  }

  // Early quantification: a current/input variable is quantified right
  // after the last conjunct mentioning it has been conjoined (the masks are
  // precomputed — the conjuncts never change).
  bdd::NodeId acc = from;
  mgr.ref(acc);
  for (std::size_t ci = 0; ci < enc.conjuncts.size(); ++ci) {
    if (enc.deadline != nullptr) enc.deadline->poll();
    const std::vector<bool>& mask = enc.quantify_after[ci];
    const bdd::NodeId next_acc =
        mask.empty() ? mgr.apply_and(acc, enc.conjuncts[ci])
                     : mgr.and_exists(acc, enc.conjuncts[ci], mask);
    mgr.ref(next_acc);
    mgr.deref(acc);
    acc = next_acc;
    if (mgr.live_nodes() > gc_threshold) {
      mgr.collect_garbage();
      if (verbose) {
        std::fprintf(stderr,
                     "[symbolic]   conjunct %zu/%zu: |acc|=%llu live=%llu\n",
                     ci + 1, enc.conjuncts.size(),
                     static_cast<unsigned long long>(mgr.dag_size(acc)),
                     static_cast<unsigned long long>(mgr.live_nodes()));
      }
    }
  }
  const bdd::NodeId quantified = enc.quantify_rest.empty()
                                     ? acc
                                     : mgr.exists(acc, enc.quantify_rest);
  const bdd::NodeId out = mgr.rename(quantified, enc.rename_next_to_cur);
  mgr.deref(acc);
  return out;
}

/// Builds a trace from the onion rings. `rings[i]` is the frontier reached
/// at step i; `target` intersects rings.back() and the bad states.
std::vector<std::map<std::string, bool>> extract_trace(
    const Encoding& enc, const std::vector<bdd::NodeId>& rings,
    bdd::NodeId target) {
  bdd::Manager& mgr = *enc.mgr;
  std::vector<std::map<std::string, bool>> trace(rings.size());

  // Pick a concrete bad state in the last ring.
  std::vector<bool> state_assign =
      mgr.any_sat(mgr.apply_and(rings.back(), target));

  for (std::size_t i = rings.size(); i-- > 0;) {
    // Record the state bits of the chosen state.
    for (int b = 0; b < enc.n_state; ++b) {
      trace[i][enc.state_bit_name(b)] =
          state_assign[static_cast<std::size_t>(enc.cur(b))];
    }
    if (i == 0) break;

    // Constrain the transition conjuncts by the chosen successor state and
    // intersect with the previous ring; any satisfying assignment yields the
    // predecessor state and the inputs used.
    bdd::NodeId pred = rings[i - 1];
    for (bdd::NodeId c : enc.conjuncts) {
      bdd::NodeId restricted = c;
      for (int b = 0; b < enc.n_state; ++b) {
        restricted = mgr.cofactor(
            restricted, enc.nxt(b),
            state_assign[static_cast<std::size_t>(enc.cur(b))]);
      }
      pred = mgr.apply_and(pred, restricted);
    }
    std::vector<bool> full = mgr.any_sat(pred);
    // Inputs driven during the step out of state i-1.
    for (int j = 0; j < enc.n_inputs; ++j) {
      const std::string name =
          enc.bb->vars[static_cast<std::size_t>(
                           enc.bb->input_vars[static_cast<std::size_t>(
                               enc.input_pos[j])])]
              .name;
      trace[i - 1][name] = full[static_cast<std::size_t>(enc.input(j))];
    }
    state_assign = std::move(full);
  }
  return trace;
}

/// The smaller of two caps, treating 0 as "unlimited".
template <typename T>
T tighter(T a, T b) {
  if (a == 0) return b;
  if (b == 0) return a;
  return a < b ? a : b;
}

/// One full check under one variable order. Budget exhaustion lands in
/// result.verdict (BoundedPass/Unknown); the retry policy lives in the
/// public check().
SymbolicResult check_once(const rtl::BitBlast& design, const psl::PropPtr& prop,
                          const SymbolicOptions& options, VarOrder order) {
  util::CpuStopwatch cpu;
  SymbolicResult result;
  const Deadline deadline = Deadline::of(options.budget);
  const std::uint64_t node_limit =
      tighter(options.node_limit, options.budget.bdd_nodes);
  const int max_iterations =
      tighter(options.max_iterations, options.budget.max_cycles);
  // True once the engine has verified at least "no bad state within
  // result.iterations transitions" — the difference between a BoundedPass
  // and a plain Unknown when a resource later runs out.
  bool bound_established = false;
  std::string exhausted_reason;

  if (options.preflight_lint) {
    const BitBlastSignals signals(design);
    const lint::LintReport report =
        lint::lint_property(prop, "property", &signals);
    if (report.fails(lint::Severity::kError)) {
      throw std::invalid_argument(
          "mc::check: property rejected by static lint\n" + report.render());
    }
  }

  const Observer obs = build_observer(prop);
  const unsigned letters = 1u << obs.atoms.size();

  // Invariant substitution table (empty when use_invariants and use_coi are
  // both off). Substituted bits are excluded from the active set below:
  // constants contribute nothing, aliases redirect to their representative.
  std::vector<Substitution> subs(design.state_vars.size());
  dfa::InvariantSet swept;
  flow::McCone cone;
  bool have_cone = false;
  if (options.use_coi) {
    const dfa::InvariantSet* inv = options.invariants;
    if (inv == nullptr) {
      swept = dfa::sweep(design);
      inv = &swept;
    }
    cone = flow::mc_cone(
        design, std::vector<std::string>(obs.atoms.begin(), obs.atoms.end()),
        *inv);
    have_cone = true;
    for (std::size_t k = 0; k < cone.subst.size(); ++k) {
      switch (cone.subst[k].kind) {
        case flow::McCone::SubstKind::kNone:
          break;
        case flow::McCone::SubstKind::kConst:
          subs[k].kind = Substitution::Kind::kConst;
          subs[k].value = cone.subst[k].value;
          ++result.invariants_applied;
          break;
        case flow::McCone::SubstKind::kAlias:
          subs[k].kind = Substitution::Kind::kAlias;
          subs[k].root = cone.subst[k].root;
          subs[k].negate = cone.subst[k].negate;
          ++result.invariants_applied;
          break;
      }
    }
  } else if (options.use_invariants) {
    const dfa::InvariantSet* inv = options.invariants;
    if (inv == nullptr) {
      swept = dfa::sweep(design);
      inv = &swept;
    }
    subs = build_substitutions(design, *inv);
    for (const Substitution& s : subs) {
      if (s.kind != Substitution::Kind::kNone) ++result.invariants_applied;
    }
  }
  auto substituted = [&](std::size_t k) {
    return subs[k].kind != Substitution::Kind::kNone;
  };

  // Cone of influence: the state variables the property can observe,
  // transitively through the next-state functions. Exact for safety. A
  // substituted bit never enters the cone itself — an aliased bit pulls in
  // its representative instead.
  std::vector<std::size_t> active;
  {
    const std::size_t n = design.state_vars.size();
    if (have_cone) {
      // The semantic cone already folded the substitutions in: a
      // substituted bit is never in_cone, an alias pulled in its root.
      for (std::size_t k = 0; k < n; ++k) {
        if (cone.state_in_cone[k]) active.push_back(k);
      }
    } else if (options.cone_of_influence) {
      std::vector<bool> var_mask(design.vars.size(), false);
      for (const std::string& name : obs.atoms) {
        design.graph.support(atom_bit_node(design, name), var_mask);
      }
      std::vector<bool> in_cone(n, false);
      bool changed = true;
      while (changed) {
        changed = false;
        for (std::size_t k = 0; k < n; ++k) {
          if (!var_mask[static_cast<std::size_t>(design.state_vars[k])]) {
            continue;
          }
          if (subs[k].kind == Substitution::Kind::kAlias) {
            const std::size_t root_var =
                static_cast<std::size_t>(design.state_vars[subs[k].root]);
            if (!var_mask[root_var]) {
              var_mask[root_var] = true;
              changed = true;
            }
            continue;
          }
          if (in_cone[k] || substituted(k)) continue;
          in_cone[k] = true;
          design.graph.support(design.next_fn[k], var_mask);
          changed = true;
        }
      }
      for (std::size_t k = 0; k < n; ++k) {
        if (in_cone[k]) active.push_back(k);
      }
    } else {
      for (std::size_t k = 0; k < n; ++k) {
        if (!substituted(k)) active.push_back(k);
      }
    }
  }

  Encoding enc;
  enc.bb = &design;
  enc.n_model = static_cast<int>(active.size());
  enc.n_obs = 0;
  while ((1 << enc.n_obs) < obs.state_count) ++enc.n_obs;
  enc.n_state = enc.n_model + enc.n_obs;
  // Inputs outside the semantic cone occur in no conjunct and no atom, so
  // encoding them would only widen the quantification mask for nothing.
  for (std::size_t j = 0; j < design.input_vars.size(); ++j) {
    if (!have_cone || cone.input_in_cone[j]) {
      enc.input_pos.push_back(static_cast<int>(j));
    }
  }
  enc.n_inputs = static_cast<int>(enc.input_pos.size());
  result.state_bits = enc.n_state;
  result.input_bits = enc.n_inputs;

  bdd::Manager mgr(2 * enc.n_state + enc.n_inputs);
  mgr.set_node_limit(node_limit);
  enc.mgr = &mgr;
  enc.deadline = &deadline;

  auto fill_stats = [&] {
    result.peak_bdd_nodes = mgr.peak_live_nodes();
    result.created_bdd_nodes = mgr.created_nodes();
    result.memory_mb = util::to_mb(mgr.memory_bytes());
    result.bdd_stats = mgr.stats();
    result.cpu_seconds = cpu.seconds();
  };

  try {
    // Static variable order. Reachable-set BDDs relate same-lane bits of
    // different registers (memory word <-> pipeline word <-> data-path
    // registers), so within each instance prefix the default order is
    // *bit-major*: all lane-0 bits of every register, then lane 1, ...
    // Register-major order generally forces the BDD to remember whole
    // words across distant variable groups (exponential equality
    // relations), but is kept as the automatic-retry alternative — on
    // exhaustion a differently-shaped order is the cheapest second chance.
    std::vector<int> rank_of_active(active.size());
    {
      struct Key {
        std::string instance;
        int lane = 0;   // bit % 8 — the byte lane (DDR halves fold together)
        int word = 0;   // bit / 8
        std::string reg;
        std::size_t active_index = 0;
      };
      std::vector<Key> keys;
      keys.reserve(active.size());
      for (std::size_t a = 0; a < active.size(); ++a) {
        const std::size_t k = active[a];
        const std::string& name =
            design.vars[static_cast<std::size_t>(design.state_vars[k])].name;
        Key key;
        key.active_index = a;
        std::string base = name;
        int bit = 0;
        const std::size_t lb = name.rfind('[');
        if (lb != std::string::npos && name.back() == ']') {
          base = name.substr(0, lb);
          bit = std::stoi(name.substr(lb + 1, name.size() - lb - 2));
        }
        key.lane = bit % 8;
        key.word = bit / 8;
        const std::size_t dot = base.find('.');
        key.instance = dot == std::string::npos ? std::string() : base.substr(0, dot);
        key.reg = dot == std::string::npos ? base : base.substr(dot + 1);
        keys.push_back(std::move(key));
      }
      // Instances interleave (same register of different banks adjacent):
      // the shared buses make sibling registers near-equal across banks,
      // and bank-major order would turn those into distant equalities.
      if (order == VarOrder::kBitMajor) {
        std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
          if (a.lane != b.lane) return a.lane < b.lane;
          if (a.word != b.word) return a.word < b.word;
          if (a.reg != b.reg) return a.reg < b.reg;
          return a.instance < b.instance;
        });
      } else {
        std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
          if (a.instance != b.instance) return a.instance < b.instance;
          if (a.reg != b.reg) return a.reg < b.reg;
          if (a.word != b.word) return a.word < b.word;
          return a.lane < b.lane;
        });
      }
      for (std::size_t pos = 0; pos < keys.size(); ++pos) {
        rank_of_active[keys[pos].active_index] = static_cast<int>(pos);
      }
    }

    // Map BitGraph variables to BDD variables: active state bit k sits at
    // the interleaved current/next pair of its rank.
    std::vector<int> var_map(design.vars.size(), -1);
    std::vector<int> state_at_rank(active.size());
    for (std::size_t a = 0; a < active.size(); ++a) {
      const std::size_t k = active[a];
      var_map[static_cast<std::size_t>(design.state_vars[k])] =
          enc.cur(rank_of_active[a]);
      state_at_rank[static_cast<std::size_t>(rank_of_active[a])] =
          static_cast<int>(k);
    }
    for (int j = 0; j < enc.n_inputs; ++j) {
      var_map[static_cast<std::size_t>(
          design.input_vars[static_cast<std::size_t>(enc.input_pos[j])])] =
          enc.input(j);
    }
    // Invariant substitution: rewrite every occurrence of a proven-redundant
    // state bit. Constants become terminals; aliases become the (possibly
    // negated) current variable of their representative, which the cone
    // computation guaranteed is active whenever the alias is referenced.
    std::vector<bdd::NodeId> leaf_override(design.vars.size(), bdd::kFalse);
    std::vector<char> has_override(design.vars.size(), 0);
    for (std::size_t k = 0; k < design.state_vars.size(); ++k) {
      const std::size_t gv = static_cast<std::size_t>(design.state_vars[k]);
      if (subs[k].kind == Substitution::Kind::kConst) {
        leaf_override[gv] = mgr.constant(subs[k].value);
        has_override[gv] = 1;
      } else if (subs[k].kind == Substitution::Kind::kAlias) {
        const int rv = var_map[static_cast<std::size_t>(
            design.state_vars[subs[k].root])];
        if (rv >= 0) {
          leaf_override[gv] = subs[k].negate ? mgr.nvar(rv) : mgr.var(rv);
          has_override[gv] = 1;
        }
      }
    }
    Translator translate(design.graph, mgr, var_map, &leaf_override,
                         &has_override);
    enc.state_at_rank = state_at_rank;

    // Model next-state conjuncts: s'_i <-> f_i(s, x), in rank order so the
    // early-quantification pass walks the variable order.
    for (int r = 0; r < enc.n_model; ++r) {
      deadline.poll();
      const int k = state_at_rank[static_cast<std::size_t>(r)];
      const bdd::NodeId f =
          translate(design.next_fn[static_cast<std::size_t>(k)]);
      enc.conjuncts.push_back(
          mgr.apply_not(mgr.apply_xor(mgr.var(enc.nxt(r)), f)));
      if (options.verbose) {
        std::fprintf(stderr, "[symbolic] conjunct %d (%s): |f|=%llu live=%llu\n",
                     r, enc.state_bit_name(r).c_str(),
                     static_cast<unsigned long long>(mgr.dag_size(f)),
                     static_cast<unsigned long long>(mgr.live_nodes()));
      }
    }

    // Atom functions; must depend only on model state bits.
    std::vector<bdd::NodeId> atom_cur;
    for (const std::string& name : obs.atoms) {
      const bdd::NodeId a = translate(atom_bit_node(design, name));
      const std::vector<bool> sup = mgr.support(a);
      for (std::size_t v = 0; v < sup.size(); ++v) {
        if (!sup[v]) continue;
        const bool is_cur_model =
            (v % 2 == 0) && static_cast<int>(v) < 2 * enc.n_model;
        if (!is_cur_model) {
          throw std::invalid_argument(
              "symbolic MC: atom '" + name +
              "' depends on a non-registered signal; attach monitors to "
              "registered taps");
        }
      }
      atom_cur.push_back(a);
    }
    // Atoms over the *next* state (the observer reads the successor state).
    std::vector<int> shift(static_cast<std::size_t>(mgr.var_count()));
    for (int v = 0; v < mgr.var_count(); ++v) {
      const bool cur_model = (v % 2 == 0) && v < 2 * enc.n_model;
      shift[static_cast<std::size_t>(v)] = cur_model ? v + 1 : v;
    }
    std::vector<bdd::NodeId> atom_next;
    atom_next.reserve(atom_cur.size());
    for (bdd::NodeId a : atom_cur) atom_next.push_back(mgr.rename(a, shift));

    // Observer state equality over current variables.
    auto obs_eq_cur = [&](int s) {
      bdd::NodeId acc = bdd::kTrue;
      for (int j = 0; j < enc.n_obs; ++j) {
        const int v = enc.cur(enc.n_model + j);
        acc = mgr.apply_and(acc, ((s >> j) & 1) != 0 ? mgr.var(v) : mgr.nvar(v));
      }
      return acc;
    };
    auto valuation_formula = [&](unsigned m) {
      bdd::NodeId acc = bdd::kTrue;
      for (std::size_t a = 0; a < atom_next.size(); ++a) {
        acc = mgr.apply_and(acc, ((m >> a) & 1u) != 0
                                     ? atom_next[a]
                                     : mgr.apply_not(atom_next[a]));
      }
      return acc;
    };

    // Observer next-state conjuncts: o'_j <-> g_j(o, atoms(s')).
    for (int j = 0; j < enc.n_obs; ++j) {
      bdd::NodeId g = bdd::kFalse;
      for (int s = 0; s < obs.state_count; ++s) {
        for (unsigned m = 0; m < letters; ++m) {
          const int t = obs.step(s, m);
          if (((t >> j) & 1) == 0) continue;
          g = mgr.apply_or(g,
                           mgr.apply_and(obs_eq_cur(s), valuation_formula(m)));
        }
      }
      enc.conjuncts.push_back(
          mgr.apply_not(mgr.apply_xor(mgr.var(enc.nxt(enc.n_model + j)), g)));
    }

    // Initial state: model inits plus the observer state after reading the
    // initial letter.
    std::vector<bool> init_assign(static_cast<std::size_t>(mgr.var_count()),
                                  false);
    for (int r = 0; r < enc.n_model; ++r) {
      const int k = state_at_rank[static_cast<std::size_t>(r)];
      init_assign[static_cast<std::size_t>(enc.cur(r))] =
          design.vars[static_cast<std::size_t>(
                          design.state_vars[static_cast<std::size_t>(k)])]
              .init;
    }
    unsigned v0 = 0;
    for (std::size_t a = 0; a < atom_cur.size(); ++a) {
      if (mgr.eval(atom_cur[a], init_assign)) v0 |= (1u << a);
    }
    const int obs0 = obs.step(obs.init_state, v0);

    bdd::NodeId init = bdd::kTrue;
    for (int i = 0; i < enc.n_model; ++i) {
      init = mgr.apply_and(init, init_assign[static_cast<std::size_t>(enc.cur(i))]
                                     ? mgr.var(enc.cur(i))
                                     : mgr.nvar(enc.cur(i)));
    }
    init = mgr.apply_and(init, obs_eq_cur(obs0));
    enc.init = init;

    // Bad: observer in a bad state.
    bdd::NodeId bad = bdd::kFalse;
    for (int s = 0; s < obs.state_count; ++s) {
      if (s < obs.state_count && obs.bad[static_cast<std::size_t>(s)]) {
        bad = mgr.apply_or(bad, obs_eq_cur(s));
      }
    }
    enc.bad = bad;

    // Quantification mask (current state + inputs) and next->current rename.
    enc.quantify_mask.assign(static_cast<std::size_t>(mgr.var_count()), false);
    for (int i = 0; i < enc.n_state; ++i) {
      enc.quantify_mask[static_cast<std::size_t>(enc.cur(i))] = true;
    }
    for (int j = 0; j < enc.n_inputs; ++j) {
      enc.quantify_mask[static_cast<std::size_t>(enc.input(j))] = true;
    }
    enc.rename_next_to_cur.assign(static_cast<std::size_t>(mgr.var_count()), 0);
    for (int v = 0; v < mgr.var_count(); ++v) {
      const bool nxt_state = (v % 2 == 1) && v < 2 * enc.n_state;
      enc.rename_next_to_cur[static_cast<std::size_t>(v)] =
          nxt_state ? v - 1 : v;
    }

    // Precompute the early-quantification schedule: the last conjunct
    // mentioning each quantified variable, then one mask per conjunct.
    const std::size_t nvars = enc.quantify_mask.size();
    std::vector<int> last_use(nvars, -1);
    for (std::size_t ci = 0; ci < enc.conjuncts.size(); ++ci) {
      const std::vector<bool> sup = mgr.support(enc.conjuncts[ci]);
      for (std::size_t v = 0; v < nvars; ++v) {
        if (sup[v] && enc.quantify_mask[v]) last_use[v] = static_cast<int>(ci);
      }
    }
    enc.quantify_after.assign(enc.conjuncts.size(), {});
    for (std::size_t v = 0; v < nvars; ++v) {
      if (!enc.quantify_mask[v]) continue;
      std::vector<bool>& mask =
          last_use[v] < 0
              ? enc.quantify_rest
              : enc.quantify_after[static_cast<std::size_t>(last_use[v])];
      if (mask.empty()) mask.assign(nvars, false);
      mask[v] = true;
    }

    // Protect the long-lived BDDs so garbage collection between iterations
    // can reclaim image intermediates (which dwarf the useful sets).
    for (bdd::NodeId c : enc.conjuncts) mgr.ref(c);
    mgr.ref(enc.init);
    mgr.ref(enc.bad);
    // Collect aggressively: the useful sets are orders of magnitude smaller
    // than image intermediates, and small tables keep operations fast. The
    // node budget (`node_limit`, the Table-2 explosion knob) measures the
    // live working set, which GC keeps honest.
    const std::uint64_t gc_threshold =
        options.node_limit != 0
            ? std::min<std::uint64_t>(options.node_limit / 2, 1u << 20)
            : (1u << 20);

    // Reachability with onion rings.
    std::vector<bdd::NodeId> rings{init};
    bdd::NodeId reached = init;
    bdd::NodeId frontier = init;
    mgr.ref(reached);
    mgr.ref(frontier);
    mgr.ref(rings.back());
    for (;;) {
      deadline.poll();
      const bool bad_reached = mgr.apply_and(reached, enc.bad) != bdd::kFalse;
      bound_established = true;
      if (bad_reached) {
        // Trim rings to the first ring that intersects bad.
        while (mgr.apply_and(rings.back(), enc.bad) == bdd::kFalse &&
               rings.size() > 1) {
          rings.pop_back();
        }
        result.outcome = SymbolicResult::Outcome::kFails;
        result.trace = extract_trace(enc, rings, enc.bad);
        break;
      }
      if (max_iterations > 0 && result.iterations >= max_iterations) {
        result.outcome = SymbolicResult::Outcome::kStateExplosion;
        exhausted_reason = "iteration cap reached (" +
                           std::to_string(max_iterations) + " cycles)";
        break;
      }
      // Image of the full reached set: the union is a structurally smoother
      // BDD than the exact-depth frontier ring (which encodes depth
      // correlations), and monotone growth converges in the same number of
      // iterations.
      const bdd::NodeId img = image(enc, reached, options.partitioned,
                                    gc_threshold, options.verbose);
      const bdd::NodeId fresh = mgr.apply_and(img, mgr.apply_not(reached));
      if (fresh == bdd::kFalse) {
        result.outcome = SymbolicResult::Outcome::kHolds;
        break;
      }
      const bdd::NodeId new_reached = mgr.apply_or(reached, fresh);
      mgr.ref(new_reached);
      mgr.ref(fresh);  // frontier
      mgr.ref(fresh);  // ring
      mgr.deref(reached);
      mgr.deref(frontier);
      reached = new_reached;
      frontier = fresh;
      rings.push_back(fresh);
      ++result.iterations;
      if (mgr.live_nodes() > gc_threshold) mgr.collect_garbage();
      if (options.verbose) {
        std::fprintf(stderr,
                     "[symbolic] iter %d: |frontier|=%llu |reached|=%llu "
                     "live=%llu\n",
                     result.iterations,
                     static_cast<unsigned long long>(mgr.dag_size(frontier)),
                     static_cast<unsigned long long>(mgr.dag_size(reached)),
                     static_cast<unsigned long long>(mgr.live_nodes()));
      }
    }

    const double free_vars =
        static_cast<double>(mgr.var_count() - enc.n_state);
    result.reachable_states = mgr.sat_count(reached) / std::pow(2.0, free_vars);
  } catch (const bdd::ResourceExhausted& e) {
    result.outcome = SymbolicResult::Outcome::kStateExplosion;
    exhausted_reason = "BDD node budget exhausted (" +
                       std::to_string(e.live_nodes) + " live nodes, limit " +
                       std::to_string(e.limit) + ")";
  } catch (const WallBudgetExpired&) {
    result.outcome = SymbolicResult::Outcome::kStateExplosion;
    exhausted_reason = "wall budget exhausted (" +
                       std::to_string(options.budget.wall_ms) + " ms)";
  } catch (const CheckCancelled&) {
    result.outcome = SymbolicResult::Outcome::kStateExplosion;
    bound_established = false;  // a cancelled check claims nothing
    exhausted_reason = "cancelled";
  }

  switch (result.outcome) {
    case SymbolicResult::Outcome::kHolds:
      result.verdict.kind = Verdict::Kind::kProven;
      result.verdict.depth = result.iterations;
      break;
    case SymbolicResult::Outcome::kFails:
      result.verdict.kind = Verdict::Kind::kFalsified;
      result.verdict.depth =
          result.trace.empty() ? 0 : static_cast<int>(result.trace.size()) - 1;
      break;
    case SymbolicResult::Outcome::kStateExplosion:
      result.verdict.kind = bound_established ? Verdict::Kind::kBoundedPass
                                              : Verdict::Kind::kUnknown;
      result.verdict.depth = bound_established ? result.iterations : 0;
      result.verdict.reason = exhausted_reason.empty()
                                  ? "resource budget exhausted"
                                  : exhausted_reason;
      break;
  }

  fill_stats();
  return result;
}

}  // namespace

SymbolicResult check(const rtl::BitBlast& design, const psl::PropPtr& prop,
                     const SymbolicOptions& options) {
  SymbolicResult first = check_once(design, prop, options, options.var_order);
  // Graceful degradation: one automatic retry under the alternate variable
  // order, with a fresh budget, when a *budgeted* run exhausted a resource.
  // Unbudgeted runs keep the historical single-shot behaviour (the Table-2
  // explosion benches measure exactly one attempt).
  if (first.verdict.decisive() || options.budget.unlimited() ||
      options.budget.cancel_requested()) {
    return first;
  }
  SymbolicOptions retry = options;
  retry.var_order = options.var_order == VarOrder::kBitMajor
                        ? VarOrder::kRegisterMajor
                        : VarOrder::kBitMajor;
  SymbolicResult second = check_once(design, prop, retry, retry.var_order);
  second.cpu_seconds += first.cpu_seconds;
  if (second.verdict.decisive()) {
    second.verdict.retries = 1;
    return second;
  }
  // Neither attempt was decisive: keep the more informative bound.
  const bool prefer_second =
      (second.verdict.kind == Verdict::Kind::kBoundedPass &&
       first.verdict.kind != Verdict::Kind::kBoundedPass) ||
      (second.verdict.kind == first.verdict.kind &&
       second.verdict.depth > first.verdict.depth);
  SymbolicResult& best = prefer_second ? second : first;
  best.verdict.retries = 1;
  return best;
}

}  // namespace la1::mc
