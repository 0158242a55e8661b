#include "mc/symbolic.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <numeric>
#include <stdexcept>

#include "dfa/sweep.hpp"
#include "dfa/translate.hpp"
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
    return flow::atom_width(*bb_, name);
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

/// Static BDD variable order of the state bits.
enum class VarOrder {
  /// Bit-major: all lane-0 bits of every register, then lane 1, ... Keeps
  /// same-lane bits of related registers adjacent (the first attempt; see
  /// the ordering comment in check_once).
  kBitMajor,
  /// Register-major: each register's bits contiguous, instances grouped.
  /// The automatic-retry order — occasionally wins where bit-major blows
  /// up, and a cheap source of order diversity either way.
  kRegisterMajor,
};

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
  /// What the partitioned image conjoins, in order: `conjuncts` itself
  /// until `cluster` replaces it by runs of consecutive conjuncts.
  std::vector<bdd::NodeId> parts;
  bool clustered = false;
  /// Per variable: the last conjunct mentioning it, or -1 for none.
  std::vector<int> last_use;
  /// Early-quantification schedule: per part, the current/input variables
  /// no later part mentions (no mask when there are none), and those no
  /// conjunct mentions at all, quantified out of `from` at the end. Each
  /// mask is interned once, when the schedule is built.
  std::vector<bdd::Manager::Quantifier> quantify_after;
  bdd::Manager::Quantifier quantify_rest;

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

using Subst = flow::McCone::Subst;
using SubstKind = flow::McCone::SubstKind;

/// A cluster of the partitioned relation grows while its BDD stays within
/// this many nodes, and clustering starts at the first image whose source
/// set is larger (IWLS'95 conjunct clustering, as in VIS and NuSMV). Checks
/// whose reached set stays this small keep one part per conjunct.
constexpr std::uint64_t kClusterNodes = 500;

/// Points the early-quantification schedule at the parts: each quantified
/// variable goes out after the part holding the last conjunct mentioning
/// it (`part_of` maps a conjunct to its part).
void schedule(Encoding& enc, const std::vector<int>& part_of) {
  const std::size_t nvars = enc.quantify_mask.size();
  std::vector<std::vector<bool>> masks(enc.parts.size());
  for (std::size_t v = 0; v < nvars; ++v) {
    if (!enc.quantify_mask[v] || enc.last_use[v] < 0) continue;
    std::vector<bool>& mask = masks[static_cast<std::size_t>(
        part_of[static_cast<std::size_t>(enc.last_use[v])])];
    if (mask.empty()) mask.assign(nvars, false);
    mask[v] = true;
  }
  enc.quantify_after.assign(masks.size(), {});
  for (std::size_t ci = 0; ci < masks.size(); ++ci) {
    if (!masks[ci].empty()) {
      enc.quantify_after[ci] = enc.mgr->quantifier(masks[ci]);
    }
  }
}

/// Replaces the parts by clusters: walking the conjuncts in rank order, a
/// conjunct joins the current cluster while the conjunction stays within
/// kClusterNodes nodes, and otherwise starts the next one. The clusters
/// conjoin to the same relation, so every image is the same set.
void cluster(Encoding& enc) {
  bdd::Manager& mgr = *enc.mgr;
  std::vector<bdd::NodeId> clusters;
  std::vector<int> part_of(enc.conjuncts.size());
  for (std::size_t ci = 0; ci < enc.conjuncts.size(); ++ci) {
    if (enc.deadline != nullptr) enc.deadline->poll();
    const bdd::NodeId c = enc.conjuncts[ci];
    bool merged = false;
    if (!clusters.empty()) {
      const bdd::NodeId joint = mgr.apply_and(clusters.back(), c);
      if (mgr.dag_size_bounded(joint, kClusterNodes) <= kClusterNodes) {
        mgr.ref(joint);
        mgr.deref(clusters.back());
        clusters.back() = joint;
        merged = true;
      }
    }
    if (!merged) {
      mgr.ref(c);
      clusters.push_back(c);
    }
    part_of[ci] = static_cast<int>(clusters.size()) - 1;
  }
  enc.parts = std::move(clusters);
  enc.clustered = true;
  schedule(enc, part_of);
}

/// Image of `from` under the transition relation, renamed back to current
/// variables. `partitioned` conjoins the parts with early quantification,
/// clustering them first once `from` outgrows kClusterNodes.
bdd::NodeId image(Encoding& enc, bdd::NodeId from, bool partitioned,
                  std::uint64_t gc_threshold) {
  bdd::Manager& mgr = *enc.mgr;
  if (!partitioned) {
    bdd::NodeId t = bdd::kTrue;
    for (bdd::NodeId c : enc.conjuncts) t = mgr.apply_and(t, c);
    const bdd::NodeId img = mgr.and_exists(from, t, enc.quantify_mask);
    return mgr.rename(img, enc.rename_next_to_cur);
  }

  if (!enc.clustered &&
      mgr.dag_size_bounded(from, kClusterNodes) > kClusterNodes) {
    cluster(enc);
  }
  // Early quantification: a current/input variable is quantified right
  // after the last part mentioning it has been conjoined (the masks are
  // precomputed with the parts).
  bdd::NodeId acc = from;
  mgr.ref(acc);
  for (std::size_t ci = 0; ci < enc.parts.size(); ++ci) {
    if (enc.deadline != nullptr) enc.deadline->poll();
    const bdd::Manager::Quantifier& q = enc.quantify_after[ci];
    const bdd::NodeId next_acc =
        q.mask == nullptr ? mgr.apply_and(acc, enc.parts[ci])
                          : mgr.and_exists(acc, enc.parts[ci], q);
    mgr.ref(next_acc);
    mgr.deref(acc);
    acc = next_acc;
    if (mgr.live_nodes() > gc_threshold) mgr.collect_garbage();
  }
  const bdd::NodeId quantified = enc.quantify_rest.mask == nullptr
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
SymbolicResult check_once(const rtl::BitBlast& design, const Observer& obs,
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

  const unsigned letters = 1u << obs.atoms.size();

  // The substitution table (all kNone unless use_coi or use_invariants)
  // and the active state bits: the cone (semantic under use_coi, else
  // structural with the substitutions folded in) or every unsubstituted
  // bit. A substituted bit is never active: constants contribute nothing,
  // aliases redirect to their representative.
  const std::size_t n_bits = design.state_vars.size();
  flow::McCone cone;
  if (options.use_coi || options.use_invariants) {
    dfa::InvariantSet swept;
    const dfa::InvariantSet* inv = options.invariants;
    if (inv == nullptr) {
      swept = dfa::sweep(design);
      inv = &swept;
    }
    cone.subst = flow::mc_substitutions(design, *inv);
  }
  if (options.use_coi || options.cone_of_influence) {
    cone = flow::mc_cone(design, obs.atoms, std::move(cone.subst));
  } else {
    cone.subst.resize(n_bits);
    for (const Subst& sub : cone.subst) {
      cone.state_in_cone.push_back(sub.kind == SubstKind::kNone);
      cone.substituted += sub.kind != SubstKind::kNone;
    }
  }
  const std::vector<Subst>& subs = cone.subst;
  result.invariants_applied = cone.substituted;
  std::vector<std::size_t> active;
  for (std::size_t k = 0; k < n_bits; ++k) {
    if (cone.state_in_cone[k]) active.push_back(k);
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
    if (!options.use_coi || cone.input_in_cone[j]) {
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

  // The reached set through result.iterations: referenced, so a budget
  // stop leaves it intact, and counting it creates no node.
  bdd::NodeId reached = bdd::kFalse;
  auto count_reached = [&] {
    result.reachable_states = std::ldexp(mgr.sat_count(reached),
                                         -(mgr.var_count() - enc.n_state));
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
    std::vector<bdd::NodeId> leaf_override(design.vars.size(),
                                           dfa::BddTranslator::kNone);
    for (std::size_t k = 0; k < design.state_vars.size(); ++k) {
      const std::size_t gv = static_cast<std::size_t>(design.state_vars[k]);
      if (subs[k].kind == SubstKind::kConst) {
        leaf_override[gv] = mgr.constant(subs[k].value);
      } else if (subs[k].kind == SubstKind::kAlias) {
        const int rv = var_map[static_cast<std::size_t>(
            design.state_vars[subs[k].root])];
        if (rv >= 0) {
          leaf_override[gv] = subs[k].negate ? mgr.nvar(rv) : mgr.var(rv);
        }
      }
    }
    dfa::BddTranslator translate(design.graph, mgr, &var_map, &leaf_override);
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
    }

    // Atom functions; must depend only on model state bits.
    std::vector<bdd::NodeId> atom_cur;
    for (const std::string& name : obs.atoms) {
      const bdd::NodeId a = translate(flow::atom_bit_node(design, name));
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

    // Observer state equality over current variables, and the cube of a
    // letter over the successor's atoms, each built on first use and then
    // looked up: the nodes are created in the same order as when every use
    // rebuilt them.
    constexpr bdd::NodeId kUnbuilt = ~bdd::NodeId{0};
    std::vector<bdd::NodeId> eq_memo(static_cast<std::size_t>(obs.state_count),
                                     kUnbuilt);
    auto obs_eq_cur = [&](int s) {
      bdd::NodeId& memo = eq_memo[static_cast<std::size_t>(s)];
      if (memo != kUnbuilt) return memo;
      bdd::NodeId acc = bdd::kTrue;
      for (int j = 0; j < enc.n_obs; ++j) {
        const int v = enc.cur(enc.n_model + j);
        acc = mgr.apply_and(acc, ((s >> j) & 1) != 0 ? mgr.var(v) : mgr.nvar(v));
      }
      return memo = acc;
    };
    std::vector<bdd::NodeId> letter_memo(letters, kUnbuilt);
    auto valuation_formula = [&](unsigned m) {
      bdd::NodeId& memo = letter_memo[m];
      if (memo != kUnbuilt) return memo;
      bdd::NodeId acc = bdd::kTrue;
      for (std::size_t a = 0; a < atom_next.size(); ++a) {
        acc = mgr.apply_and(acc, ((m >> a) & 1u) != 0
                                     ? atom_next[a]
                                     : mgr.apply_not(atom_next[a]));
      }
      return memo = acc;
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

    // Precompute the early-quantification schedule over one part per
    // conjunct: the last conjunct mentioning each quantified variable, then
    // one mask per part, and the rest for variables no conjunct mentions.
    const std::size_t nvars = enc.quantify_mask.size();
    enc.last_use.assign(nvars, -1);
    for (std::size_t ci = 0; ci < enc.conjuncts.size(); ++ci) {
      const std::vector<bool> sup = mgr.support(enc.conjuncts[ci]);
      for (std::size_t v = 0; v < nvars; ++v) {
        if (sup[v] && enc.quantify_mask[v]) {
          enc.last_use[v] = static_cast<int>(ci);
        }
      }
    }
    std::vector<bool> rest;
    for (std::size_t v = 0; v < nvars; ++v) {
      if (!enc.quantify_mask[v] || enc.last_use[v] >= 0) continue;
      if (rest.empty()) rest.assign(nvars, false);
      rest[v] = true;
    }
    enc.parts = enc.conjuncts;
    std::vector<int> own_part(enc.conjuncts.size());
    std::iota(own_part.begin(), own_part.end(), 0);
    schedule(enc, own_part);
    if (!rest.empty()) enc.quantify_rest = mgr.quantifier(rest);

    // Protect the long-lived BDDs so garbage collection between iterations
    // can reclaim image intermediates (which dwarf the useful sets).
    for (bdd::NodeId c : enc.conjuncts) mgr.ref(c);
    mgr.ref(enc.init);
    mgr.ref(enc.bad);
    // Collect aggressively: the useful sets are orders of magnitude smaller
    // than image intermediates, and small tables keep operations fast. The
    // node budget (`node_limit`, the Table-2 explosion knob) is checked
    // against the manager's live count, which includes dead nodes until the
    // next collection; GC runs only above this threshold (after an image
    // part or an iteration), so where a budgeted check stops depends on
    // when GC last ran as well as on the working set.
    const std::uint64_t gc_threshold =
        options.node_limit != 0
            ? std::min<std::uint64_t>(options.node_limit / 2, 1u << 20)
            : (1u << 20);

    // Reachability with onion rings.
    std::vector<bdd::NodeId> rings{init};
    reached = init;
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
      const bdd::NodeId img =
          image(enc, reached, options.partitioned, gc_threshold);
      result.image_parts =
          options.partitioned ? static_cast<int>(enc.parts.size()) : 1;
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
    }

    count_reached();
  } catch (const bdd::ResourceExhausted& e) {
    result.outcome = SymbolicResult::Outcome::kStateExplosion;
    exhausted_reason = "BDD node budget exhausted (" +
                       std::to_string(e.live_nodes) + " live nodes, limit " +
                       std::to_string(e.limit) + ")";
    count_reached();
  } catch (const WallBudgetExpired&) {
    result.outcome = SymbolicResult::Outcome::kStateExplosion;
    exhausted_reason = "wall budget exhausted (" +
                       std::to_string(options.budget.wall_ms) + " ms)";
    count_reached();
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

void preflight_lint(const rtl::BitBlast& design, const psl::PropPtr& prop) {
  const BitBlastSignals signals(design);
  const lint::LintReport report =
      lint::lint_property(prop, "property", &signals);
  if (report.fails(lint::Severity::kError)) {
    throw std::invalid_argument(
        "mc::check: property rejected by static lint\n" + report.render());
  }
}

SymbolicResult check(const rtl::BitBlast& design, const Observer& observer,
                     const SymbolicOptions& options) {
  SymbolicResult first =
      check_once(design, observer, options, VarOrder::kBitMajor);
  // Graceful degradation: one automatic retry under the alternate variable
  // order, with a fresh budget, when a *budgeted* run exhausted a resource.
  // Unbudgeted runs keep the historical single-shot behaviour (the Table-2
  // explosion benches measure exactly one attempt).
  if (first.verdict.decisive() || options.budget.unlimited() ||
      options.budget.cancel_requested()) {
    return first;
  }
  SymbolicResult second =
      check_once(design, observer, options, VarOrder::kRegisterMajor);
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

SymbolicResult check(const rtl::BitBlast& design, const psl::PropPtr& prop,
                     const SymbolicOptions& options) {
  util::CpuStopwatch cpu;
  preflight_lint(design, prop);
  const Observer observer = build_observer(prop);
  const double compile_cpu = cpu.seconds();
  SymbolicResult result = check(design, observer, options);
  result.cpu_seconds += compile_cpu;
  return result;
}

}  // namespace la1::mc
