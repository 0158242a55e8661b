#include "dfa/sweep.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "dfa/translate.hpp"

namespace la1::dfa {
namespace {

/// splitmix64: small, deterministic, well-mixed — signature quality only
/// affects candidate filtering, never soundness.
std::uint64_t next_rand(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One 64-way-parallel evaluation sweep over the graph. Operands are
/// interned before parents, so ascending id order is an evaluation order.
void eval_words(const rtl::BitGraph& graph,
                const std::vector<std::uint64_t>& var_words,
                std::vector<std::uint64_t>& node_words) {
  node_words.resize(static_cast<std::size_t>(graph.size()));
  for (int id = 0; id < graph.size(); ++id) {
    const rtl::BitGraph::Node& n = graph.node(id);
    std::uint64_t w = 0;
    switch (n.kind) {
      case rtl::BitGraph::Kind::kConst:
        w = id == graph.true_node() ? ~0ull : 0ull;
        break;
      case rtl::BitGraph::Kind::kVar:
        w = var_words[static_cast<std::size_t>(n.var)];
        break;
      case rtl::BitGraph::Kind::kNot:
        w = ~node_words[static_cast<std::size_t>(n.a)];
        break;
      case rtl::BitGraph::Kind::kAnd:
        w = node_words[static_cast<std::size_t>(n.a)] &
            node_words[static_cast<std::size_t>(n.b)];
        break;
      case rtl::BitGraph::Kind::kOr:
        w = node_words[static_cast<std::size_t>(n.a)] |
            node_words[static_cast<std::size_t>(n.b)];
        break;
      case rtl::BitGraph::Kind::kXor:
        w = node_words[static_cast<std::size_t>(n.a)] ^
            node_words[static_cast<std::size_t>(n.b)];
        break;
      case rtl::BitGraph::Kind::kMux: {
        const std::uint64_t s = node_words[static_cast<std::size_t>(n.a)];
        w = (s & node_words[static_cast<std::size_t>(n.b)]) |
            (~s & node_words[static_cast<std::size_t>(n.c)]);
        break;
      }
    }
    node_words[static_cast<std::size_t>(id)] = w;
  }
}

/// A candidate equation over state bits, in terms of state_vars positions.
struct Candidate {
  enum class Kind { kConst, kEqual, kComplement };
  Kind kind = Kind::kConst;
  int a = -1;           // state position (pairs: the representative)
  int b = -1;           // state position of the twin (pairs only)
  bool value = false;   // kConst
};

}  // namespace

InvariantSet sweep(const rtl::BitBlast& bb, const SweepOptions& options) {
  const std::size_t n_state = bb.state_vars.size();
  InvariantSet out;
  if (n_state == 0) return out;

  // --- 1. random simulation signatures ---------------------------------
  // signatures[s] holds one word per recorded step (step 0 = exact init).
  std::vector<std::vector<std::uint64_t>> signatures(n_state);
  std::vector<std::uint64_t> var_words(bb.vars.size(), 0);
  for (std::size_t s = 0; s < n_state; ++s) {
    const int v = bb.state_vars[s];
    var_words[static_cast<std::size_t>(v)] =
        bb.vars[static_cast<std::size_t>(v)].init ? ~0ull : 0ull;
    signatures[s].push_back(var_words[static_cast<std::size_t>(v)]);
  }
  std::uint64_t rng = options.seed;
  std::vector<std::uint64_t> node_words;
  for (int step = 0; step < options.sim_steps; ++step) {
    for (int v : bb.input_vars) {
      var_words[static_cast<std::size_t>(v)] = next_rand(rng);
    }
    eval_words(bb.graph, var_words, node_words);
    for (std::size_t s = 0; s < n_state; ++s) {
      const std::uint64_t w =
          node_words[static_cast<std::size_t>(bb.next_fn[s])];
      var_words[static_cast<std::size_t>(bb.state_vars[s])] = w;
      signatures[s].push_back(w);
    }
  }

  // --- 2. candidate classes from canonical signatures ------------------
  // Canonical form: the lexicographically smaller of (sig, ~sig), plus the
  // polarity flag. Same class + same polarity -> equal candidates; same
  // class + opposite polarity -> complement candidates; all-zero canonical
  // signature -> stuck-at candidates.
  std::map<std::vector<std::uint64_t>, std::vector<std::pair<int, bool>>>
      classes;
  for (std::size_t s = 0; s < n_state; ++s) {
    std::vector<std::uint64_t> inverted(signatures[s].size());
    for (std::size_t i = 0; i < inverted.size(); ++i) {
      inverted[i] = ~signatures[s][i];
    }
    const bool negated = inverted < signatures[s];
    classes[negated ? inverted : signatures[s]].emplace_back(
        static_cast<int>(s), negated);
  }

  std::vector<Candidate> candidates;
  const std::vector<std::uint64_t> zero_sig(
      static_cast<std::size_t>(options.sim_steps) + 1, 0ull);
  for (const auto& [sig, members] : classes) {
    if (sig == zero_sig) {
      for (const auto& [s, negated] : members) {
        candidates.push_back(
            Candidate{Candidate::Kind::kConst, s, -1, negated});
      }
      continue;
    }
    if (members.size() < 2) continue;
    // Representative = lowest variable index in the class.
    const auto rep = *std::min_element(
        members.begin(), members.end(), [&](const auto& x, const auto& y) {
          return bb.state_vars[static_cast<std::size_t>(x.first)] <
                 bb.state_vars[static_cast<std::size_t>(y.first)];
        });
    for (const auto& [s, negated] : members) {
      if (s == rep.first) continue;
      candidates.push_back(Candidate{negated == rep.second
                                         ? Candidate::Kind::kEqual
                                         : Candidate::Kind::kComplement,
                                     rep.first, s, false});
    }
  }
  if (candidates.empty()) return out;

  // --- 3. Houdini induction with the BDD engine ------------------------
  try {
    bdd::Manager mgr(static_cast<int>(bb.vars.size()));
    mgr.set_node_limit(options.node_limit);
    BddTranslator translate(bb.graph, mgr);

    auto cur_eq = [&](const Candidate& c) -> bdd::NodeId {
      const int va = bb.state_vars[static_cast<std::size_t>(c.a)];
      if (c.kind == Candidate::Kind::kConst) {
        return c.value ? mgr.var(va) : mgr.nvar(va);
      }
      const int vb = bb.state_vars[static_cast<std::size_t>(c.b)];
      const bdd::NodeId x = mgr.apply_xor(mgr.var(va), mgr.var(vb));
      return c.kind == Candidate::Kind::kEqual ? mgr.apply_not(x) : x;
    };
    auto next_eq = [&](const Candidate& c) -> bdd::NodeId {
      const bdd::NodeId fa =
          translate(bb.next_fn[static_cast<std::size_t>(c.a)]);
      if (c.kind == Candidate::Kind::kConst) {
        return c.value ? fa : mgr.apply_not(fa);
      }
      const bdd::NodeId fb =
          translate(bb.next_fn[static_cast<std::size_t>(c.b)]);
      const bdd::NodeId x = mgr.apply_xor(fa, fb);
      return c.kind == Candidate::Kind::kEqual ? mgr.apply_not(x) : x;
    };

    bool dropped = true;
    while (dropped && !candidates.empty()) {
      dropped = false;
      bdd::NodeId assume = bdd::kTrue;
      for (const Candidate& c : candidates) {
        assume = mgr.apply_and(assume, cur_eq(c));
      }
      std::vector<Candidate> kept;
      kept.reserve(candidates.size());
      for (const Candidate& c : candidates) {
        const bdd::NodeId violated =
            mgr.apply_and(assume, mgr.apply_not(next_eq(c)));
        if (violated == bdd::kFalse) {
          kept.push_back(c);
        } else {
          dropped = true;
        }
      }
      candidates = std::move(kept);
    }
  } catch (const bdd::ResourceExhausted&) {
    return InvariantSet{};  // budget blown: no facts rather than bad facts
  }

  for (const Candidate& c : candidates) {
    Invariant inv;
    inv.a = bb.vars[static_cast<std::size_t>(
                        bb.state_vars[static_cast<std::size_t>(c.a)])]
                .name;
    switch (c.kind) {
      case Candidate::Kind::kConst:
        inv.kind = Invariant::Kind::kConst;
        inv.value = c.value;
        break;
      case Candidate::Kind::kEqual:
        inv.kind = Invariant::Kind::kEqual;
        break;
      case Candidate::Kind::kComplement:
        inv.kind = Invariant::Kind::kComplement;
        break;
    }
    if (c.kind != Candidate::Kind::kConst) {
      inv.b = bb.vars[static_cast<std::size_t>(
                          bb.state_vars[static_cast<std::size_t>(c.b)])]
                  .name;
    }
    out.add(std::move(inv));
  }
  return out;
}

}  // namespace la1::dfa
