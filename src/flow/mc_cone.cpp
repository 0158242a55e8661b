#include "flow/mc_cone.hpp"

#include <stdexcept>
#include <string_view>

namespace la1::flow {

namespace {

/// An atom name split by atom_bit_node's grammar: the bits of the net it
/// names (null when there is no such net), or its conflict flag's node.
struct AtomRef {
  std::string net;
  const std::vector<int>* bits = nullptr;
  int conflict = -1;      // "net.__conflict": the flag's node, -1 if none
  bool is_conflict = false;
  bool indexed = false;   // "net[i]"
  int bit = -1;           // -1 also for an index that does not parse
};

/// Splits `name` into `ref`, whose net buffer is reused across calls.
void split_atom(const rtl::BitBlast& bb, const std::string& name,
                AtomRef& ref) {
  ref.bits = nullptr;
  ref.conflict = -1;
  ref.is_conflict = false;
  ref.indexed = false;
  ref.bit = -1;
  const std::string_view conflict_suffix = ".__conflict";
  if (name.size() > conflict_suffix.size() &&
      name.compare(name.size() - conflict_suffix.size(),
                   conflict_suffix.size(), conflict_suffix) == 0) {
    ref.is_conflict = true;
    ref.net.assign(name, 0, name.size() - conflict_suffix.size());
    const auto it = bb.conflict_bits.find(ref.net);
    if (it != bb.conflict_bits.end()) ref.conflict = it->second;
    return;
  }
  const std::size_t lb = name.rfind('[');
  if (lb != std::string::npos && name.back() == ']') {
    ref.net.assign(name, 0, lb);
    ref.indexed = true;
    try {
      ref.bit = std::stoi(name.substr(lb + 1, name.size() - lb - 2));
    } catch (const std::exception&) {
      ref.bit = -1;
    }
  } else {
    ref.net = name;
  }
  const auto it = bb.net_bits.find(ref.net);
  if (it != bb.net_bits.end()) ref.bits = &it->second;
}

AtomRef split_atom(const rtl::BitBlast& bb, const std::string& name) {
  AtomRef ref;
  split_atom(bb, name, ref);
  return ref;
}

bool in_range(const AtomRef& ref) {
  return ref.bit >= 0 && ref.bit < static_cast<int>(ref.bits->size());
}

/// Per BitBlast variable: its state position, or -1 for an input.
std::vector<int> state_positions(const rtl::BitBlast& design) {
  std::vector<int> pos(design.vars.size(), -1);
  for (std::size_t k = 0; k < design.state_vars.size(); ++k) {
    pos[static_cast<std::size_t>(design.state_vars[k])] = static_cast<int>(k);
  }
  return pos;
}

}  // namespace

int atom_bit_node(const rtl::BitBlast& design, const std::string& name) {
  const AtomRef ref = split_atom(design, name);
  if (ref.is_conflict) {
    if (ref.conflict < 0) {
      throw std::invalid_argument("no tristate conflict bit for net: " +
                                  ref.net);
    }
    return ref.conflict;
  }
  if (ref.bits == nullptr) {
    throw std::invalid_argument("property atom refers to unknown net: " +
                                ref.net);
  }
  if (!ref.indexed) {
    if (ref.bits->size() != 1) {
      throw std::invalid_argument("property atom must name a single bit: " +
                                  name);
    }
    return ref.bits->front();
  }
  if (!in_range(ref)) {
    throw std::invalid_argument("property atom bit out of range: " + name);
  }
  return (*ref.bits)[static_cast<std::size_t>(ref.bit)];
}

int atom_width(const rtl::BitBlast& design, const std::string& name) {
  const AtomRef ref = split_atom(design, name);
  if (ref.is_conflict) return ref.conflict < 0 ? -1 : 1;
  if (ref.bits == nullptr) return -1;
  if (!ref.indexed) return static_cast<int>(ref.bits->size());
  return in_range(ref) ? 1 : -1;
}

int McCone::state_bits() const {
  int n = 0;
  for (char c : state_in_cone) n += c != 0;
  return n;
}

int McCone::input_bits() const {
  int n = 0;
  for (char c : input_in_cone) n += c != 0;
  return n;
}

std::vector<McCone::Subst> mc_substitutions(
    const rtl::BitBlast& design, const dfa::InvariantSet& invariants) {
  const std::size_t n = design.state_vars.size();
  const std::vector<int> state_pos = state_positions(design);
  // A state bit is named "net[i]", and net_bits maps bit i of net to its
  // variable's node.
  AtomRef ref;
  auto position = [&](const std::string& name) {
    split_atom(design, name, ref);
    if (ref.bits != nullptr && ref.indexed && in_range(ref)) {
      const rtl::BitGraph::Node& node = design.graph.node(
          (*ref.bits)[static_cast<std::size_t>(ref.bit)]);
      if (node.kind == rtl::BitGraph::Kind::kVar &&
          state_pos[static_cast<std::size_t>(node.var)] >= 0 &&
          design.vars[static_cast<std::size_t>(node.var)].name == name) {
        return static_cast<std::size_t>(
            state_pos[static_cast<std::size_t>(node.var)]);
      }
    }
    throw std::invalid_argument("invariant names unknown state bit '" + name +
                                "'");
  };
  auto init_of = [&](std::size_t k) {
    return design.vars[static_cast<std::size_t>(design.state_vars[k])].init;
  };
  std::vector<McCone::Subst> subs(n);
  for (const dfa::Invariant& i : invariants.invariants()) {
    if (i.kind == dfa::Invariant::Kind::kConst) {
      const std::size_t k = position(i.a);
      if (init_of(k) != i.value) {
        throw std::invalid_argument("constant invariant on '" + i.a +
                                    "' contradicts the reset state");
      }
      subs[k] = McCone::Subst{McCone::SubstKind::kConst, i.value, 0, false};
      continue;
    }
    const bool negate = i.kind == dfa::Invariant::Kind::kComplement;
    const std::size_t root = position(i.a);
    const std::size_t twin = position(i.b);
    if (root == twin || (init_of(twin) != (init_of(root) != negate))) {
      throw std::invalid_argument("pair invariant '" + i.a + "' / '" + i.b +
                                  "' contradicts the reset state");
    }
    subs[twin] = McCone::Subst{McCone::SubstKind::kAlias, false, root, negate};
  }
  // Collapse chains (alias onto an aliased or constant representative) so
  // every surviving alias points at a live variable. The sweep itself
  // never emits chains; caller-provided sets might.
  for (std::size_t k = 0; k < n; ++k) {
    if (subs[k].kind != McCone::SubstKind::kAlias) continue;
    std::size_t root = subs[k].root;
    bool negate = subs[k].negate;
    std::size_t hops = 0;
    while (subs[root].kind == McCone::SubstKind::kAlias && hops++ <= n) {
      negate ^= subs[root].negate;
      root = subs[root].root;
    }
    if (hops > n) throw std::invalid_argument("cyclic pair invariants");
    if (subs[root].kind == McCone::SubstKind::kConst) {
      subs[k] = McCone::Subst{McCone::SubstKind::kConst,
                              subs[root].value != negate, 0, false};
    } else {
      subs[k].root = root;
      subs[k].negate = negate;
    }
  }
  return subs;
}

McCone mc_cone(const rtl::BitBlast& design,
               const std::vector<std::string>& atoms,
               std::vector<McCone::Subst> subst) {
  const std::size_t n = design.state_vars.size();
  McCone cone;
  cone.subst = std::move(subst);
  cone.subst.resize(n);
  cone.state_in_cone.assign(n, 0);
  cone.input_in_cone.assign(design.input_vars.size(), 0);
  for (const McCone::Subst& s : cone.subst) {
    if (s.kind != McCone::SubstKind::kNone) ++cone.substituted;
  }

  const std::vector<int> state_pos = state_positions(design);
  // One worklist over BitGraph nodes, each visited once. Reaching a
  // variable marks it; an unsubstituted state bit then enters the cone and
  // queues its next-state function, an alias marks its representative, a
  // constant ends there.
  std::vector<bool> var_seen(design.vars.size(), false);
  std::vector<bool> node_seen(static_cast<std::size_t>(design.graph.size()),
                              false);
  std::vector<int> work;
  for (const std::string& name : atoms) {
    work.push_back(atom_bit_node(design, name));
  }
  const auto enter = [&](std::size_t k) {
    if (cone.state_in_cone[k]) return;
    cone.state_in_cone[k] = 1;
    work.push_back(design.next_fn[k]);
  };
  const auto reach_var = [&](int var) {
    if (var_seen[static_cast<std::size_t>(var)]) return;
    var_seen[static_cast<std::size_t>(var)] = true;
    const int k = state_pos[static_cast<std::size_t>(var)];
    if (k < 0) return;
    const McCone::Subst& s = cone.subst[static_cast<std::size_t>(k)];
    if (s.kind == McCone::SubstKind::kNone) enter(static_cast<std::size_t>(k));
    // Chains are collapsed, so the representative is unsubstituted.
    if (s.kind == McCone::SubstKind::kAlias) enter(s.root);
  };
  while (!work.empty()) {
    const int id = work.back();
    work.pop_back();
    if (node_seen[static_cast<std::size_t>(id)]) continue;
    node_seen[static_cast<std::size_t>(id)] = true;
    const rtl::BitGraph::Node& node = design.graph.node(id);
    if (node.kind == rtl::BitGraph::Kind::kVar) {
      reach_var(node.var);
      continue;
    }
    if (node.a >= 0) work.push_back(node.a);
    if (node.b >= 0) work.push_back(node.b);
    if (node.c >= 0) work.push_back(node.c);
  }

  // Inputs: exactly those the surviving transition functions or atoms
  // mention. Everything else stays out of the encoding.
  for (std::size_t j = 0; j < design.input_vars.size(); ++j) {
    if (var_seen[static_cast<std::size_t>(design.input_vars[j])]) {
      cone.input_in_cone[j] = 1;
    }
  }
  return cone;
}

McCone mc_cone(const rtl::BitBlast& design,
               const std::vector<std::string>& atoms,
               const dfa::InvariantSet& invariants) {
  return mc_cone(design, atoms, mc_substitutions(design, invariants));
}

}  // namespace la1::flow
