// Reduced Ordered Binary Decision Diagrams.
//
// This is the symbolic engine behind the RuleBase-style model checker
// (paper §5.2, Table 2). It is a classic ROBDD package in the layout of
// Brace, Rudell and Bryant ("Efficient implementation of a BDD package",
// DAC 1990):
//
//   - a unique table for canonicity: a power-of-two bucket array chained
//     through each node's `next` field, doubled at load factor 1;
//   - one computed cache shared by every recursive operation: a
//     direct-mapped, lossy array of {a, b, c, result} entries. ITE keys on
//     its (normalized) triple; quantification, renaming and cofactoring put
//     an op tag plus an interned mask / rename-vector id (or the cofactor
//     literal) in `c`, so their results survive across calls. Its size
//     follows the live-node count and it is cleared by garbage collection;
//   - existential / universal quantification, AND-EXISTS (the relational
//     image workhorse), variable substitution (compose-by-renaming for the
//     transition-relation image) and cofactors;
//   - reference-counted garbage collection, and node accounting so the
//     benchmark can report "Number of BDDs" and memory the way RuleBase
//     does, plus engine counters (`Manager::stats`).
//
// Node 0 is the constant FALSE, node 1 the constant TRUE. Complement edges
// are not used and the variable order is static, so the node set of every
// function is canonical: a change to the tables can move time and memory
// but never the node counts. A model check's peak and created counts are
// canonical for a fixed image schedule: they follow which conjunctions the
// checker builds, and in what order (mc/symbolic.cpp), not the tables.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/json.hpp"

namespace la1::bdd {

using NodeId = std::uint32_t;

inline constexpr NodeId kFalse = 0;
inline constexpr NodeId kTrue = 1;

/// Thrown when a node or memory budget set via `Manager::set_node_limit` is
/// exceeded — the mechanism the Table-2 bench uses to reproduce RuleBase's
/// state explosion at 4 banks.
struct ResourceExhausted {
  std::uint64_t live_nodes = 0;
  std::uint64_t limit = 0;
};

/// Engine counters, cumulative over the manager's lifetime. Plain
/// increments on the hot paths; `unique_buckets` is the current size of the
/// unique table.
struct Stats {
  std::uint64_t ite_calls = 0;       // ite() entries, recursive ones included
  std::uint64_t cache_lookups = 0;   // computed-cache probes, all ops
  std::uint64_t cache_hits = 0;
  std::uint64_t unique_lookups = 0;  // unique-table probes, low != high
  std::uint64_t unique_buckets = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_ns = 0;           // wall time spent in collect_garbage

  util::Json to_json() const;
};

/// The BDD manager: owns all nodes of one variable order.
class Manager {
 public:
  /// Creates a manager with `var_count` variables, order = index order.
  explicit Manager(int var_count);

  int var_count() const { return var_count_; }

  // --- constructors ----------------------------------------------------
  NodeId constant(bool v) const { return v ? kTrue : kFalse; }
  /// The function "variable v" (positive literal).
  NodeId var(int v);
  /// The function "NOT variable v".
  NodeId nvar(int v);

  // --- boolean operations (all reference-neutral: result returned with
  // +1 ref taken by the caller via `ref`, see below) --------------------
  NodeId ite(NodeId f, NodeId g, NodeId h);
  NodeId apply_and(NodeId f, NodeId g) { return ite(f, g, kFalse); }
  NodeId apply_or(NodeId f, NodeId g) { return ite(f, kTrue, g); }
  NodeId apply_xor(NodeId f, NodeId g);
  NodeId apply_not(NodeId f) { return ite(f, kFalse, kTrue); }

  /// A quantification mask interned by `quantifier`. The operations taking
  /// one skip the per-call lookup of the mask; it stays valid for the
  /// manager's lifetime. A default-constructed one names no mask and must
  /// not be passed to them.
  struct Quantifier {
    const std::vector<bool>* mask = nullptr;
    std::uint32_t id = 0;
    int last = -1;  // the last masked variable below var_count, or -1
  };
  Quantifier quantifier(const std::vector<bool>& mask);

  /// Existential quantification over the variables with `true` in `mask`.
  NodeId exists(NodeId f, const std::vector<bool>& mask) {
    return exists(f, quantifier(mask));
  }
  NodeId exists(NodeId f, const Quantifier& q);
  /// Universal quantification over the masked variables.
  NodeId forall(NodeId f, const std::vector<bool>& mask);
  /// AND followed by existential quantification in one pass — the relational
  /// image workhorse (avoids building the full conjunction).
  NodeId and_exists(NodeId f, NodeId g, const std::vector<bool>& mask) {
    return and_exists(f, g, quantifier(mask));
  }
  NodeId and_exists(NodeId f, NodeId g, const Quantifier& q);
  /// Simultaneous variable renaming: var v -> var rename[v]. The renaming
  /// must be order-compatible (monotone), which the checker's interleaved
  /// current/next order guarantees.
  NodeId rename(NodeId f, const std::vector<int>& rename);

  /// Restricts variable v to `value` (cofactor).
  NodeId cofactor(NodeId f, int v, bool value);

  // --- inspection --------------------------------------------------------
  bool is_const(NodeId f) const { return f <= kTrue; }
  int top_var(NodeId f) const;
  NodeId low(NodeId f) const;
  NodeId high(NodeId f) const;

  /// Evaluates f under a full assignment.
  bool eval(NodeId f, const std::vector<bool>& assignment) const;

  /// Number of distinct nodes in f (counting terminals once).
  std::uint64_t dag_size(NodeId f) const;
  /// dag_size(f) when it is at most `bound`, else bound + 1. Visits at most
  /// bound + 1 nodes and, unlike dag_size, allocates nothing per node of the
  /// manager: cheap enough to size every candidate of a clustering pass.
  std::uint64_t dag_size_bounded(NodeId f, std::uint64_t bound) const;

  /// Number of satisfying assignments over all `var_count()` variables.
  double sat_count(NodeId f) const;

  /// One satisfying assignment (minterm); f must not be kFalse.
  std::vector<bool> any_sat(NodeId f) const;

  /// Variables f depends on (true at index v when var v occurs in f).
  std::vector<bool> support(NodeId f) const;

  // --- reference counting / GC -------------------------------------------
  void ref(NodeId f);
  void deref(NodeId f);
  /// Frees dead nodes; returns the number reclaimed.
  std::uint64_t collect_garbage();

  // --- accounting ----------------------------------------------------------
  std::uint64_t live_nodes() const { return live_nodes_; }
  std::uint64_t peak_live_nodes() const { return peak_live_nodes_; }
  std::uint64_t created_nodes() const { return created_nodes_; }
  /// Approximate bytes held by the manager (nodes + tables).
  std::uint64_t memory_bytes() const;
  /// Engine counters (computed-cache hit rate, unique-table load, GC).
  Stats stats() const;

  /// Sets a live-node budget; operations throw ResourceExhausted beyond it.
  /// 0 disables the budget.
  void set_node_limit(std::uint64_t limit) { node_limit_ = limit; }

  /// DOT export for debugging / documentation.
  std::string to_dot(NodeId f, const std::function<std::string(int)>& var_name) const;

 private:
  struct Node {
    int var = -1;  // -1 marks a freed slot
    NodeId low = 0;
    NodeId high = 0;
    std::uint32_t refs = 0;
    NodeId next = 0;  // unique-table chain; 0 ends it (FALSE is never chained)
  };
  struct CacheEntry {
    NodeId a = 0;  // 0 marks an empty slot: no lookup has a FALSE first key
    NodeId b = 0;
    std::uint32_t c = 0;
    NodeId result = 0;
  };
  NodeId make(int var, NodeId low, NodeId high);
  std::size_t unique_slot(int var, NodeId low, NodeId high) const;
  void grow_unique();
  void resize_cache(int log2);
  std::size_t cache_slot(NodeId a, NodeId b, std::uint32_t c) const;
  bool cache_find(NodeId a, NodeId b, std::uint32_t c, NodeId& result);
  void cache_store(NodeId a, NodeId b, std::uint32_t c, NodeId result);
  std::uint32_t intern_rename(const std::vector<int>& rename);
  NodeId exists_rec(NodeId f, const std::vector<bool>& mask, int last,
                    std::uint32_t tag);
  NodeId and_exists_rec(NodeId f, NodeId g, const std::vector<bool>& mask,
                        int last, std::uint32_t mask_id);
  NodeId rename_rec(NodeId f, const std::vector<int>& rename,
                    std::uint32_t tag);
  NodeId cofactor_rec(NodeId f, int v, bool value, std::uint32_t tag);
  std::uint64_t dag_size_rec(NodeId f, std::vector<bool>& seen) const;
  double sat_count_rec(NodeId f, std::vector<double>& memo) const;

  int var_count_;
  std::vector<Node> nodes_;
  std::vector<NodeId> buckets_;  // unique table, power-of-two size
  int bucket_bits_ = 0;
  std::vector<CacheEntry> cache_;  // computed cache, power-of-two size
  int cache_bits_ = 0;
  std::unordered_map<std::vector<bool>, Quantifier> mask_ids_;
  std::map<std::vector<int>, std::uint32_t> rename_ids_;
  std::vector<NodeId> free_list_;
  std::uint64_t live_nodes_ = 2;
  std::uint64_t peak_live_nodes_ = 2;
  std::uint64_t created_nodes_ = 2;
  std::uint64_t node_limit_ = 0;
  Stats stats_;
};

}  // namespace la1::bdd
