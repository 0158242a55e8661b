#include "bdd/bdd.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace la1::bdd {

namespace {

// Unique table: starts at 4K buckets, doubles at load factor 1.
constexpr int kInitialBucketBits = 12;
// Computed cache: one entry per live node, between 4K and 1M entries.
constexpr int kMinCacheBits = 12;
constexpr int kMaxCacheBits = 20;
// Op tags in the top bits of a cache entry's `c`. ITE keeps a node id
// there, so node ids stay below the first tag.
constexpr std::uint32_t kTagShift = 29;
constexpr NodeId kMaxNodes = 1u << kTagShift;
constexpr std::uint32_t kOpExists = 1u << kTagShift;
constexpr std::uint32_t kOpAndExists = 2u << kTagShift;
constexpr std::uint32_t kOpRename = 3u << kTagShift;
constexpr std::uint32_t kOpCofactor = 4u << kTagShift;

/// Multiplicative hash of a key triple; callers take the top bits.
std::uint64_t hash3(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t h = a * 0x9E3779B97F4A7C15ull;
  h = (h ^ b) * 0xC2B2AE3D27D4EB4Full;
  return (h ^ (h >> 29) ^ c) * 0x165667B19E3779F9ull;
}

/// Smallest cache size (as log2) holding one entry per live node.
int cache_bits_for(std::uint64_t live) {
  int bits = kMinCacheBits;
  while (bits < kMaxCacheBits && (std::uint64_t{1} << bits) < live) ++bits;
  return bits;
}

}  // namespace

Manager::Manager(int var_count) : var_count_(var_count) {
  if (var_count < 0) throw std::invalid_argument("negative var count");
  if (var_count >= (1 << (kTagShift - 1))) {
    throw std::invalid_argument("var count exceeds the cofactor cache key");
  }
  // Terminal nodes. var = var_count acts as the "past the last level" rank
  // so ordering comparisons work without special cases.
  nodes_.push_back(Node{var_count, kFalse, kFalse, 1, 0});
  nodes_.push_back(Node{var_count, kTrue, kTrue, 1, 0});
  bucket_bits_ = kInitialBucketBits;
  buckets_.assign(std::size_t{1} << bucket_bits_, 0);
  resize_cache(kMinCacheBits);
}

NodeId Manager::make(int var, NodeId low, NodeId high) {
  if (low == high) return low;
  ++stats_.unique_lookups;
  NodeId& head = buckets_[unique_slot(var, low, high)];
  for (NodeId id = head; id != 0; id = nodes_[id].next) {
    const Node& n = nodes_[id];
    if (n.low == low && n.high == high && n.var == var) return id;
  }

  if (node_limit_ != 0 && live_nodes_ >= node_limit_) {
    throw ResourceExhausted{live_nodes_, node_limit_};
  }

  NodeId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    if (nodes_.size() >= kMaxNodes) {
      throw std::length_error("bdd: node id space exhausted");
    }
    id = static_cast<NodeId>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[id] = Node{var, low, high, 0, head};
  head = id;
  ++nodes_[low].refs;
  ++nodes_[high].refs;
  ++live_nodes_;
  ++created_nodes_;
  if (live_nodes_ > peak_live_nodes_) peak_live_nodes_ = live_nodes_;
  if (live_nodes_ > buckets_.size()) grow_unique();
  if (cache_bits_ < kMaxCacheBits && live_nodes_ > cache_.size()) {
    resize_cache(cache_bits_ + 1);
  }
  return id;
}

void Manager::grow_unique() {
  // Rehash by one linear scan of the node array: chain order never decides
  // a node id, so the ids and counts are those a chain walk would give.
  ++bucket_bits_;
  buckets_.assign(std::size_t{1} << bucket_bits_, 0);
  for (NodeId id = 2; id < nodes_.size(); ++id) {
    Node& n = nodes_[id];
    if (n.var < 0) continue;  // tombstone on the free list
    NodeId& head = buckets_[unique_slot(n.var, n.low, n.high)];
    n.next = head;
    head = id;
  }
}

std::size_t Manager::unique_slot(int var, NodeId low, NodeId high) const {
  return static_cast<std::size_t>(
      hash3(static_cast<std::uint32_t>(var), low, high) >> (64 - bucket_bits_));
}

void Manager::resize_cache(int log2) {
  std::vector<CacheEntry> old(std::size_t{1} << log2);
  old.swap(cache_);
  cache_bits_ = log2;
  for (const CacheEntry& e : old) {
    if (e.a != 0) cache_[cache_slot(e.a, e.b, e.c)] = e;
  }
}

std::size_t Manager::cache_slot(NodeId a, NodeId b, std::uint32_t c) const {
  return static_cast<std::size_t>(hash3(a, b, c) >> (64 - cache_bits_));
}

bool Manager::cache_find(NodeId a, NodeId b, std::uint32_t c, NodeId& result) {
  ++stats_.cache_lookups;
  const CacheEntry& e = cache_[cache_slot(a, b, c)];
  if (e.a != a || e.b != b || e.c != c) return false;
  ++stats_.cache_hits;
  result = e.result;
  return true;
}

void Manager::cache_store(NodeId a, NodeId b, std::uint32_t c, NodeId result) {
  cache_[cache_slot(a, b, c)] = CacheEntry{a, b, c, result};
}

Manager::Quantifier Manager::quantifier(const std::vector<bool>& mask) {
  const auto it = mask_ids_.find(mask);
  if (it != mask_ids_.end()) return it->second;
  Quantifier q;
  q.id = static_cast<std::uint32_t>(mask_ids_.size());
  // Clamped below the terminals' rank, so the recursions stop at them.
  const auto vars = static_cast<std::size_t>(var_count_);
  for (std::size_t v = std::min(mask.size(), vars); v-- > 0;) {
    if (mask[v]) {
      q.last = static_cast<int>(v);
      break;
    }
  }
  // The map's key outlives every handle: entries are never erased, and a
  // rehash moves no element.
  const auto added = mask_ids_.emplace(mask, q).first;
  added->second.mask = &added->first;
  return added->second;
}

std::uint32_t Manager::intern_rename(const std::vector<int>& ren) {
  const auto it = rename_ids_.find(ren);
  if (it != rename_ids_.end()) return it->second;
  // Order compatibility is the caller's contract; violating it silently
  // builds a non-canonical DAG, so verify every new mapping (cheap).
  // Non-decreasing suffices: equal images are fine when only one of the two
  // variables can occur in f (the checker's quantify-then-rename usage).
  for (std::size_t i = 1; i < ren.size(); ++i) {
    if (ren[i] < ren[i - 1]) {
      throw std::invalid_argument("rename: order-incompatible mapping");
    }
  }
  const auto id = static_cast<std::uint32_t>(rename_ids_.size());
  rename_ids_.emplace(ren, id);
  return id;
}

NodeId Manager::var(int v) { return make(v, kFalse, kTrue); }
NodeId Manager::nvar(int v) { return make(v, kTrue, kFalse); }

int Manager::top_var(NodeId f) const { return nodes_[f].var; }
NodeId Manager::low(NodeId f) const { return nodes_[f].low; }
NodeId Manager::high(NodeId f) const { return nodes_[f].high; }

NodeId Manager::ite(NodeId f, NodeId g, NodeId h) {
  ++stats_.ite_calls;
  // Terminal cases, after the standard-triple rewrites
  // ite(f, f, h) = ite(f, 1, h) and ite(f, g, f) = ite(f, g, 0).
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == f) g = kTrue;
  if (h == f) h = kFalse;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;
  // AND = ite(f, g, 0) and OR = ite(f, 1, h) commute: one cache key each.
  if (h == kFalse) {
    if (g < f) std::swap(f, g);
  } else if (g == kTrue) {
    if (h < f) std::swap(f, h);
  }

  NodeId out;
  if (cache_find(f, g, h, out)) return out;
  const Node nf = nodes_[f];
  const Node ng = nodes_[g];
  const Node nh = nodes_[h];
  const int v = std::min(nf.var, std::min(ng.var, nh.var));
  auto cof = [v](const Node& n, NodeId id, bool hi) {
    return n.var == v ? (hi ? n.high : n.low) : id;
  };
  const NodeId lo =
      ite(cof(nf, f, false), cof(ng, g, false), cof(nh, h, false));
  const NodeId hi = ite(cof(nf, f, true), cof(ng, g, true), cof(nh, h, true));
  out = make(v, lo, hi);
  cache_store(f, g, h, out);
  return out;
}

NodeId Manager::apply_xor(NodeId f, NodeId g) {
  return ite(f, apply_not(g), g);
}

NodeId Manager::exists_rec(NodeId f, const std::vector<bool>& mask, int last,
                           std::uint32_t tag) {
  // Nothing to quantify below the mask's last variable (constants included:
  // their rank is var_count).
  const Node n = nodes_[f];
  if (n.var > last) return f;
  NodeId out;
  if (cache_find(f, 0, tag, out)) return out;
  const NodeId lo = exists_rec(n.low, mask, last, tag);
  const NodeId hi = exists_rec(n.high, mask, last, tag);
  out = mask[static_cast<std::size_t>(n.var)] ? apply_or(lo, hi)
                                              : make(n.var, lo, hi);
  cache_store(f, 0, tag, out);
  return out;
}

NodeId Manager::exists(NodeId f, const Quantifier& q) {
  return exists_rec(f, *q.mask, q.last, kOpExists | q.id);
}

NodeId Manager::forall(NodeId f, const std::vector<bool>& mask) {
  return apply_not(exists(apply_not(f), mask));
}

NodeId Manager::and_exists_rec(NodeId f, NodeId g,
                               const std::vector<bool>& mask, int last,
                               std::uint32_t mask_id) {
  if (f == kFalse || g == kFalse) return kFalse;
  // One TRUE operand leaves plain quantification: share exists' entries.
  if (f == kTrue) return exists_rec(g, mask, last, kOpExists | mask_id);
  if (g == kTrue) return exists_rec(f, mask, last, kOpExists | mask_id);
  if (f > g) std::swap(f, g);
  const Node nf = nodes_[f];
  const Node ng = nodes_[g];
  const int v = std::min(nf.var, ng.var);
  if (v > last) return apply_and(f, g);

  const std::uint32_t tag = kOpAndExists | mask_id;
  NodeId out;
  if (cache_find(f, g, tag, out)) return out;
  auto cof = [v](const Node& n, NodeId node, bool hi) {
    return n.var == v ? (hi ? n.high : n.low) : node;
  };
  const NodeId lo = and_exists_rec(cof(nf, f, false), cof(ng, g, false),
                                   mask, last, mask_id);
  if (mask[static_cast<std::size_t>(v)]) {
    if (lo == kTrue) {
      out = kTrue;  // early termination: OR with TRUE
    } else {
      const NodeId hi = and_exists_rec(cof(nf, f, true), cof(ng, g, true),
                                       mask, last, mask_id);
      out = apply_or(lo, hi);
    }
  } else {
    const NodeId hi = and_exists_rec(cof(nf, f, true), cof(ng, g, true),
                                     mask, last, mask_id);
    out = make(v, lo, hi);
  }
  cache_store(f, g, tag, out);
  return out;
}

NodeId Manager::and_exists(NodeId f, NodeId g, const Quantifier& q) {
  return and_exists_rec(f, g, *q.mask, q.last, q.id);
}

NodeId Manager::rename_rec(NodeId f, const std::vector<int>& rename,
                           std::uint32_t tag) {
  if (is_const(f)) return f;
  NodeId out;
  if (cache_find(f, 0, tag, out)) return out;
  const Node n = nodes_[f];
  const NodeId lo = rename_rec(n.low, rename, tag);
  const NodeId hi = rename_rec(n.high, rename, tag);
  out = make(rename[static_cast<std::size_t>(n.var)], lo, hi);
  cache_store(f, 0, tag, out);
  return out;
}

NodeId Manager::rename(NodeId f, const std::vector<int>& ren) {
  return rename_rec(f, ren, kOpRename | intern_rename(ren));
}

NodeId Manager::cofactor_rec(NodeId f, int v, bool value, std::uint32_t tag) {
  const Node n = nodes_[f];
  if (n.var > v) return f;  // constants included
  if (n.var == v) return value ? n.high : n.low;
  NodeId out;
  if (cache_find(f, 0, tag, out)) return out;
  const NodeId lo = cofactor_rec(n.low, v, value, tag);
  const NodeId hi = cofactor_rec(n.high, v, value, tag);
  out = make(n.var, lo, hi);
  cache_store(f, 0, tag, out);
  return out;
}

NodeId Manager::cofactor(NodeId f, int v, bool value) {
  // No node sits at a level outside [0, var_count): f is unchanged.
  if (v < 0 || v >= var_count_) return f;
  const std::uint32_t literal =
      (static_cast<std::uint32_t>(v) << 1) | (value ? 1u : 0u);
  return cofactor_rec(f, v, value, kOpCofactor | literal);
}

bool Manager::eval(NodeId f, const std::vector<bool>& assignment) const {
  while (!is_const(f)) {
    const Node& n = nodes_[f];
    f = assignment[static_cast<std::size_t>(n.var)] ? n.high : n.low;
  }
  return f == kTrue;
}

std::uint64_t Manager::dag_size_rec(NodeId f, std::vector<bool>& seen) const {
  if (seen[f]) return 0;
  seen[f] = true;
  if (is_const(f)) return 1;
  return 1 + dag_size_rec(nodes_[f].low, seen) + dag_size_rec(nodes_[f].high, seen);
}

std::uint64_t Manager::dag_size(NodeId f) const {
  std::vector<bool> seen(nodes_.size(), false);
  return dag_size_rec(f, seen);
}

std::uint64_t Manager::dag_size_bounded(NodeId f, std::uint64_t bound) const {
  // No function has more nodes than the manager: such a bound never stops.
  if (bound >= nodes_.size()) return dag_size(f);
  // The nodes seen, in an open-addressed set kept at most half full.
  constexpr NodeId kEmpty = ~NodeId{0};
  int bits = 4;
  while ((std::uint64_t{1} << bits) < 2 * (bound + 1)) ++bits;
  std::vector<NodeId> seen(std::size_t{1} << bits, kEmpty);
  const std::size_t wrap = seen.size() - 1;
  std::uint64_t count = 0;
  std::vector<NodeId> work{f};
  while (!work.empty()) {
    const NodeId id = work.back();
    work.pop_back();
    std::size_t slot = static_cast<std::size_t>(hash3(id, 0, 0) >> (64 - bits));
    while (seen[slot] != kEmpty && seen[slot] != id) slot = (slot + 1) & wrap;
    if (seen[slot] == id) continue;
    seen[slot] = id;
    if (++count > bound) return bound + 1;
    if (is_const(id)) continue;
    work.push_back(nodes_[id].low);
    work.push_back(nodes_[id].high);
  }
  return count;
}

double Manager::sat_count_rec(NodeId f, std::vector<double>& memo) const {
  if (f == kFalse) return 0.0;
  if (f == kTrue) return 1.0;
  double& count = memo[f];
  if (count >= 0.0) return count;
  const Node& n = nodes_[f];
  // Levels skipped between parent and child double the count per level;
  // scaling by a power of two is exact.
  auto weight = [&](NodeId child) {
    return std::ldexp(sat_count_rec(child, memo),
                      nodes_[child].var - n.var - 1);
  };
  count = weight(n.low) + weight(n.high);
  return count;
}

double Manager::sat_count(NodeId f) const {
  if (is_const(f)) return f == kTrue ? std::ldexp(1.0, var_count_) : 0.0;
  std::vector<double> memo(nodes_.size(), -1.0);  // -1: not counted yet
  return std::ldexp(sat_count_rec(f, memo), nodes_[f].var);
}

std::vector<bool> Manager::any_sat(NodeId f) const {
  if (f == kFalse) throw std::invalid_argument("any_sat of FALSE");
  std::vector<bool> out(static_cast<std::size_t>(var_count_), false);
  while (!is_const(f)) {
    const Node& n = nodes_[f];
    if (n.low != kFalse) {
      out[static_cast<std::size_t>(n.var)] = false;
      f = n.low;
    } else {
      out[static_cast<std::size_t>(n.var)] = true;
      f = n.high;
    }
  }
  return out;
}

std::vector<bool> Manager::support(NodeId f) const {
  std::vector<bool> out(static_cast<std::size_t>(var_count_), false);
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> work{f};
  while (!work.empty()) {
    const NodeId id = work.back();
    work.pop_back();
    if (seen[id] || is_const(id)) continue;
    seen[id] = true;
    const Node& n = nodes_[id];
    out[static_cast<std::size_t>(n.var)] = true;
    work.push_back(n.low);
    work.push_back(n.high);
  }
  return out;
}

void Manager::ref(NodeId f) { ++nodes_[f].refs; }

void Manager::deref(NodeId f) {
  if (nodes_[f].refs == 0) throw std::logic_error("deref of unreferenced node");
  --nodes_[f].refs;
}

std::uint64_t Manager::collect_garbage() {
  const auto t0 = std::chrono::steady_clock::now();
  ++stats_.gc_runs;
  std::uint64_t reclaimed = 0;
  // Worklist sweep: free every refs==0 node; freeing may push children to 0.
  std::vector<NodeId> dead;
  for (NodeId id = 2; id < nodes_.size(); ++id) {
    if (nodes_[id].var >= 0 && nodes_[id].refs == 0) dead.push_back(id);
  }
  while (!dead.empty()) {
    const NodeId id = dead.back();
    dead.pop_back();
    Node& n = nodes_[id];
    if (n.var < 0 || n.refs != 0) continue;  // resurrected or already freed
    for (NodeId child : {n.low, n.high}) {
      if (--nodes_[child].refs == 0 && child > kTrue && nodes_[child].var >= 0) {
        dead.push_back(child);
      }
    }
    n.var = -1;  // tombstone
    free_list_.push_back(id);
    --live_nodes_;
    ++reclaimed;
  }
  // Unlink the tombstones from their unique-table chains.
  for (NodeId& head : buckets_) {
    NodeId* link = &head;
    while (*link != 0) {
      Node& n = nodes_[*link];
      if (n.var < 0) {
        *link = n.next;
      } else {
        link = &n.next;
      }
    }
  }
  // The computed cache may hold dead operands and results; drop it and
  // size it for the survivors.
  cache_.clear();
  resize_cache(cache_bits_for(live_nodes_));
  stats_.gc_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return reclaimed;
}

std::uint64_t Manager::memory_bytes() const {
  return nodes_.capacity() * sizeof(Node) +
         buckets_.capacity() * sizeof(NodeId) +
         cache_.capacity() * sizeof(CacheEntry);
}

util::Json Stats::to_json() const {
  util::Json j = util::Json::object();
  j.set("ite_calls", ite_calls);
  j.set("cache_lookups", cache_lookups);
  j.set("cache_hits", cache_hits);
  j.set("unique_lookups", unique_lookups);
  j.set("unique_buckets", unique_buckets);
  j.set("gc_runs", gc_runs);
  j.set("gc_ns", gc_ns);
  return j;
}

Stats Manager::stats() const {
  Stats s = stats_;
  s.unique_buckets = buckets_.size();
  return s;
}

std::string Manager::to_dot(
    NodeId f, const std::function<std::string(int)>& var_name) const {
  std::ostringstream out;
  out << "digraph bdd {\n  rankdir=TB;\n";
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> work{f};
  while (!work.empty()) {
    const NodeId id = work.back();
    work.pop_back();
    if (seen[id]) continue;
    seen[id] = true;
    if (is_const(id)) {
      out << "  n" << id << " [shape=box,label=\"" << (id == kTrue ? 1 : 0)
          << "\"];\n";
      continue;
    }
    const Node& n = nodes_[id];
    out << "  n" << id << " [label=\"" << var_name(n.var) << "\"];\n";
    out << "  n" << id << " -> n" << n.low << " [style=dashed];\n";
    out << "  n" << id << " -> n" << n.high << ";\n";
    work.push_back(n.low);
    work.push_back(n.high);
  }
  out << "}\n";
  return out.str();
}

}  // namespace la1::bdd
