#include "psl/sere.hpp"

#include <stdexcept>

namespace la1::psl {

namespace {
SerePtr make(Sere s) { return std::make_shared<const Sere>(std::move(s)); }
}  // namespace

SerePtr s_bool(BExprPtr b) {
  Sere s;
  s.kind = Sere::Kind::kBool;
  s.expr = std::move(b);
  return make(std::move(s));
}

namespace {
SerePtr binary(Sere::Kind kind, SerePtr a, SerePtr b) {
  Sere s;
  s.kind = kind;
  s.a = std::move(a);
  s.b = std::move(b);
  return make(std::move(s));
}
}  // namespace

SerePtr s_concat(SerePtr a, SerePtr b) {
  return binary(Sere::Kind::kConcat, std::move(a), std::move(b));
}
SerePtr s_fusion(SerePtr a, SerePtr b) {
  return binary(Sere::Kind::kFusion, std::move(a), std::move(b));
}
SerePtr s_or(SerePtr a, SerePtr b) {
  return binary(Sere::Kind::kOr, std::move(a), std::move(b));
}
SerePtr s_and(SerePtr a, SerePtr b) {
  return binary(Sere::Kind::kAnd, std::move(a), std::move(b));
}

SerePtr s_star(SerePtr a, int min, int max) {
  if (min < 0 || (max >= 0 && max < min)) {
    throw std::invalid_argument("bad SERE repetition bounds");
  }
  Sere s;
  s.kind = Sere::Kind::kStar;
  s.a = std::move(a);
  s.min = min;
  s.max = max;
  return make(std::move(s));
}

SerePtr s_plus(SerePtr a) { return s_star(std::move(a), 1, -1); }

SerePtr s_rep(BExprPtr b, int n) { return s_star(s_bool(std::move(b)), n, n); }

SerePtr s_goto(BExprPtr b, int n) {
  // {!b[*]; b}[*n]
  SerePtr unit = s_concat(s_star(s_bool(b_not(b))), s_bool(b));
  return s_star(std::move(unit), n, n);
}

SerePtr s_occurs(BExprPtr b, int n) {
  // b[=n] == {b[->n]; !b[*]}
  return s_concat(s_goto(b, n), s_star(s_bool(b_not(b))));
}

SerePtr s_skip(int n) { return s_rep(b_true(), n); }

std::string to_string(const Sere& s) {
  switch (s.kind) {
    case Sere::Kind::kBool: return to_string(*s.expr);
    case Sere::Kind::kConcat:
      return "{" + to_string(*s.a) + " ; " + to_string(*s.b) + "}";
    case Sere::Kind::kFusion:
      return "{" + to_string(*s.a) + " : " + to_string(*s.b) + "}";
    case Sere::Kind::kOr:
      return "{" + to_string(*s.a) + " | " + to_string(*s.b) + "}";
    case Sere::Kind::kAnd:
      return "{" + to_string(*s.a) + " && " + to_string(*s.b) + "}";
    case Sere::Kind::kStar: {
      std::string bounds;
      if (s.min == 0 && s.max < 0) {
        bounds = "[*]";
      } else if (s.min == 1 && s.max < 0) {
        bounds = "[+]";
      } else if (s.max == s.min) {
        bounds = "[*" + std::to_string(s.min) + "]";
      } else if (s.max < 0) {
        bounds = "[*" + std::to_string(s.min) + ":inf]";
      } else {
        bounds = "[*" + std::to_string(s.min) + ":" + std::to_string(s.max) + "]";
      }
      return to_string(*s.a) + bounds;
    }
  }
  return "?";
}

void collect_signals(const Sere& s, std::set<std::string>& out) {
  if (s.expr) collect_signals(*s.expr, out);
  if (s.a) collect_signals(*s.a, out);
  if (s.b) collect_signals(*s.b, out);
}

// ---------------------------------------------------------------------------
// NFA construction
// ---------------------------------------------------------------------------

void Nfa::build_index() {
  eps_out_.assign(static_cast<std::size_t>(state_count_), {});
  trans_out_.assign(static_cast<std::size_t>(state_count_), {});
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    const Trans& t = transitions_[i];
    if (!t.guard) {
      eps_out_[static_cast<std::size_t>(t.from)].push_back(t.to);
    } else {
      trans_out_[static_cast<std::size_t>(t.from)].push_back(static_cast<int>(i));
    }
  }
}

std::set<int> Nfa::closure(const std::set<int>& states) const {
  std::set<int> out = states;
  std::vector<int> work(states.begin(), states.end());
  while (!work.empty()) {
    const int s = work.back();
    work.pop_back();
    for (int t : eps_out_[static_cast<std::size_t>(s)]) {
      if (out.insert(t).second) work.push_back(t);
    }
  }
  return out;
}

std::set<int> Nfa::initial() const {
  return closure(std::set<int>(starts_.begin(), starts_.end()));
}

std::set<int> Nfa::step(const std::set<int>& from, const Env& env) const {
  std::set<int> moved;
  for (int s : from) {
    for (int ti : trans_out_[static_cast<std::size_t>(s)]) {
      const Trans& t = transitions_[static_cast<std::size_t>(ti)];
      if (eval(t.guard, env)) moved.insert(t.to);
    }
  }
  return closure(moved);
}

bool Nfa::accepting(const std::set<int>& states) const {
  for (int a : accepts_) {
    if (states.count(a) != 0) return true;
  }
  return false;
}

std::vector<BExprPtr> Nfa::guards() const {
  std::vector<BExprPtr> out;
  std::set<std::string> seen;
  for (const Trans& t : transitions_) {
    if (!t.guard) continue;
    if (seen.insert(to_string(*t.guard)).second) out.push_back(t.guard);
  }
  return out;
}

Nfa Nfa::assemble(int states, std::vector<int> starts, std::vector<int> accepts,
                  std::vector<Trans> trans) {
  Nfa n;
  n.state_count_ = states;
  n.starts_ = std::move(starts);
  n.accepts_ = std::move(accepts);
  n.transitions_ = std::move(trans);
  n.build_index();
  return n;
}

namespace {

Nfa make_nfa(int states, std::vector<int> starts, std::vector<int> accepts,
             std::vector<Nfa::Trans> trans) {
  return Nfa::assemble(states, std::move(starts), std::move(accepts),
                       std::move(trans));
}

/// Shifts all state ids by `offset`.
void append_shifted(const Nfa& src, int offset, std::vector<Nfa::Trans>& trans) {
  for (const Nfa::Trans& t : src.transitions()) {
    trans.push_back(Nfa::Trans{t.from + offset, t.guard, t.to + offset});
  }
}

std::vector<int> shifted(const std::vector<int>& ids, int offset) {
  std::vector<int> out;
  out.reserve(ids.size());
  for (int i : ids) out.push_back(i + offset);
  return out;
}

Nfa nfa_bool(const BExprPtr& b) {
  return make_nfa(2, {0}, {1}, {Nfa::Trans{0, b, 1}});
}

Nfa nfa_concat(const Nfa& a, const Nfa& b) {
  const int off = a.state_count();
  std::vector<Nfa::Trans> trans = a.transitions();
  append_shifted(b, off, trans);
  for (int acc : a.accepts()) {
    for (int st : b.starts()) trans.push_back(Nfa::Trans{acc, nullptr, st + off});
  }
  return make_nfa(a.state_count() + b.state_count(), a.starts(),
                  shifted(b.accepts(), off), std::move(trans));
}

Nfa nfa_or(const Nfa& a, const Nfa& b) {
  const int off = a.state_count();
  std::vector<Nfa::Trans> trans = a.transitions();
  append_shifted(b, off, trans);
  std::vector<int> starts = a.starts();
  for (int s : shifted(b.starts(), off)) starts.push_back(s);
  std::vector<int> accepts = a.accepts();
  for (int s : shifted(b.accepts(), off)) accepts.push_back(s);
  return make_nfa(a.state_count() + b.state_count(), std::move(starts),
                  std::move(accepts), std::move(trans));
}

/// Epsilon-free accept test helper for fusion: true when `v` is accepting.
bool contains(const std::vector<int>& ids, int v) {
  for (int i : ids) {
    if (i == v) return true;
  }
  return false;
}

Nfa nfa_fusion(const Nfa& a_in, const Nfa& b_in) {
  const Nfa a = remove_epsilon(a_in);
  const Nfa b = remove_epsilon(b_in);
  const int off = a.state_count();
  std::vector<Nfa::Trans> trans = a.transitions();
  append_shifted(b, off, trans);
  // Overlap: a transition completing A runs simultaneously with a first
  // transition of B.
  for (const Nfa::Trans& ta : a.transitions()) {
    if (!contains(a.accepts(), ta.to)) continue;
    for (const Nfa::Trans& tb : b.transitions()) {
      if (!contains(b.starts(), tb.from)) continue;
      trans.push_back(Nfa::Trans{ta.from, b_and(ta.guard, tb.guard), tb.to + off});
    }
  }
  return make_nfa(a.state_count() + b.state_count(), a.starts(),
                  shifted(b.accepts(), off), std::move(trans));
}

Nfa nfa_and(const Nfa& a_in, const Nfa& b_in) {
  const Nfa a = remove_epsilon(a_in);
  const Nfa b = remove_epsilon(b_in);
  const int bn = b.state_count();
  auto pair_id = [bn](int i, int j) { return i * bn + j; };
  std::vector<Nfa::Trans> trans;
  for (const Nfa::Trans& ta : a.transitions()) {
    for (const Nfa::Trans& tb : b.transitions()) {
      trans.push_back(Nfa::Trans{pair_id(ta.from, tb.from),
                                 b_and(ta.guard, tb.guard),
                                 pair_id(ta.to, tb.to)});
    }
  }
  std::vector<int> starts;
  for (int i : a.starts()) {
    for (int j : b.starts()) starts.push_back(pair_id(i, j));
  }
  std::vector<int> accepts;
  for (int i : a.accepts()) {
    for (int j : b.accepts()) accepts.push_back(pair_id(i, j));
  }
  return make_nfa(a.state_count() * b.state_count(), std::move(starts),
                  std::move(accepts), std::move(trans));
}

/// a[*min:max], Thompson-style: state 0 matches the empty prefix, then
/// `min` mandatory copies of `base`, then max - min optional copies (each
/// with a hub that skips it) or, when unbounded, one Kleene loop through a
/// hub. Appended in one pass, so the build is linear in the automaton's
/// size — a fold of pairwise concatenations copied the whole prefix per
/// count.
Nfa nfa_repeat(const Nfa& base, int min, int max) {
  std::vector<Nfa::Trans> trans;
  const auto eps = [&trans](int from, int to) {
    trans.push_back(Nfa::Trans{from, nullptr, to});
  };
  int states = 1;
  std::vector<int> ends{0};  // where the prefix built so far may end
  const auto append_base = [&] {
    const int off = states;
    append_shifted(base, off, trans);
    states += base.state_count();
    return off;
  };
  for (int i = 0; i < min; ++i) {
    const int off = append_base();
    for (int e : ends) {
      for (int st : base.starts()) eps(e, st + off);
    }
    ends = shifted(base.accepts(), off);
  }
  const int optional = max < 0 ? 1 : max - min;
  for (int i = 0; i < optional; ++i) {
    const int off = append_base();
    const int hub = states++;
    for (int st : base.starts()) eps(hub, st + off);
    if (max < 0) {
      for (int acc : base.accepts()) eps(acc + off, hub);
    }
    for (int e : ends) eps(e, hub);
    ends = max < 0 ? std::vector<int>{hub} : shifted(base.accepts(), off);
    if (max >= 0) ends.push_back(hub);
  }
  return make_nfa(states, {0}, std::move(ends), std::move(trans));
}

Nfa build_rec(const Sere& s) {
  switch (s.kind) {
    case Sere::Kind::kBool: return nfa_bool(s.expr);
    case Sere::Kind::kConcat: return nfa_concat(build_rec(*s.a), build_rec(*s.b));
    case Sere::Kind::kFusion: return nfa_fusion(build_rec(*s.a), build_rec(*s.b));
    case Sere::Kind::kOr: return nfa_or(build_rec(*s.a), build_rec(*s.b));
    case Sere::Kind::kAnd: return nfa_and(build_rec(*s.a), build_rec(*s.b));
    case Sere::Kind::kStar: return nfa_repeat(build_rec(*s.a), s.min, s.max);
  }
  throw std::logic_error("unreachable SERE kind");
}

/// Removes states from which no accepting state is reachable. Keeping them
/// would make a doomed obligation look "still pending" instead of failed —
/// the monitors rely on active-set emptiness to detect failure.
Nfa prune_coaccessible(const Nfa& nfa) {
  std::vector<bool> live(static_cast<std::size_t>(nfa.state_count()), false);
  std::vector<int> work;
  for (int a : nfa.accepts()) {
    if (!live[static_cast<std::size_t>(a)]) {
      live[static_cast<std::size_t>(a)] = true;
      work.push_back(a);
    }
  }
  // Backward closure over all edges (guards ignored — conservative).
  std::vector<std::vector<int>> preds(live.size());
  for (const Nfa::Trans& t : nfa.transitions()) {
    preds[static_cast<std::size_t>(t.to)].push_back(t.from);
  }
  while (!work.empty()) {
    const int at = work.back();
    work.pop_back();
    for (int p : preds[static_cast<std::size_t>(at)]) {
      if (!live[static_cast<std::size_t>(p)]) {
        live[static_cast<std::size_t>(p)] = true;
        work.push_back(p);
      }
    }
  }
  std::vector<int> starts;
  for (int s : nfa.starts()) {
    if (live[static_cast<std::size_t>(s)]) starts.push_back(s);
  }
  std::vector<Nfa::Trans> trans;
  for (const Nfa::Trans& t : nfa.transitions()) {
    if (live[static_cast<std::size_t>(t.from)] &&
        live[static_cast<std::size_t>(t.to)]) {
      trans.push_back(t);
    }
  }
  return Nfa::assemble(nfa.state_count(), std::move(starts), nfa.accepts(),
                       std::move(trans));
}

}  // namespace

Nfa build_nfa(const Sere& s) { return prune_coaccessible(build_rec(s)); }

Nfa remove_epsilon(const Nfa& nfa) {
  std::vector<Nfa::Trans> trans;
  std::vector<int> accepts;
  std::vector<bool> is_accept(static_cast<std::size_t>(nfa.state_count()), false);
  for (int a : nfa.accepts()) is_accept[static_cast<std::size_t>(a)] = true;

  for (int u = 0; u < nfa.state_count(); ++u) {
    const std::set<int> cl = nfa.closure({u});
    bool acc = false;
    for (int v : cl) {
      if (is_accept[static_cast<std::size_t>(v)]) acc = true;
      for (const Nfa::Trans& t : nfa.transitions()) {
        if (t.from == v && t.guard) trans.push_back(Nfa::Trans{u, t.guard, t.to});
      }
    }
    if (acc) accepts.push_back(u);
  }
  return Nfa::assemble(nfa.state_count(), nfa.starts(), std::move(accepts),
                       std::move(trans));
}

}  // namespace la1::psl
