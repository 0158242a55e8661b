#include "psl/monitor.hpp"

#include <sstream>
#include <stdexcept>

#include "psl/dfa.hpp"
#include "util/strings.hpp"

namespace la1::psl {

const char* to_string(Verdict v) {
  switch (v) {
    case Verdict::kHolds: return "HOLDS";
    case Verdict::kPending: return "PENDING";
    case Verdict::kFailed: return "FAILED";
  }
  return "?";
}

namespace {

std::string encode_set(const std::set<int>& s) {
  std::ostringstream out;
  out << '{';
  for (int v : s) out << v << ',';
  out << '}';
  return out.str();
}

/// never {r}: fails as soon as any (non-empty) match of r completes.
class NeverMonitor : public Monitor {
 public:
  explicit NeverMonitor(const SerePtr& sere)
      : nfa_(std::make_shared<const Nfa>(build_nfa(*sere))) {
    NeverMonitor::reset();
  }

  void reset() override {
    cycle_ = 0;
    failure_cycle_ = ~std::uint64_t{0};
    active_.clear();
    // A nullable operand means the empty match fires immediately.
    failed_ = nfa_->nullable();
    if (failed_) mark_failed();
  }

  Verdict current() const override {
    return failed_ ? Verdict::kFailed : Verdict::kHolds;
  }
  Verdict at_end() const override { return current(); }

  std::string encode() const override {
    return failed_ ? "F" : encode_set(active_);
  }

  std::unique_ptr<Monitor> clone() const override {
    return std::make_unique<NeverMonitor>(*this);
  }

 protected:
  void do_step(const Env& env) override {
    std::set<int> from = active_;
    for (int s : nfa_->initial()) from.insert(s);  // a match may start any cycle
    active_ = nfa_->step(from, env);
    if (nfa_->accepting(active_)) {
      failed_ = true;
      mark_failed();
    }
  }

 private:
  std::shared_ptr<const Nfa> nfa_;  // shared so clone() is cheap
  std::set<int> active_;
  bool failed_ = false;
};

/// {r} |-> {s} / {r} |=> {s}, optionally strong, optionally anchored to
/// cycle 0 (top-level suffix implication without an enclosing always).
class SuffixImplMonitor : public Monitor {
 public:
  SuffixImplMonitor(const SerePtr& antecedent, const SerePtr& consequent,
                    bool overlap, bool strong, bool anchored)
      : ant_(std::make_shared<const Nfa>(build_nfa(*antecedent))),
        con_(std::make_shared<const Nfa>(build_nfa(*consequent))),
        overlap_(overlap),
        strong_(strong),
        anchored_(anchored) {
    SuffixImplMonitor::reset();
  }

  void reset() override {
    cycle_ = 0;
    failure_cycle_ = ~std::uint64_t{0};
    scanner_.clear();
    obligations_.clear();
    failed_ = false;
    first_cycle_ = true;
    // A nullable antecedent matches before any letter; spawn at cycle 0.
    pending_spawn_ = ant_->nullable();
  }

  Verdict current() const override {
    if (failed_) return Verdict::kFailed;
    return obligations_.empty() ? Verdict::kHolds : Verdict::kPending;
  }

  Verdict at_end() const override {
    if (failed_) return Verdict::kFailed;
    if (strong_ && !obligations_.empty()) return Verdict::kFailed;
    return Verdict::kHolds;
  }

  std::string encode() const override {
    std::ostringstream out;
    out << (failed_ ? "F" : "") << (pending_spawn_ ? "p" : "")
        << (first_cycle_ ? "0" : "") << encode_set(scanner_) << '/';
    for (const auto& o : obligations_) out << encode_set(o);
    return out.str();
  }

  std::unique_ptr<Monitor> clone() const override {
    return std::make_unique<SuffixImplMonitor>(*this);
  }

 protected:
  void do_step(const Env& env) override {
    // 1. Advance open obligations with this letter.
    std::set<std::set<int>> next_obl;
    for (const std::set<int>& o : obligations_) {
      const std::set<int> advanced = con_->step(o, env);
      if (con_->accepting(advanced)) continue;  // discharged
      if (advanced.empty()) {
        failed_ = true;
        mark_failed();
        return;
      }
      next_obl.insert(advanced);
    }
    obligations_ = std::move(next_obl);

    // 2. A |=> spawn scheduled by the previous cycle starts fresh now and
    //    consumes this letter... no: |=> obligations begin at the NEXT cycle
    //    after the antecedent match, i.e. they consume this letter if they
    //    were scheduled last cycle.
    if (pending_spawn_ && !overlap_) {
      spawn(env);
      pending_spawn_ = false;
    }
    if (pending_spawn_ && overlap_ && first_cycle_) {
      // Nullable antecedent with |->: consequent starts at cycle 0.
      spawn(env);
      pending_spawn_ = false;
    }

    // 3. Advance the antecedent scanner (matches can start any cycle unless
    //    anchored).
    std::set<int> from = scanner_;
    if (!anchored_ || first_cycle_) {
      for (int s : ant_->initial()) from.insert(s);
    }
    scanner_ = ant_->step(from, env);

    // 4. Antecedent match completing at this cycle spawns a consequent
    //    obligation: overlapping (|->) consumes this same letter; |=> starts
    //    next cycle.
    if (ant_->accepting(scanner_)) {
      if (overlap_) {
        spawn(env);
      } else {
        pending_spawn_ = true;
      }
    }
    first_cycle_ = false;
  }

 private:
  /// Starts one consequent obligation that consumes the current letter.
  void spawn(const Env& env) {
    if (con_->nullable()) return;  // empty consequent match: vacuously done
    const std::set<int> first = con_->step(con_->initial(), env);
    if (con_->accepting(first)) return;  // satisfied by one letter
    if (first.empty()) {
      failed_ = true;
      mark_failed();
      return;
    }
    obligations_.insert(first);
  }

  std::shared_ptr<const Nfa> ant_;  // shared so clone() is cheap
  std::shared_ptr<const Nfa> con_;
  bool overlap_;
  bool strong_;
  bool anchored_;
  std::set<int> scanner_;
  std::set<std::set<int>> obligations_;
  bool failed_ = false;
  bool pending_spawn_ = false;
  bool first_cycle_ = true;
};

/// b in the first cycle.
class BoolMonitor : public Monitor {
 public:
  explicit BoolMonitor(BExprPtr b) : expr_(std::move(b)) { BoolMonitor::reset(); }

  void reset() override {
    cycle_ = 0;
    failure_cycle_ = ~std::uint64_t{0};
    verdict_ = Verdict::kPending;
  }

  Verdict current() const override { return verdict_; }
  Verdict at_end() const override {
    // No cycle observed: treat as failed (strong reading of a plain boolean).
    return verdict_ == Verdict::kPending ? Verdict::kFailed : verdict_;
  }
  std::string encode() const override { return to_string(verdict_); }

  std::unique_ptr<Monitor> clone() const override {
    return std::make_unique<BoolMonitor>(*this);
  }

 protected:
  void do_step(const Env& env) override {
    if (verdict_ != Verdict::kPending) return;
    verdict_ = eval(expr_, env) ? Verdict::kHolds : Verdict::kFailed;
    if (verdict_ == Verdict::kFailed) mark_failed();
  }

 private:
  BExprPtr expr_;
  Verdict verdict_;
};

/// next[n] b, anchored at cycle 0.
class NextMonitor : public Monitor {
 public:
  NextMonitor(BExprPtr b, int n) : expr_(std::move(b)), n_(n) {
    NextMonitor::reset();
  }

  void reset() override {
    cycle_ = 0;
    failure_cycle_ = ~std::uint64_t{0};
    remaining_ = n_;
    verdict_ = Verdict::kPending;
  }

  Verdict current() const override { return verdict_; }
  Verdict at_end() const override {
    return verdict_ == Verdict::kPending ? Verdict::kFailed : verdict_;
  }
  std::string encode() const override {
    return util::cat({"n", std::to_string(remaining_), to_string(verdict_)});
  }

  std::unique_ptr<Monitor> clone() const override {
    return std::make_unique<NextMonitor>(*this);
  }

 protected:
  void do_step(const Env& env) override {
    if (verdict_ != Verdict::kPending) return;
    if (remaining_ > 0) {
      --remaining_;
      return;
    }
    verdict_ = eval(expr_, env) ? Verdict::kHolds : Verdict::kFailed;
    if (verdict_ == Verdict::kFailed) mark_failed();
  }

 private:
  BExprPtr expr_;
  int n_;
  int remaining_ = 0;
  Verdict verdict_ = Verdict::kPending;
};

/// a until b / a until! b.
class UntilMonitor : public Monitor {
 public:
  UntilMonitor(BExprPtr lhs, BExprPtr rhs, bool strong)
      : lhs_(std::move(lhs)), rhs_(std::move(rhs)), strong_(strong) {
    UntilMonitor::reset();
  }

  void reset() override {
    cycle_ = 0;
    failure_cycle_ = ~std::uint64_t{0};
    released_ = false;
    failed_ = false;
  }

  Verdict current() const override {
    if (failed_) return Verdict::kFailed;
    return released_ ? Verdict::kHolds : Verdict::kPending;
  }
  Verdict at_end() const override {
    if (failed_) return Verdict::kFailed;
    if (released_) return Verdict::kHolds;
    return strong_ ? Verdict::kFailed : Verdict::kHolds;
  }
  std::string encode() const override {
    return failed_ ? "F" : (released_ ? "R" : "P");
  }

  std::unique_ptr<Monitor> clone() const override {
    return std::make_unique<UntilMonitor>(*this);
  }

 protected:
  void do_step(const Env& env) override {
    if (failed_ || released_) return;
    if (eval(rhs_, env)) {
      released_ = true;
      return;
    }
    if (!eval(lhs_, env)) {
      failed_ = true;
      mark_failed();
    }
  }

 private:
  BExprPtr lhs_;
  BExprPtr rhs_;
  bool strong_;
  bool released_ = false;
  bool failed_ = false;
};

/// a before b / a before! b — a must occur strictly before b.
class BeforeMonitor : public Monitor {
 public:
  BeforeMonitor(BExprPtr lhs, BExprPtr rhs, bool strong)
      : lhs_(std::move(lhs)), rhs_(std::move(rhs)), strong_(strong) {
    BeforeMonitor::reset();
  }

  void reset() override {
    cycle_ = 0;
    failure_cycle_ = ~std::uint64_t{0};
    done_ = false;
    failed_ = false;
  }

  Verdict current() const override {
    if (failed_) return Verdict::kFailed;
    return done_ ? Verdict::kHolds : Verdict::kPending;
  }
  Verdict at_end() const override {
    if (failed_) return Verdict::kFailed;
    if (done_) return Verdict::kHolds;
    return strong_ ? Verdict::kFailed : Verdict::kHolds;
  }
  std::string encode() const override {
    return failed_ ? "F" : (done_ ? "D" : "P");
  }

  std::unique_ptr<Monitor> clone() const override {
    return std::make_unique<BeforeMonitor>(*this);
  }

 protected:
  void do_step(const Env& env) override {
    if (failed_ || done_) return;
    const bool a = eval(lhs_, env);
    const bool b = eval(rhs_, env);
    if (a && !b) {
      done_ = true;
    } else if (b) {
      failed_ = true;  // b arrived first (or simultaneously)
      mark_failed();
    }
  }

 private:
  BExprPtr lhs_;
  BExprPtr rhs_;
  bool strong_;
  bool done_ = false;
  bool failed_ = false;
};

/// eventually! b.
class EventuallyMonitor : public Monitor {
 public:
  explicit EventuallyMonitor(BExprPtr b) : expr_(std::move(b)) {
    EventuallyMonitor::reset();
  }

  void reset() override {
    cycle_ = 0;
    failure_cycle_ = ~std::uint64_t{0};
    seen_ = false;
  }

  Verdict current() const override {
    return seen_ ? Verdict::kHolds : Verdict::kPending;
  }
  Verdict at_end() const override {
    return seen_ ? Verdict::kHolds : Verdict::kFailed;
  }
  std::string encode() const override { return seen_ ? "S" : "P"; }

  std::unique_ptr<Monitor> clone() const override {
    return std::make_unique<EventuallyMonitor>(*this);
  }

 protected:
  void do_step(const Env& env) override {
    if (!seen_ && eval(expr_, env)) seen_ = true;
  }

 private:
  BExprPtr expr_;
  bool seen_ = false;
};

/// Conjunction of monitors.
class AndMonitor : public Monitor {
 public:
  explicit AndMonitor(std::vector<std::unique_ptr<Monitor>> children)
      : children_(std::move(children)) {}

  void reset() override {
    cycle_ = 0;
    failure_cycle_ = ~std::uint64_t{0};
    for (auto& c : children_) c->reset();
  }

  Verdict current() const override { return combine(false); }
  Verdict at_end() const override { return combine(true); }

  std::string encode() const override {
    std::string out;
    for (const auto& c : children_) out += c->encode() + "|";
    return out;
  }

  std::unique_ptr<Monitor> clone() const override {
    std::vector<std::unique_ptr<Monitor>> copies;
    copies.reserve(children_.size());
    for (const auto& c : children_) copies.push_back(c->clone());
    auto out = std::make_unique<AndMonitor>(std::move(copies));
    out->cycle_ = cycle_;
    out->failure_cycle_ = failure_cycle_;
    return out;
  }

 protected:
  void do_step(const Env& env) override {
    for (auto& c : children_) c->step(env);
    for (const auto& c : children_) {
      if (c->current() == Verdict::kFailed &&
          failure_cycle_ == ~std::uint64_t{0}) {
        failure_cycle_ = c->failure_cycle();
      }
    }
  }

 private:
  Verdict combine(bool at_end) const {
    bool pending = false;
    for (const auto& c : children_) {
      const Verdict v = at_end ? c->at_end() : c->current();
      if (v == Verdict::kFailed) return Verdict::kFailed;
      if (v == Verdict::kPending) pending = true;
    }
    return pending ? Verdict::kPending : Verdict::kHolds;
  }

  std::vector<std::unique_ptr<Monitor>> children_;
};

std::unique_ptr<Monitor> compile_rec(const PropPtr& prop, bool under_always) {
  const Prop& p = *prop;
  switch (p.kind) {
    case Prop::Kind::kBoolean:
      if (under_always) {
        return std::make_unique<NeverMonitor>(s_bool(b_not(p.expr)));
      }
      return std::make_unique<BoolMonitor>(p.expr);
    case Prop::Kind::kAlways:
      return compile_rec(p.child, true);
    case Prop::Kind::kNever:
      return std::make_unique<NeverMonitor>(p.sere);
    case Prop::Kind::kSuffixImpl:
      return std::make_unique<SuffixImplMonitor>(p.sere, p.sere2, p.overlap,
                                                 p.strong,
                                                 /*anchored=*/!under_always);
    case Prop::Kind::kNext:
      if (under_always) {
        // always next[n] b == b holds from cycle n on.
        return std::make_unique<SuffixImplMonitor>(
            s_skip(p.n + 1), s_bool(p.expr), /*overlap=*/true,
            /*strong=*/false, /*anchored=*/false);
      }
      return std::make_unique<NextMonitor>(p.expr, p.n);
    case Prop::Kind::kUntil:
      if (under_always) break;
      return std::make_unique<UntilMonitor>(p.lhs, p.rhs, p.strong);
    case Prop::Kind::kBefore:
      if (under_always) break;
      return std::make_unique<BeforeMonitor>(p.lhs, p.rhs, p.strong);
    case Prop::Kind::kEventually:
      if (under_always) break;
      return std::make_unique<EventuallyMonitor>(p.expr);
    case Prop::Kind::kAnd: {
      std::vector<std::unique_ptr<Monitor>> children;
      children.reserve(p.children.size());
      for (const PropPtr& c : p.children) {
        children.push_back(compile_rec(c, under_always));
      }
      return std::make_unique<AndMonitor>(std::move(children));
    }
  }
  throw std::invalid_argument("property outside the monitorable fragment: " +
                              to_string(p));
}

}  // namespace

std::unique_ptr<Monitor> compile(const PropPtr& prop) {
  return compile_rec(prop, /*under_always=*/false);
}

CoverMonitor::CoverMonitor(const SerePtr& sere) : nfa_(build_nfa(*sere)) {}

void CoverMonitor::reset() {
  active_.clear();
  matches_ = 0;
}

void CoverMonitor::step(const Env& env) {
  std::set<int> from = active_;
  for (int s : nfa_.initial()) from.insert(s);
  active_ = nfa_.step(from, env);
  if (nfa_.accepting(active_)) ++matches_;
}

VUnitRunner::VUnitRunner(const VUnit& vunit, MonitorBackend backend)
    : vunit_(&vunit) {
  for (const Directive& d : vunit.directives()) {
    if (d.kind == DirectiveKind::kCover) {
      monitors_.push_back(nullptr);
      covers_.push_back(std::make_unique<CoverMonitor>(d.cover_sere));
    } else {
      monitors_.push_back(backend == MonitorBackend::kDfa ? compile_dfa(d.prop)
                                                          : compile(d.prop));
      covers_.push_back(nullptr);
    }
  }
}

void VUnitRunner::reset() {
  cycles_ = 0;
  for (auto& m : monitors_) {
    if (m) m->reset();
  }
  for (auto& c : covers_) {
    if (c) c->reset();
  }
}

void VUnitRunner::step(const Env& env) {
  ++cycles_;
  for (auto& m : monitors_) {
    if (m) m->step(env);
  }
  for (auto& c : covers_) {
    if (c) c->step(env);
  }
}

std::size_t VUnitRunner::failures() const {
  std::size_t n = 0;
  for (const auto& m : monitors_) {
    if (m && m->current() == Verdict::kFailed) ++n;
  }
  return n;
}

Verdict VUnitRunner::verdict(std::size_t i) const {
  if (!monitors_.at(i)) throw std::invalid_argument("directive is a cover");
  return monitors_[i]->current();
}

std::uint64_t VUnitRunner::cover_count(std::size_t i) const {
  if (!covers_.at(i)) throw std::invalid_argument("directive is not a cover");
  return covers_[i]->matches();
}

}  // namespace la1::psl
