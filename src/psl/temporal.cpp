#include "psl/temporal.hpp"

#include "util/strings.hpp"

namespace la1::psl {

namespace {
PropPtr make(Prop p) { return std::make_shared<const Prop>(std::move(p)); }
}  // namespace

PropPtr p_bool(BExprPtr b) {
  Prop p;
  p.kind = Prop::Kind::kBoolean;
  p.expr = std::move(b);
  return make(std::move(p));
}

PropPtr p_always(PropPtr child) {
  Prop p;
  p.kind = Prop::Kind::kAlways;
  p.child = std::move(child);
  return make(std::move(p));
}

PropPtr p_never(SerePtr r) {
  Prop p;
  p.kind = Prop::Kind::kNever;
  p.sere = std::move(r);
  return make(std::move(p));
}

PropPtr p_suffix_impl(SerePtr antecedent, SerePtr consequent, bool overlap,
                      bool strong) {
  Prop p;
  p.kind = Prop::Kind::kSuffixImpl;
  p.sere = std::move(antecedent);
  p.sere2 = std::move(consequent);
  p.overlap = overlap;
  p.strong = strong;
  return make(std::move(p));
}

PropPtr p_next(BExprPtr b, int n) {
  Prop p;
  p.kind = Prop::Kind::kNext;
  p.expr = std::move(b);
  p.n = n;
  return make(std::move(p));
}

PropPtr p_until(BExprPtr lhs, BExprPtr rhs, bool strong) {
  Prop p;
  p.kind = Prop::Kind::kUntil;
  p.lhs = std::move(lhs);
  p.rhs = std::move(rhs);
  p.strong = strong;
  return make(std::move(p));
}

PropPtr p_before(BExprPtr lhs, BExprPtr rhs, bool strong) {
  Prop p;
  p.kind = Prop::Kind::kBefore;
  p.lhs = std::move(lhs);
  p.rhs = std::move(rhs);
  p.strong = strong;
  return make(std::move(p));
}

PropPtr p_eventually(BExprPtr b) {
  Prop p;
  p.kind = Prop::Kind::kEventually;
  p.expr = std::move(b);
  p.strong = true;
  return make(std::move(p));
}

PropPtr p_and(std::vector<PropPtr> children) {
  Prop p;
  p.kind = Prop::Kind::kAnd;
  p.children = std::move(children);
  return make(std::move(p));
}

PropPtr p_impl_next(BExprPtr b, int n, BExprPtr c) {
  // always ({b} |-> {true[*n]; c})
  SerePtr consequent =
      n == 0 ? s_bool(std::move(c)) : s_concat(s_skip(n), s_bool(std::move(c)));
  return p_always(p_suffix_impl(s_bool(std::move(b)), std::move(consequent)));
}

PropPtr p_impl_now(BExprPtr b, BExprPtr c) {
  return p_impl_next(std::move(b), 0, std::move(c));
}

PropPtr p_next_event(BExprPtr trigger, BExprPtr b, int n, BExprPtr c) {
  // {trigger} |-> {b[->n] : c}: the consequent's goto SERE ends at the n-th
  // occurrence of b; fusing c makes it hold on that same cycle.
  return p_always(p_suffix_impl(s_bool(std::move(trigger)),
                                s_fusion(s_goto(std::move(b), n),
                                         s_bool(std::move(c)))));
}

std::string to_string(const Prop& p) {
  switch (p.kind) {
    case Prop::Kind::kBoolean: return to_string(*p.expr);
    case Prop::Kind::kAlways:
      return util::cat({"always (", to_string(*p.child), ")"});
    case Prop::Kind::kNever:
      return util::cat({"never {", to_string(*p.sere), "}"});
    case Prop::Kind::kSuffixImpl:
      return util::cat({"{", to_string(*p.sere), "} ",
                        p.overlap ? "|->" : "|=>", " {", to_string(*p.sere2),
                        "}", p.strong ? "!" : ""});
    case Prop::Kind::kNext:
      return util::cat(
          {"next[", std::to_string(p.n), "] (", to_string(*p.expr), ")"});
    case Prop::Kind::kUntil:
      return util::cat({"(", to_string(*p.lhs),
                        p.strong ? " until! " : " until ", to_string(*p.rhs),
                        ")"});
    case Prop::Kind::kBefore:
      return util::cat({"(", to_string(*p.lhs),
                        p.strong ? " before! " : " before ", to_string(*p.rhs),
                        ")"});
    case Prop::Kind::kEventually:
      return util::cat({"eventually! (", to_string(*p.expr), ")"});
    case Prop::Kind::kAnd: {
      std::string out;
      for (std::size_t i = 0; i < p.children.size(); ++i) {
        if (i != 0) out += " && ";
        out += util::cat({"(", to_string(*p.children[i]), ")"});
      }
      return out;
    }
  }
  return "?";
}

void collect_signals(const Prop& p, std::set<std::string>& out) {
  if (p.expr) collect_signals(*p.expr, out);
  if (p.lhs) collect_signals(*p.lhs, out);
  if (p.rhs) collect_signals(*p.rhs, out);
  if (p.sere) collect_signals(*p.sere, out);
  if (p.sere2) collect_signals(*p.sere2, out);
  if (p.child) collect_signals(*p.child, out);
  for (const PropPtr& c : p.children) collect_signals(*c, out);
}

void VUnit::add_assert(std::string name, PropPtr prop, DirSeverity severity,
                       std::string message) {
  Directive d;
  d.kind = DirectiveKind::kAssert;
  d.name = std::move(name);
  d.prop = std::move(prop);
  d.severity = severity;
  d.message = std::move(message);
  directives_.push_back(std::move(d));
}

void VUnit::add_assume(std::string name, PropPtr prop) {
  Directive d;
  d.kind = DirectiveKind::kAssume;
  d.name = std::move(name);
  d.prop = std::move(prop);
  directives_.push_back(std::move(d));
}

void VUnit::add_cover(std::string name, SerePtr sere) {
  Directive d;
  d.kind = DirectiveKind::kCover;
  d.name = std::move(name);
  d.cover_sere = std::move(sere);
  directives_.push_back(std::move(d));
}

}  // namespace la1::psl
