#include "psl/boolean.hpp"

#include <atomic>
#include <stdexcept>

#include "util/strings.hpp"

namespace la1::psl {

std::uint64_t Env::next_serial() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

int Env::bind(const std::string&) const { return -1; }

bool Env::sample(int) const {
  throw std::logic_error("Env: sample(id) on an Env without indexed signals");
}

bool MapEnv::sample(const std::string& signal) const {
  auto it = map_.find(signal);
  if (it == map_.end()) {
    throw std::invalid_argument("MapEnv: unknown signal: " + signal);
  }
  return it->second;
}

namespace {
BExprPtr make(BExpr e) { return std::make_shared<const BExpr>(std::move(e)); }
}  // namespace

BExprPtr b_const(bool v) {
  BExpr e;
  e.kind = BExpr::Kind::kConst;
  e.value = v;
  return make(std::move(e));
}

BExprPtr b_true() { return b_const(true); }
BExprPtr b_false() { return b_const(false); }

BExprPtr b_sig(std::string name) {
  BExpr e;
  e.kind = BExpr::Kind::kSignal;
  e.signal = std::move(name);
  return make(std::move(e));
}

BExprPtr b_not(BExprPtr a) {
  BExpr e;
  e.kind = BExpr::Kind::kNot;
  e.a = std::move(a);
  return make(std::move(e));
}

namespace {
BExprPtr binary(BExpr::Kind kind, BExprPtr a, BExprPtr b) {
  BExpr e;
  e.kind = kind;
  e.a = std::move(a);
  e.b = std::move(b);
  return make(std::move(e));
}
}  // namespace

BExprPtr b_and(BExprPtr a, BExprPtr b) {
  return binary(BExpr::Kind::kAnd, std::move(a), std::move(b));
}
BExprPtr b_or(BExprPtr a, BExprPtr b) {
  return binary(BExpr::Kind::kOr, std::move(a), std::move(b));
}
BExprPtr b_implies(BExprPtr a, BExprPtr b) {
  return binary(BExpr::Kind::kImplies, std::move(a), std::move(b));
}
BExprPtr b_iff(BExprPtr a, BExprPtr b) {
  return binary(BExpr::Kind::kIff, std::move(a), std::move(b));
}

bool eval(const BExpr& e, const Env& env) {
  switch (e.kind) {
    case BExpr::Kind::kConst: return e.value;
    case BExpr::Kind::kSignal: return env.sample(e.signal);
    case BExpr::Kind::kNot: return !eval(*e.a, env);
    case BExpr::Kind::kAnd: return eval(*e.a, env) && eval(*e.b, env);
    case BExpr::Kind::kOr: return eval(*e.a, env) || eval(*e.b, env);
    case BExpr::Kind::kImplies: return !eval(*e.a, env) || eval(*e.b, env);
    case BExpr::Kind::kIff: return eval(*e.a, env) == eval(*e.b, env);
  }
  return false;
}

std::string to_string(const BExpr& e) {
  switch (e.kind) {
    case BExpr::Kind::kConst: return e.value ? "true" : "false";
    case BExpr::Kind::kSignal: return e.signal;
    case BExpr::Kind::kNot: return util::cat({"!", to_string(*e.a)});
    case BExpr::Kind::kAnd:
      return util::cat({"(", to_string(*e.a), " && ", to_string(*e.b), ")"});
    case BExpr::Kind::kOr:
      return util::cat({"(", to_string(*e.a), " || ", to_string(*e.b), ")"});
    case BExpr::Kind::kImplies:
      return util::cat({"(", to_string(*e.a), " -> ", to_string(*e.b), ")"});
    case BExpr::Kind::kIff:
      return util::cat({"(", to_string(*e.a), " <-> ", to_string(*e.b), ")"});
  }
  return "?";
}

void collect_signals(const BExpr& e, std::set<std::string>& out) {
  if (e.kind == BExpr::Kind::kSignal) out.insert(e.signal);
  if (e.a) collect_signals(*e.a, out);
  if (e.b) collect_signals(*e.b, out);
}

}  // namespace la1::psl
