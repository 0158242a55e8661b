// PSL Boolean layer.
//
// Boolean expressions over named design signals, "evaluated in a single
// evaluation cycle" (paper §2.2). The same expression objects are sampled
// against any `Env`: the kernel-level LA-1 model, the RTL simulator, or an
// explored ASM state — that is what lets one property suite serve every
// level of the flow.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

namespace la1::psl {

/// Where a monitor reads signal values from. Implementations adapt the
/// behavioural model, the RTL simulator and ASM states.
///
/// An Env may also serve signals by index: bind(name) returns an id that
/// sample(id) reads for as long as this Env instance lives, or -1 when the
/// Env has no indexed path for `name` (the default) — the caller then
/// samples by name. Ids belong to one instance; serial() tells instances
/// apart (a copy, an assignment or an Env built where a destroyed one lived
/// gets a fresh serial), so a caller keys its bindings on it.
class Env {
 public:
  Env() : serial_(next_serial()) {}
  Env(const Env&) : serial_(next_serial()) {}
  Env& operator=(const Env&) {
    serial_ = next_serial();
    return *this;
  }
  virtual ~Env() = default;

  /// Samples the named 1-bit signal in the current cycle.
  virtual bool sample(const std::string& signal) const = 0;
  /// The id of `signal` for sample(int), or -1 to sample it by name.
  virtual int bind(const std::string& signal) const;
  /// Samples the signal bind() returned `id` for.
  virtual bool sample(int id) const;

  /// Distinct for every Env instance of the process, never 0.
  std::uint64_t serial() const { return serial_; }

 private:
  static std::uint64_t next_serial();
  std::uint64_t serial_;
};

/// Env over an explicit map, for tests and the explicit model checker.
class MapEnv : public Env {
 public:
  void set(const std::string& signal, bool value) { map_[signal] = value; }
  bool sample(const std::string& signal) const override;

 private:
  std::map<std::string, bool> map_;
};

struct BExpr;
using BExprPtr = std::shared_ptr<const BExpr>;

struct BExpr {
  enum class Kind { kConst, kSignal, kNot, kAnd, kOr, kImplies, kIff };
  Kind kind = Kind::kConst;
  bool value = false;       // kConst
  std::string signal;       // kSignal
  BExprPtr a;
  BExprPtr b;
};

BExprPtr b_const(bool v);
BExprPtr b_true();
BExprPtr b_false();
BExprPtr b_sig(std::string name);
BExprPtr b_not(BExprPtr a);
BExprPtr b_and(BExprPtr a, BExprPtr b);
BExprPtr b_or(BExprPtr a, BExprPtr b);
BExprPtr b_implies(BExprPtr a, BExprPtr b);
BExprPtr b_iff(BExprPtr a, BExprPtr b);

bool eval(const BExpr& e, const Env& env);
inline bool eval(const BExprPtr& e, const Env& env) { return eval(*e, env); }

std::string to_string(const BExpr& e);
void collect_signals(const BExpr& e, std::set<std::string>& out);

}  // namespace la1::psl
