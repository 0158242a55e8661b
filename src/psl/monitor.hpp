// Runtime PSL monitors ("assertion monitors" in the paper).
//
// A monitor is stepped once per evaluation cycle against an `Env`. Its
// verdict uses the paper's (P_status, P_value) encoding (§5.1):
//   kPending -> P_status = false            (still under verification)
//   kHolds   -> P_status = true, P_value = true
//   kFailed  -> P_status = true, P_value = false
//
// `current()` is the verdict over the trace so far (safety view: kHolds
// means "no violation and no open obligation"); `at_end()` is the verdict
// if the trace stopped now (strong obligations fail, weak ones discharge).
//
// Monitor state is finite and encodable (`encode()`), which is what lets
// the explicit model checker build the design-FSM x monitor product.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "psl/temporal.hpp"

namespace la1::psl {

enum class Verdict { kHolds, kPending, kFailed };

const char* to_string(Verdict v);

class Monitor {
 public:
  virtual ~Monitor() = default;

  virtual void reset() = 0;
  /// Consumes one evaluation cycle.
  void step(const Env& env) {
    if (current() != Verdict::kFailed) do_step(env);
    ++cycle_;
  }
  virtual Verdict current() const = 0;
  virtual Verdict at_end() const = 0;
  /// Finite fingerprint of the monitor state (product construction): two
  /// monitors compiled from one property share it exactly when their
  /// states are equal. Binary, not printable.
  std::string encode() const {
    std::string key;
    encode_to(key);
    return key;
  }
  /// Appends encode()'s fingerprint to `key`. Self-delimiting, so the
  /// fingerprints of a fixed list of monitors concatenate injectively.
  virtual void encode_to(std::string& key) const = 0;
  /// Deep copy with the current runtime state (product construction).
  virtual std::unique_ptr<Monitor> clone() const = 0;

  std::uint64_t cycle() const { return cycle_; }
  /// Cycle index of the (first) failure; meaningful when failed.
  std::uint64_t failure_cycle() const { return failure_cycle_; }

  /// Paper encoding.
  bool p_status() const { return current() != Verdict::kPending; }
  bool p_value() const { return current() == Verdict::kHolds; }

 protected:
  virtual void do_step(const Env& env) = 0;
  void mark_failed() { failure_cycle_ = cycle_; }

  std::uint64_t cycle_ = 0;
  std::uint64_t failure_cycle_ = ~std::uint64_t{0};
};

/// Compiles a property to a monitor. Throws std::invalid_argument for
/// properties outside the monitorable fragment (see temporal.hpp).
std::unique_ptr<Monitor> compile(const PropPtr& prop);

/// Counts the matches of a SERE over the trace (cover directive support).
class CoverMonitor {
 public:
  explicit CoverMonitor(const SerePtr& sere);
  void reset();
  void step(const Env& env);
  std::uint64_t matches() const { return matches_; }
  bool covered() const { return matches_ > 0; }

 private:
  Nfa nfa_;
  StateSet active_;
  std::uint64_t matches_ = 0;
};

/// Monitor implementation choice: on-the-fly NFA subset stepping (default,
/// supports the full fragment) or statically determinized tables (the
/// "compiled monitor" backend, see dfa.hpp — O(atoms) per cycle).
enum class MonitorBackend { kNfa, kDfa };

/// Runs every directive of a vunit as a bank of monitors; convenience for
/// the ABV harnesses and the Table-3 bench.
class VUnitRunner {
 public:
  explicit VUnitRunner(const VUnit& vunit,
                       MonitorBackend backend = MonitorBackend::kNfa);

  void reset();
  void step(const Env& env);

  /// Count of assert directives currently failed.
  std::size_t failures() const;
  /// Per-directive access, aligned with vunit.directives().
  Verdict verdict(std::size_t i) const;
  std::uint64_t cover_count(std::size_t i) const;
  const VUnit& vunit() const { return *vunit_; }
  std::uint64_t cycles() const { return cycles_; }

 private:
  const VUnit* vunit_;
  std::vector<std::unique_ptr<Monitor>> monitors_;   // null for covers
  std::vector<std::unique_ptr<CoverMonitor>> covers_;  // null for asserts
  std::uint64_t cycles_ = 0;
};

}  // namespace la1::psl
