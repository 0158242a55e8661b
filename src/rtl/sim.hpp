// Cycle-based simulator for flat RTL modules.
//
// This plays the role of the commercial Verilog simulator in the paper's
// Table 3: it interprets the full bit-level netlist every cycle, so its cost
// per cycle scales with design size — exactly the behaviour the SystemC
// vs Verilog/OVL comparison measures.
//
// Usage contract (two-phase synchronous semantics, nonblocking assigns):
//   sim.set_input(...);      // drive primary inputs for this half-cycle
//   sim.eval();              // settle combinational logic (optional; edge()
//                            // evaluates as needed)
//   sim.edge(k, Edge::kPos); // registers sample pre-edge values, commit,
//                            // combinational logic re-settles
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rtl/netlist.hpp"
#include "rtl/schedule.hpp"

namespace la1::rtl {

class CycleSim {
 public:
  /// Requires a flat module (no instances); levelizes the combinational
  /// logic and throws std::invalid_argument on combinational cycles.
  explicit CycleSim(const Module& flat);

  const Module& module() const { return *module_; }

  // --- driving ---------------------------------------------------------
  void set_input(NetId net, const LVec& value);
  void set_input(const std::string& name, std::uint64_t value);
  void set_input_bit(const std::string& name, bool value);

  /// Applies a clock edge on `clock`: settles combinational logic, samples
  /// every process sensitive to this edge, commits registers and memory
  /// writes, updates the clock net value, and re-settles.
  void edge(NetId clock, Edge e);
  void edge(const std::string& clock_name, Edge e);

  /// Settles combinational logic without a clock edge.
  void eval();

  // --- observation -----------------------------------------------------
  const LVec& get(NetId net) const;
  const LVec& get(const std::string& name) const;
  /// Unsigned value of a fully-defined net; throws when X/Z.
  std::uint64_t get_uint(const std::string& name) const;

  /// Number of tristate drivers that were enabled (enable == 1) on `net`
  /// at the last eval; 0 for non-tristate nets.
  int enabled_drivers(NetId net) const;

  /// Memory word access for checkers/tests.
  const LVec& mem_word(MemId mem, std::uint64_t addr) const;
  void poke_mem(MemId mem, std::uint64_t addr, const LVec& value);

  // --- counters (Table-3 instrumentation) -------------------------------
  std::uint64_t edges_applied() const { return edges_; }
  std::uint64_t exprs_evaluated() const { return exprs_evaluated_; }
  std::uint64_t x_write_warnings() const { return x_write_warnings_; }

 private:
  void levelize();
  /// The value of `id` this settle, evaluated into its expr_cache_ slot.
  const LVec& eval_expr(ExprId id);
  /// The value edge() sampled for `id` before committing.
  const LVec& sampled(ExprId id) const {
    return expr_cache_[static_cast<std::size_t>(id)];
  }
  /// Commits one sampled memory write under the SRAM rules.
  void commit_write(const MemWrite& w);
  void run_comb();

  const Module* module_;
  std::vector<LVec> net_values_;
  std::vector<std::vector<LVec>> mem_values_;
  std::vector<SchedNode> order_;              // shared levelized schedule
  std::vector<int> enabled_drivers_;          // per net, last eval
  std::vector<LVec> expr_cache_;
  std::vector<std::uint64_t> expr_stamp_;
  std::uint64_t stamp_ = 0;
  std::uint64_t edges_ = 0;
  std::uint64_t exprs_evaluated_ = 0;
  std::uint64_t x_write_warnings_ = 0;
};

}  // namespace la1::rtl
