// Netlist compiler for the bit-parallel backend (csim/program.hpp).
//
// Consumes an elaborated rtl::Module plus the plan::CompilePlan proved for
// it (src/plan), and emits:
//
//   * one combinational program — the levelized schedule (rtl/schedule.hpp,
//     the same order CycleSim interprets) lowered node by node to word
//     instructions, tristate groups resolved driver by driver with a
//     per-bus conflict word (the `bus_conflict` tap);
//   * one step program per distinct (clock, edge) pair across processes —
//     sample-then-commit nonblocking semantics in straight-line form;
//   * the slot layout: per net bit an aval slot, plus a bval sideband slot
//     only where the plan classifies the bit x-transient or x-live.
//
// Optionally it also compiles per-lane register forces (csim::Force) into
// the step programs, so one Machine can carry a golden lane next to up to
// 63 mutants of the same netlist — the fault campaign's lane batches. A
// program compiled without forces is the same instruction stream as before
// forces existed.
//
// The compiled artifact is immutable and shareable: every csim::Machine
// holds its own slot array and memory images, so independent machines can
// run the same program concurrently (the fault campaign's parallel shards).
#pragma once

#include <cstdint>
#include <vector>

#include "csim/program.hpp"
#include "plan/plan.hpp"
#include "rtl/netlist.hpp"
#include "rtl/schedule.hpp"

namespace la1::csim {

/// Slot assignment for one net. `b[i]` is kZeroSlot for plan-proven
/// two-state bits (no sideband allocated). `conflict` is the per-lane
/// multiple-enabled-drivers word of a tristate bus, -1 elsewhere.
struct NetSlots {
  std::vector<std::int32_t> a;
  std::vector<std::int32_t> b;
  std::int32_t conflict = -1;
};

struct MemLayout {
  int depth = 0;
  int width = 0;
};

/// Per-lane register mutation, applied in the register's step program right
/// after the commit — the lane-masked twin of fault::apply_structural's
/// netlist edits, with the same four-state results:
///   kStuck0/kStuck1  the bit commits as a defined 0/1 on every edge;
///   kInvert          the bit commits inverted (X stays X, Z becomes X);
///   kFlip            the bit commits inverted on edge `edge` only (the
///                    0-based count of the register's clock edges since
///                    reset); every commit turns Z into X like the XOR;
///   kDrop            the whole register keeps its pre-commit value.
/// kInvert and kFlip also turn Z into X on the register's other bits, as
/// the XOR of apply_structural does.
enum class ForceKind { kStuck0, kStuck1, kInvert, kFlip, kDrop };

struct Force {
  ForceKind kind = ForceKind::kStuck0;
  rtl::NetId reg = rtl::kInvalidId;
  int bit = 0;
  int lane = 0;
  std::int64_t edge = 0;  // kFlip only
};

class Compiled {
 public:
  const rtl::Module& module() const { return *module_; }
  const plan::CompilePlan& plan() const { return plan_; }

  int slot_count() const { return slot_count_; }
  const NetSlots& net_slots(rtl::NetId id) const {
    return nets_.at(static_cast<std::size_t>(id));
  }
  const std::vector<MemLayout>& mems() const { return mems_; }
  const Program& comb() const { return comb_; }
  const std::vector<StepProgram>& steps() const { return steps_; }
  const std::vector<MemReadDesc>& mem_reads() const { return mem_reads_; }
  const std::vector<MemWriteDesc>& mem_writes() const { return mem_writes_; }
  /// Power-on slot image: register inits broadcast across all 64 lanes
  /// (X inits raise the sideband), inputs and wires zero, pinned constants.
  const std::vector<std::uint64_t>& reset_image() const { return reset_image_; }

  /// Word instructions across the comb program and all step programs —
  /// the static size the cost model is calibrated against.
  std::int64_t total_instructions() const;

 private:
  friend class Compiler;

  const rtl::Module* module_ = nullptr;
  plan::CompilePlan plan_;
  int slot_count_ = 0;
  std::vector<NetSlots> nets_;
  std::vector<MemLayout> mems_;
  Program comb_;
  std::vector<StepProgram> steps_;
  std::vector<MemReadDesc> mem_reads_;
  std::vector<MemWriteDesc> mem_writes_;
  std::vector<std::uint64_t> reset_image_;
};

/// Lowers `flat` under `plan` (which must have been analyzed from this
/// exact module: net order, widths and memory summaries are validated).
/// Throws std::invalid_argument on a hierarchical module, a combinational
/// cycle, or a plan/netlist mismatch. The caller keeps `flat` alive for
/// the lifetime of the Compiled and every Machine built from it.
///
/// `forces` holds at most one force per lane. Each must name a register
/// some process assigns (a kFlip target exactly one clock edge), a bit
/// inside it and a lane in [0, 64). The plan was proved for the unforced
/// netlist, so a force is also rejected (std::invalid_argument) when it
/// could steer X or Z into a plan-proven two-state bit, which has no
/// sideband slot to hold it: that is when a net the forced register feeds
/// (itself included, when its next state reads it back) has a two-state
/// bit and is also downstream of a possible X/Z source (a bit the plan
/// does not prove two-state, a tristate bus, or a memory read whose address
/// can fall past the memory).
Compiled compile(const rtl::Module& flat, const plan::CompilePlan& plan,
                 const std::vector<Force>& forces = {});

/// compile()'s X-safety rule alone, one entry per force: false where
/// compile(flat, plan, {forces[i]}) would reject forces[i] as X-unsafe. Lets
/// a caller route such a force elsewhere instead of losing the whole batch.
/// The forces must otherwise be well-formed.
std::vector<bool> x_safe_forces(const rtl::Module& flat,
                                const plan::CompilePlan& plan,
                                const std::vector<Force>& forces);

/// Convenience: runs plan::analyze under `schedule` (empty = the planner's
/// derived default) and compiles against the result.
Compiled compile(const rtl::Module& flat,
                 const std::vector<rtl::ClockStep>& schedule = {});

}  // namespace la1::csim
