// The LA-1 PSL property catalog (DESIGN.md §6), bound per level.
//
// One table of properties over canonical tap names ("b0.read_start",
// "bus_conflict") and one tap set per level, the only statement of what
// that level exposes. A level checks every row whose atoms it observes, each
// atom renamed to the level's signal; property_matrix reports every other
// (row, level) pair with the first tap the level lacks. Properties verified
// early thereby keep their meaning down the refinement.
#pragma once

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "la1/spec.hpp"
#include "psl/monitor.hpp"
#include "psl/temporal.hpp"

namespace la1::core {

enum class Level { kBehavioural, kAsm, kHarness, kRtl };
inline constexpr std::array<Level, 4> kLevels = {
    Level::kBehavioural, Level::kAsm, Level::kHarness, Level::kRtl};

/// "behavioural", "asm", "harness", "rtl"; throws std::invalid_argument
/// for a value outside the enum.
const char* to_string(Level level);

/// Per-bank taps (canonically "b<n>.<tap>") and device-level taps.
struct TapSet {
  std::vector<std::string> bank;
  std::vector<std::string> device;

  /// "b<n>.<tap>" for every bank, bank-major, in `bank` order.
  std::vector<std::string> bank_taps(int banks) const;
  /// Whether canonical tap `tap` is in the set (at any bank index).
  bool observes(const std::string& tap) const;
};

/// behavioural: the kernel model's ProbeEnv names; asm: ASM locations;
/// harness: the taps every harness::DeviceModel shares (what the fault
/// campaign monitors); rtl: the netlist's registered per-bank taps.
const TapSet& tap_set(Level level);

/// The level's signal for canonical `tap`: the name itself, except at RTL
/// ("b<n>.<tap>" is "bank<n>.<tap>_q", bus_conflict is "DOUT.__conflict").
/// Throws std::invalid_argument for a tap the level does not expose.
std::string bind_tap(Level level, const std::string& tap);

enum class Shape {
  kImplNext,  // always (a -> next[n] c)
  kImplNow,   // always (a -> c)
  kNever,     // never {a}
};

/// One property over canonical taps.
struct PropertyRow {
  std::string name;
  Shape shape = Shape::kNever;
  std::string a;
  std::string c;  // empty for kNever
  int n = 0;      // kImplNext only
};

/// Per bank P1, P2, P8, P7, P3 ("<id>_b<n>"), then the device rows P3, P3b,
/// P4, P5, P6, P7; P1's first beat follows the request by `latency_ticks`.
std::vector<PropertyRow> property_catalog(int banks, int latency_ticks);

/// `row` over `level`'s signals; throws like bind_tap.
psl::PropPtr bind(const PropertyRow& row, Level level);

using NamedProperty = std::pair<std::string, psl::PropPtr>;

/// Every catalog row `level` observes, bound, in catalog order.
std::vector<NamedProperty> level_suite(Level level, int banks,
                                       int latency_ticks);

/// Bank 0's read mode at `level`: P1_read_latency_b0, P2_read_burst_b0.
std::vector<NamedProperty> read_mode_suite(Level level, int latency_ticks);

enum class Observability { kChecked, kUnobservable };

/// "checked", "unobservable"; throws std::invalid_argument otherwise.
const char* to_string(Observability status);

struct LevelBinding {
  Observability status = Observability::kChecked;
  std::string missing_tap;  // the first tap the level lacks
};

struct MatrixRow {
  std::string name;
  std::string psl;  // PSL source over canonical taps
  std::array<LevelBinding, kLevels.size()> levels;  // indexed by Level
};

/// Every catalog row at every level.
std::vector<MatrixRow> property_matrix(int banks, int latency_ticks);

/// level_suite(kBehavioural) as asserts, plus covers: a read completes,
/// a read and a write start together, every bank is read.
psl::VUnit behavioral_vunit(const Config& cfg);

}  // namespace la1::core
