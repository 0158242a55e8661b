// Clock-annotated message sequence charts as a validated AST.
//
// The spec layer of the flow (paper §4.1, Figure 3): one `.msc` source
// file is the single authoritative description of a protocol scenario, and
// everything else — the PSL monitor suite, the functional-coverage groups
// and the biased stimulus profile — is compiled from it (compile.hpp). The
// format keeps the paper's `OnReadRequest[0]()@K` annotation verbatim and
// adds what the derived artifacts need:
//
//   * latency bounds     `op[2..4]()@K` — the message may fire anywhere in
//                        the cycle window, compiled to a ranged PSL check,
//   * `opt { ... }`      an optional sub-scenario with its own local
//                        timeline; compiled to monitors that are anchored on
//                        the region's first message (they say nothing when
//                        the region never starts),
//   * `loop [n] period p { ... }`
//                        a back-to-back repetition window (the Figure-3
//                        pipelined-read pattern); compiled to cover
//                        directives, coverage window bins and stimulus
//                        burst bias rather than to asserts,
//   * `trigger read|write`
//                        which pin event starts one scenario instance, so
//                        pin-level collectors can count instances,
//   * `signal op = b$bank.tap`
//                        the observable each operation maps to; `$bank`
//                        is substituted at compile time.
//
// Top-level messages form one absolute timeline (ticks: rising K edges are
// even, rising K# odd). Each region body is a *local* timeline relative to
// the region (loop iteration k shifts its body by k * period cycles).
#pragma once

#include <string>
#include <vector>

namespace la1::msc {

/// Which master clock an annotation is bound to (K# is K shifted 180°).
enum class Clock { kK, kKs };

const char* to_string(Clock c);

/// The pin event that starts one instance of the scenario.
enum class Trigger { kRead, kWrite };

const char* to_string(Trigger t);

/// One message with the paper's `op[cycle]()@clock` annotation, extended
/// with an optional `[lo..hi]` latency window and `/duration` suffix.
struct Message {
  std::string from;
  std::string to;
  std::string operation;
  int cycle_lo = 0;
  int cycle_hi = 0;  // == cycle_lo for an exact annotation
  Clock clock = Clock::kK;
  int duration = 0;  // execution cycles (the paper's duration extension)

  bool exact() const { return cycle_hi == cycle_lo; }
  int tick_lo() const { return 2 * cycle_lo + (clock == Clock::kKs ? 1 : 0); }
  int tick_hi() const { return 2 * cycle_hi + (clock == Clock::kKs ? 1 : 0); }

  /// The annotation as text, e.g. "OnReadRequest[0]()@K" or
  /// "ReleaseBeat0[2..3]()@K#/1".
  std::string annotation() const;
};

struct Item;

/// An `opt` or `loop` sub-scenario. Region bodies carry their own local
/// timeline starting at cycle 0.
struct Region {
  enum class Kind { kOpt, kLoop };
  Kind kind = Kind::kOpt;
  int count = 1;   // loop iterations (>= 1)
  int period = 1;  // K cycles between consecutive loop iteration starts
  std::vector<Item> items;
};

/// One element of a timeline: a message or a nested region.
struct Item {
  enum class Kind { kMessage, kRegion };
  Kind kind = Kind::kMessage;
  Message message;  // kMessage
  Region region;    // kRegion

  static Item of(Message m);
  static Item of(Region r);
};

/// Maps an operation name to the boolean observable a monitor samples;
/// `$bank` in the signal is replaced with the bank index at compile time.
struct SignalBinding {
  std::string operation;
  std::string signal;
};

/// One parsed chart: the complete spec of one protocol scenario.
struct Chart {
  std::string name;
  std::vector<std::string> lifelines;
  Trigger trigger = Trigger::kRead;
  std::vector<SignalBinding> signals;
  std::vector<Item> items;

  /// Binding for an operation, or nullptr.
  const SignalBinding* binding(const std::string& operation) const;

  /// Top-level messages in order (regions skipped) — the mandatory
  /// timeline of the scenario.
  std::vector<const Message*> mandatory() const;

  /// Every message, regions included, in document order.
  std::vector<const Message*> all_messages() const;

  /// Structural well-formedness issues (duplicate lifelines, unknown
  /// lifeline ends, inverted latency windows, non-monotone timelines,
  /// degenerate regions). Empty = valid. Parse-time errors (syntax,
  /// unknown clock, negative cycle) are reported by the parser instead,
  /// with source positions.
  std::vector<std::string> validate() const;
};

/// Canonical `.msc` source for a chart. Parsing the result reproduces the
/// chart, and rendering a parsed chart is byte-stable:
/// `to_text(parse_chart(to_text(c))) == to_text(c)`.
std::string to_text(const Chart& chart);

}  // namespace la1::msc
