#include "msc/compile.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace la1::msc {

namespace {

/// `$bank` substitution in a bound signal name.
std::string subst_bank(std::string signal, int bank) {
  const std::string key = "$bank";
  const std::string value = std::to_string(bank);
  std::size_t pos = 0;
  while ((pos = signal.find(key, pos)) != std::string::npos) {
    signal.replace(pos, key.size(), value);
    pos += value.size();
  }
  return signal;
}

std::string signal_of(const Chart& chart, const Message& m,
                      const CompileOptions& opts) {
  const SignalBinding* b = chart.binding(m.operation);
  if (b == nullptr) {
    throw CompileError("chart '" + chart.name +
                       "': no signal binding for operation '" + m.operation +
                       "'");
  }
  return subst_bank(b->signal, opts.bank);
}

/// The latency property for one consecutive message pair on a timeline.
/// Exact annotations give `always (a -> next[dt] b)`; windows widen the
/// consequent to true[*lo:hi].
CompiledProperty pair_property(const Chart& chart, const std::string& prefix,
                               const Message& a, const Message& b,
                               const CompileOptions& opts) {
  int lo = b.tick_lo() - a.tick_hi();
  const int hi = b.tick_hi() - a.tick_lo();
  if (lo < 0) lo = 0;
  CompiledProperty d;
  d.name = prefix + "." + a.operation + "_to_" + b.operation;
  d.source = a.annotation() + " => " + b.annotation();
  const psl::BExprPtr sa = psl::b_sig(signal_of(chart, a, opts));
  const psl::BExprPtr sb = psl::b_sig(signal_of(chart, b, opts));
  if (lo == hi) {
    d.prop = psl::p_impl_next(sa, lo, sb);
  } else {
    const psl::SerePtr window = psl::s_star(psl::s_bool(psl::b_true()), lo, hi);
    d.prop = psl::p_always(psl::p_suffix_impl(
        psl::s_bool(sa), psl::s_concat(window, psl::s_bool(sb))));
  }
  return d;
}

/// Compiles one region-local timeline: pairwise latency asserts between the
/// region's direct messages (anchored, so they are vacuous when the region
/// never starts), a cover on region entry, and for loops the full
/// n-iteration back-to-back cover. Nested regions recurse with their own
/// local timelines.
void compile_region(const Chart& chart, const Region& region,
                    const std::string& prefix, const CompileOptions& opts,
                    MonitorSuite& suite) {
  std::vector<const Message*> direct;
  for (const Item& item : region.items) {
    if (item.kind == Item::Kind::kMessage) direct.push_back(&item.message);
  }
  if (region.kind == Region::Kind::kOpt) {
    for (std::size_t i = 0; i + 1 < direct.size(); ++i) {
      suite.asserts.push_back(
          pair_property(chart, prefix, *direct[i], *direct[i + 1], opts));
    }
    if (!direct.empty()) {
      CompiledCover c;
      c.name = prefix + ".cover_entry";
      c.source = direct.front()->annotation();
      c.sere = psl::s_bool(
          psl::b_sig(signal_of(chart, *direct.front(), opts)));
      suite.covers.push_back(std::move(c));
    }
  } else if (!direct.empty()) {
    // Loop: the scenario goal "the window actually happens" — the first
    // message repeating `count` times, iteration starts 2*period ticks
    // apart. A goal is a cover, never an assert: nothing obliges the
    // stimulus to drive back-to-back instances.
    const Message& m = *direct.front();
    const psl::SerePtr s = psl::s_bool(psl::b_sig(signal_of(chart, m, opts)));
    psl::SerePtr sere = s;
    if (region.count > 1) {
      const psl::SerePtr next_start =
          psl::s_concat(psl::s_skip(2 * region.period - 1), s);
      sere = psl::s_concat(
          s, psl::s_star(next_start, region.count - 1, region.count - 1));
    }
    CompiledCover c;
    c.name = prefix + ".cover_x" + std::to_string(region.count);
    c.source = m.annotation() + " x" + std::to_string(region.count) +
               " period " + std::to_string(region.period);
    c.sere = std::move(sere);
    suite.covers.push_back(std::move(c));
  }
  int index = 0;
  for (const Item& item : region.items) {
    if (item.kind != Item::Kind::kRegion) continue;
    const char* kind =
        item.region.kind == Region::Kind::kOpt ? ".opt" : ".loop";
    compile_region(chart, item.region, prefix + kind + std::to_string(index),
                   opts, suite);
    ++index;
  }
}

/// Same thresholds as src/cov's gap bins, so the derived counts are
/// comparable bin-for-bin with the hand-written read_gap/write_gap groups.
const char* gap_bin(std::int64_t gap) {
  if (gap <= 0) return "gap0";
  if (gap == 1) return "gap1";
  if (gap <= 3) return "gap2_3";
  if (gap <= 7) return "gap4_7";
  return "gap8_plus";
}

cov::Covergroup group_of(const std::string& name,
                         const std::vector<std::string>& bins) {
  cov::Covergroup g;
  g.name = name;
  for (const std::string& b : bins) g.bins.push_back({b, 0});
  return g;
}

const Region* top_level_loop(const Chart& chart) {
  for (const Item& item : chart.items) {
    if (item.kind == Item::Kind::kRegion &&
        item.region.kind == Region::Kind::kLoop) {
      return &item.region;
    }
  }
  return nullptr;
}

std::string group_prefix(const Chart& chart) { return "msc." + chart.name; }

}  // namespace

psl::VUnit MonitorSuite::vunit() const {
  psl::VUnit v(name);
  for (const CompiledProperty& d : asserts) {
    v.add_assert(d.name, d.prop, psl::DirSeverity::kMajor,
                 "spec violation: " + d.source);
  }
  for (const CompiledCover& c : covers) v.add_cover(c.name, c.sere);
  return v;
}

MonitorSuite to_psl(const Chart& chart, const CompileOptions& opts) {
  MonitorSuite suite;
  suite.name = chart.name;

  const std::vector<const Message*> timeline = chart.mandatory();
  for (std::size_t i = 0; i + 1 < timeline.size(); ++i) {
    suite.asserts.push_back(pair_property(chart, chart.name, *timeline[i],
                                          *timeline[i + 1], opts));
  }
  for (const Message* m : timeline) {
    CompiledCover c;
    c.name = chart.name + ".cover_" + m->operation;
    c.source = m->annotation();
    c.sere = psl::s_bool(psl::b_sig(signal_of(chart, *m, opts)));
    suite.covers.push_back(std::move(c));
  }
  int index = 0;
  for (const Item& item : chart.items) {
    if (item.kind != Item::Kind::kRegion) continue;
    const char* kind =
        item.region.kind == Region::Kind::kOpt ? ".opt" : ".loop";
    compile_region(chart, item.region,
                   chart.name + kind + std::to_string(index), opts, suite);
    ++index;
  }
  return suite;
}

std::vector<cov::Covergroup> to_coverage(const Chart& chart) {
  std::vector<cov::Covergroup> out;
  const std::string prefix = group_prefix(chart);

  std::vector<std::string> ops;
  for (const Message* m : chart.mandatory()) {
    if (std::find(ops.begin(), ops.end(), m->operation) == ops.end()) {
      ops.push_back(m->operation);
    }
  }
  out.push_back(group_of(prefix + ".ops", ops));

  out.push_back(group_of(prefix + ".gap",
                         {"gap0", "gap1", "gap2_3", "gap4_7", "gap8_plus"}));

  if (top_level_loop(chart) != nullptr) {
    std::vector<std::string> window = {"b2b_any"};
    if (chart.trigger == Trigger::kRead) {
      // Bank/addr need the read address pins, sampled with the trigger at
      // K; the write address arrives a half-cycle later.
      window.push_back("b2b_same_bank");
      window.push_back("b2b_same_addr");
    }
    window.push_back("pipeline_full");
    out.push_back(group_of(prefix + ".window", window));
  }
  return out;
}

tgen::Profile to_profile(const Chart& chart) {
  const Region* loop = top_level_loop(chart);
  tgen::Profile p;
  // One static profile has to reach every derived bin: a raised trigger
  // rate with moderate burst bias covers the back-to-back window without
  // starving the short-gap bins (a heavier burst makes gap1 rare), and
  // idle bursts keep the long-gap bins reachable.
  const double rate = 0.6;
  const double other = 0.15;
  const double burst = loop == nullptr ? 0.3 : 0.7;
  if (chart.trigger == Trigger::kRead) {
    p.read_rate = rate;
    p.write_rate = other;
    p.read_burst = burst;
    if (loop != nullptr) p.same_addr = 0.5;
  } else {
    p.write_rate = rate;
    p.read_rate = other;
    p.write_burst = burst;
  }
  p.idle_burst = 0.65;
  return p;
}

namespace {

void dot_items(std::ostringstream& out, const std::vector<Item>& items,
               bool in_region, const char* region_label) {
  for (const Item& item : items) {
    if (item.kind == Item::Kind::kMessage) {
      const Message& m = item.message;
      out << "  \"" << m.from << "\" -> \"" << m.to << "\" [label=\"";
      if (in_region) out << region_label << ": ";
      out << m.annotation() << "\"";
      if (in_region) out << ", style=dashed";
      out << "];\n";
    } else {
      const Region& r = item.region;
      std::string label =
          r.kind == Region::Kind::kOpt
              ? std::string("opt")
              : "loop x" + std::to_string(r.count) + "/p" +
                    std::to_string(r.period);
      dot_items(out, r.items, true, label.c_str());
    }
  }
}

}  // namespace

std::string to_dot(const Chart& chart) {
  std::ostringstream out;
  out << "digraph \"" << chart.name << "\" {\n"
      << "  rankdir=LR;\n"
      << "  node [shape=box];\n";
  for (const std::string& l : chart.lifelines) {
    out << "  \"" << l << "\";\n";
  }
  dot_items(out, chart.items, false, "");
  out << "}\n";
  return out.str();
}

ScenarioCoverage::ScenarioCoverage(const Chart& chart,
                                   const harness::Geometry& geometry)
    : chart_(chart),
      groups_(to_coverage(chart)),
      bank_shift_(geometry.mem_addr_bits) {
  const std::string prefix = group_prefix(chart_);
  ops_group_ = prefix + ".ops";
  gap_group_ = prefix + ".gap";
  for (const cov::Covergroup& g : groups_) {
    if (g.name == prefix + ".window") window_group_ = g.name;
  }
}

void ScenarioCoverage::hit(const std::string& group, const std::string& bin) {
  for (cov::Covergroup& g : groups_) {
    if (g.name != group) continue;
    for (cov::Bin& b : g.bins) {
      if (b.name == bin) {
        ++b.hits;
        return;
      }
    }
  }
}

void ScenarioCoverage::observe_edge(const harness::EdgePins& pins) {
  // Scenario instances are counted at the K edge that starts them; the
  // rest of the timeline is the protocol's deterministic contract (and is
  // checked by the monitors, not by pin-level coverage).
  if (pins.edge != harness::Edge::kK) return;
  const bool active = chart_.trigger == Trigger::kRead ? !pins.r_sel_n
                                                       : !pins.w_sel_n;
  if (active) record_instance(cycle_, pins.addr);
  ++cycle_;
}

void ScenarioCoverage::record_instance(std::int64_t cycle,
                                       std::uint64_t addr) {
  for (cov::Covergroup& g : groups_) {
    if (g.name == ops_group_) {
      for (cov::Bin& b : g.bins) ++b.hits;
    }
  }
  if (last_cycle_ >= 0) hit(gap_group_, gap_bin(cycle - last_cycle_ - 1));
  if (!window_group_.empty() && last_cycle_ == cycle - 1) {
    hit(window_group_, "b2b_any");
    if (chart_.trigger == Trigger::kRead) {
      const int bank = static_cast<int>(addr >> bank_shift_);
      if (last_bank_ == bank) hit(window_group_, "b2b_same_bank");
      if (last_addr_ == addr) hit(window_group_, "b2b_same_addr");
    }
    if (prev_cycle_ == cycle - 2) hit(window_group_, "pipeline_full");
  }
  prev_cycle_ = last_cycle_;
  last_cycle_ = cycle;
  last_addr_ = addr;
  last_bank_ = static_cast<int>(addr >> bank_shift_);
}

void ScenarioCoverage::end_stream() {
  cycle_ = 0;
  last_cycle_ = prev_cycle_ = -1000;
  last_addr_ = 0;
  last_bank_ = -1;
}

bool ScenarioCoverage::owns(const std::string& group) const {
  for (const cov::Covergroup& g : groups_) {
    if (g.name == group) return true;
  }
  return false;
}

tgen::Profile ScenarioCoverage::profile_for(const std::string& group,
                                            const std::string& bin,
                                            const harness::Geometry&) const {
  const bool read = chart_.trigger == Trigger::kRead;
  if (group == gap_group_) {
    double rate = 0.5;
    double burst = 0.0;
    double idle = 0.0;
    double other = 0.3;
    if (bin == "gap0") {
      rate = 0.7;
      burst = 0.9;
    } else if (bin == "gap1") {
      rate = 0.5;
    } else if (bin == "gap2_3") {
      rate = 0.3;
      idle = 0.3;
    } else if (bin == "gap4_7") {
      rate = 0.15;
      idle = 0.6;
      other = 0.1;
    } else {  // gap8_plus
      rate = 0.05;
      idle = 0.9;
      other = 0.1;
    }
    tgen::Profile p;
    p.idle_burst = idle;
    if (read) {
      p.read_rate = rate;
      p.read_burst = burst;
      p.write_rate = other;
    } else {
      p.write_rate = rate;
      p.write_burst = burst;
      p.read_rate = other;
    }
    return p;
  }
  if (!window_group_.empty() && group == window_group_) {
    tgen::Profile p;
    double rate = 0.7;
    double burst = 0.85;
    if (bin == "b2b_same_addr") p.same_addr = 0.9;
    if (bin == "pipeline_full") {
      rate = 0.8;
      burst = 0.92;
    }
    if (read) {
      p.read_rate = rate;
      p.read_burst = burst;
      p.write_rate = 0.2;
    } else {
      p.write_rate = rate;
      p.write_burst = burst;
      p.read_rate = 0.2;
    }
    return p;
  }
  return to_profile(chart_);
}

bool ScenarioCoverage::complete() const {
  for (const cov::Covergroup& g : groups_) {
    if (g.covered() != static_cast<int>(g.bins.size())) return false;
  }
  return true;
}

}  // namespace la1::msc
