#include "tgen/closure.hpp"

#include <algorithm>
#include <string>

#include "util/stopwatch.hpp"

namespace la1::tgen {

namespace {

/// Parses the bank index out of "b<i>" / "b<i>.<op>" bin names.
int bin_bank(const std::string& bin) {
  if (bin.size() < 2 || bin[0] != 'b') return -1;
  int v = 0;
  std::size_t i = 1;
  for (; i < bin.size() && bin[i] >= '0' && bin[i] <= '9'; ++i) {
    v = v * 10 + (bin[i] - '0');
  }
  if (i == 1) return -1;
  return v;
}

std::vector<double> focus_bank(int bank, int banks) {
  std::vector<double> w(static_cast<std::size_t>(banks), 0.05);
  if (bank >= 0 && bank < banks) w[static_cast<std::size_t>(bank)] = 1.0;
  return w;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

util::Json ClosureResult::to_json() const {
  util::Json traj = util::Json::array();
  for (const EpochRecord& e : trajectory) {
    util::Json row = util::Json::object();
    row.set("epoch", e.epoch);
    row.set("targeted", e.targeted);
    row.set("coverage", e.coverage);
    traj.push(std::move(row));
  }
  util::Json doc = util::Json::object();
  doc.set("coverage", coverage());
  doc.set("epochs", epochs);
  doc.set("transactions", transactions);
  doc.set("reached_target", reached_target);
  doc.set("budget_exhausted", budget_exhausted);
  doc.set("cancelled", cancelled);
  doc.set("trajectory", std::move(traj));
  doc.set("report", report.to_json());
  return doc;
}

void collect_stream(cov::CoverageCollector& collector,
                    harness::StimulusSource& source,
                    std::uint64_t transactions) {
  collect_stream(collector, source, transactions, {});
}

void collect_stream(cov::CoverageCollector& collector,
                    harness::StimulusSource& source,
                    std::uint64_t transactions,
                    const std::vector<CoveragePlugin*>& plugins) {
  harness::Transactor transactor(source.geometry());
  const std::uint64_t ticks = 2 * transactions;
  for (std::uint64_t tick = 0; tick < ticks; ++tick) {
    const harness::Edge edge =
        harness::edge_of_tick(static_cast<int>(tick % 2));
    if (edge == harness::Edge::kK) transactor.enqueue(source.next());
    const harness::EdgePins pins = transactor.next(edge);
    collector.observe_edge(pins);
    for (CoveragePlugin* p : plugins) p->observe_edge(pins);
  }
  collector.end_stream();
  for (CoveragePlugin* p : plugins) p->end_stream();
}

Profile profile_for(const std::string& group, const std::string& bin,
                    const harness::Geometry& geometry) {
  Profile p;
  const int bank = bin_bank(bin);

  if (group == "op_kind") {
    if (bin == "idle") {
      p.read_rate = p.write_rate = 0.05;
      p.idle_burst = 0.3;
    } else if (bin == "read_only") {
      p.read_rate = 0.9;
      p.write_rate = 0.02;
    } else if (bin == "write_only") {
      p.write_rate = 0.9;
      p.read_rate = 0.02;
    } else {  // read_write
      p.read_rate = p.write_rate = 0.9;
    }
  } else if (group == "read_bank") {
    p.read_rate = 0.9;
    p.read_bank_weight = focus_bank(bank, geometry.banks);
  } else if (group == "write_bank") {
    p.write_rate = 0.9;
    p.write_bank_weight = focus_bank(bank, geometry.banks);
  } else if (group == "bank_cross") {
    if (ends_with(bin, ".read_write")) {
      p.read_rate = p.write_rate = 0.9;
      p.read_bank_weight = focus_bank(bank, geometry.banks);
      p.write_bank_weight = focus_bank(bank, geometry.banks);
    } else if (ends_with(bin, ".read")) {
      p.read_rate = 0.9;
      p.read_bank_weight = focus_bank(bank, geometry.banks);
    } else {
      p.write_rate = 0.9;
      p.write_bank_weight = focus_bank(bank, geometry.banks);
    }
  } else if (group == "read_addr_class") {
    p.read_rate = 0.9;
  } else if (group == "write_addr_class") {
    p.write_rate = 0.9;
  } else if (group == "write_enables") {
    p.write_rate = 0.9;
    if (bin == "full_word") {
      p.be_full = 1.0;
      p.be_none = 0.0;
    } else if (bin == "no_lanes") {
      p.be_full = 0.0;
      p.be_none = 1.0;
    } else {
      p.be_full = 0.0;
      p.be_none = 0.0;
    }
  } else if (group == "read_gap" || group == "write_gap") {
    double rate = 0.5;
    double burst = 0.0;
    if (bin == "gap0") {
      rate = 0.7;
      burst = 0.9;
    } else if (bin == "gap1") {
      rate = 0.5;
    } else if (bin == "gap2_3") {
      rate = 0.3;
    } else if (bin == "gap4_7") {
      rate = 0.15;
    } else {  // gap8_plus
      rate = 0.04;
    }
    if (group == "read_gap") {
      p.read_rate = rate;
      p.read_burst = burst;
      p.write_rate = 0.3;
    } else {
      p.write_rate = rate;
      p.write_burst = burst;
      p.read_rate = 0.3;
    }
  } else if (group == "read_after_write") {
    if (bin == "raw_d1") {
      p.raw = 0.9;
      p.read_rate = p.write_rate = 0.6;
    } else if (bin == "raw_d2_4") {
      p.raw = 0.7;
      p.read_rate = 0.4;
      p.write_rate = 0.3;
    } else {  // war_d1
      p.war = 0.9;
      p.read_rate = p.write_rate = 0.6;
    }
  } else if (group == "fig3_read_window") {
    p.read_rate = 0.7;
    p.read_burst = 0.85;
    if (bin == "b2b_same_addr") p.same_addr = 0.9;
    if (bin == "pipeline_full") {
      p.read_rate = 0.8;
      p.read_burst = 0.92;
    }
  } else if (group == "read_burst" || group == "write_burst") {
    double rate = 0.4;
    double burst = 0.0;
    if (bin == "len1") {
      rate = 0.35;
    } else if (bin == "len2") {
      rate = 0.4;
      burst = 0.5;
    } else if (bin == "len3") {
      rate = 0.45;
      burst = 0.62;
    } else if (bin == "len4_7") {
      rate = 0.5;
      burst = 0.8;
    } else {  // len8_plus
      rate = 0.8;
      burst = 0.93;
    }
    if (group == "read_burst") {
      p.read_rate = rate;
      p.read_burst = burst;
      p.write_rate = 0.1;
    } else {
      p.write_rate = rate;
      p.write_burst = burst;
      p.read_rate = 0.1;
    }
  } else if (group == "idle_run") {
    if (bin == "len1") {
      p.read_rate = p.write_rate = 0.5;
    } else if (bin == "len2_3") {
      p.read_rate = p.write_rate = 0.35;
      p.idle_burst = 0.55;
    } else if (bin == "len4_7") {
      p.read_rate = p.write_rate = 0.2;
      p.idle_burst = 0.8;
    } else {  // len8_plus
      p.read_rate = p.write_rate = 0.08;
      p.idle_burst = 0.93;
    }
  }
  return p;
}

namespace {

/// The built-in report plus every plugin's groups — the view closure
/// targets and reports over.
cov::CoverageReport merged_report(const cov::CoverageCollector& collector,
                                  const std::vector<CoveragePlugin*>& plugins) {
  cov::CoverageReport report = collector.report();
  for (const CoveragePlugin* p : plugins) {
    for (cov::Covergroup& g : p->groups()) {
      report.groups.push_back(std::move(g));
    }
  }
  return report;
}

}  // namespace

ClosureResult run_closure(const ClosureOptions& options) {
  util::Stopwatch wall;
  cov::CoverageCollector collector(options.geometry);
  ClosureResult result;

  std::string target_group, target_bin;
  for (int epoch = 0; epoch < options.budget.max_epochs; ++epoch) {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      result.cancelled = true;
      break;
    }
    if (options.budget.wall_ms > 0 &&
        wall.millis() >= static_cast<double>(options.budget.wall_ms)) {
      result.budget_exhausted = true;
      break;
    }
    std::uint64_t batch = options.transactions_per_epoch;
    if (options.budget.max_transactions > 0) {
      if (result.transactions >= options.budget.max_transactions) {
        result.budget_exhausted = true;
        break;
      }
      batch = std::min(batch,
                       options.budget.max_transactions - result.transactions);
    }

    Profile profile;
    if (epoch != 0) {
      profile = profile_for(target_group, target_bin, options.geometry);
      // A plugin-owned group re-biases via the plugin's own rule table.
      for (CoveragePlugin* p : options.plugins) {
        if (p->owns(target_group)) {
          profile = p->profile_for(target_group, target_bin, options.geometry);
          break;
        }
      }
    }
    ConstrainedStream stream(options.geometry, profile,
                             options.seed + static_cast<std::uint64_t>(epoch));
    collect_stream(collector, stream, batch, options.plugins);
    result.transactions += batch;
    ++result.epochs;

    const cov::CoverageReport merged =
        merged_report(collector, options.plugins);

    EpochRecord rec;
    rec.epoch = epoch;
    rec.targeted =
        epoch == 0 ? std::string() : target_group + "." + target_bin;
    rec.coverage = merged.coverage();
    result.trajectory.push_back(rec);

    if (rec.coverage >= options.target) {
      result.reached_target = true;
      break;
    }

    // Aim the next epoch at the first uncovered bin of the least-covered
    // group (definition order breaks ties), so successive epochs sweep the
    // whole model instead of hammering one group.
    const cov::Covergroup* worst = nullptr;
    for (const cov::Covergroup& g : merged.groups) {
      if (g.coverage() >= 1.0) continue;
      if (worst == nullptr || g.coverage() < worst->coverage()) worst = &g;
    }
    if (worst == nullptr) {  // defensive: nothing uncovered but target unmet
      result.reached_target = merged.coverage() >= options.target;
      break;
    }
    target_group = worst->name;
    target_bin = worst->uncovered().front();
  }

  if (!result.reached_target && !result.budget_exhausted &&
      !result.cancelled && result.epochs >= options.budget.max_epochs) {
    result.budget_exhausted = true;
  }
  result.report = merged_report(collector, options.plugins);
  return result;
}

cov::CoverageReport uniform_coverage(const harness::Geometry& geometry,
                                     std::uint64_t seed,
                                     std::uint64_t transactions) {
  harness::StimulusOptions opts;
  opts.banks = geometry.banks;
  opts.mem_addr_bits = geometry.mem_addr_bits;
  opts.data_bits = geometry.data_bits;
  harness::StimulusStream stream(opts, seed);
  cov::CoverageCollector collector(geometry);
  collect_stream(collector, stream, transactions);
  return collector.report();
}

}  // namespace la1::tgen
