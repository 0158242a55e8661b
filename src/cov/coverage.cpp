#include "cov/coverage.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace la1::cov {

namespace {

std::string bank_bin(int bank) { return "b" + std::to_string(bank); }

/// Bins a closed run length into the burst bins.
const char* burst_bin(int len) {
  if (len <= 1) return "len1";
  if (len == 2) return "len2";
  if (len == 3) return "len3";
  if (len <= 7) return "len4_7";
  return "len8_plus";
}

const char* idle_bin(int len) {
  if (len <= 1) return "len1";
  if (len <= 3) return "len2_3";
  if (len <= 7) return "len4_7";
  return "len8_plus";
}

const char* gap_bin(std::int64_t gap) {
  if (gap <= 0) return "gap0";
  if (gap == 1) return "gap1";
  if (gap <= 3) return "gap2_3";
  if (gap <= 7) return "gap4_7";
  return "gap8_plus";
}

Covergroup group_of(const std::string& name,
                    const std::vector<std::string>& bins) {
  Covergroup cg;
  cg.name = name;
  for (const std::string& b : bins) cg.bins.push_back({b, 0});
  return cg;
}

}  // namespace

int Covergroup::covered() const {
  int n = 0;
  for (const Bin& b : bins) {
    if (b.covered()) ++n;
  }
  return n;
}

double Covergroup::coverage() const {
  if (bins.empty()) return 1.0;
  return static_cast<double>(covered()) / static_cast<double>(bins.size());
}

const Bin* Covergroup::bin(const std::string& bin_name) const {
  for (const Bin& b : bins) {
    if (b.name == bin_name) return &b;
  }
  return nullptr;
}

std::vector<std::string> Covergroup::uncovered() const {
  std::vector<std::string> out;
  for (const Bin& b : bins) {
    if (!b.covered()) out.push_back(b.name);
  }
  return out;
}

int CoverageReport::total_bins() const {
  int n = 0;
  for (const Covergroup& g : groups) n += static_cast<int>(g.bins.size());
  return n;
}

int CoverageReport::covered_bins() const {
  int n = 0;
  for (const Covergroup& g : groups) n += g.covered();
  return n;
}

double CoverageReport::coverage() const {
  const int total = total_bins();
  if (total == 0) return 1.0;
  return static_cast<double>(covered_bins()) / static_cast<double>(total);
}

Covergroup* CoverageReport::group(const std::string& name) {
  for (Covergroup& g : groups) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const Covergroup* CoverageReport::group(const std::string& name) const {
  for (const Covergroup& g : groups) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

util::Json CoverageReport::to_json() const {
  util::Json geo = util::Json::object();
  geo.set("banks", geometry.banks);
  geo.set("mem_addr_bits", geometry.mem_addr_bits);
  geo.set("data_bits", geometry.data_bits);

  util::Json group_list = util::Json::array();
  for (const Covergroup& g : groups) {
    util::Json bins = util::Json::array();
    for (const Bin& b : g.bins) {
      util::Json row = util::Json::object();
      row.set("name", b.name);
      row.set("hits", b.hits);
      bins.push(std::move(row));
    }
    util::Json jg = util::Json::object();
    jg.set("name", g.name);
    jg.set("coverage", g.coverage());
    jg.set("bins", std::move(bins));
    group_list.push(std::move(jg));
  }

  util::Json doc = util::Json::object();
  doc.set("geometry", std::move(geo));
  doc.set("cycles", cycles);
  doc.set("total_bins", total_bins());
  doc.set("covered_bins", covered_bins());
  doc.set("coverage", coverage());
  doc.set("groups", std::move(group_list));
  return doc;
}

std::string CoverageReport::render() const {
  std::ostringstream os;
  os << "coverage " << std::fixed << std::setprecision(1)
     << 100.0 * coverage() << "% (" << covered_bins() << "/" << total_bins()
     << " bins, " << cycles << " cycles)\n";
  for (const Covergroup& g : groups) {
    os << "  " << std::left << std::setw(18) << g.name << std::right
       << std::setw(3) << g.covered() << "/" << g.bins.size();
    const std::vector<std::string> missing = g.uncovered();
    if (!missing.empty()) {
      os << "  missing:";
      for (const std::string& m : missing) os << " " << m;
    }
    os << "\n";
  }
  return os.str();
}

CoverageReport make_model(const harness::Geometry& geometry) {
  CoverageReport r;
  r.geometry = geometry;

  r.groups.push_back(group_of(
      "op_kind", {"idle", "read_only", "write_only", "read_write"}));

  if (geometry.banks > 1) {
    std::vector<std::string> banks;
    for (int b = 0; b < geometry.banks; ++b) banks.push_back(bank_bin(b));
    r.groups.push_back(group_of("read_bank", banks));
    r.groups.push_back(group_of("write_bank", banks));
  }

  std::vector<std::string> addr_class = {"first_word"};
  if (geometry.mem_depth() > 2) addr_class.push_back("mid_word");
  if (geometry.mem_depth() > 1) addr_class.push_back("last_word");
  r.groups.push_back(group_of("read_addr_class", addr_class));
  r.groups.push_back(group_of("write_addr_class", addr_class));

  r.groups.push_back(
      group_of("write_enables", {"full_word", "partial", "no_lanes"}));

  const std::vector<std::string> gaps = {"gap0", "gap1", "gap2_3", "gap4_7",
                                         "gap8_plus"};
  r.groups.push_back(group_of("read_gap", gaps));
  r.groups.push_back(group_of("write_gap", gaps));

  {
    std::vector<std::string> cross;
    for (int b = 0; b < geometry.banks; ++b) {
      cross.push_back(bank_bin(b) + ".read");
      cross.push_back(bank_bin(b) + ".write");
      cross.push_back(bank_bin(b) + ".read_write");
    }
    r.groups.push_back(group_of("bank_cross", cross));
  }

  r.groups.push_back(
      group_of("read_after_write", {"raw_d1", "raw_d2_4", "war_d1"}));

  r.groups.push_back(group_of(
      "fig3_read_window",
      {"b2b_any", "b2b_same_bank", "b2b_same_addr", "pipeline_full"}));

  const std::vector<std::string> bursts = {"len1", "len2", "len3", "len4_7",
                                           "len8_plus"};
  r.groups.push_back(group_of("read_burst", bursts));
  r.groups.push_back(group_of("write_burst", bursts));

  r.groups.push_back(
      group_of("idle_run", {"len1", "len2_3", "len4_7", "len8_plus"}));

  return r;
}

CoverageCollector::CoverageCollector(const harness::Geometry& geometry)
    : report_(make_model(geometry)),
      bank_shift_(geometry.mem_addr_bits),
      lane_mask_((1u << (2 * geometry.lanes())) - 1),
      last_write_at_(geometry.addr_space(), -1000),
      last_read_at_(geometry.addr_space(), -1000) {}

void CoverageCollector::hit(const std::string& group_name,
                            const std::string& bin_name) {
  Covergroup* g = report_.group(group_name);
  if (g == nullptr) return;
  for (Bin& b : g->bins) {
    if (b.name == bin_name) {
      ++b.hits;
      return;
    }
  }
}

void CoverageCollector::observe_edge(const harness::EdgePins& pins) {
  const std::uint32_t beat_mask =
      (1u << static_cast<unsigned>(report_.geometry.lanes())) - 1;
  if (pins.edge == harness::Edge::kK) {
    const bool read = !pins.r_sel_n;
    const bool write = !pins.w_sel_n;
    if (write) {
      // The write's address and high byte-enable lanes arrive on the next
      // K#; stash the K half and finish the cycle there.
      write_pending_ = true;
      pending_be_ = ~pins.bwe_n & beat_mask;
      pending_read_ = read;
      pending_read_addr_ = pins.addr;
    } else {
      observe_cycle(read, pins.addr, false, 0, 0);
    }
  } else if (write_pending_) {
    write_pending_ = false;
    const std::uint32_t hi = ~pins.bwe_n & beat_mask;
    const std::uint32_t be =
        pending_be_ | (hi << static_cast<unsigned>(report_.geometry.lanes()));
    observe_cycle(pending_read_, pending_read_addr_, true, pins.addr, be);
  }
}

void CoverageCollector::observe_trace(const harness::TraceRecorder& trace) {
  for (const harness::TraceStep& step : trace.steps()) {
    observe_edge(step.pins);
  }
  end_stream();
}

void CoverageCollector::observe_cycle(bool read, std::uint64_t read_addr,
                                      bool write, std::uint64_t write_addr,
                                      std::uint32_t be_lanes) {
  ++report_.cycles;
  const harness::Geometry& g = report_.geometry;
  const std::uint64_t depth = g.mem_depth();

  const int read_bank = static_cast<int>(read_addr >> bank_shift_);
  const int write_bank = static_cast<int>(write_addr >> bank_shift_);
  const std::uint64_t read_word = read_addr & (depth - 1);
  const std::uint64_t write_word = write_addr & (depth - 1);

  // --- op kind ----------------------------------------------------------
  if (read && write) {
    hit("op_kind", "read_write");
  } else if (read) {
    hit("op_kind", "read_only");
  } else if (write) {
    hit("op_kind", "write_only");
  } else {
    hit("op_kind", "idle");
  }

  // --- per-port bins ----------------------------------------------------
  if (read) {
    if (g.banks > 1) hit("read_bank", bank_bin(read_bank));
    hit("read_addr_class", read_word == 0             ? "first_word"
                           : read_word == depth - 1   ? "last_word"
                                                      : "mid_word");
    hit("bank_cross", bank_bin(read_bank) + ".read");
    if (last_read_cycle_ >= 0) {
      hit("read_gap", gap_bin(cycle_ - last_read_cycle_ - 1));
    }
  }
  if (write) {
    if (g.banks > 1) hit("write_bank", bank_bin(write_bank));
    hit("write_addr_class", write_word == 0            ? "first_word"
                            : write_word == depth - 1  ? "last_word"
                                                       : "mid_word");
    const std::uint32_t masked = be_lanes & lane_mask_;
    hit("write_enables", masked == lane_mask_ ? "full_word"
                         : masked == 0        ? "no_lanes"
                                              : "partial");
    hit("bank_cross", bank_bin(write_bank) + ".write");
    if (last_write_cycle_ >= 0) {
      hit("write_gap", gap_bin(cycle_ - last_write_cycle_ - 1));
    }
  }
  if (read && write && read_bank == write_bank) {
    hit("bank_cross", bank_bin(read_bank) + ".read_write");
  }

  // --- read-after-write / write-after-read crosses ----------------------
  if (read) {
    const std::int64_t last_w = last_write_at_[read_addr];
    const std::int64_t d = cycle_ - last_w;
    if (d == 1) hit("read_after_write", "raw_d1");
    if (d >= 2 && d <= 4) hit("read_after_write", "raw_d2_4");
  }
  if (write && last_read_at_[write_addr] == cycle_ - 1) {
    hit("read_after_write", "war_d1");
  }

  // --- Figure-3 back-to-back read window --------------------------------
  if (read && last_read_cycle_ == cycle_ - 1) {
    hit("fig3_read_window", "b2b_any");
    if (last_read_bank_ == read_bank) hit("fig3_read_window", "b2b_same_bank");
    if (last_read_addr_ == read_addr) hit("fig3_read_window", "b2b_same_addr");
    if (prev_read_cycle_ == cycle_ - 2) {
      hit("fig3_read_window", "pipeline_full");
    }
  }

  // --- run lengths ------------------------------------------------------
  if (read && read_run_ > 0 && last_read_cycle_ == cycle_ - 1 &&
      read_run_bank_ == read_bank) {
    ++read_run_;
  } else {
    if (read_run_ > 0) hit("read_burst", burst_bin(read_run_));
    read_run_ = read ? 1 : 0;
    read_run_bank_ = read ? read_bank : -1;
  }
  if (write && write_run_ > 0 && last_write_cycle_ == cycle_ - 1 &&
      write_run_bank_ == write_bank) {
    ++write_run_;
  } else {
    if (write_run_ > 0) hit("write_burst", burst_bin(write_run_));
    write_run_ = write ? 1 : 0;
    write_run_bank_ = write ? write_bank : -1;
  }
  if (!read && !write) {
    ++idle_run_;
  } else if (idle_run_ > 0) {
    hit("idle_run", idle_bin(idle_run_));
    idle_run_ = 0;
  }

  // --- tracker updates --------------------------------------------------
  if (read) {
    prev_read_cycle_ = last_read_cycle_;
    last_read_cycle_ = cycle_;
    last_read_addr_ = read_addr;
    last_read_bank_ = read_bank;
    last_read_at_[read_addr] = cycle_;
  }
  if (write) {
    last_write_cycle_ = cycle_;
    last_write_at_[write_addr] = cycle_;
  }
  ++cycle_;
}

void CoverageCollector::close_runs() {
  if (read_run_ > 0) hit("read_burst", burst_bin(read_run_));
  if (write_run_ > 0) hit("write_burst", burst_bin(write_run_));
  if (idle_run_ > 0) hit("idle_run", idle_bin(idle_run_));
  read_run_ = write_run_ = idle_run_ = 0;
  read_run_bank_ = write_run_bank_ = -1;
}

void CoverageCollector::end_stream() {
  // A write whose K# half never arrived (stream cut mid-cycle) is dropped:
  // its address and high enables are unknowable.
  write_pending_ = false;
  close_runs();
  cycle_ = 0;
  last_read_cycle_ = prev_read_cycle_ = -1000;
  last_write_cycle_ = -1000;
  last_read_bank_ = -1;
  last_read_addr_ = 0;
  std::fill(last_write_at_.begin(), last_write_at_.end(), -1000);
  std::fill(last_read_at_.begin(), last_read_at_.end(), -1000);
}

}  // namespace la1::cov
