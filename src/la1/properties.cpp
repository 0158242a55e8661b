#include "la1/properties.hpp"

#include <algorithm>
#include <stdexcept>

#include "psl/parse.hpp"

namespace la1::core {

namespace {

/// `row` as PSL source text over its canonical taps.
std::string source_text(const PropertyRow& row) {
  switch (row.shape) {
    case Shape::kImplNext:
      return "always (" + row.a + " -> next[" + std::to_string(row.n) + "] " +
             row.c + ")";
    case Shape::kImplNow: return "always (" + row.a + " -> " + row.c + ")";
    case Shape::kNever: return "never {" + row.a + "}";
  }
  throw std::invalid_argument("unknown property shape");
}

std::string first_missing_tap(const PropertyRow& row, Level level) {
  for (const std::string* tap : {&row.a, &row.c}) {
    if (!tap->empty() && !tap_set(level).observes(*tap)) return *tap;
  }
  return {};
}

}  // namespace

const char* to_string(Level level) {
  switch (level) {
    case Level::kBehavioural: return "behavioural";
    case Level::kAsm: return "asm";
    case Level::kHarness: return "harness";
    case Level::kRtl: return "rtl";
  }
  throw std::invalid_argument("unknown level");
}

const char* to_string(Observability status) {
  switch (status) {
    case Observability::kChecked: return "checked";
    case Observability::kUnobservable: return "unobservable";
  }
  throw std::invalid_argument("unknown observability");
}

std::vector<std::string> TapSet::bank_taps(int banks) const {
  std::vector<std::string> out;
  for (int b = 0; b < banks; ++b) {
    const std::string p = "b" + std::to_string(b) + ".";
    for (const std::string& t : bank) out.push_back(p + t);
  }
  return out;
}

bool TapSet::observes(const std::string& tap) const {
  // Bank taps carry a "b<n>." prefix; npos + 1 keeps a device tap whole.
  const std::size_t dot = tap.find('.');
  const std::vector<std::string>& set =
      dot == std::string::npos ? device : bank;
  return std::find(set.begin(), set.end(), tap.substr(dot + 1)) != set.end();
}

const TapSet& tap_set(Level level) {
  // The kernel model's ProbeEnv: every bank tap, plus device-level ORs,
  // the byte-merge AND, the DOUT parity check and the bus-conflict count.
  static const TapSet kBehavioural{
      {"read_start", "fetch", "dout_valid_k", "dout_valid_ks", "write_start",
       "addr_captured", "write_commit", "byte_merge_ok", "driving", "selected",
       "dout_spurious", "parity_error_in"},
      {"read_start", "write_start", "addr_captured", "write_commit",
       "byte_merge_ok", "dout_valid_k", "dout_valid_ks", "dout_valid",
       "dout_spurious", "parity_error_in", "bus_conflict", "dout_parity_ok"}};
  // ASM locations: the read port per bank, the shared write port.
  static const TapSet kAsm{{"read_start", "fetch", "dout_valid_k",
                            "dout_valid_ks", "driving", "dout_spurious"},
                           {"write_start", "addr_captured", "write_commit",
                            "bus_conflict"}};
  // Shared by every harness::DeviceModel, hence what the campaign monitors.
  static const TapSet kHarness{
      {"read_start", "fetch", "dout_valid_k", "dout_valid_ks"},
      {"write_start", "addr_captured", "write_commit", "bus_conflict"}};
  // The netlist's registered per-bank taps and DOUT's conflict flag.
  static const TapSet kRtl{{"read_start", "fetch", "dout_valid_k",
                            "dout_valid_ks", "write_start", "addr_captured",
                            "write_commit"},
                           {"bus_conflict"}};
  switch (level) {
    case Level::kBehavioural: return kBehavioural;
    case Level::kAsm: return kAsm;
    case Level::kHarness: return kHarness;
    case Level::kRtl: return kRtl;
  }
  throw std::invalid_argument("unknown level");
}

std::string bind_tap(Level level, const std::string& tap) {
  if (!tap_set(level).observes(tap)) {
    throw std::invalid_argument(std::string(to_string(level)) +
                                " level does not expose " + tap);
  }
  if (level != Level::kRtl) return tap;
  if (tap == "bus_conflict") return "DOUT.__conflict";
  return "bank" + tap.substr(1) + "_q";  // "b<n>.<tap>"
}

std::vector<PropertyRow> property_catalog(int banks, int latency_ticks) {
  using S = Shape;
  std::vector<PropertyRow> rows;
  for (int b = 0; b < banks; ++b) {
    const std::string p = "b" + std::to_string(b) + ".";
    const std::string s = "_b" + std::to_string(b);
    rows.push_back({"P1_read_latency" + s, S::kImplNext, p + "read_start",
                    p + "dout_valid_k", latency_ticks});
    rows.push_back({"P2_read_burst" + s, S::kImplNext, p + "dout_valid_k",
                    p + "dout_valid_ks", 1});
    rows.push_back({"P8_capture_selected" + s, S::kImplNow,
                    p + "addr_captured", p + "selected"});
    rows.push_back({"P7_no_spurious" + s, S::kNever, p + "dout_spurious", {}});
    rows.push_back({"P3_write_addr_edge" + s, S::kImplNext,
                    p + "addr_captured", p + "write_commit", 1});
  }
  rows.push_back({"P3_write_addr_edge", S::kImplNext, "write_start",
                  "addr_captured", 1});
  rows.push_back({"P3b_write_commit", S::kImplNext, "addr_captured",
                  "write_commit", 1});
  rows.push_back({"P4_exclusive_drive", S::kNever, "bus_conflict", {}});
  rows.push_back({"P5_parity_even", S::kImplNow, "dout_valid",
                  "dout_parity_ok"});
  rows.push_back({"P6_byte_merge", S::kImplNow, "write_commit",
                  "byte_merge_ok"});
  rows.push_back({"P7_no_spurious", S::kNever, "dout_spurious", {}});
  return rows;
}

psl::PropPtr bind(const PropertyRow& row, Level level) {
  const auto sig = [level](const std::string& tap) {
    return psl::b_sig(bind_tap(level, tap));
  };
  switch (row.shape) {
    case Shape::kImplNext:
      return psl::p_impl_next(sig(row.a), row.n, sig(row.c));
    case Shape::kImplNow: return psl::p_impl_now(sig(row.a), sig(row.c));
    case Shape::kNever: return psl::p_never(psl::s_bool(sig(row.a)));
  }
  throw std::invalid_argument("unknown property shape");
}

std::vector<NamedProperty> level_suite(Level level, int banks,
                                       int latency_ticks) {
  std::vector<NamedProperty> out;
  for (const PropertyRow& row : property_catalog(banks, latency_ticks)) {
    if (first_missing_tap(row, level).empty()) {
      out.emplace_back(row.name, bind(row, level));
    }
  }
  return out;
}

std::vector<NamedProperty> read_mode_suite(Level level, int latency_ticks) {
  std::vector<NamedProperty> out = level_suite(level, 1, latency_ticks);
  std::erase_if(out, [](const NamedProperty& p) {
    return p.first != "P1_read_latency_b0" && p.first != "P2_read_burst_b0";
  });
  return out;
}

std::vector<MatrixRow> property_matrix(int banks, int latency_ticks) {
  std::vector<MatrixRow> out;
  for (const PropertyRow& row : property_catalog(banks, latency_ticks)) {
    MatrixRow m{row.name, source_text(row), {}};
    for (Level level : kLevels) {
      LevelBinding& cell = m.levels[static_cast<std::size_t>(level)];
      cell.missing_tap = first_missing_tap(row, level);
      cell.status = cell.missing_tap.empty() ? Observability::kChecked
                                             : Observability::kUnobservable;
    }
    out.push_back(std::move(m));
  }
  return out;
}

psl::VUnit behavioral_vunit(const Config& cfg) {
  psl::VUnit vunit("la1_behavioral");
  for (const auto& [name, prop] :
       level_suite(Level::kBehavioural, cfg.banks, cfg.latency_ticks())) {
    vunit.add_assert(name, prop, psl::DirSeverity::kMajor,
                     "LA-1 protocol violation: " + name);
  }
  // Request, the configured read latency in ticks, then the second beat on
  // the following K#.
  vunit.add_cover(
      "C1_read_completes",
      psl::parse_sere("{read_start ; true[*" +
                      std::to_string(cfg.latency_ticks()) +
                      "] ; dout_valid_ks}"));
  vunit.add_cover("C2_concurrent_read_write",
                  psl::parse_sere("{read_start && write_start}"));
  for (int b = 0; b < cfg.banks; ++b) {
    const std::string p = "b" + std::to_string(b) + ".";
    vunit.add_cover("C3_bank" + std::to_string(b) + "_read",
                    psl::parse_sere("{" + p + "read_start}"));
  }
  return vunit;
}

}  // namespace la1::core
