// The LA-1 property catalog bound per level: the RTL, ASM and harness
// (fault-campaign) suites pinned name for name and `psl::to_string` for
// `psl::to_string`, the behavioural suite as the same rows plus two per
// bank, every level's tap set checked against its model, and DESIGN.md
// §6's property × level matrix checked against the catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/adapters.hpp"
#include "la1/asm_model.hpp"
#include "la1/behavioral.hpp"
#include "la1/properties.hpp"
#include "la1/rtl_model.hpp"

#ifndef LA1_DESIGN
#error "LA1_DESIGN must point at the repo DESIGN.md"
#endif

namespace la1 {
namespace {

struct Golden {
  const char* key;  // "<banks>" or "<banks>/<read_latency>"
  const char* suite;
};

template <std::size_t N>
std::string golden(const Golden (&table)[N], const std::string& key) {
  for (const Golden& g : table) {
    if (key == g.key) return g.suite;
  }
  ADD_FAILURE() << "no golden suite for " << key;
  return {};
}

// kRtlGolden: the parent's suites, one "name: psl" line per row.
const Golden kRtlGolden[] = {
    {"1/2", R"(P1_read_latency_b0: always ({bank0.read_start_q} |-> {{true[*4] ; bank0.dout_valid_k_q}})
P2_read_burst_b0: always ({bank0.dout_valid_k_q} |-> {{true[*1] ; bank0.dout_valid_ks_q}})
P3_write_addr_edge_b0: always ({bank0.addr_captured_q} |-> {{true[*1] ; bank0.write_commit_q}})
P4_exclusive_drive: never {DOUT.__conflict}
READ_MODE: (always ({bank0.read_start_q} |-> {{true[*4] ; bank0.dout_valid_k_q}})) && (always ({bank0.dout_valid_k_q} |-> {{true[*1] ; bank0.dout_valid_ks_q}})))"},
    {"1/4", R"(P1_read_latency_b0: always ({bank0.read_start_q} |-> {{true[*8] ; bank0.dout_valid_k_q}})
P2_read_burst_b0: always ({bank0.dout_valid_k_q} |-> {{true[*1] ; bank0.dout_valid_ks_q}})
P3_write_addr_edge_b0: always ({bank0.addr_captured_q} |-> {{true[*1] ; bank0.write_commit_q}})
P4_exclusive_drive: never {DOUT.__conflict}
READ_MODE: (always ({bank0.read_start_q} |-> {{true[*8] ; bank0.dout_valid_k_q}})) && (always ({bank0.dout_valid_k_q} |-> {{true[*1] ; bank0.dout_valid_ks_q}})))"},
    {"2/2", R"(P1_read_latency_b0: always ({bank0.read_start_q} |-> {{true[*4] ; bank0.dout_valid_k_q}})
P2_read_burst_b0: always ({bank0.dout_valid_k_q} |-> {{true[*1] ; bank0.dout_valid_ks_q}})
P3_write_addr_edge_b0: always ({bank0.addr_captured_q} |-> {{true[*1] ; bank0.write_commit_q}})
P1_read_latency_b1: always ({bank1.read_start_q} |-> {{true[*4] ; bank1.dout_valid_k_q}})
P2_read_burst_b1: always ({bank1.dout_valid_k_q} |-> {{true[*1] ; bank1.dout_valid_ks_q}})
P3_write_addr_edge_b1: always ({bank1.addr_captured_q} |-> {{true[*1] ; bank1.write_commit_q}})
P4_exclusive_drive: never {DOUT.__conflict}
READ_MODE: (always ({bank0.read_start_q} |-> {{true[*4] ; bank0.dout_valid_k_q}})) && (always ({bank0.dout_valid_k_q} |-> {{true[*1] ; bank0.dout_valid_ks_q}})))"},
    {"2/4", R"(P1_read_latency_b0: always ({bank0.read_start_q} |-> {{true[*8] ; bank0.dout_valid_k_q}})
P2_read_burst_b0: always ({bank0.dout_valid_k_q} |-> {{true[*1] ; bank0.dout_valid_ks_q}})
P3_write_addr_edge_b0: always ({bank0.addr_captured_q} |-> {{true[*1] ; bank0.write_commit_q}})
P1_read_latency_b1: always ({bank1.read_start_q} |-> {{true[*8] ; bank1.dout_valid_k_q}})
P2_read_burst_b1: always ({bank1.dout_valid_k_q} |-> {{true[*1] ; bank1.dout_valid_ks_q}})
P3_write_addr_edge_b1: always ({bank1.addr_captured_q} |-> {{true[*1] ; bank1.write_commit_q}})
P4_exclusive_drive: never {DOUT.__conflict}
READ_MODE: (always ({bank0.read_start_q} |-> {{true[*8] ; bank0.dout_valid_k_q}})) && (always ({bank0.dout_valid_k_q} |-> {{true[*1] ; bank0.dout_valid_ks_q}})))"},
    {"4/2", R"(P1_read_latency_b0: always ({bank0.read_start_q} |-> {{true[*4] ; bank0.dout_valid_k_q}})
P2_read_burst_b0: always ({bank0.dout_valid_k_q} |-> {{true[*1] ; bank0.dout_valid_ks_q}})
P3_write_addr_edge_b0: always ({bank0.addr_captured_q} |-> {{true[*1] ; bank0.write_commit_q}})
P1_read_latency_b1: always ({bank1.read_start_q} |-> {{true[*4] ; bank1.dout_valid_k_q}})
P2_read_burst_b1: always ({bank1.dout_valid_k_q} |-> {{true[*1] ; bank1.dout_valid_ks_q}})
P3_write_addr_edge_b1: always ({bank1.addr_captured_q} |-> {{true[*1] ; bank1.write_commit_q}})
P1_read_latency_b2: always ({bank2.read_start_q} |-> {{true[*4] ; bank2.dout_valid_k_q}})
P2_read_burst_b2: always ({bank2.dout_valid_k_q} |-> {{true[*1] ; bank2.dout_valid_ks_q}})
P3_write_addr_edge_b2: always ({bank2.addr_captured_q} |-> {{true[*1] ; bank2.write_commit_q}})
P1_read_latency_b3: always ({bank3.read_start_q} |-> {{true[*4] ; bank3.dout_valid_k_q}})
P2_read_burst_b3: always ({bank3.dout_valid_k_q} |-> {{true[*1] ; bank3.dout_valid_ks_q}})
P3_write_addr_edge_b3: always ({bank3.addr_captured_q} |-> {{true[*1] ; bank3.write_commit_q}})
P4_exclusive_drive: never {DOUT.__conflict}
READ_MODE: (always ({bank0.read_start_q} |-> {{true[*4] ; bank0.dout_valid_k_q}})) && (always ({bank0.dout_valid_k_q} |-> {{true[*1] ; bank0.dout_valid_ks_q}})))"},
    {"4/4", R"(P1_read_latency_b0: always ({bank0.read_start_q} |-> {{true[*8] ; bank0.dout_valid_k_q}})
P2_read_burst_b0: always ({bank0.dout_valid_k_q} |-> {{true[*1] ; bank0.dout_valid_ks_q}})
P3_write_addr_edge_b0: always ({bank0.addr_captured_q} |-> {{true[*1] ; bank0.write_commit_q}})
P1_read_latency_b1: always ({bank1.read_start_q} |-> {{true[*8] ; bank1.dout_valid_k_q}})
P2_read_burst_b1: always ({bank1.dout_valid_k_q} |-> {{true[*1] ; bank1.dout_valid_ks_q}})
P3_write_addr_edge_b1: always ({bank1.addr_captured_q} |-> {{true[*1] ; bank1.write_commit_q}})
P1_read_latency_b2: always ({bank2.read_start_q} |-> {{true[*8] ; bank2.dout_valid_k_q}})
P2_read_burst_b2: always ({bank2.dout_valid_k_q} |-> {{true[*1] ; bank2.dout_valid_ks_q}})
P3_write_addr_edge_b2: always ({bank2.addr_captured_q} |-> {{true[*1] ; bank2.write_commit_q}})
P1_read_latency_b3: always ({bank3.read_start_q} |-> {{true[*8] ; bank3.dout_valid_k_q}})
P2_read_burst_b3: always ({bank3.dout_valid_k_q} |-> {{true[*1] ; bank3.dout_valid_ks_q}})
P3_write_addr_edge_b3: always ({bank3.addr_captured_q} |-> {{true[*1] ; bank3.write_commit_q}})
P4_exclusive_drive: never {DOUT.__conflict}
READ_MODE: (always ({bank0.read_start_q} |-> {{true[*8] ; bank0.dout_valid_k_q}})) && (always ({bank0.dout_valid_k_q} |-> {{true[*1] ; bank0.dout_valid_ks_q}})))"},
};

// kAsmGolden: the parent's suites, one "name: psl" line per row.
const Golden kAsmGolden[] = {
    {"1", R"(P1_read_latency_b0: always ({b0.read_start} |-> {{true[*4] ; b0.dout_valid_k}})
P2_read_burst_b0: always ({b0.dout_valid_k} |-> {{true[*1] ; b0.dout_valid_ks}})
P7_no_spurious_b0: never {b0.dout_spurious}
P3_write_addr_edge: always ({write_start} |-> {{true[*1] ; addr_captured}})
P3b_write_commit: always ({addr_captured} |-> {{true[*1] ; write_commit}})
P4_exclusive_drive: never {bus_conflict})"},
    {"2", R"(P1_read_latency_b0: always ({b0.read_start} |-> {{true[*4] ; b0.dout_valid_k}})
P2_read_burst_b0: always ({b0.dout_valid_k} |-> {{true[*1] ; b0.dout_valid_ks}})
P7_no_spurious_b0: never {b0.dout_spurious}
P1_read_latency_b1: always ({b1.read_start} |-> {{true[*4] ; b1.dout_valid_k}})
P2_read_burst_b1: always ({b1.dout_valid_k} |-> {{true[*1] ; b1.dout_valid_ks}})
P7_no_spurious_b1: never {b1.dout_spurious}
P3_write_addr_edge: always ({write_start} |-> {{true[*1] ; addr_captured}})
P3b_write_commit: always ({addr_captured} |-> {{true[*1] ; write_commit}})
P4_exclusive_drive: never {bus_conflict})"},
    {"4", R"(P1_read_latency_b0: always ({b0.read_start} |-> {{true[*4] ; b0.dout_valid_k}})
P2_read_burst_b0: always ({b0.dout_valid_k} |-> {{true[*1] ; b0.dout_valid_ks}})
P7_no_spurious_b0: never {b0.dout_spurious}
P1_read_latency_b1: always ({b1.read_start} |-> {{true[*4] ; b1.dout_valid_k}})
P2_read_burst_b1: always ({b1.dout_valid_k} |-> {{true[*1] ; b1.dout_valid_ks}})
P7_no_spurious_b1: never {b1.dout_spurious}
P1_read_latency_b2: always ({b2.read_start} |-> {{true[*4] ; b2.dout_valid_k}})
P2_read_burst_b2: always ({b2.dout_valid_k} |-> {{true[*1] ; b2.dout_valid_ks}})
P7_no_spurious_b2: never {b2.dout_spurious}
P1_read_latency_b3: always ({b3.read_start} |-> {{true[*4] ; b3.dout_valid_k}})
P2_read_burst_b3: always ({b3.dout_valid_k} |-> {{true[*1] ; b3.dout_valid_ks}})
P7_no_spurious_b3: never {b3.dout_spurious}
P3_write_addr_edge: always ({write_start} |-> {{true[*1] ; addr_captured}})
P3b_write_commit: always ({addr_captured} |-> {{true[*1] ; write_commit}})
P4_exclusive_drive: never {bus_conflict})"},
};

// kHarnessGolden: the parent's suites, one "name: psl" line per row.
const Golden kHarnessGolden[] = {
    {"1/2", R"(P1_read_latency_b0: always ({b0.read_start} |-> {{true[*4] ; b0.dout_valid_k}})
P2_read_burst_b0: always ({b0.dout_valid_k} |-> {{true[*1] ; b0.dout_valid_ks}})
P3_write_addr_edge: always ({write_start} |-> {{true[*1] ; addr_captured}})
P3b_write_commit: always ({addr_captured} |-> {{true[*1] ; write_commit}})
P4_exclusive_drive: never {bus_conflict})"},
    {"1/4", R"(P1_read_latency_b0: always ({b0.read_start} |-> {{true[*8] ; b0.dout_valid_k}})
P2_read_burst_b0: always ({b0.dout_valid_k} |-> {{true[*1] ; b0.dout_valid_ks}})
P3_write_addr_edge: always ({write_start} |-> {{true[*1] ; addr_captured}})
P3b_write_commit: always ({addr_captured} |-> {{true[*1] ; write_commit}})
P4_exclusive_drive: never {bus_conflict})"},
    {"2/2", R"(P1_read_latency_b0: always ({b0.read_start} |-> {{true[*4] ; b0.dout_valid_k}})
P2_read_burst_b0: always ({b0.dout_valid_k} |-> {{true[*1] ; b0.dout_valid_ks}})
P1_read_latency_b1: always ({b1.read_start} |-> {{true[*4] ; b1.dout_valid_k}})
P2_read_burst_b1: always ({b1.dout_valid_k} |-> {{true[*1] ; b1.dout_valid_ks}})
P3_write_addr_edge: always ({write_start} |-> {{true[*1] ; addr_captured}})
P3b_write_commit: always ({addr_captured} |-> {{true[*1] ; write_commit}})
P4_exclusive_drive: never {bus_conflict})"},
    {"2/4", R"(P1_read_latency_b0: always ({b0.read_start} |-> {{true[*8] ; b0.dout_valid_k}})
P2_read_burst_b0: always ({b0.dout_valid_k} |-> {{true[*1] ; b0.dout_valid_ks}})
P1_read_latency_b1: always ({b1.read_start} |-> {{true[*8] ; b1.dout_valid_k}})
P2_read_burst_b1: always ({b1.dout_valid_k} |-> {{true[*1] ; b1.dout_valid_ks}})
P3_write_addr_edge: always ({write_start} |-> {{true[*1] ; addr_captured}})
P3b_write_commit: always ({addr_captured} |-> {{true[*1] ; write_commit}})
P4_exclusive_drive: never {bus_conflict})"},
    {"4/2", R"(P1_read_latency_b0: always ({b0.read_start} |-> {{true[*4] ; b0.dout_valid_k}})
P2_read_burst_b0: always ({b0.dout_valid_k} |-> {{true[*1] ; b0.dout_valid_ks}})
P1_read_latency_b1: always ({b1.read_start} |-> {{true[*4] ; b1.dout_valid_k}})
P2_read_burst_b1: always ({b1.dout_valid_k} |-> {{true[*1] ; b1.dout_valid_ks}})
P1_read_latency_b2: always ({b2.read_start} |-> {{true[*4] ; b2.dout_valid_k}})
P2_read_burst_b2: always ({b2.dout_valid_k} |-> {{true[*1] ; b2.dout_valid_ks}})
P1_read_latency_b3: always ({b3.read_start} |-> {{true[*4] ; b3.dout_valid_k}})
P2_read_burst_b3: always ({b3.dout_valid_k} |-> {{true[*1] ; b3.dout_valid_ks}})
P3_write_addr_edge: always ({write_start} |-> {{true[*1] ; addr_captured}})
P3b_write_commit: always ({addr_captured} |-> {{true[*1] ; write_commit}})
P4_exclusive_drive: never {bus_conflict})"},
    {"4/4", R"(P1_read_latency_b0: always ({b0.read_start} |-> {{true[*8] ; b0.dout_valid_k}})
P2_read_burst_b0: always ({b0.dout_valid_k} |-> {{true[*1] ; b0.dout_valid_ks}})
P1_read_latency_b1: always ({b1.read_start} |-> {{true[*8] ; b1.dout_valid_k}})
P2_read_burst_b1: always ({b1.dout_valid_k} |-> {{true[*1] ; b1.dout_valid_ks}})
P1_read_latency_b2: always ({b2.read_start} |-> {{true[*8] ; b2.dout_valid_k}})
P2_read_burst_b2: always ({b2.dout_valid_k} |-> {{true[*1] ; b2.dout_valid_ks}})
P1_read_latency_b3: always ({b3.read_start} |-> {{true[*8] ; b3.dout_valid_k}})
P2_read_burst_b3: always ({b3.dout_valid_k} |-> {{true[*1] ; b3.dout_valid_ks}})
P3_write_addr_edge: always ({write_start} |-> {{true[*1] ; addr_captured}})
P3b_write_commit: always ({addr_captured} |-> {{true[*1] ; write_commit}})
P4_exclusive_drive: never {bus_conflict})"},
};

// kBehaviouralGolden: the parent's suites, one "name: psl" line per row.
const Golden kBehaviouralGolden[] = {
    {"1/2", R"(P1_read_latency_b0: always ({b0.read_start} |-> {{true[*4] ; b0.dout_valid_k}})
P2_read_burst_b0: always ({b0.dout_valid_k} |-> {{true[*1] ; b0.dout_valid_ks}})
P8_capture_selected_b0: always ({b0.addr_captured} |-> {b0.selected})
P3_write_addr_edge: always ({write_start} |-> {{true[*1] ; addr_captured}})
P3b_write_commit: always ({addr_captured} |-> {{true[*1] ; write_commit}})
P4_exclusive_drive: never {bus_conflict}
P5_parity_even: always ({dout_valid} |-> {dout_parity_ok})
P6_byte_merge: always ({write_commit} |-> {byte_merge_ok})
P7_no_spurious: never {dout_spurious}
C1_read_completes: {{read_start ; true[*4]} ; dout_valid_ks}
C2_concurrent_read_write: (read_start && write_start)
C3_bank0_read: b0.read_start)"},
    {"1/4", R"(P1_read_latency_b0: always ({b0.read_start} |-> {{true[*8] ; b0.dout_valid_k}})
P2_read_burst_b0: always ({b0.dout_valid_k} |-> {{true[*1] ; b0.dout_valid_ks}})
P8_capture_selected_b0: always ({b0.addr_captured} |-> {b0.selected})
P3_write_addr_edge: always ({write_start} |-> {{true[*1] ; addr_captured}})
P3b_write_commit: always ({addr_captured} |-> {{true[*1] ; write_commit}})
P4_exclusive_drive: never {bus_conflict}
P5_parity_even: always ({dout_valid} |-> {dout_parity_ok})
P6_byte_merge: always ({write_commit} |-> {byte_merge_ok})
P7_no_spurious: never {dout_spurious}
C1_read_completes: {{read_start ; true[*8]} ; dout_valid_ks}
C2_concurrent_read_write: (read_start && write_start)
C3_bank0_read: b0.read_start)"},
    {"2/2", R"(P1_read_latency_b0: always ({b0.read_start} |-> {{true[*4] ; b0.dout_valid_k}})
P2_read_burst_b0: always ({b0.dout_valid_k} |-> {{true[*1] ; b0.dout_valid_ks}})
P8_capture_selected_b0: always ({b0.addr_captured} |-> {b0.selected})
P1_read_latency_b1: always ({b1.read_start} |-> {{true[*4] ; b1.dout_valid_k}})
P2_read_burst_b1: always ({b1.dout_valid_k} |-> {{true[*1] ; b1.dout_valid_ks}})
P8_capture_selected_b1: always ({b1.addr_captured} |-> {b1.selected})
P3_write_addr_edge: always ({write_start} |-> {{true[*1] ; addr_captured}})
P3b_write_commit: always ({addr_captured} |-> {{true[*1] ; write_commit}})
P4_exclusive_drive: never {bus_conflict}
P5_parity_even: always ({dout_valid} |-> {dout_parity_ok})
P6_byte_merge: always ({write_commit} |-> {byte_merge_ok})
P7_no_spurious: never {dout_spurious}
C1_read_completes: {{read_start ; true[*4]} ; dout_valid_ks}
C2_concurrent_read_write: (read_start && write_start)
C3_bank0_read: b0.read_start
C3_bank1_read: b1.read_start)"},
    {"2/4", R"(P1_read_latency_b0: always ({b0.read_start} |-> {{true[*8] ; b0.dout_valid_k}})
P2_read_burst_b0: always ({b0.dout_valid_k} |-> {{true[*1] ; b0.dout_valid_ks}})
P8_capture_selected_b0: always ({b0.addr_captured} |-> {b0.selected})
P1_read_latency_b1: always ({b1.read_start} |-> {{true[*8] ; b1.dout_valid_k}})
P2_read_burst_b1: always ({b1.dout_valid_k} |-> {{true[*1] ; b1.dout_valid_ks}})
P8_capture_selected_b1: always ({b1.addr_captured} |-> {b1.selected})
P3_write_addr_edge: always ({write_start} |-> {{true[*1] ; addr_captured}})
P3b_write_commit: always ({addr_captured} |-> {{true[*1] ; write_commit}})
P4_exclusive_drive: never {bus_conflict}
P5_parity_even: always ({dout_valid} |-> {dout_parity_ok})
P6_byte_merge: always ({write_commit} |-> {byte_merge_ok})
P7_no_spurious: never {dout_spurious}
C1_read_completes: {{read_start ; true[*8]} ; dout_valid_ks}
C2_concurrent_read_write: (read_start && write_start)
C3_bank0_read: b0.read_start
C3_bank1_read: b1.read_start)"},
    {"4/2", R"(P1_read_latency_b0: always ({b0.read_start} |-> {{true[*4] ; b0.dout_valid_k}})
P2_read_burst_b0: always ({b0.dout_valid_k} |-> {{true[*1] ; b0.dout_valid_ks}})
P8_capture_selected_b0: always ({b0.addr_captured} |-> {b0.selected})
P1_read_latency_b1: always ({b1.read_start} |-> {{true[*4] ; b1.dout_valid_k}})
P2_read_burst_b1: always ({b1.dout_valid_k} |-> {{true[*1] ; b1.dout_valid_ks}})
P8_capture_selected_b1: always ({b1.addr_captured} |-> {b1.selected})
P1_read_latency_b2: always ({b2.read_start} |-> {{true[*4] ; b2.dout_valid_k}})
P2_read_burst_b2: always ({b2.dout_valid_k} |-> {{true[*1] ; b2.dout_valid_ks}})
P8_capture_selected_b2: always ({b2.addr_captured} |-> {b2.selected})
P1_read_latency_b3: always ({b3.read_start} |-> {{true[*4] ; b3.dout_valid_k}})
P2_read_burst_b3: always ({b3.dout_valid_k} |-> {{true[*1] ; b3.dout_valid_ks}})
P8_capture_selected_b3: always ({b3.addr_captured} |-> {b3.selected})
P3_write_addr_edge: always ({write_start} |-> {{true[*1] ; addr_captured}})
P3b_write_commit: always ({addr_captured} |-> {{true[*1] ; write_commit}})
P4_exclusive_drive: never {bus_conflict}
P5_parity_even: always ({dout_valid} |-> {dout_parity_ok})
P6_byte_merge: always ({write_commit} |-> {byte_merge_ok})
P7_no_spurious: never {dout_spurious}
C1_read_completes: {{read_start ; true[*4]} ; dout_valid_ks}
C2_concurrent_read_write: (read_start && write_start)
C3_bank0_read: b0.read_start
C3_bank1_read: b1.read_start
C3_bank2_read: b2.read_start
C3_bank3_read: b3.read_start)"},
    {"4/4", R"(P1_read_latency_b0: always ({b0.read_start} |-> {{true[*8] ; b0.dout_valid_k}})
P2_read_burst_b0: always ({b0.dout_valid_k} |-> {{true[*1] ; b0.dout_valid_ks}})
P8_capture_selected_b0: always ({b0.addr_captured} |-> {b0.selected})
P1_read_latency_b1: always ({b1.read_start} |-> {{true[*8] ; b1.dout_valid_k}})
P2_read_burst_b1: always ({b1.dout_valid_k} |-> {{true[*1] ; b1.dout_valid_ks}})
P8_capture_selected_b1: always ({b1.addr_captured} |-> {b1.selected})
P1_read_latency_b2: always ({b2.read_start} |-> {{true[*8] ; b2.dout_valid_k}})
P2_read_burst_b2: always ({b2.dout_valid_k} |-> {{true[*1] ; b2.dout_valid_ks}})
P8_capture_selected_b2: always ({b2.addr_captured} |-> {b2.selected})
P1_read_latency_b3: always ({b3.read_start} |-> {{true[*8] ; b3.dout_valid_k}})
P2_read_burst_b3: always ({b3.dout_valid_k} |-> {{true[*1] ; b3.dout_valid_ks}})
P8_capture_selected_b3: always ({b3.addr_captured} |-> {b3.selected})
P3_write_addr_edge: always ({write_start} |-> {{true[*1] ; addr_captured}})
P3b_write_commit: always ({addr_captured} |-> {{true[*1] ; write_commit}})
P4_exclusive_drive: never {bus_conflict}
P5_parity_even: always ({dout_valid} |-> {dout_parity_ok})
P6_byte_merge: always ({write_commit} |-> {byte_merge_ok})
P7_no_spurious: never {dout_spurious}
C1_read_completes: {{read_start ; true[*8]} ; dout_valid_ks}
C2_concurrent_read_write: (read_start && write_start)
C3_bank0_read: b0.read_start
C3_bank1_read: b1.read_start
C3_bank2_read: b2.read_start
C3_bank3_read: b3.read_start)"},
};

using Suite = std::vector<std::pair<std::string, psl::PropPtr>>;

std::string render(const Suite& suite) {
  std::string out;
  for (const auto& [name, prop] : suite) {
    if (!out.empty()) out += '\n';
    out += name + ": " + psl::to_string(*prop);
  }
  return out;
}

std::string render(const psl::VUnit& vunit) {
  std::string out;
  for (const psl::Directive& d : vunit.directives()) {
    if (!out.empty()) out += '\n';
    out += d.name + ": " +
           (d.prop ? psl::to_string(*d.prop) : psl::to_string(*d.cover_sere));
  }
  return out;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// Every tap of `level` at `banks` banks: bank taps, then device taps.
std::vector<std::string> names(core::Level level, int banks) {
  const core::TapSet& set = core::tap_set(level);
  std::vector<std::string> out = set.bank_taps(banks);
  out.insert(out.end(), set.device.begin(), set.device.end());
  return out;
}

std::string key(int banks, int read_latency) {
  return std::to_string(banks) + "/" + std::to_string(read_latency);
}

TEST(Properties, LevelSuitesPinned) {
  for (int banks : {1, 2, 4}) {
    core::AsmConfig acfg;
    acfg.banks = banks;
    EXPECT_EQ(render(core::asm_properties(acfg)),
              golden(kAsmGolden, std::to_string(banks)));
    for (int read_latency : {2, 4}) {
      const std::string k = key(banks, read_latency);
      core::RtlConfig rcfg;
      rcfg.banks = banks;
      rcfg.read_latency = read_latency;
      Suite rtl = core::rtl_properties(rcfg);
      rtl.emplace_back("READ_MODE", core::rtl_read_mode_property(rcfg));
      EXPECT_EQ(render(rtl), golden(kRtlGolden, k)) << k;
      EXPECT_EQ(render(core::level_suite(core::Level::kHarness, banks,
                                         rcfg.latency_ticks())),
                golden(kHarnessGolden, k))
          << k;

      // Behavioural: every earlier directive, in its order, plus exactly
      // the two per-bank rows the catalog binding adds.
      core::Config bcfg;
      bcfg.banks = banks;
      bcfg.read_latency = read_latency;
      const std::vector<std::string> got =
          lines_of(render(core::behavioral_vunit(bcfg)));
      std::vector<std::string> added;
      std::size_t at = 0;
      for (const std::string& want : lines_of(golden(kBehaviouralGolden, k))) {
        while (at < got.size() && got[at] != want) added.push_back(got[at++]);
        ASSERT_LT(at, got.size()) << k << ": missing or out of order: " << want;
        ++at;
      }
      added.insert(added.end(), got.begin() + static_cast<long>(at),
                   got.end());
      std::vector<std::string> expected_added;
      for (int b = 0; b < banks; ++b) {
        const std::string n = std::to_string(b);
        expected_added.push_back("P7_no_spurious_b" + n + ": never {b" + n +
                                 ".dout_spurious}");
        expected_added.push_back("P3_write_addr_edge_b" + n + ": always ({b" +
                                 n + ".addr_captured} |-> {{true[*1] ; b" + n +
                                 ".write_commit}})");
      }
      EXPECT_EQ(added, expected_added) << k;
    }
  }
}

TEST(Properties, TapSetsMatchModels) {
  using core::Level;
  for (int banks : {1, 2, 4}) {
    // Behavioural: the kernel model's ProbeEnv.
    core::Config bcfg;
    bcfg.banks = banks;
    harness::BehavioralDeviceModel beh_model(bcfg);
    for (const std::string& tap : names(Level::kBehavioural, banks)) {
      EXPECT_TRUE(beh_model.env().has(tap)) << tap;
    }
    // ASM: locations of the initial state.
    core::AsmConfig acfg;
    acfg.banks = banks;
    const asml::Machine machine = core::build_asm_model(acfg);
    for (const std::string& tap : names(Level::kAsm, banks)) {
      EXPECT_TRUE(machine.initial().has(core::bind_tap(Level::kAsm, tap)))
          << tap;
    }
    // RTL: registered nets of the flattened device; the conflict flag is
    // exported for the tristate DOUT bus.
    core::RtlConfig rcfg;
    rcfg.banks = banks;
    const rtl::Module flat = core::build_device(rcfg).flatten();
    for (const std::string& tap : names(Level::kRtl, banks)) {
      std::string net = core::bind_tap(Level::kRtl, tap);
      const std::string conflict = ".__conflict";
      if (net.size() > conflict.size() &&
          net.compare(net.size() - conflict.size(), conflict.size(),
                      conflict) == 0) {
        net.resize(net.size() - conflict.size());
      }
      EXPECT_NE(flat.find_net(net), rtl::kInvalidId) << tap << " -> " << net;
    }
    // Harness: every adapter exposes the shared taps; the ASM adapter
    // exposes exactly them, in the set's order.
    const std::vector<std::string> shared = names(Level::kHarness, banks);
    harness::AsmDeviceModel asm_model(acfg);
    EXPECT_EQ(asm_model.tap_names(), shared);
    harness::RtlDeviceModel rtl_model(rcfg);
    const harness::RtlDevice csim_model =
        harness::make_rtl_device(rcfg, harness::RtlBackend::kCompiled);
    for (const harness::DeviceModel* m :
         {static_cast<const harness::DeviceModel*>(&asm_model),
          static_cast<const harness::DeviceModel*>(&beh_model),
          static_cast<const harness::DeviceModel*>(&rtl_model),
          static_cast<const harness::DeviceModel*>(csim_model.model.get())}) {
      const std::vector<std::string>& names = m->tap_names();
      for (const std::string& tap : shared) {
        EXPECT_NE(std::find(names.begin(), names.end(), tap), names.end())
            << m->name() << " lacks " << tap;
      }
    }
  }
}

TEST(Properties, MatrixAgreesWithLevelSuites) {
  // A row is checked at a level exactly when that level's suite holds it,
  // and an unobservable cell names a tap the level really lacks.
  const std::vector<core::MatrixRow> matrix = core::property_matrix(2, 4);
  for (core::Level level : core::kLevels) {
    std::vector<std::string> checked;
    for (const core::MatrixRow& row : matrix) {
      const core::LevelBinding& cell =
          row.levels[static_cast<std::size_t>(level)];
      if (cell.status == core::Observability::kChecked) {
        EXPECT_TRUE(cell.missing_tap.empty()) << row.name;
        checked.push_back(row.name);
      } else {
        EXPECT_FALSE(core::tap_set(level).observes(cell.missing_tap))
            << row.name << " at " << core::to_string(level);
      }
    }
    std::vector<std::string> suite;
    for (const auto& [name, prop] : core::level_suite(level, 2, 4)) {
      suite.push_back(name);
    }
    EXPECT_EQ(checked, suite) << core::to_string(level);
  }
  EXPECT_THROW(core::bind_tap(core::Level::kRtl, "write_start"),
               std::invalid_argument);
}

TEST(Properties, EnumNamesAreStrict) {
  EXPECT_STREQ(core::to_string(core::Level::kHarness), "harness");
  EXPECT_STREQ(core::to_string(core::Observability::kUnobservable),
               "unobservable");
  EXPECT_THROW(core::to_string(static_cast<core::Level>(7)),
               std::invalid_argument);
  EXPECT_THROW(core::to_string(static_cast<core::Observability>(7)),
               std::invalid_argument);
}

/// DESIGN.md §6's matrix rows, "| `name` | `psl` | cell | ... |".
std::vector<std::string> design_matrix_rows() {
  std::ifstream in(LA1_DESIGN);
  std::vector<std::string> out;
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) in_section = line.rfind("## 6.", 0) == 0;
    if (in_section && line.rfind("| `P", 0) == 0) out.push_back(line);
  }
  return out;
}

/// Bank 0 written generically ("b<n>"), the 4-tick latency as "L".
std::string generic(std::string text) {
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"b0.", "b<n>."},
        {"_b0", "_b<n>"},
        {"next[4]", "next[L]"}}) {
    for (std::size_t at = text.find(from); at != std::string::npos;
         at = text.find(from, at + to.size())) {
      text.replace(at, from.size(), to);
    }
  }
  return text;
}

TEST(Properties, DesignMatrixMatchesCatalog) {
  std::vector<std::string> expected;
  for (const core::MatrixRow& row : core::property_matrix(1, 4)) {
    std::string line =
        "| `" + generic(row.name) + "` | `" + generic(row.psl) + "` |";
    for (const core::LevelBinding& cell : row.levels) {
      line += std::string(" ") + core::to_string(cell.status);
      if (!cell.missing_tap.empty()) {
        line += " (no `" + generic(cell.missing_tap) + "`)";
      }
      line += " |";
    }
    expected.push_back(line);
  }
  EXPECT_EQ(design_matrix_rows(), expected);
}

}  // namespace
}  // namespace la1
