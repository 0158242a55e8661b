#include "la1/rtl_model.hpp"

#include <stdexcept>

#include "la1/properties.hpp"
#include "la1/spec.hpp"
#include "ovl/ovl.hpp"
#include "util/strings.hpp"

namespace la1::core {

namespace {

/// Even-parity bits for a data expression: parity bit per write-enable lane
/// is the XOR of the lane's bits (making the lane+parity group even).
rtl::ExprId parity_expr(rtl::Module& m, rtl::ExprId data, const RtlConfig& cfg) {
  std::vector<rtl::ExprId> lanes_msb_first;
  const int lw = cfg.lane_width();
  for (int lane = cfg.lanes() - 1; lane >= 0; --lane) {
    lanes_msb_first.push_back(m.red_xor(m.slice(data, lane * lw, lw)));
  }
  if (lanes_msb_first.size() == 1) return lanes_msb_first.front();
  return m.concat(lanes_msb_first);
}

/// Packs data with its parity field: [parity | data].
rtl::ExprId pack_beat_expr(rtl::Module& m, rtl::ExprId data,
                           const RtlConfig& cfg) {
  return m.concat({parity_expr(m, data, cfg), data});
}

}  // namespace

rtl::Module build_bank_module(const RtlConfig& cfg, int index) {
  rtl::Module m("la1_bank" + std::to_string(index));
  const int db = cfg.data_bits;
  const int lanes = cfg.lanes();
  const int bp = cfg.beat_pins();
  const int ab = cfg.addr_bits();
  const int mab = cfg.mem_addr_bits;

  // --- ports -----------------------------------------------------------
  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId ks = m.input("KS", 1);
  const rtl::NetId r_sel_n = m.input("R_n", 1);
  const rtl::NetId w_sel_n = m.input("W_n", 1);
  const rtl::NetId addr = m.input("A", ab);
  const rtl::NetId din = m.input("D", bp);
  const rtl::NetId bwe_n = m.input("BWE_n", lanes);
  const rtl::NetId dout_val = m.output("Q", bp);
  const rtl::NetId dout_en = m.output("Q_en", 1);

  // --- registers ---------------------------------------------------------
  const rtl::NetId s0 = m.reg("s0", 1, 0u);
  const rtl::NetId s0_addr = m.reg("s0_addr", mab, 0u);
  const rtl::NetId s1 = m.reg("s1", 1, 0u);
  const rtl::NetId word = m.reg("word", cfg.word_bits(), 0u);
  const rtl::NetId en_q = m.reg("en_q", 1, 0u);
  const rtl::NetId dout_q = m.reg("dout_q", bp, 0u);
  const rtl::NetId beat1_q = m.reg("beat1_q", bp, 0u);
  const rtl::NetId beat1_pend = m.reg("beat1_pend", 1, 0u);

  const rtl::NetId w_b0_taken = m.reg("w_b0_taken", 1, 0u);
  const rtl::NetId w_beat0 = m.reg("w_beat0", db, 0u);
  const rtl::NetId w_bwe0 = m.reg("w_bwe0", lanes, 0u);
  const rtl::NetId w_ready = m.reg("w_ready", 1, 0u);
  const rtl::NetId w_addr = m.reg("w_addr", mab, 0u);
  const rtl::NetId w_beat1 = m.reg("w_beat1", db, 0u);
  const rtl::NetId w_bwe1 = m.reg("w_bwe1", lanes, 0u);

  // Registered observation taps (property atoms).
  const rtl::NetId read_start_q = m.reg("read_start_q", 1, 0u);
  const rtl::NetId fetch_q = m.reg("fetch_q", 1, 0u);
  const rtl::NetId dout_valid_k_q = m.reg("dout_valid_k_q", 1, 0u);
  const rtl::NetId dout_valid_ks_q = m.reg("dout_valid_ks_q", 1, 0u);
  const rtl::NetId write_start_q = m.reg("write_start_q", 1, 0u);
  const rtl::NetId addr_captured_q = m.reg("addr_captured_q", 1, 0u);
  const rtl::NetId write_commit_q = m.reg("write_commit_q", 1, 0u);
  const rtl::NetId driving_q = m.reg("driving_q", 1, 0u);

  const rtl::MemId mem = m.memory("sram", cfg.mem_depth(), cfg.word_bits());

  // --- combinational decode ---------------------------------------------
  // Bank select compares the high-order address bits with this bank's id.
  rtl::ExprId sel;
  if (cfg.bank_bits() == 0) {
    sel = m.lit_uint(1, 1);
  } else {
    sel = m.eq(m.slice(m.ref(addr), mab, cfg.bank_bits()),
               m.lit_uint(static_cast<std::uint64_t>(index), cfg.bank_bits()));
  }
  const rtl::ExprId mem_addr = m.slice(m.ref(addr), 0, mab);
  const rtl::ExprId din_data = m.slice(m.ref(din), 0, db);
  const rtl::ExprId bwe = m.op_not(m.ref(bwe_n));

  // --- rising K ----------------------------------------------------------
  const rtl::ProcId pk = m.process("on_k", k, rtl::Edge::kPos);
  const rtl::ExprId start = m.op_and(m.op_not(m.ref(r_sel_n)), sel);
  m.nonblocking(pk, s0, start);
  m.nonblocking(pk, s0_addr, mem_addr);
  m.nonblocking(pk, read_start_q, start);
  m.nonblocking(pk, fetch_q, m.ref(s0));
  m.nonblocking(pk, s1, m.ref(s0));
  m.nonblocking(pk, word, m.mem_read(mem, m.ref(s0_addr)));

  // Optional deep-pipeline stages (read_latency > 2, the LA-1B mode):
  // valid flag and word shift one more register per extra cycle.
  rtl::NetId drive_valid = s1;
  rtl::NetId drive_word = word;
  for (int stage = 2; stage < cfg.read_latency; ++stage) {
    const rtl::NetId v =
        m.reg(util::cat({"s", std::to_string(stage)}), 1, 0u);
    const rtl::NetId w =
        m.reg("word_d" + std::to_string(stage), cfg.word_bits(), 0u);
    m.nonblocking(pk, v, m.ref(drive_valid));
    m.nonblocking(pk, w, m.ref(drive_word));
    drive_valid = v;
    drive_word = w;
  }

  // Drive the first beat of the word leaving the pipeline.
  const rtl::ExprId drive = m.ref(drive_valid);
  const rtl::ExprId low_half = m.slice(m.ref(drive_word), 0, db);
  const rtl::ExprId high_half = m.slice(m.ref(drive_word), db, db);
  m.nonblocking(pk, en_q, drive);
  m.nonblocking(pk, dout_q, pack_beat_expr(m, low_half, cfg));
  m.nonblocking(pk, beat1_q, pack_beat_expr(m, high_half, cfg));
  m.nonblocking(pk, beat1_pend, drive);
  m.nonblocking(pk, dout_valid_k_q, drive);
  m.nonblocking(pk, driving_q, drive);
  m.nonblocking(pk, dout_valid_ks_q, m.lit_uint(0, 1));

  // Write: beat 0 latched at K (target bank unknown until K#).
  const rtl::ExprId wstart = m.op_not(m.ref(w_sel_n));
  m.nonblocking(pk, w_b0_taken, wstart);
  m.nonblocking(pk, w_beat0, din_data);
  m.nonblocking(pk, w_bwe0, bwe);
  m.nonblocking(pk, write_start_q, wstart);
  m.nonblocking(pk, addr_captured_q, m.lit_uint(0, 1));

  // Commit the write completed at the previous K#.
  std::vector<rtl::ExprId> lane_enables;
  for (int lane = 0; lane < lanes; ++lane) {
    lane_enables.push_back(m.slice(m.ref(w_bwe0), lane, 1));
  }
  for (int lane = 0; lane < lanes; ++lane) {
    lane_enables.push_back(m.slice(m.ref(w_bwe1), lane, 1));
  }
  m.mem_write(pk, mem, m.ref(w_addr),
              m.concat({m.ref(w_beat1), m.ref(w_beat0)}), m.ref(w_ready),
              lane_enables);
  m.nonblocking(pk, write_commit_q, m.ref(w_ready));
  m.nonblocking(pk, w_ready, m.lit_uint(0, 1));

  // --- rising K# ----------------------------------------------------------
  const rtl::ProcId pks = m.process("on_ks", ks, rtl::Edge::kPos);
  const rtl::ExprId b1 = m.ref(beat1_pend);
  m.nonblocking(pks, en_q, b1);
  m.nonblocking(pks, dout_q, m.ref(beat1_q));
  m.nonblocking(pks, dout_valid_ks_q, b1);
  m.nonblocking(pks, driving_q, b1);
  m.nonblocking(pks, beat1_pend, m.lit_uint(0, 1));
  m.nonblocking(pks, dout_valid_k_q, m.lit_uint(0, 1));
  m.nonblocking(pks, read_start_q, m.lit_uint(0, 1));
  m.nonblocking(pks, fetch_q, m.lit_uint(0, 1));

  // Write address + high beat at K#; only the addressed bank proceeds.
  const rtl::ExprId cap = m.op_and(m.ref(w_b0_taken), sel);
  m.nonblocking(pks, w_addr, m.mux(cap, mem_addr, m.ref(w_addr)));
  m.nonblocking(pks, w_beat1, m.mux(cap, din_data, m.ref(w_beat1)));
  m.nonblocking(pks, w_bwe1, m.mux(cap, bwe, m.ref(w_bwe1)));
  m.nonblocking(pks, w_ready, cap);
  m.nonblocking(pks, w_b0_taken, m.lit_uint(0, 1));
  m.nonblocking(pks, addr_captured_q, cap);
  m.nonblocking(pks, write_start_q, m.lit_uint(0, 1));
  m.nonblocking(pks, write_commit_q, m.lit_uint(0, 1));

  // --- outputs ------------------------------------------------------------
  m.assign(dout_val, m.ref(dout_q));
  m.assign(dout_en, m.ref(en_q));

  return m;
}

RtlDevice build_device(const RtlConfig& cfg) {
  RtlDevice dev;
  dev.cfg = cfg;
  dev.top = std::make_unique<rtl::Module>("la1_device");
  rtl::Module& m = *dev.top;
  const int bp = cfg.beat_pins();
  const int ab = cfg.addr_bits();

  const rtl::NetId k = m.input("K", 1);
  const rtl::NetId ks = m.input("KS", 1);
  const rtl::NetId r_sel_n = m.input("R_n", 1);
  const rtl::NetId w_sel_n = m.input("W_n", 1);
  const rtl::NetId addr = m.input("A", ab);
  const rtl::NetId din = m.input("D", bp);
  const rtl::NetId bwe_n = m.input("BWE_n", cfg.lanes());
  const rtl::NetId dout = m.output("DOUT", bp);

  for (int b = 0; b < cfg.banks; ++b) {
    dev.bank_modules.push_back(
        std::make_unique<rtl::Module>(build_bank_module(cfg, b)));
    const rtl::NetId q = m.wire(util::cat({"q", std::to_string(b)}), bp);
    const rtl::NetId q_en = m.wire(util::cat({"q_en", std::to_string(b)}), 1);
    m.instantiate("bank" + std::to_string(b), *dev.bank_modules.back(),
                  {{"K", k},
                   {"KS", ks},
                   {"R_n", r_sel_n},
                   {"W_n", w_sel_n},
                   {"A", addr},
                   {"D", din},
                   {"BWE_n", bwe_n},
                   {"Q", q},
                   {"Q_en", q_en}});
    // Tristate buffer joining this bank onto the shared DOUT bus (§4.4).
    m.tristate(dout, m.ref(q_en), m.ref(q));
  }
  return dev;
}

std::vector<rtl::ClockStep> clock_schedule(const rtl::Module& flat) {
  const rtl::NetId k = flat.find_net("K");
  const rtl::NetId ks = flat.find_net("KS");
  if (k == rtl::kInvalidId || ks == rtl::kInvalidId) {
    throw std::invalid_argument("clock_schedule: module lacks K/KS");
  }
  return {rtl::ClockStep{k, rtl::Edge::kPos}, rtl::ClockStep{ks, rtl::Edge::kPos}};
}

std::vector<std::pair<std::string, psl::PropPtr>> rtl_properties(
    const RtlConfig& cfg) {
  return level_suite(Level::kRtl, cfg.banks, cfg.latency_ticks());
}

psl::PropPtr rtl_read_mode_property(const RtlConfig& cfg) {
  // Read mode for bank 0: request -> first beat after the documented
  // latency -> second beat on the following edge (catalog rows P1 and P2).
  std::vector<psl::PropPtr> read_mode;
  for (auto& [name, prop] : read_mode_suite(Level::kRtl, cfg.latency_ticks())) {
    read_mode.push_back(std::move(prop));
  }
  return psl::p_and(std::move(read_mode));
}

std::vector<std::pair<std::string, psl::PropPtr>> rtl_mc_properties(
    const RtlConfig& cfg) {
  std::vector<std::pair<std::string, psl::PropPtr>> props;
  props.emplace_back("READ_MODE", rtl_read_mode_property(cfg));
  for (auto& p : rtl_properties(cfg)) props.push_back(std::move(p));
  return props;
}

void attach_ovl_monitors(rtl::Module& flat, ovl::OvlBank& bank, int banks) {
  const rtl::NetId k = flat.find_net("K");
  const rtl::NetId ks = flat.find_net("KS");
  std::vector<rtl::ExprId> enables;
  for (int b = 0; b < banks; ++b) {
    const std::string p = "bank" + std::to_string(b) + ".";
    const std::string sb = std::to_string(b);
    // Read mode: first beat exactly 2 K cycles after the request, second
    // beat pending on the following K#. K-edge taps are visible to
    // KS-clocked monitors (they clear at the next K#).
    ovl::assert_next(flat, bank, "read_latency_b" + sb, ks,
                     flat.ref(p + "read_start_q"),
                     flat.ref(p + "dout_valid_k_q"), 2);
    ovl::assert_implication(flat, bank, "read_burst_b" + sb, ks,
                            flat.ref(p + "dout_valid_k_q"),
                            flat.ref(p + "beat1_pend"));
    ovl::assert_implication(flat, bank, "write_ready_b" + sb, k,
                            flat.ref(p + "addr_captured_q"),
                            flat.ref(p + "w_ready"));
    enables.push_back(flat.ref(p + "en_q"));
  }
  ovl::assert_zero_one_hot(flat, bank, "exclusive_drive", banks > 1 ? ks : k,
                           banks > 1 ? flat.concat(enables)
                                     : enables.front());
}

}  // namespace la1::core
