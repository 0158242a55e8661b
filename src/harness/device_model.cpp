#include "harness/device_model.hpp"

#include <stdexcept>

#include "la1/spec.hpp"

namespace la1::harness {

Transactor::Transactor(const Geometry& geometry) : g_(geometry) { reset(); }

void Transactor::enqueue(const Stimulus& s) { queue_.push_back(s); }

void Transactor::reset() {
  queue_.clear();
  write_pending_ = false;
  reads_issued_ = 0;
  writes_issued_ = 0;
  held_ = EdgePins{};
  held_.bwe_n = (1u << g_.lanes()) - 1;  // idle: all lanes disabled
}

EdgePins Transactor::next(Edge edge) {
  const std::uint32_t lane_mask = (1u << g_.lanes()) - 1;
  if (edge == Edge::kK) {
    // Idle defaults each K; address/data buses hold until redriven.
    held_.r_sel_n = true;
    held_.w_sel_n = true;
    held_.bwe_n = lane_mask;
    if (!queue_.empty()) {
      const Stimulus s = queue_.front();
      queue_.pop_front();
      if (s.read) {
        held_.r_sel_n = false;
        held_.addr = s.read_addr;
        ++reads_issued_;
      }
      if (s.write) {
        held_.w_sel_n = false;
        held_.din_data = static_cast<std::uint32_t>(
            core::word_low_beat(s.write_word, g_.data_bits));
        held_.bwe_n = ~(s.be_mask & lane_mask) & lane_mask;
        write_pending_ = true;
        write_tx_ = s;
        ++writes_issued_;
      }
    }
  } else if (write_pending_) {
    // Write address + high beat + its byte enables on the rising K#.
    write_pending_ = false;
    held_.addr = write_tx_.write_addr;
    held_.din_data = static_cast<std::uint32_t>(
        core::word_high_beat(write_tx_.write_word, g_.data_bits));
    const std::uint32_t hi = (write_tx_.be_mask >> g_.lanes()) & lane_mask;
    held_.bwe_n = ~hi & lane_mask;
  }
  held_.edge = edge;
  return held_;
}

Scoreboard::Scoreboard(const Geometry& geometry, int read_latency)
    : g_(geometry),
      latency_ticks_(2 * static_cast<std::uint64_t>(read_latency)) {
  if (g_.addr_bits() > 22) {
    throw std::invalid_argument(
        "Scoreboard: addr_bits > 22 needs a sparse mirror");
  }
  mirror_.assign(1ull << g_.addr_bits(), 0);
}

void Scoreboard::check(const DoutSample& dout, std::uint32_t data) {
  const std::uint32_t beat = static_cast<std::uint32_t>(dout.beat);
  if (!dout.valid || !dout.defined) {
    ++data_mismatches_;
    return;
  }
  if (!core::parity_ok(beat, g_.data_bits)) ++parity_errors_;
  if (core::beat_data(beat, g_.data_bits) != data) ++data_mismatches_;
}

void Scoreboard::step(const EdgePins& pins, const DeviceModel& model) {
  const int db = g_.data_bits;
  const std::uint32_t lane_mask = (1u << g_.lanes()) - 1;
  if (!expected_.empty()) {
    const Expected& e = expected_.front();
    if (pins.edge == Edge::kK && e.beat0_tick == tick_) {
      check(model.dout(), core::word_low_beat(e.word, db));
    } else if (pins.edge == Edge::kKs && e.beat0_tick + 1 == tick_) {
      check(model.dout(), core::word_high_beat(e.word, db));
      expected_.pop_front();
      ++reads_checked_;
    }
  }
  if (pins.edge == Edge::kK) {
    if (!pins.r_sel_n) {
      expected_.push_back(
          Expected{tick_ + latency_ticks_, mirror_.at(pins.addr)});
    }
    write_pending_ = !pins.w_sel_n;
    write_beat0_ = pins.din_data;
    write_be0_ = ~pins.bwe_n & lane_mask;
  } else if (write_pending_) {
    write_pending_ = false;
    std::uint64_t& word = mirror_.at(pins.addr);
    const std::uint32_t be =
        write_be0_ | ((~pins.bwe_n & lane_mask) << g_.lanes());
    word = core::merge_bytes(
        word, core::word_of_beats(write_beat0_, pins.din_data, db), be, db);
  }
  ++tick_;
}

DeviceModel::DeviceModel(std::string name, const Geometry& geometry)
    : name_(std::move(name)), geometry_(geometry), transactor_(geometry) {}

DeviceModel::~DeviceModel() = default;

void DeviceModel::reset() {
  transactor_.reset();
  ticks_ = 0;
  do_reset();
}

EdgePins DeviceModel::tick(Edge edge) {
  const EdgePins pins = transactor_.next(edge);
  apply_edge(pins);
  ++ticks_;
  return pins;
}

}  // namespace la1::harness
