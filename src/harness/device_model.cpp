#include "harness/device_model.hpp"

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
