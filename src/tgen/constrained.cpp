#include "tgen/constrained.hpp"

#include <stdexcept>

namespace la1::tgen {

namespace {

void set_weights(util::Json& doc, const char* key,
                 const std::vector<double>& w) {
  if (w.empty()) return;
  util::Json list = util::Json::array();
  for (double v : w) list.push(v);
  doc.set(key, std::move(list));
}

}  // namespace

util::Json Profile::to_json() const {
  util::Json doc = util::Json::object();
  doc.set("read_rate", read_rate);
  doc.set("write_rate", write_rate);
  doc.set("read_burst", read_burst);
  doc.set("write_burst", write_burst);
  doc.set("idle_burst", idle_burst);
  doc.set("same_addr", same_addr);
  doc.set("raw", raw);
  doc.set("war", war);
  doc.set("be_full", be_full);
  doc.set("be_none", be_none);
  set_weights(doc, "read_bank_weight", read_bank_weight);
  set_weights(doc, "write_bank_weight", write_bank_weight);
  return doc;
}

ConstrainedStream::ConstrainedStream(const harness::Geometry& geometry,
                                     const Profile& profile,
                                     std::uint64_t seed)
    : geometry_(geometry), profile_(profile), seed_(seed), rng_(seed) {
  if (geometry.banks < 1 || geometry.mem_addr_bits < 0 ||
      geometry.data_bits < 1) {
    throw std::invalid_argument("ConstrainedStream: bad geometry");
  }
  for (const auto* w : {&profile.read_bank_weight, &profile.write_bank_weight}) {
    if (!w->empty() && static_cast<int>(w->size()) != geometry.banks) {
      throw std::invalid_argument(
          "ConstrainedStream: bank weight size != banks");
    }
  }
}

void ConstrainedStream::reset() {
  rng_ = util::Rng(seed_);
  generated_ = 0;
  last_read_ = last_write_ = last_idle_ = false;
  last_read_addr_ = last_write_addr_ = 0;
  have_write_addr_ = false;
}

int ConstrainedStream::draw_bank(const std::vector<double>& weights) {
  if (weights.empty()) {
    return static_cast<int>(
        rng_.below(static_cast<std::uint64_t>(geometry_.banks)));
  }
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) {
    return static_cast<int>(
        rng_.below(static_cast<std::uint64_t>(geometry_.banks)));
  }
  // Map a uniform 53-bit draw onto the cumulative weights.
  const double u =
      static_cast<double>(rng_.next_u64() >> 11) / 9007199254740992.0 * total;
  double acc = 0.0;
  for (std::size_t b = 0; b < weights.size(); ++b) {
    acc += weights[b];
    if (u < acc) return static_cast<int>(b);
  }
  return geometry_.banks - 1;
}

std::uint64_t ConstrainedStream::draw_addr(const std::vector<double>& weights) {
  const std::uint64_t bank = static_cast<std::uint64_t>(draw_bank(weights));
  const std::uint64_t word = rng_.below(geometry_.mem_depth());
  return (bank << geometry_.mem_addr_bits) | word;
}

harness::Stimulus ConstrainedStream::next() {
  harness::Stimulus s;

  // Idle stickiness first: an idle run continues with p = idle_burst and
  // suppresses both ports, which is how the closure driver reaches the
  // long idle_run bins without starving every other group.
  const bool stay_idle = last_idle_ && rng_.chance(profile_.idle_burst);

  bool read;
  if (last_read_ && rng_.chance(profile_.read_burst)) {
    read = true;
  } else {
    read = rng_.chance(profile_.read_rate);
  }
  bool write;
  if (last_write_ && rng_.chance(profile_.write_burst)) {
    write = true;
  } else {
    write = rng_.chance(profile_.write_rate);
  }
  if (stay_idle) read = write = false;

  if (read) {
    const bool burst = last_read_;
    if (burst && rng_.chance(profile_.same_addr)) {
      s.read_addr = last_read_addr_;
    } else if (have_write_addr_ && rng_.chance(profile_.raw)) {
      s.read_addr = last_write_addr_;
    } else if (burst) {
      // Bursts stay in the previous read's bank so they land in the
      // same-bank burst and Figure-3 window bins.
      const std::uint64_t bank = last_read_addr_ >> geometry_.mem_addr_bits;
      s.read_addr = (bank << geometry_.mem_addr_bits) |
                    rng_.below(geometry_.mem_depth());
    } else {
      s.read_addr = draw_addr(profile_.read_bank_weight);
    }
    s.read = true;
  }

  if (write) {
    if (last_read_ && rng_.chance(profile_.war)) {
      s.write_addr = last_read_addr_;
    } else {
      s.write_addr = draw_addr(profile_.write_bank_weight);
    }
    const int word_bits = 2 * geometry_.data_bits;
    s.write_word = word_bits >= 64 ? rng_.next_u64()
                                   : rng_.below(1ull << word_bits);
    const std::uint32_t lane_mask = (1u << (2 * geometry_.lanes())) - 1;
    const double be_draw =
        static_cast<double>(rng_.next_u64() >> 11) / 9007199254740992.0;
    if (be_draw < profile_.be_full) {
      s.be_mask = lane_mask;
    } else if (be_draw < profile_.be_full + profile_.be_none) {
      s.be_mask = 0;
    } else {
      s.be_mask = static_cast<std::uint32_t>(rng_.next_u64()) & lane_mask;
    }
    s.write = true;
  }

  last_idle_ = !read && !write;
  last_read_ = read;
  last_write_ = write;
  if (read) last_read_addr_ = s.read_addr;
  if (write) {
    last_write_addr_ = s.write_addr;
    have_write_addr_ = true;
  }
  ++generated_;
  return s;
}

}  // namespace la1::tgen
