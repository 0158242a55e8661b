#include "la1/behavioral.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace la1::core {

Pins::Pins(sim::Kernel& kernel, const Config& cfg, sim::Time period)
    : clk(kernel, "la1", period),
      r_sel_n(kernel, "R#", true),
      w_sel_n(kernel, "W#", true),
      addr(kernel, "ADDR", 0),
      din(kernel, "DIN", 0),
      bwe_n(kernel, "BWE#", (1u << cfg.lanes()) - 1),
      dout(kernel, "DOUT", 0) {}

void BankTaps::clear() {
  read_start = false;
  fetch = false;
  dout_valid_k = false;
  dout_valid_ks = false;
  write_start = false;
  addr_captured = false;
  write_commit = false;
  byte_merge_ok = true;
  driving = false;
  selected = false;
  dout_spurious = false;
  parity_error_in = false;
  dout_beat = 0;
}

SramMemory::SramMemory(const Config& cfg)
    : cfg_(&cfg), words_(cfg.mem_depth(), 0) {}

std::uint64_t SramMemory::read(std::uint64_t addr) const {
  ++reads_;
  return words_.at(addr);
}

void SramMemory::write(std::uint64_t addr, std::uint64_t word,
                       std::uint32_t be_mask) {
  ++writes_;
  std::uint64_t& slot = words_.at(addr);
  slot = merge_bytes(slot, word, be_mask, cfg_->data_bits);
}

Bank::Bank(sim::Kernel& kernel, std::string name, const Config& cfg, Pins& pins,
           int index)
    : Module(kernel, std::move(name)),
      cfg_(&cfg),
      pins_(&pins),
      index_(index),
      mem_(cfg) {
  rp_.delay.resize(static_cast<std::size_t>(cfg.read_latency - 2));
  auto& pk = method("on_k", [this] { on_k(); });
  sensitive(pk, pins_->clk.k().posedge_event());
  pk.dont_initialize();
  auto& pks = method("on_ks", [this] { on_ks(); });
  sensitive(pks, pins_->clk.ks().posedge_event());
  pks.dont_initialize();
}

void Bank::on_k() {
  const int db = cfg_->data_bits;
  const std::uint32_t lane_mask = (1u << cfg_->lanes()) - 1;
  taps_.clear();

  // --- Read pipeline, oldest stage first ------------------------------
  // Final stage: drive the first beat. With the standard latency the word
  // fetched last cycle drives directly; deeper latencies (LA-1B mode) pass
  // through the delay line first.
  bool drive_now;
  std::uint64_t drive_word;
  bool drive_legit;
  if (rp_.delay.empty()) {
    drive_now = rp_.fetched;
    drive_word = rp_.word;
    drive_legit = rp_.fetched_legit;
  } else {
    const ReadPort::Slot out = rp_.delay.back();
    for (std::size_t i = rp_.delay.size() - 1; i > 0; --i) {
      rp_.delay[i] = rp_.delay[i - 1];
    }
    rp_.delay[0] =
        ReadPort::Slot{rp_.fetched, rp_.fetched_legit, rp_.word};
    drive_now = out.valid;
    drive_word = out.word;
    drive_legit = out.legit;
  }
  if (fault_ == Fault::kLateBeat0) {
    // Fault: the formatted word lingers one extra cycle.
    drive_now = late_drive_;
    drive_word = late_word_;
    late_drive_ = rp_.fetched;
    late_word_ = rp_.word;
  }
  if (drive_now) {
    std::uint32_t beat0 = pack_beat(word_low_beat(drive_word, db), db);
    if (fault_ == Fault::kBadParity) beat0 ^= (1u << db);
    pins_->dout.write(beat0);
    taps_.dout_valid_k = true;
    taps_.driving = true;
    taps_.dout_beat = beat0;
    taps_.dout_spurious = !drive_legit;
    rp_.beat1 = pack_beat(word_high_beat(drive_word, db), db);
    if (fault_ == Fault::kBadParity) rp_.beat1 ^= (1u << db);
    rp_.beat1_pending = fault_ != Fault::kDropBeat1;
    rp_.beat1_legit = drive_legit;
  }

  // Stage 1: SRAM access for the request captured last cycle.
  rp_.fetched = rp_.captured;
  rp_.fetched_legit = rp_.cap_legit;
  if (rp_.captured) {
    rp_.word = mem_.read(rp_.cap_addr);
    taps_.fetch = true;
  }

  // Stage 0: capture a new request — R# low with the address, this edge.
  const std::uint64_t a = pins_->addr.read();
  taps_.selected = selected(a);
  bool start = !pins_->r_sel_n.read() && taps_.selected;
  bool legit = true;
  if (fault_ == Fault::kDriveWhenDeselected && !pins_->r_sel_n.read() &&
      !taps_.selected) {
    start = true;  // fault: answers requests addressed to other banks
    legit = false;
  }
  rp_.captured = start;
  rp_.cap_legit = legit;
  if (start) {
    rp_.cap_addr = cfg_->mem_addr_of(a);
    taps_.read_start = true;
  }

  // --- Write path -------------------------------------------------------
  // Commit a write fully captured at the previous K# *before* latching a
  // new beat 0 — the commit must read the old capture (the ASM update-set
  // semantics gets this for free; here the order matters).
  if (wp_.ready) {
    const std::uint64_t old = mem_.read(wp_.addr);
    const std::uint64_t incoming = word_of_beats(wp_.beat0, wp_.beat1, db);
    const std::uint32_t mask = wp_.bwe0 | (wp_.bwe1 << cfg_->lanes());
    mem_.write(wp_.addr, incoming,
               fault_ == Fault::kIgnoreByteEnables
                   ? (1u << (2 * cfg_->lanes())) - 1
                   : mask);
    taps_.write_commit = true;
    const std::uint64_t expect = merge_bytes(old, incoming, mask, db);
    taps_.byte_merge_ok = mem_.read(wp_.addr) == expect;
    wp_.ready = false;
  }

  // W# low at K: latch the low beat and its byte enables. The target bank
  // is unknown until the address arrives on the next K#.
  if (!pins_->w_sel_n.read()) {
    const std::uint32_t beat = pins_->din.read();
    wp_.beat0 = beat_data(beat, db);
    if (!parity_ok(beat, db)) taps_.parity_error_in = true;
    wp_.bwe0 = (~pins_->bwe_n.read()) & lane_mask;
    wp_.beat0_taken = true;
    taps_.write_start = true;
  }
}

void Bank::on_ks() {
  const int db = cfg_->data_bits;
  const std::uint32_t lane_mask = (1u << cfg_->lanes()) - 1;
  taps_.clear();

  // Second read beat on the rising K# following the first beat.
  if (rp_.beat1_pending) {
    pins_->dout.write(rp_.beat1);
    taps_.dout_valid_ks = true;
    taps_.driving = true;
    taps_.dout_beat = rp_.beat1;
    taps_.dout_spurious =
        !rp_.beat1_legit && fault_ == Fault::kDriveWhenDeselected;
    rp_.beat1_pending = false;
  }

  // Write address + high beat at K#; only the addressed bank proceeds.
  if (wp_.beat0_taken) {
    const std::uint64_t a = pins_->addr.read();
    taps_.selected = selected(a);
    if (taps_.selected) {
      const std::uint32_t beat = pins_->din.read();
      wp_.addr = cfg_->mem_addr_of(a);
      wp_.beat1 = beat_data(beat, db);
      if (!parity_ok(beat, db)) taps_.parity_error_in = true;
      wp_.bwe1 = (~pins_->bwe_n.read()) & lane_mask;
      wp_.ready = true;
      taps_.addr_captured = true;
    }
    wp_.beat0_taken = false;
  }
}

La1Device::La1Device(sim::Kernel& kernel, std::string name, const Config& cfg,
                     Pins& pins)
    : Module(kernel, std::move(name)), cfg_(cfg) {
  cfg_.validate();
  for (int i = 0; i < cfg_.banks; ++i) {
    banks_.push_back(std::make_unique<Bank>(
        kernel, this->name() + ".bank" + std::to_string(i), cfg_, pins, i));
  }
}

int La1Device::drive_count() const {
  int n = 0;
  for (const auto& b : banks_) {
    if (b->taps().driving) ++n;
  }
  return n;
}

ProbeEnv::ProbeEnv(const Config& cfg, const La1Device& device, const Pins& pins) {
  for (int i = 0; i < device.banks(); ++i) {
    const Bank* bank = &device.bank(i);
    const std::string p = util::cat({"b", std::to_string(i), "."});
    add(p + "read_start", [bank] { return bank->taps().read_start; });
    add(p + "fetch", [bank] { return bank->taps().fetch; });
    add(p + "dout_valid_k", [bank] { return bank->taps().dout_valid_k; });
    add(p + "dout_valid_ks", [bank] { return bank->taps().dout_valid_ks; });
    add(p + "write_start", [bank] { return bank->taps().write_start; });
    add(p + "addr_captured", [bank] { return bank->taps().addr_captured; });
    add(p + "write_commit", [bank] { return bank->taps().write_commit; });
    add(p + "byte_merge_ok", [bank] { return bank->taps().byte_merge_ok; });
    add(p + "driving", [bank] { return bank->taps().driving; });
    add(p + "selected", [bank] { return bank->taps().selected; });
    add(p + "dout_spurious", [bank] { return bank->taps().dout_spurious; });
    add(p + "parity_error_in", [bank] { return bank->taps().parity_error_in; });
  }
  const La1Device* dev = &device;
  auto any = [dev](bool BankTaps::*field) {
    for (int i = 0; i < dev->banks(); ++i) {
      if (dev->bank(i).taps().*field) return true;
    }
    return false;
  };
  add("read_start", [any] { return any(&BankTaps::read_start); });
  add("write_start", [any] { return any(&BankTaps::write_start); });
  add("addr_captured", [any] { return any(&BankTaps::addr_captured); });
  add("write_commit", [any] { return any(&BankTaps::write_commit); });
  add("byte_merge_ok", [dev] {
    for (int i = 0; i < dev->banks(); ++i) {
      if (!dev->bank(i).taps().byte_merge_ok) return false;
    }
    return true;
  });
  add("dout_valid_k", [any] { return any(&BankTaps::dout_valid_k); });
  add("dout_valid_ks", [any] { return any(&BankTaps::dout_valid_ks); });
  add("dout_valid", [any] {
    return any(&BankTaps::dout_valid_k) || any(&BankTaps::dout_valid_ks);
  });
  add("dout_spurious", [any] { return any(&BankTaps::dout_spurious); });
  add("parity_error_in", [any] { return any(&BankTaps::parity_error_in); });
  add("bus_conflict", [dev] { return dev->drive_count() >= 2; });

  const Pins* p = &pins;
  const int db = cfg.data_bits;
  add("dout_parity_ok", [dev, p, db, any] {
    const bool valid =
        any(&BankTaps::dout_valid_k) || any(&BankTaps::dout_valid_ks);
    (void)dev;
    return !valid || parity_ok(p->dout.read(), db);
  });
}

bool ProbeEnv::sample(const std::string& signal) const {
  const int id = bind(signal);
  if (id < 0) {
    throw std::invalid_argument("ProbeEnv: unknown signal: " + signal);
  }
  return sample(id);
}

int ProbeEnv::bind(const std::string& signal) const {
  const auto it = ids_.find(signal);
  return it == ids_.end() ? -1 : it->second;
}

void ProbeEnv::add(const std::string& name, std::function<bool()> probe) {
  const auto [it, added] = ids_.emplace(name, static_cast<int>(probes_.size()));
  if (added) {
    probes_.push_back(std::move(probe));
  } else {
    probes_[static_cast<std::size_t>(it->second)] = std::move(probe);
  }
}

}  // namespace la1::core
