#include "la1/asm_model.hpp"

#include "la1/properties.hpp"
#include "la1/spec.hpp"
#include "util/strings.hpp"

namespace la1::core {

namespace {

using asml::Args;
using asml::ArgDomain;
using asml::Rule;
using asml::State;
using asml::UpdateSet;
using asml::Value;

std::string bank_loc(int b, const char* name) {
  return util::cat({"b", std::to_string(b), ".", name});
}

ArgDomain bool_domain(std::string name) {
  return ArgDomain{std::move(name), {Value(false), Value(true)}};
}

ArgDomain int_domain(std::string name, int count) {
  ArgDomain d;
  d.name = std::move(name);
  for (int v = 0; v < count; ++v) d.values.emplace_back(v);
  return d;
}

}  // namespace

asml::Machine build_asm_model(const AsmConfig& cfg) {
  asml::Machine machine("LA1_ASM_" + std::to_string(cfg.banks) + "banks");
  State& init = machine.initial();

  // SimManager (Figure 4).
  init.set("SystemFlag", Value::symbol("CREATED"));
  init.set("SimStatus", Value::symbol("INIT"));
  init.set("m_k", Value::symbol("CLK_DOWN"));
  init.set("m_ks", Value::symbol("CLK_UP"));
  init.set("NextEdge", Value::symbol("K"));

  // Global write port (shared bus; the target bank is known only once the
  // address arrives at K#).
  init.set("wp.b0_taken", Value(false));
  init.set("wp.beat0", Value(0));
  init.set("wp.ready", Value(false));
  init.set("wp.bank", Value(0));
  init.set("wp.addr", Value(0));
  init.set("wp.beat1", Value(0));
  init.set("write_start", Value(false));
  init.set("addr_captured", Value(false));
  init.set("write_commit", Value(false));
  init.set("bus_conflict", Value(false));

  for (int b = 0; b < cfg.banks; ++b) {
    init.set(bank_loc(b, "rp.stage0"), Value(false));
    init.set(bank_loc(b, "rp.addr0"), Value(0));
    init.set(bank_loc(b, "rp.stage1"), Value(false));
    init.set(bank_loc(b, "rp.word"), Value(0));
    init.set(bank_loc(b, "rp.beat1_pending"), Value(false));
    init.set(bank_loc(b, "read_start"), Value(false));
    init.set(bank_loc(b, "fetch"), Value(false));
    init.set(bank_loc(b, "dout_valid_k"), Value(false));
    init.set(bank_loc(b, "dout_valid_ks"), Value(false));
    init.set(bank_loc(b, "driving"), Value(false));
    init.set(bank_loc(b, "dout_spurious"), Value(false));
    for (int w = 0; w < cfg.mem_depth(); ++w) {
      init.set(bank_loc(b, ("mem" + std::to_string(w)).c_str()), Value(0));
    }
  }

  // --- lifecycle rules --------------------------------------------------
  {
    Rule r;
    r.name = "SystemStart";
    r.require = [](const State& s, const Args&) {
      return s.get_symbol("SystemFlag") == "CREATED";
    };
    r.update = [](const State&, const Args&, UpdateSet& u) {
      u.set("SystemFlag", Value::symbol("STARTED"));
    };
    machine.add_rule(std::move(r));
  }
  {
    // SimManager_Init (Figure 4): runs once after every module is
    // initialized; raises the clocks and enters property checking.
    Rule r;
    r.name = "SimManager_Init";
    r.require = [](const State& s, const Args&) {
      return s.get_symbol("SystemFlag") == "STARTED" &&
             s.get_symbol("SimStatus") == "INIT";
    };
    r.update = [](const State&, const Args&, UpdateSet& u) {
      u.set("m_k", Value::symbol("CLK_UP"));
      u.set("m_ks", Value::symbol("CLK_DOWN"));
      u.set("SimStatus", Value::symbol("CHECKING_PROP"));
    };
    machine.add_rule(std::move(r));
  }
  {
    // SimManager_Restart (Figure 4); STOPPED is only entered by external
    // drivers, so the rule is present for fidelity and inert by default.
    Rule r;
    r.name = "SimManager_Restart";
    r.require = [](const State& s, const Args&) {
      return s.get_symbol("SystemFlag") == "STARTED" &&
             s.get_symbol("SimStatus") == "STOPPED";
    };
    r.update = [](const State&, const Args&, UpdateSet& u) {
      u.set("SimStatus", Value::symbol("INIT"));
    };
    machine.add_rule(std::move(r));
  }

  // --- rising K ---------------------------------------------------------
  {
    Rule r;
    r.name = "TickK";
    r.params = {bool_domain("read_req"), int_domain("read_addr", cfg.addr_space()),
                bool_domain("write_req"), int_domain("write_data", cfg.data_values)};
    r.require = [](const State& s, const Args&) {
      return s.get_symbol("SimStatus") == "CHECKING_PROP" &&
             s.get_symbol("NextEdge") == "K";
    };
    const AsmConfig c = cfg;
    r.update = [c](const State& s, const Args& a, UpdateSet& u) {
      const bool read_req = a[0].as_bool();
      const int read_addr = static_cast<int>(a[1].as_int());
      const bool write_req = a[2].as_bool();
      const int write_data = static_cast<int>(a[3].as_int());

      u.set("NextEdge", Value::symbol("KS"));
      u.set("m_k", Value::symbol("CLK_UP"));
      u.set("m_ks", Value::symbol("CLK_DOWN"));

      int drivers = 0;
      for (int b = 0; b < c.banks; ++b) {
        // Stage 2: drive the first beat of the fetched word.
        const bool drive = s.get_bool(bank_loc(b, "rp.stage1"));
        u.set(bank_loc(b, "dout_valid_k"), Value(drive));
        u.set(bank_loc(b, "driving"), Value(drive));
        u.set(bank_loc(b, "rp.beat1_pending"), Value(drive));
        if (drive) ++drivers;

        // Stage 1: SRAM fetch for last cycle's capture.
        const bool fetch = s.get_bool(bank_loc(b, "rp.stage0"));
        u.set(bank_loc(b, "rp.stage1"), Value(fetch));
        u.set(bank_loc(b, "fetch"), Value(fetch));
        if (fetch) {
          const int addr = static_cast<int>(s.get_int(bank_loc(b, "rp.addr0")));
          u.set(bank_loc(b, "rp.word"),
                s.get(bank_loc(b, ("mem" + std::to_string(addr)).c_str())));
        }

        // Stage 0: capture a new request.
        const bool sel = read_req && c.bank_of(read_addr) == b;
        u.set(bank_loc(b, "rp.stage0"), Value(sel));
        u.set(bank_loc(b, "read_start"), Value(sel));
        if (sel) u.set(bank_loc(b, "rp.addr0"), Value(c.mem_addr_of(read_addr)));

        // K# taps expire.
        u.set(bank_loc(b, "dout_valid_ks"), Value(false));
      }
      u.set("bus_conflict", Value(drivers >= 2));

      // Write port: beat 0 capture at K.
      u.set("write_start", Value(write_req));
      u.set("wp.b0_taken", Value(write_req));
      if (write_req) u.set("wp.beat0", Value(write_data));

      // Commit the write completed at the previous K#.
      const bool ready = s.get_bool("wp.ready");
      u.set("write_commit", Value(ready));
      if (ready) {
        const int bank = static_cast<int>(s.get_int("wp.bank"));
        const int addr = static_cast<int>(s.get_int("wp.addr"));
        const int word = static_cast<int>(s.get_int("wp.beat0")) +
                         c.data_values * static_cast<int>(s.get_int("wp.beat1"));
        u.set(bank_loc(bank, ("mem" + std::to_string(addr)).c_str()), Value(word));
        u.set("wp.ready", Value(false));
      }
      u.set("addr_captured", Value(false));
    };
    machine.add_rule(std::move(r));
  }

  // --- rising K# ---------------------------------------------------------
  {
    Rule r;
    r.name = "TickKs";
    r.params = {int_domain("write_addr", cfg.addr_space()),
                int_domain("write_beat1", cfg.data_values)};
    r.require = [](const State& s, const Args&) {
      return s.get_symbol("SimStatus") == "CHECKING_PROP" &&
             s.get_symbol("NextEdge") == "KS";
    };
    const AsmConfig c = cfg;
    r.update = [c](const State& s, const Args& a, UpdateSet& u) {
      const int write_addr = static_cast<int>(a[0].as_int());
      const int write_beat1 = static_cast<int>(a[1].as_int());

      u.set("NextEdge", Value::symbol("K"));
      u.set("m_k", Value::symbol("CLK_DOWN"));
      u.set("m_ks", Value::symbol("CLK_UP"));

      int drivers = 0;
      for (int b = 0; b < c.banks; ++b) {
        const bool beat1 = s.get_bool(bank_loc(b, "rp.beat1_pending"));
        u.set(bank_loc(b, "dout_valid_ks"), Value(beat1));
        u.set(bank_loc(b, "driving"), Value(beat1));
        u.set(bank_loc(b, "rp.beat1_pending"), Value(false));
        if (beat1) ++drivers;

        // K taps expire.
        u.set(bank_loc(b, "read_start"), Value(false));
        u.set(bank_loc(b, "fetch"), Value(false));
        u.set(bank_loc(b, "dout_valid_k"), Value(false));
      }
      u.set("bus_conflict", Value(drivers >= 2));

      // Write address + high beat at K#.
      const bool b0 = s.get_bool("wp.b0_taken");
      u.set("addr_captured", Value(b0));
      if (b0) {
        u.set("wp.bank", Value(c.bank_of(write_addr)));
        u.set("wp.addr", Value(c.mem_addr_of(write_addr)));
        u.set("wp.beat1", Value(write_beat1));
        u.set("wp.ready", Value(true));
        u.set("wp.b0_taken", Value(false));
      }
      u.set("write_start", Value(false));
      u.set("write_commit", Value(false));
    };
    machine.add_rule(std::move(r));
  }

  return machine;
}

std::vector<std::pair<std::string, psl::PropPtr>> asm_properties(
    const AsmConfig& cfg) {
  return level_suite(Level::kAsm, cfg.banks, kReadLatencyTicks);
}

}  // namespace la1::core
