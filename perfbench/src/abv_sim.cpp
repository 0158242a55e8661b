// Workload `abv-sim`: paper Table 3 at 4 banks — assertion-based
// verification of the Reading Mode at three simulation levels, each fed by
// seeded read/write traffic:
//
//   csim64  64 streams (seeds s..s+63) through one compiled csim::Machine
//           with OVL monitor logic, one lane per stream — the
//           bench_table3_abv_sim 64-lane loop;
//   interp  stream s through the interpreted RtlDeviceModel, same OVL logic;
//   system  stream s through the BehavioralDeviceModel with compiled (DFA)
//           PSL monitors.
//
// One batch runs all three legs from reset. Leg lengths are chosen so each
// leg takes a similar share of the batch, so a change to any one level
// moves batch_s visibly. Host time is CPU time of the calling thread.
// batch_s adds up each leg's best time in the run, so each leg is taken at
// its own quietest moment of the shared host.
#include <memory>
#include <sstream>

#include "csim/compile.hpp"
#include "csim/machine.hpp"
#include "harness/adapters.hpp"
#include "harness/stimulus.hpp"
#include "la1/rtl_model.hpp"
#include "la1/spec.hpp"
#include "ovl/ovl.hpp"
#include "perf.hpp"
#include "plan/plan.hpp"
#include "psl/monitor.hpp"
#include "psl/parse.hpp"
#include "util/strings.hpp"

namespace la1perf {
namespace {

using namespace la1;

constexpr int kBanks = 4;
constexpr int kAddrBits = 8;
constexpr int kLanes = 64;
/// K cycles per batch on the csim64 (per stream) and interp legs. Equal, so
/// lane 0's end-of-run memory image can be compared with the interpreter's.
constexpr int kRtlCycles = 2000;
/// K cycles per batch on the system leg (about 10x cheaper per cycle).
constexpr int kSystemCycles = 20000;

harness::StimulusStream make_stream(int data_bits, std::uint64_t seed) {
  harness::StimulusOptions so;
  so.banks = kBanks;
  so.mem_addr_bits = kAddrBits - harness::Geometry{kBanks, 0, 0}.bank_bits();
  so.data_bits = data_bits;
  return harness::StimulusStream(so, seed);
}

core::RtlConfig rtl_config() {
  core::RtlConfig cfg;
  cfg.banks = kBanks;
  cfg.data_bits = 16;
  cfg.mem_addr_bits = kAddrBits - cfg.bank_bits();
  return cfg;
}

/// Read-mode OVL monitors as design logic (bench_table3_abv_sim's set):
/// latency and burst per bank plus the bus-exclusivity checker.
void instrument_ovl(rtl::Module& flat, ovl::OvlBank& bank) {
  const rtl::NetId k = flat.find_net("K");
  const rtl::NetId ks = flat.find_net("KS");
  std::vector<rtl::ExprId> enables;
  for (int b = 0; b < kBanks; ++b) {
    const std::string p = "bank" + std::to_string(b) + ".";
    const std::string sb = std::to_string(b);
    ovl::assert_next(flat, bank, "read_latency_b" + sb, ks,
                     flat.ref(p + "read_start_q"),
                     flat.ref(p + "dout_valid_k_q"), 2);
    ovl::assert_implication(flat, bank, "read_burst_b" + sb, ks,
                            flat.ref(p + "dout_valid_k_q"),
                            flat.ref(p + "beat1_pend"));
    enables.push_back(flat.ref(p + "en_q"));
  }
  ovl::assert_zero_one_hot(flat, bank, "exclusive", kBanks > 1 ? ks : k,
                           kBanks > 1 ? flat.concat(enables) : enables.front());
}

/// Read-mode PSL assertions over the behavioural model's probe names.
psl::VUnit read_mode_vunit() {
  psl::VUnit vunit("read_mode");
  for (int b = 0; b < kBanks; ++b) {
    const std::string p = "b" + std::to_string(b) + ".";
    vunit.add_assert("P1_b" + std::to_string(b),
                     psl::parse_property("always (" + p +
                                         "read_start -> next[4] " + p +
                                         "dout_valid_k)"));
    vunit.add_assert("P2_b" + std::to_string(b),
                     psl::parse_property("always (" + p +
                                         "dout_valid_k -> next[1] " + p +
                                         "dout_valid_ks)"));
  }
  vunit.add_assert("P4", psl::parse_property("never {bus_conflict}"));
  return vunit;
}

/// Span names, interned once per tracer.
struct Names {
  int setup, elaborate, instrument, compile, device_build, psl_compile;
  int batch, leg_csim64, leg_interp, leg_system;
  int stimulus, transactor, transpose, bytecode, readback, cyclesim, kernel,
      monitor;

  template <typename T>
  explicit Names(T& t)
      : setup(t.id("abv.setup")),
        elaborate(t.id("la1.elaborate")),
        instrument(t.id("ovl.instrument")),
        compile(t.id("csim.compile")),
        device_build(t.id("harness.device_build")),
        psl_compile(t.id("psl.compile")),
        batch(t.id("abv.batch")),
        leg_csim64(t.id("abv.csim64")),
        leg_interp(t.id("abv.interp")),
        leg_system(t.id("abv.system")),
        stimulus(t.id("harness.stimulus")),
        transactor(t.id("harness.transactor")),
        transpose(t.id("csim.transpose")),
        bytecode(t.id("csim.bytecode")),
        readback(t.id("ovl.readback")),
        cyclesim(t.id("rtl.cyclesim")),
        kernel(t.id("sim.kernel")),
        monitor(t.id("psl.monitor")) {}
};

/// Everything the timed loops need, built through the layers' public calls.
/// Not movable: the OVL banks and the vunit are referenced by address.
struct Setup {
  core::RtlConfig cfg = rtl_config();

  // csim64: the OVL-instrumented flat device, compiled once.
  rtl::Module flat{"flat"};
  ovl::OvlBank csim_ovl;
  std::unique_ptr<csim::Compiled> compiled;
  std::unique_ptr<csim::Machine> machine;
  rtl::NetId k = rtl::kInvalidId, ks = rtl::kInvalidId;
  rtl::NetId r_n = rtl::kInvalidId, w_n = rtl::kInvalidId, a = rtl::kInvalidId,
             d = rtl::kInvalidId, bwe_n = rtl::kInvalidId;
  std::vector<rtl::MemId> srams;
  std::vector<harness::StimulusStream> streams;
  std::vector<harness::Transactor> transactors;

  // interp.
  ovl::OvlBank rtl_ovl;
  std::unique_ptr<harness::RtlDeviceModel> rtl;

  // system.
  std::unique_ptr<harness::BehavioralDeviceModel> beh;
  psl::VUnit vunit{"read_mode"};
  std::unique_ptr<psl::VUnitRunner> monitors;

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
};

template <typename T>
std::unique_ptr<Setup> build(std::uint64_t seed, T& tr, const Names& n) {
  auto s = std::make_unique<Setup>();
  Span<T> root(tr, n.setup);
  {
    Span<T> sp(tr, n.elaborate);
    s->flat = core::build_device(s->cfg).flatten();
  }
  {
    Span<T> sp(tr, n.instrument);
    instrument_ovl(s->flat, s->csim_ovl);
  }
  {
    Span<T> sp(tr, n.compile);
    plan::PlanOptions po;
    po.schedule = core::clock_schedule(s->flat);
    const plan::CompilePlan cp = plan::analyze(s->flat, po);
    s->compiled = std::make_unique<csim::Compiled>(csim::compile(s->flat, cp));
  }
  s->machine = std::make_unique<csim::Machine>(*s->compiled, kLanes);
  s->k = s->flat.find_net("K");
  s->ks = s->flat.find_net("KS");
  s->r_n = s->flat.find_net("R_n");
  s->w_n = s->flat.find_net("W_n");
  s->a = s->flat.find_net("A");
  s->d = s->flat.find_net("D");
  s->bwe_n = s->flat.find_net("BWE_n");
  for (int b = 0; b < kBanks; ++b) {
    const std::string name = "bank" + std::to_string(b) + ".sram";
    for (std::size_t i = 0; i < s->flat.memories().size(); ++i) {
      if (s->flat.memories()[i].name == name) {
        s->srams.push_back(static_cast<rtl::MemId>(i));
      }
    }
  }
  const harness::Geometry geometry =
      make_stream(s->cfg.data_bits, seed).geometry();
  for (int lane = 0; lane < kLanes; ++lane) {
    s->streams.push_back(make_stream(s->cfg.data_bits,
                                     seed + static_cast<std::uint64_t>(lane)));
    s->transactors.emplace_back(geometry);
  }
  {
    Span<T> sp(tr, n.device_build);
    Setup* raw = s.get();
    s->rtl = std::make_unique<harness::RtlDeviceModel>(
        s->cfg, [raw](rtl::Module& m) { instrument_ovl(m, raw->rtl_ovl); });
  }
  {
    Span<T> sp(tr, n.device_build);
    core::Config bcfg;
    bcfg.banks = kBanks;
    bcfg.addr_bits = kAddrBits;
    bcfg.data_bits = s->cfg.data_bits;
    s->beh = std::make_unique<harness::BehavioralDeviceModel>(bcfg);
  }
  {
    Span<T> sp(tr, n.psl_compile);
    s->vunit = read_mode_vunit();
    s->monitors =
        std::make_unique<psl::VUnitRunner>(s->vunit, psl::MonitorBackend::kDfa);
  }
  return s;
}

/// One batch's host times and output observations.
struct BatchResult {
  double csim64_s = 0, interp_s = 0, system_s = 0;
  std::vector<std::size_t> lane_ovl_failures;  // per lane
  std::vector<bool> lane0_fired, interp_fired;
  std::size_t interp_ovl_failures = 0;
  std::size_t psl_failures = 0;
  std::vector<std::uint64_t> lane0_mem, interp_mem;
  std::uint64_t fingerprint = 0;

  double batch_s() const { return csim64_s + interp_s + system_s; }
};

template <typename T>
BatchResult run_batch(Setup& s, std::uint64_t seed, T& tr, const Names& n) {
  BatchResult r;
  Span<T> batch(tr, n.batch);
  const int data_bits = s.cfg.data_bits;

  // --- csim64 ------------------------------------------------------------
  s.machine->reset();
  for (int lane = 0; lane < kLanes; ++lane) {
    s.streams[static_cast<std::size_t>(lane)].reset();
    s.transactors[static_cast<std::size_t>(lane)].reset();
  }
  std::vector<harness::EdgePins> pins(kLanes);
  const auto lane_is_one = [&s](int lane) {
    return [&s, lane](rtl::NetId net) {
      return s.machine->get(net, lane).bit(0) == rtl::Logic::k1;
    };
  };
  double t0 = thread_cpu_s();
  {
    Span<T> leg(tr, n.leg_csim64);
    for (int t = 0; t < 2 * kRtlCycles; ++t) {
      const harness::Edge edge = harness::edge_of_tick(t);
      if (edge == harness::Edge::kK) {
        Span<T> sp(tr, n.stimulus);
        for (int lane = 0; lane < kLanes; ++lane) {
          s.transactors[static_cast<std::size_t>(lane)].enqueue(
              s.streams[static_cast<std::size_t>(lane)].next());
        }
      }
      {
        Span<T> sp(tr, n.transactor);
        for (int lane = 0; lane < kLanes; ++lane) {
          pins[static_cast<std::size_t>(lane)] =
              s.transactors[static_cast<std::size_t>(lane)].next(edge);
        }
      }
      {
        Span<T> sp(tr, n.transpose);
        for (int lane = 0; lane < kLanes; ++lane) {
          const harness::EdgePins& p = pins[static_cast<std::size_t>(lane)];
          s.machine->set_input_lane_uint(s.r_n, lane, p.r_sel_n ? 1 : 0);
          s.machine->set_input_lane_uint(s.w_n, lane, p.w_sel_n ? 1 : 0);
          s.machine->set_input_lane_uint(s.a, lane, p.addr);
          s.machine->set_input_lane_uint(
              s.d, lane, core::pack_beat(p.din_data, data_bits));
          s.machine->set_input_lane_uint(s.bwe_n, lane, p.bwe_n);
        }
      }
      {
        Span<T> sp(tr, n.bytecode);
        s.machine->edge(edge == harness::Edge::kK ? s.k : s.ks,
                        rtl::Edge::kPos);
      }
    }
    Span<T> sp(tr, n.readback);
    for (int lane = 0; lane < kLanes; ++lane) {
      r.lane_ovl_failures.push_back(s.csim_ovl.failures(lane_is_one(lane)));
    }
  }
  r.csim64_s = thread_cpu_s() - t0;

  // --- interp --------------------------------------------------------------
  s.rtl->reset();
  harness::StimulusStream interp_stream = make_stream(data_bits, seed);
  harness::Transactor interp_tx(interp_stream.geometry());
  t0 = thread_cpu_s();
  {
    Span<T> leg(tr, n.leg_interp);
    for (int t = 0; t < 2 * kRtlCycles; ++t) {
      const harness::Edge edge = harness::edge_of_tick(t);
      if (edge == harness::Edge::kK) {
        Span<T> sp(tr, n.stimulus);
        interp_tx.enqueue(interp_stream.next());
      }
      harness::EdgePins p;
      {
        Span<T> sp(tr, n.transactor);
        p = interp_tx.next(edge);
      }
      Span<T> sp(tr, n.cyclesim);
      s.rtl->apply_edge(p);
    }
  }
  r.interp_s = thread_cpu_s() - t0;

  // --- system --------------------------------------------------------------
  s.beh->reset();
  s.monitors->reset();
  const core::ProbeEnv& env = s.beh->env();
  harness::StimulusStream sys_stream = make_stream(data_bits, seed);
  harness::Transactor sys_tx(sys_stream.geometry());
  t0 = thread_cpu_s();
  {
    Span<T> leg(tr, n.leg_system);
    for (int t = 0; t < 2 * kSystemCycles; ++t) {
      const harness::Edge edge = harness::edge_of_tick(t);
      if (edge == harness::Edge::kK) {
        Span<T> sp(tr, n.stimulus);
        sys_tx.enqueue(sys_stream.next());
      }
      harness::EdgePins p;
      {
        Span<T> sp(tr, n.transactor);
        p = sys_tx.next(edge);
      }
      {
        Span<T> sp(tr, n.kernel);
        s.beh->apply_edge(p);
      }
      Span<T> sp(tr, n.monitor);
      s.monitors->step(env);
    }
  }
  r.system_s = thread_cpu_s() - t0;

  // --- observations (untimed) ----------------------------------------------
  const auto rtl_is_one = [&s](rtl::NetId net) {
    return s.rtl->sim().get(net).bit(0) == rtl::Logic::k1;
  };
  r.interp_ovl_failures = s.rtl_ovl.failures(rtl_is_one);
  for (std::size_t i = 0; i < s.csim_ovl.entries().size(); ++i) {
    r.lane0_fired.push_back(s.csim_ovl.fired(lane_is_one(0), i));
  }
  for (std::size_t i = 0; i < s.rtl_ovl.entries().size(); ++i) {
    r.interp_fired.push_back(s.rtl_ovl.fired(rtl_is_one, i));
  }
  r.psl_failures = s.monitors->failures();

  std::ostringstream fp;
  const std::uint64_t depth = 1ull << s.cfg.mem_addr_bits;
  for (int b = 0; b < kBanks; ++b) {
    for (std::uint64_t addr = 0; addr < depth; ++addr) {
      const auto lane0 = s.machine->mem_word(
          s.srams[static_cast<std::size_t>(b)], addr, 0).to_uint();
      r.lane0_mem.push_back(lane0.value_or(~0ull));
      r.interp_mem.push_back(s.rtl->memory_word(b, addr));
    }
  }
  for (int lane = 0; lane < kLanes; ++lane) {
    fp << "lane" << lane << ':' << r.lane_ovl_failures[static_cast<std::size_t>(lane)];
    for (int b = 0; b < kBanks; ++b) {
      for (std::uint64_t addr = 0; addr < depth; ++addr) {
        const auto w = s.machine->mem_word(
            s.srams[static_cast<std::size_t>(b)], addr, lane).to_uint();
        fp << ',' << (w ? std::to_string(*w) : "x");
      }
    }
    fp << ';';
  }
  fp << "interp_ovl:" << r.interp_ovl_failures << ";psl:" << r.psl_failures
     << ";system_mem:";
  for (int b = 0; b < kBanks; ++b) {
    for (std::uint64_t addr = 0; addr < depth; ++addr) {
      fp << s.beh->memory_word(b, addr) << ',';
    }
  }
  r.fingerprint = util::fnv1a64(fp.str());
  return r;
}

/// Output checks of one batch; returns true when every check passed.
bool check_batch(const BatchResult& r, Outcome& out, int rep) {
  const std::string at = " (repetition " + std::to_string(rep) + ")";
  std::size_t lane_failures = 0;
  for (std::size_t f : r.lane_ovl_failures) lane_failures += f;
  const std::size_t before = out.errors.size();
  out.check(lane_failures == 0, "csim64: OVL monitors fired" + at);
  out.check(r.interp_ovl_failures == 0, "interp: OVL monitors fired" + at);
  out.check(r.psl_failures == 0, "system: PSL monitors failed" + at);
  out.check(r.lane0_fired == r.interp_fired,
            "OVL verdicts of csim lane 0 differ from the interpreter" + at);
  out.check(r.lane0_mem == r.interp_mem,
            "memory image of csim lane 0 differs from the interpreter" + at);
  return out.errors.size() == before;
}

struct Series {
  std::vector<double> setup_s, batch_s, csim64_s, interp_s, system_s,
      csim64_rate, interp_rate, system_rate;
  std::vector<std::uint64_t> fingerprints;
};

/// `seconds` of untraced repetitions (set-up rebuilt into `s`, then one
/// batch), checking each batch.
Series untraced_batches(std::unique_ptr<Setup>& s, const RunOptions& opt,
                        double seconds, int min_reps, Outcome& out) {
  NoTrace off;
  const Names n(off);
  Series series;
  const auto rebuild = [&] {
    s.reset();
    s = build(opt.seed, off, n);
  };
  series.setup_s = interleave(seconds, min_reps, rebuild, [&](int rep) {
    const BatchResult r = run_batch(*s, opt.seed, off, n);
    // One operation per stream run: 64 csim64 streams, interp, system.
    out.attempted += kLanes + 2;
    if (!check_batch(r, out, rep)) out.failed += 1;
    series.batch_s.push_back(r.batch_s());
    series.csim64_s.push_back(r.csim64_s);
    series.interp_s.push_back(r.interp_s);
    series.system_s.push_back(r.system_s);
    series.csim64_rate.push_back(kLanes * static_cast<double>(kRtlCycles) /
                                 r.csim64_s);
    series.interp_rate.push_back(kRtlCycles / r.interp_s);
    series.system_rate.push_back(kSystemCycles / r.system_s);
    series.fingerprints.push_back(r.fingerprint);
    return r.batch_s();
  });
  for (std::uint64_t f : series.fingerprints) {
    out.check(f == series.fingerprints.front(),
              "abv-sim fingerprint differs between repetitions");
  }
  return series;
}

void describe(const Series& series, Outcome& out) {
  out.detail.set("csim64_stream_cycles_per_s",
                 summarize(series.csim64_rate, "1/s"));
  out.detail.set("interp_cycles_per_s", summarize(series.interp_rate, "1/s"));
  out.detail.set("system_cycles_per_s", summarize(series.system_rate, "1/s"));
  out.detail.set("batch_s", summarize(series.batch_s, "s"));
  out.detail.set("setup_s", summarize(series.setup_s, "s"));
  out.detail.set("fingerprint", hex(series.fingerprints.front()));
  out.detail.set("rtl_cycles_per_batch", kRtlCycles);
  out.detail.set("system_cycles_per_batch", kSystemCycles);
}

}  // namespace

Outcome run_abv_sim(const RunOptions& opt) {
  Outcome out;
  std::unique_ptr<Setup> s;
  const Series series = untraced_batches(s, opt, opt.seconds, 3, out);
  out.metrics["setup_s"] = setup_estimate(series.setup_s);
  out.metrics["batch_s"] =
      best(series.csim64_s) + best(series.interp_s) + best(series.system_s);
  describe(series, out);
  return out;
}

Outcome trace_abv_sim(const RunOptions& opt, Tracer& tracer) {
  Outcome out;
  std::unique_ptr<Setup> s;
  const Series base = untraced_batches(s, opt, opt.seconds, 3, out);
  describe(base, out);

  const Names n(tracer);
  tracer.begin_group("abv-sim/setup");
  s = build(opt.seed, tracer, n);
  // Each traced batch is paired with an untraced one just before it, so the
  // overhead ratio is taken within one host-load mode.
  NoTrace off;
  const Names n_off(off);
  constexpr int kTracedReps = 3;
  std::vector<double> overhead;
  for (int rep = 0; rep < kTracedReps; ++rep) {
    const double plain_s = run_batch(*s, opt.seed, off, n_off).batch_s();
    tracer.begin_group("abv-sim/rep" + std::to_string(rep));
    const BatchResult r = run_batch(*s, opt.seed, tracer, n);
    out.attempted += kLanes + 2;
    if (!check_batch(r, out, rep)) out.failed += 1;
    out.check(r.fingerprint == base.fingerprints.front(),
              "abv-sim traced fingerprint differs from the untraced one");
    overhead.push_back(r.batch_s() / plain_s - 1.0);
  }

  const auto per = [&](const char* name, double ops, double scale) {
    return tracer.self_total_ns(name, "abv-sim/rep") / ops / scale;
  };
  const double reps = kTracedReps;
  const double rtl_edges = reps * 2 * kRtlCycles;
  const double sys_edges = reps * 2 * kSystemCycles;
  const double transactions =
      reps * (kLanes * static_cast<double>(kRtlCycles) + kRtlCycles +
              kSystemCycles);
  const double edge_lanes = reps * 2 *
      (kLanes * static_cast<double>(kRtlCycles) + kRtlCycles + kSystemCycles);
  auto& m = out.metrics;
  m["harness.stimulus_ns"] = per("harness.stimulus", transactions, 1);
  m["harness.transactor_ns"] = per("harness.transactor", edge_lanes, 1);
  m["csim.transpose_ns"] = per("csim.transpose", rtl_edges, 1);
  m["csim.bytecode_ns"] = per("csim.bytecode", rtl_edges, 1);
  m["ovl.readback_us"] = per("ovl.readback", reps, 1e3);
  m["rtl.cyclesim_ns"] = per("rtl.cyclesim", rtl_edges, 1);
  m["sim.kernel_ns"] = per("sim.kernel", sys_edges, 1);
  m["psl.monitor_ns"] = per("psl.monitor", sys_edges, 1);
  m["csim.compile_ms"] = tracer.self_total_ns("csim.compile", "abv-sim/setup") / 1e6;
  m["la1.elaborate_ms"] =
      tracer.self_total_ns("la1.elaborate", "abv-sim/setup") / 1e6;
  m["csim.instructions"] = static_cast<double>(s->compiled->total_instructions());
  m["csim.slots"] = s->compiled->slot_count();
  m["csim64_stream_cycles_per_s"] = highest(base.csim64_rate);
  m["interp_cycles_per_s"] = highest(base.interp_rate);
  m["system_cycles_per_s"] = highest(base.system_rate);
  m["trace.overhead_abv-sim_pct"] = 100.0 * median(overhead);
  return out;
}

}  // namespace la1perf
