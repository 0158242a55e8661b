// Workload `mc-table2`: BDD model checking on the bit-blasted RTL.
//
//   readmode  paper Table 2 row 1 — the read-mode property on the
//             unreduced 1-bank RTL (cone_of_influence = false, the RuleBase
//             configuration), 2M-node budget as bench_table2_symbolic_mc;
//   suite     the full core::rtl_properties suite at 4 banks under use_coi,
//             with dfa::sweep run beforehand and its invariants passed in.
//
// The read-mode check reaches its fixpoint at iteration 9 after ~2.2 s of
// CPU, 1.8 s of it in the last two iterations. A run holds too few such
// units for its best to land in a quiet stretch of the shared host, so the
// timed batch runs the same check capped at kBoundedIterations image steps
// (~0.4 s, ~318k peak nodes: still the giant-BDD regime) plus kSuiteRounds
// rounds of the suite. The full check runs once per run before timing: its
// verdict, iteration count and peak node count are checked, and its CPU time
// is the report's (and the traced run's) mc_readmode_cpu_s.
//
// The seed drives the sweep's signature simulation (which invariants are
// found, and so the size of each semantic cone); the read-mode check does
// not depend on it. Host time is CPU time of the calling thread.
// Bit-blasting and the sweep are set-up.
#include <memory>

#include "dfa/sweep.hpp"
#include "la1/rtl_model.hpp"
#include "mc/symbolic.hpp"
#include "perf.hpp"
#include "rtl/bitblast.hpp"

namespace la1perf {
namespace {

using namespace la1;

constexpr int kSuiteBanks = 4;
constexpr std::uint64_t kReadModeNodeLimit = 2'000'000;
/// Image steps of the read-mode check inside the timed batch.
constexpr int kBoundedIterations = 7;
/// One round of the 4-bank suite under COI takes ~8 ms; this many rounds
/// make small-BDD cost (fresh managers, tiny cones) about a sixth of
/// batch_s.
constexpr int kSuiteRounds = 10;

struct Names {
  int setup, elaborate, bitblast, sweep, batch, check;

  template <typename T>
  explicit Names(T& t)
      : setup(t.id("mc.setup")),
        elaborate(t.id("la1.elaborate")),
        bitblast(t.id("rtl.bitblast")),
        sweep(t.id("dfa.sweep")),
        batch(t.id("mc.batch")),
        check(t.id("mc.check")) {}
};

struct Setup {
  rtl::BitBlast readmode_bb;
  psl::PropPtr readmode_prop;
  rtl::BitBlast suite_bb;
  std::vector<std::pair<std::string, psl::PropPtr>> suite;
  dfa::InvariantSet invariants;
};

template <typename T>
rtl::BitBlast blast(const core::RtlConfig& cfg, T& tr, const Names& n) {
  rtl::Module flat("flat");
  {
    Span<T> sp(tr, n.elaborate);
    flat = core::build_device(cfg).flatten();
  }
  Span<T> sp(tr, n.bitblast);
  return rtl::bitblast(rtl::expand_memories(flat), core::clock_schedule(flat));
}

template <typename T>
std::unique_ptr<Setup> build(std::uint64_t seed, T& tr, const Names& n) {
  auto s = std::make_unique<Setup>();
  Span<T> root(tr, n.setup);
  const core::RtlConfig one = core::RtlConfig::model_checking(1);
  const core::RtlConfig four = core::RtlConfig::model_checking(kSuiteBanks);
  s->readmode_bb = blast(one, tr, n);
  s->readmode_prop = core::rtl_read_mode_property(one);
  s->suite_bb = blast(four, tr, n);
  s->suite = core::rtl_properties(four);
  Span<T> sp(tr, n.sweep);
  dfa::SweepOptions so;
  so.seed = seed;
  s->invariants = dfa::sweep(s->suite_bb, so);
  return s;
}

/// The read-mode check; `max_iterations` 0 runs it to its fixpoint.
mc::SymbolicResult check_readmode(const Setup& s, int max_iterations,
                                  double& cpu_s) {
  mc::SymbolicOptions ro;
  ro.node_limit = kReadModeNodeLimit;
  ro.cone_of_influence = false;
  ro.max_iterations = max_iterations;
  const double t0 = thread_cpu_s();
  mc::SymbolicResult r = mc::check(s.readmode_bb, s.readmode_prop, ro);
  cpu_s = thread_cpu_s() - t0;
  return r;
}

/// Table 2 row 1 to its fixpoint, checked: one operation.
struct FullCheck {
  mc::SymbolicResult result;
  double cpu_s = 0;
};

FullCheck full_readmode(const Setup& s, Outcome& out) {
  FullCheck f;
  f.result = check_readmode(s, 0, f.cpu_s);
  out.attempted += 1;
  if (f.result.verdict.kind != mc::Verdict::Kind::kProven) {
    out.failed += 1;
    out.errors.push_back("read-mode verdict is " +
                         std::string(mc::to_string(f.result.verdict.kind)));
  }
  return f;
}

struct BatchResult {
  double bounded_s = 0, suite_s = 0;
  mc::SymbolicResult bounded;
  int suite_checks = 0, suite_proven = 0;
  int state_bits = 0, input_bits = 0;
};

template <typename T>
BatchResult run_batch(const Setup& s, T& tr, const Names& n) {
  BatchResult r;
  Span<T> batch(tr, n.batch);
  {
    Span<T> sp(tr, n.check);
    r.bounded = check_readmode(s, kBoundedIterations, r.bounded_s);
  }

  mc::SymbolicOptions so;
  so.use_coi = true;
  so.invariants = &s.invariants;
  const double t0 = thread_cpu_s();
  for (int round = 0; round < kSuiteRounds; ++round) {
    for (const auto& [name, prop] : s.suite) {
      Span<T> sp(tr, n.check);
      const mc::SymbolicResult sr = mc::check(s.suite_bb, prop, so);
      ++r.suite_checks;
      if (sr.verdict.kind == mc::Verdict::Kind::kProven) ++r.suite_proven;
      if (round == 0) {
        r.state_bits += sr.state_bits;
        r.input_bits += sr.input_bits;
      }
    }
  }
  r.suite_s = thread_cpu_s() - t0;
  return r;
}

/// Counts one batch's checks and checks their verdicts: the bounded
/// read-mode check must pass its bound at exactly kBoundedIterations, every
/// suite property must be Proven.
void check_batch(const BatchResult& r, const std::string& at, Outcome& out) {
  const bool bounded_ok =
      r.bounded.verdict.kind == mc::Verdict::Kind::kBoundedPass &&
      r.bounded.iterations == kBoundedIterations;
  out.attempted += 1 + r.suite_checks;
  out.failed += (bounded_ok ? 0 : 1) + (r.suite_checks - r.suite_proven);
  out.check(bounded_ok, "bounded read-mode check: " +
                            std::string(mc::to_string(r.bounded.verdict.kind)) +
                            " after " + std::to_string(r.bounded.iterations) +
                            " iterations" + at);
  out.check(r.suite_proven == r.suite_checks,
            std::to_string(r.suite_checks - r.suite_proven) +
                " suite properties not proven" + at);
}

struct Series {
  std::vector<double> setup_s, batch_s, bounded_s, suite_s;
  BatchResult first;
};

/// `seconds` of untraced repetitions (set-up rebuilt into `s`, then one
/// batch), checking each batch.
Series untraced_batches(std::unique_ptr<Setup>& s, std::uint64_t seed,
                        double seconds, int min_reps, Outcome& out) {
  NoTrace off;
  const Names n(off);
  Series series;
  const auto rebuild = [&] {
    s.reset();
    s = build(seed, off, n);
  };
  series.setup_s = interleave(seconds, min_reps, rebuild, [&](int rep) {
    const BatchResult r = run_batch(*s, off, n);
    check_batch(r, " (repetition " + std::to_string(rep) + ")", out);
    if (rep == 0) {
      series.first = r;
    } else {
      out.check(r.bounded.peak_bdd_nodes == series.first.bounded.peak_bdd_nodes,
                "bounded read-mode peak BDD nodes differ between repetitions");
      out.check(r.state_bits == series.first.state_bits &&
                    r.input_bits == series.first.input_bits,
                "suite encoding size differs between repetitions");
    }
    series.batch_s.push_back(r.bounded_s + r.suite_s);
    series.bounded_s.push_back(r.bounded_s);
    series.suite_s.push_back(r.suite_s);
    return r.bounded_s + r.suite_s;
  });
  return series;
}

/// Full check first (the Table 2 row 1 figures, and a warm-up), then the
/// timed batches.
Series measure(std::unique_ptr<Setup>& s, const RunOptions& opt, int min_reps,
               FullCheck& full, Outcome& out) {
  NoTrace off;
  s = build(opt.seed, off, Names(off));
  full = full_readmode(*s, out);
  return untraced_batches(s, opt.seed, opt.seconds, min_reps, out);
}

void describe(const Series& series, const FullCheck& full, Outcome& out) {
  out.detail.set("mc_readmode_cpu_s", full.cpu_s);
  out.detail.set("mc_peak_bdd_nodes",
                 static_cast<std::int64_t>(full.result.peak_bdd_nodes));
  out.detail.set("mc_iterations", full.result.iterations);
  out.detail.set("bounded_readmode_cpu_s", summarize(series.bounded_s, "s"));
  out.detail.set("bounded_readmode_iterations", kBoundedIterations);
  out.detail.set("bounded_readmode_peak_bdd_nodes",
                 static_cast<std::int64_t>(series.first.bounded.peak_bdd_nodes));
  out.detail.set("mc_suite_cpu_s", summarize(series.suite_s, "s"));
  out.detail.set("suite_checks_per_batch", series.first.suite_checks);
  out.detail.set("suite_rounds", kSuiteRounds);
  out.detail.set("batch_s", summarize(series.batch_s, "s"));
  out.detail.set("setup_s", summarize(series.setup_s, "s"));
}

}  // namespace

Outcome run_mc_table2(const RunOptions& opt) {
  Outcome out;
  std::unique_ptr<Setup> s;
  FullCheck full;
  const Series series = measure(s, opt, 3, full, out);
  out.metrics["setup_s"] = setup_estimate(series.setup_s);
  out.metrics["batch_s"] = best(series.bounded_s) + best(series.suite_s);
  out.detail.set("invariants", static_cast<std::int64_t>(s->invariants.size()));
  describe(series, full, out);
  return out;
}

Outcome trace_mc_table2(const RunOptions& opt, Tracer& tracer) {
  Outcome out;
  std::unique_ptr<Setup> s;
  FullCheck full;
  const Series base = measure(s, opt, 2, full, out);
  describe(base, full, out);

  const Names n(tracer);
  tracer.begin_group("mc-table2/setup");
  s = build(opt.seed, tracer, n);
  // The traced batch is paired with an untraced one just before it, so the
  // overhead ratio is taken within one host-load mode.
  NoTrace off;
  const BatchResult plain = run_batch(*s, off, Names(off));
  tracer.begin_group("mc-table2/rep0");
  const BatchResult r = run_batch(*s, tracer, n);
  check_batch(r, " (traced)", out);
  out.check(r.bounded.peak_bdd_nodes == base.first.bounded.peak_bdd_nodes,
            "traced bounded read-mode check differs from the untraced one");

  const mc::SymbolicResult& rm = full.result;
  auto& m = out.metrics;
  m["mc.iterations"] = rm.iterations;
  m["mc.cpu_s_per_iteration"] = full.cpu_s / rm.iterations;
  m["bdd.created_nodes"] = static_cast<double>(rm.created_bdd_nodes);
  m["bdd.memory_mb"] = rm.memory_mb;
  m["bdd.ns_per_created_node"] =
      full.cpu_s * 1e9 / static_cast<double>(rm.created_bdd_nodes);
  m["mc.state_bits"] = base.first.state_bits;
  m["mc.input_bits"] = base.first.input_bits;
  m["rtl.bitblast_ms"] =
      tracer.self_total_ns("rtl.bitblast", "mc-table2/setup") / 1e6;
  m["dfa.sweep_ms"] = tracer.self_total_ns("dfa.sweep", "mc-table2/setup") / 1e6;
  m["mc_readmode_cpu_s"] = full.cpu_s;
  m["mc_suite_cpu_s"] = best(base.suite_s) / kSuiteRounds;
  m["mc_peak_bdd_nodes"] = static_cast<double>(rm.peak_bdd_nodes);
  m["trace.overhead_mc-table2_pct"] =
      100.0 * ((r.bounded_s + r.suite_s) / (plain.bounded_s + plain.suite_s) -
               1.0);
  return out;
}

}  // namespace la1perf
