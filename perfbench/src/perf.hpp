// Shared machinery of the la1kit benchmark: clocks, the span tracer, the
// statistics helpers and the per-workload result record.
//
// Tracing is a template policy. Every workload loop is written once against
// a tracer type `T` and instantiated twice: with NoTrace (the untraced run
// that the end-to-end metrics come from, where every span call compiles to
// nothing) and with Tracer (the traced run behind the per-layer metrics).
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace la1perf {

namespace util = la1::util;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds of the calling thread (CLOCK_THREAD_CPUTIME_ID).
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double wall_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// One recorded span: a call into a layer's public function, timed from
/// the benchmark's side of the boundary.
struct SpanRecord {
  int name = 0;     // index into Tracer::names()
  int parent = -1;  // index of the enclosing span, -1 at the root
  int group = 0;    // index into Tracer::groups(): one (workload, repetition)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder. Spans nest through an explicit stack, so each
/// record carries its parent; self time is derived after the run.
class Tracer {
 public:
  /// Interns a span name; call outside hot loops.
  int id(const std::string& name);
  /// Starts a (workload, repetition) group; spans opened afterwards belong
  /// to it.
  void begin_group(const std::string& label);

  int open(int name) {
    const int index = static_cast<int>(spans_.size());
    SpanRecord s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.group = static_cast<int>(groups_.size()) - 1;
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(index);
    return index;
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<std::string>& groups() const { return groups_; }

  /// Self time per span: duration minus the time its children cover.
  std::vector<std::int64_t> self_ns() const;
  /// Total self time of every span named `name` whose group label starts
  /// with `group_prefix`.
  double self_total_ns(const std::string& name,
                       const std::string& group_prefix) const;

  /// Writes the group and name tables as "# group <id> <label>" and
  /// "# name <id> <name>" lines, then every span as one TSV row (index,
  /// parent, group id, name id, start, end, self; nanoseconds from the
  /// first span) to `path`. Returns false when the file cannot be written.
  bool write_tsv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::string> groups_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  mutable std::vector<std::int64_t> self_cache_;
};

/// The untraced policy: same interface, no work.
struct NoTrace {
  int id(const std::string&) { return 0; }
  void begin_group(const std::string&) {}
  int open(int) { return 0; }
  void close(int) {}
};

/// RAII span.
template <typename T>
class Span {
 public:
  Span(T& tracer, int name) : tracer_(tracer), index_(tracer.open(name)) {}
  ~Span() { tracer_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  T& tracer_;
  int index_;
};

// --- statistics ----------------------------------------------------------

double median(std::vector<double> v);

/// 16 hex digits, for report hashes and fingerprints.
std::string hex(std::uint64_t v);

/// A run's estimate of a host time: its best (smallest) repetition. The
/// shared 4-core host switches between a quiet and a contended mode that
/// is ~1.5x slower for seconds at a time, so a run's median lands anywhere
/// between the two while its best repetition stays at the quiet-mode cost.
/// The report keeps the median, quartiles and tail beside it.
double best(const std::vector<double>& v);
/// A run's estimate of set-up time: the 5th percentile of its builds, which
/// number in the hundreds to thousands per run. Not the best: one
/// sub-millisecond thread-CPU sample in ~40,000 read exactly 0. Not the
/// median: it follows the host's load over the run, and moved abv-sim's
/// setup_s by 41% between two sets of ten runs where the best moved by 2%.
double setup_estimate(const std::vector<double>& v);
/// The same for a rate: the highest repetition.
double highest(const std::vector<double>& v);
/// Quantile q in [0, 1] by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q);

/// A timing sample set summarised the way the benchmark reports timings:
/// the median, the highest percentile with at least ten samples beyond it
/// (absent below 11 samples), and the sample count.
util::Json summarize(const std::vector<double>& samples, const std::string& unit);

// --- results -------------------------------------------------------------

/// What one workload run hands back to main().
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Output-check violations; any entry makes the run incorrect.
  std::vector<std::string> errors;
  /// Metrics by manifest name (value only; units live in BENCHMARK.json).
  std::map<std::string, double> metrics;
  /// Workload figures with median / tail / sample count, fingerprints,
  /// and notes — everything a reader needs that the manifest does not carry.
  util::Json detail = util::Json::object();

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

/// Options every workload receives from the command line.
struct RunOptions {
  std::uint64_t seed = 7;
  double seconds = 10;
};

/// The untraced timed loop. Until `seconds` of wall time have passed (and
/// at least `min_reps` repetitions are done), each repetition rebuilds the
/// workload's set-up with `build()` — timed in thread CPU, repeated until
/// it has taken a tenth of the previous batch — and then runs one batch,
/// `batch(rep)`, which returns its host seconds. Interleaving spreads a
/// burst of host load over both series instead of letting it cover the
/// whole set-up phase. Returns the set-up times.
template <typename Build, typename Batch>
std::vector<double> interleave(double seconds, int min_reps, Build&& build,
                               Batch&& batch) {
  std::vector<double> setup;
  double last_batch = 0;
  const double start = wall_s();
  for (int rep = 0; rep < min_reps || wall_s() - start < seconds; ++rep) {
    double spent = 0;
    do {
      const double t0 = thread_cpu_s();
      build();
      setup.push_back(thread_cpu_s() - t0);
      spent += setup.back();
    } while (spent < 0.1 * last_batch);
    last_batch = batch(rep);
  }
  return setup;
}

// --- workloads -----------------------------------------------------------

/// End-to-end (untraced) run of one workload: setup_s, batch_s and the
/// workload's own figures (leg rates, check times) in `detail`.
Outcome run_abv_sim(const RunOptions& opt);
Outcome run_campaign(const RunOptions& opt);
Outcome run_mc_table2(const RunOptions& opt);

/// Traced run of one workload: untraced repetitions for the overhead
/// baseline, then traced repetitions recorded into `tracer`. Fills the
/// per-layer metrics this workload owns.
Outcome trace_abv_sim(const RunOptions& opt, Tracer& tracer);
Outcome trace_campaign(const RunOptions& opt, Tracer& tracer);
Outcome trace_mc_table2(const RunOptions& opt, Tracer& tracer);

}  // namespace la1perf
