// Wall-clock and CPU-clock stopwatches used by the benchmark harnesses.
#pragma once

#include <chrono>
#include <ctime>

namespace la1::util {

/// Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Process CPU-time stopwatch (what the paper's "CPU Time (s)" columns use).
/// CLOCK_PROCESS_CPUTIME_ID sums *every* thread, so on a multi-worker run
/// `seconds()` can legitimately exceed the wall clock — a cpu/wall ratio
/// above 1.0 is the signature of real parallel speedup, not an error.
class CpuStopwatch {
 public:
  CpuStopwatch() : start_(now()) {}

  void reset() { start_ = now(); }

  double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  double start_;
};

/// Calling-thread CPU-time stopwatch. Workers on a pool use this to charge
/// their own compute; the per-worker totals sum (approximately) to what
/// CpuStopwatch sees for the whole process. Only valid when `reset()` and
/// `seconds()` run on the same thread.
class ThreadCpuStopwatch {
 public:
  ThreadCpuStopwatch() : start_(now()) {}

  void reset() { start_ = now(); }

  double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }

  double start_;
};

}  // namespace la1::util
