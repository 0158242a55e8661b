// Event-driven simulation kernel with SystemC-like delta-cycle semantics.
//
// The paper builds the system-level LA-1 model in OSCI SystemC; this kernel
// is the from-scratch substitute (see DESIGN.md §2). It implements the same
// scheduler contract:
//
//   evaluate phase  — run every runnable (method) process; processes read
//                     signal current values and write next values,
//   update phase    — primitive channels commit next -> current,
//   delta notify    — value-changed / edge events wake statically or
//                     dynamically sensitive processes for the next delta,
//   time advance    — when no delta work remains, jump to the earliest timed
//                     notification.
//
// Processes are method processes (SC_METHOD equivalents): plain callables
// re-invoked on every trigger. Thread processes are not needed by any model
// in this repository and are deliberately not implemented.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

namespace la1::sim {

class Kernel;
class Event;

/// Simulation time in picoseconds.
using Time = std::uint64_t;

inline constexpr Time kPicosecond = 1;
inline constexpr Time kNanosecond = 1000;
inline constexpr Time kMicrosecond = 1000 * kNanosecond;

/// Base class for named simulation objects (modules, channels, processes).
class Object {
 public:
  Object(Kernel& kernel, std::string name)
      : kernel_(&kernel), name_(std::move(name)) {}
  virtual ~Object() = default;

  Object(const Object&) = delete;
  Object& operator=(const Object&) = delete;

  const std::string& name() const { return name_; }
  Kernel& kernel() const { return *kernel_; }

 private:
  Kernel* kernel_;
  std::string name_;
};

/// Implemented by primitive channels that defer value commits to the update
/// phase (Signal, Wire).
class UpdateHook {
 public:
  virtual ~UpdateHook() = default;

  /// Commits pending writes; runs during the update phase.
  virtual void perform_update() = 0;
};

/// A method process: a callable re-run on each trigger.
class Process : public Object {
 public:
  Process(Kernel& kernel, std::string name, std::function<void()> body);

  /// Marks the process runnable in the next evaluate phase (idempotent
  /// within a delta).
  void trigger();

  /// Runs the body once; used by the kernel during evaluation.
  void run();

  /// Number of times the body has executed.
  std::uint64_t activations() const { return activations_; }

  /// When true the process does not run in the initialization phase.
  void dont_initialize() { initialize_ = false; }
  bool initializes() const { return initialize_; }

 private:
  std::function<void()> body_;
  bool pending_ = false;
  bool initialize_ = true;
  std::uint64_t activations_ = 0;
};

/// A notification channel. Processes subscribe (static sensitivity) and the
/// event wakes them on delta or timed notification.
class Event : public Object {
 public:
  explicit Event(Kernel& kernel, std::string name = "event");

  /// Adds `process` to the static sensitivity list.
  void subscribe(Process& process);

  /// Notifies at the end of the current delta cycle.
  void notify_delta();

  /// Notifies after `delay` simulation time (delta if delay == 0).
  void notify_at(Time delay);

  /// Cancels any pending timed notification.
  void cancel() { ++generation_; }

  /// Wakes all subscribers immediately (kernel internal / test use).
  void fire();

  /// Timestamp of the most recent fire(); ~0 when never fired.
  Time last_fired() const { return last_fired_; }

 private:
  friend class Kernel;
  std::vector<Process*> subscribers_;
  std::uint64_t generation_ = 0;
  bool delta_pending_ = false;
  Time last_fired_ = ~Time{0};
};

/// Scheduler statistics, consumed by the Table-3 benchmark harness.
struct KernelStats {
  std::uint64_t delta_cycles = 0;
  std::uint64_t process_activations = 0;
  std::uint64_t timed_notifications = 0;
  std::uint64_t updates = 0;
};

/// The simulation scheduler. Owns processes; channels and events are owned
/// by their modules and register themselves per delta.
class Kernel {
 public:
  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Creates a method process. The kernel owns it; the returned reference is
  /// stable for the kernel's lifetime.
  Process& create_process(std::string name, std::function<void()> body);

  /// Schedules `fn` to run `delay` after the current time (0 = this
  /// timestamp, before the next evaluate phase).
  void schedule(Time delay, std::function<void()> fn);

  /// Runs until `until` (inclusive) or until no work remains or stop() is
  /// called. Returns the time reached.
  Time run(Time until);

  /// Runs until event starvation (no timed work left).
  Time run_to_completion() { return run(~Time{0} - 1); }

  /// Requests termination at the end of the current delta.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  Time now() const { return now_; }
  const KernelStats& stats() const { return stats_; }

  // --- internal interface used by channels/events ---------------------
  void request_update(UpdateHook& hook);
  void queue_delta_event(Event& event);
  void queue_runnable(Process& process);
  void schedule_event(Event& event, Time delay, std::uint64_t generation);

 private:
  struct TimedItem {
    Time at;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const TimedItem& other) const {
      return at != other.at ? at > other.at : seq > other.seq;
    }
  };

  /// Runs evaluate/update/notify until no process is runnable.
  void drain_deltas();

  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Process*> runnable_;
  std::vector<UpdateHook*> update_queue_;
  std::vector<Event*> delta_events_;
  // The phase being worked off: each delta swaps a queue with its empty
  // spare and clears the spare after, so a delta reuses the capacity of
  // the last one instead of freeing and regrowing three vectors.
  std::vector<Process*> runnable_spare_;
  std::vector<UpdateHook*> update_spare_;
  std::vector<Event*> events_spare_;
  std::priority_queue<TimedItem, std::vector<TimedItem>, std::greater<>> timed_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  bool stopped_ = false;
  bool initialized_ = false;
  KernelStats stats_;
};

}  // namespace la1::sim
