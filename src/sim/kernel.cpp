#include "sim/kernel.hpp"

#include <utility>

namespace la1::sim {

Process::Process(Kernel& kernel, std::string name, std::function<void()> body)
    : Object(kernel, std::move(name)), body_(std::move(body)) {}

void Process::trigger() {
  if (pending_) return;
  pending_ = true;
  kernel().queue_runnable(*this);
}

void Process::run() {
  pending_ = false;
  ++activations_;
  body_();
}

Event::Event(Kernel& kernel, std::string name)
    : Object(kernel, std::move(name)) {}

void Event::subscribe(Process& process) { subscribers_.push_back(&process); }

void Event::notify_delta() {
  if (delta_pending_) return;
  delta_pending_ = true;
  kernel().queue_delta_event(*this);
}

void Event::notify_at(Time delay) {
  if (delay == 0) {
    notify_delta();
    return;
  }
  ++generation_;
  kernel().schedule_event(*this, delay, generation_);
}

void Event::fire() {
  delta_pending_ = false;
  last_fired_ = kernel().now();
  for (Process* p : subscribers_) p->trigger();
}

Process& Kernel::create_process(std::string name, std::function<void()> body) {
  processes_.push_back(
      std::make_unique<Process>(*this, std::move(name), std::move(body)));
  return *processes_.back();
}

void Kernel::schedule(Time delay, std::function<void()> fn) {
  timed_.push(TimedItem{now_ + delay, seq_++, std::move(fn)});
}

void Kernel::schedule_event(Event& event, Time delay, std::uint64_t generation) {
  ++stats_.timed_notifications;
  schedule(delay, [&event, generation] {
    if (event.generation_ == generation) event.fire();
  });
}

void Kernel::request_update(UpdateHook& hook) { update_queue_.push_back(&hook); }

void Kernel::queue_delta_event(Event& event) { delta_events_.push_back(&event); }

void Kernel::queue_runnable(Process& process) { runnable_.push_back(&process); }

void Kernel::drain_deltas() {
  for (;;) {
    // Evaluate phase.
    runnable_spare_.swap(runnable_);
    for (Process* p : runnable_spare_) {
      if (stopped_) {
        runnable_spare_.clear();
        return;
      }
      p->run();
      ++stats_.process_activations;
    }
    runnable_spare_.clear();

    // Update phase.
    update_spare_.swap(update_queue_);
    for (UpdateHook* hook : update_spare_) {
      hook->perform_update();
      ++stats_.updates;
    }
    update_spare_.clear();

    // Delta-notification phase.
    events_spare_.swap(delta_events_);
    for (Event* e : events_spare_) e->fire();
    events_spare_.clear();

    if (runnable_.empty() && update_queue_.empty() && delta_events_.empty()) {
      return;
    }
    ++stats_.delta_cycles;
  }
}

Time Kernel::run(Time until) {
  if (!initialized_) {
    initialized_ = true;
    for (const auto& p : processes_) {
      if (p->initializes()) p->trigger();
    }
  }

  drain_deltas();
  while (!stopped_ && !timed_.empty()) {
    const Time next = timed_.top().at;
    if (next > until) break;
    now_ = next;
    while (!timed_.empty() && timed_.top().at == now_) {
      // Copy out before pop; the callback may schedule new items.
      auto fn = std::move(const_cast<TimedItem&>(timed_.top()).fn);
      timed_.pop();
      fn();
    }
    drain_deltas();
  }
  return now_;
}

}  // namespace la1::sim
