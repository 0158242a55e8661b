#include <gtest/gtest.h>

#include "sim/clock.hpp"
#include "sim/kernel.hpp"
#include "sim/module.hpp"
#include "sim/signal.hpp"

namespace la1::sim {
namespace {

TEST(Kernel, TimedCallbacksRunInOrder) {
  Kernel k;
  std::vector<int> order;
  k.schedule(30, [&] { order.push_back(3); });
  k.schedule(10, [&] { order.push_back(1); });
  k.schedule(20, [&] { order.push_back(2); });
  k.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(k.now(), 30u);
}

TEST(Kernel, SameTimeFifoOrder) {
  Kernel k;
  std::vector<int> order;
  k.schedule(10, [&] { order.push_back(1); });
  k.schedule(10, [&] { order.push_back(2); });
  k.run_to_completion();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Kernel, RunStopsAtBound) {
  Kernel k;
  int fired = 0;
  k.schedule(10, [&] { ++fired; });
  k.schedule(100, [&] { ++fired; });
  k.run(50);
  EXPECT_EQ(fired, 1);
  k.run(200);
  EXPECT_EQ(fired, 2);
}

TEST(Kernel, StopHaltsSimulation) {
  Kernel k;
  int fired = 0;
  k.schedule(10, [&] {
    ++fired;
    k.stop();
  });
  k.schedule(20, [&] { ++fired; });
  k.run_to_completion();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(k.stopped());
}

TEST(Signal, WriteCommitsInUpdatePhase) {
  Kernel k;
  Signal<int> s(k, "s", 0);
  int observed_during_eval = -1;
  auto& p = k.create_process("writer", [&] {
    s.write(5);
    observed_during_eval = s.read();  // still old value in evaluate phase
  });
  p.trigger();
  k.run(1);
  EXPECT_EQ(observed_during_eval, 0);
  EXPECT_EQ(s.read(), 5);
}

TEST(Signal, ChangedEventWakesProcess) {
  Kernel k;
  Signal<int> s(k, "s", 0);
  int wakes = 0;
  auto& p = k.create_process("watcher", [&] { ++wakes; });
  p.dont_initialize();
  s.changed_event().subscribe(p);
  k.schedule(5, [&] { s.write(1); });
  k.schedule(10, [&] { s.write(1); });  // same value: no event
  k.schedule(15, [&] { s.write(2); });
  k.run_to_completion();
  EXPECT_EQ(wakes, 2);
}

TEST(Wire, EdgeEvents) {
  Kernel k;
  Wire w(k, "w", false);
  int pos = 0;
  int neg = 0;
  auto& pp = k.create_process("pos", [&] { ++pos; });
  pp.dont_initialize();
  auto& pn = k.create_process("neg", [&] { ++neg; });
  pn.dont_initialize();
  w.posedge_event().subscribe(pp);
  w.negedge_event().subscribe(pn);
  k.schedule(1, [&] { w.write(true); });
  k.schedule(2, [&] { w.write(false); });
  k.schedule(3, [&] { w.write(false); });
  k.schedule(4, [&] { w.write(true); });
  k.run_to_completion();
  EXPECT_EQ(pos, 2);
  EXPECT_EQ(neg, 1);
}

TEST(Event, TimedNotifyAndCancel) {
  Kernel k;
  Event e(k, "e");
  int fires = 0;
  auto& p = k.create_process("waiter", [&] { ++fires; });
  p.dont_initialize();
  e.subscribe(p);
  e.notify_at(10);
  k.run(5);
  e.cancel();
  k.run_to_completion();
  EXPECT_EQ(fires, 0);
  e.notify_at(10);
  k.run_to_completion();
  EXPECT_EQ(fires, 1);
}

TEST(Clock, GeneratesEdgesAtPeriod) {
  Kernel k;
  Clock c(k, "clk", 100);
  int edges = 0;
  auto& p = k.create_process("count", [&] { ++edges; });
  p.dont_initialize();
  c.out().posedge_event().subscribe(p);
  k.run(1000);
  // First rising at t=1, then every 100ps: 1, 101, ..., 901 -> 10 edges.
  EXPECT_EQ(edges, 10);
  EXPECT_EQ(c.rising_edges(), 10u);
}

TEST(ClockPair, KAndKsAlternate) {
  Kernel k;
  ClockPair pair(k, "m", 100);
  std::vector<char> sequence;
  auto& pk = k.create_process("k", [&] { sequence.push_back('K'); });
  pk.dont_initialize();
  auto& ps = k.create_process("ks", [&] { sequence.push_back('S'); });
  ps.dont_initialize();
  pair.k().posedge_event().subscribe(pk);
  pair.ks().posedge_event().subscribe(ps);
  k.run(450);
  // K rises at 1, 101, 201, 301, 401; K# at 50, 150, 250, 350, 450.
  ASSERT_GE(sequence.size(), 6u);
  for (std::size_t i = 0; i + 1 < sequence.size(); ++i) {
    EXPECT_NE(sequence[i], sequence[i + 1]) << "edges must alternate at " << i;
  }
}

TEST(Kernel, StatsAccumulate) {
  Kernel k;
  Signal<int> s(k, "s", 0);
  auto& p = k.create_process("w", [&] { s.write(1); });
  p.trigger();
  k.run(1);
  EXPECT_GE(k.stats().process_activations, 1u);
  EXPECT_GE(k.stats().updates, 1u);
}

}  // namespace
}  // namespace la1::sim
