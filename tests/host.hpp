// The host side of a single-model test: the model's own transactor, an
// optional seeded stream topping its queue up one K cycle per clock, and a
// Scoreboard over every edge.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "harness/device_model.hpp"
#include "harness/stimulus.hpp"

namespace la1::test {

/// `Model` is a DeviceModel built from a config with a `read_latency`.
template <typename Model>
struct Host {
  template <typename Config>
  explicit Host(const Config& cfg)
      : model(cfg), scoreboard(model.geometry(), cfg.read_latency) {}

  /// From now on, one K cycle of `options` traffic per clock, after the
  /// cycles already queued.
  void random(std::uint64_t seed, harness::StimulusOptions options) {
    stream.emplace(options, seed);
  }
  void random(std::uint64_t seed) {
    random(seed, harness::StimulusOptions::for_geometry(model.geometry()));
  }

  /// Runs `ticks` edges; `on_tick(tick)` samples after each.
  void run(int ticks, const std::function<void(int)>& on_tick = {}) {
    for (int i = 0; i < ticks; ++i) {
      const int tick = model.ticks_done();
      const harness::Edge edge = harness::edge_of_tick(tick);
      if (stream && edge == harness::Edge::kK) model.enqueue(stream->next());
      scoreboard.step(model.tick(edge), model);
      if (on_tick) on_tick(tick);
    }
  }

  Model model;
  harness::Scoreboard scoreboard;
  std::optional<harness::StimulusStream> stream;
};

}  // namespace la1::test
