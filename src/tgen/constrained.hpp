// Constrained-random LA-1 traffic: a StimulusSource whose shape is a
// vector of per-field weights instead of two fixed rates. The closure
// driver (closure.hpp) retargets these knobs at whatever coverage bins are
// still empty — the coverage-driven half of the verification loop that the
// paper's fixed directed stimulus lacks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/stimulus.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace la1::tgen {

/// Weight vector for one traffic shape. All probabilities are per K cycle;
/// the sequential knobs (bursts, raw/war chaining) condition on the
/// previous cycle, which is exactly the structure the sequential coverage
/// bins (gaps, bursts, the Figure-3 window) measure.
struct Profile {
  double read_rate = 0.5;    // P(read) on a cycle not extending a burst
  double write_rate = 0.5;   // likewise for the write port
  double read_burst = 0.0;   // P(read | read last cycle), same bank
  double write_burst = 0.0;  // P(write | write last cycle), same bank
  double idle_burst = 0.0;   // P(idle | idle last cycle), overrides rates
  double same_addr = 0.0;    // P(a burst read repeats the previous address)
  double raw = 0.0;          // P(a read replays the last written address)
  double war = 0.0;          // P(a write hits the last read address)
  double be_full = 0.4;      // P(all byte lanes enabled) on a write
  double be_none = 0.1;      // P(no byte lanes); remainder draws random BE
  /// Per-bank address weights; empty = uniform. Normalized internally.
  std::vector<double> read_bank_weight;
  std::vector<double> write_bank_weight;

  util::Json to_json() const;
};

/// Deterministic constrained-random stream: same (geometry, profile, seed)
/// -> bit-identical traffic. Carries the generation state the sequential
/// knobs condition on.
class ConstrainedStream : public harness::StimulusSource {
 public:
  ConstrainedStream(const harness::Geometry& geometry, const Profile& profile,
                    std::uint64_t seed);

  harness::Stimulus next() override;
  void reset() override;

  harness::Geometry geometry() const override { return geometry_; }
  std::uint64_t seed() const override { return seed_; }
  std::uint64_t generated() const override { return generated_; }

  const Profile& profile() const { return profile_; }

 private:
  int draw_bank(const std::vector<double>& weights);
  std::uint64_t draw_addr(const std::vector<double>& weights);

  harness::Geometry geometry_;
  Profile profile_;
  std::uint64_t seed_;
  util::Rng rng_;
  std::uint64_t generated_ = 0;

  // Previous-cycle state for the sequential knobs.
  bool last_read_ = false;
  bool last_write_ = false;
  bool last_idle_ = false;
  std::uint64_t last_read_addr_ = 0;
  std::uint64_t last_write_addr_ = 0;
  bool have_write_addr_ = false;
};

}  // namespace la1::tgen
