#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "perf.hpp"

namespace la1perf {

int Tracer::id(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  return static_cast<int>(names_.size()) - 1;
}

void Tracer::begin_group(const std::string& label) { groups_.push_back(label); }

std::vector<std::int64_t> Tracer::self_ns() const {
  if (self_cache_.size() == spans_.size()) return self_cache_;
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  self_cache_ = self;
  return self;
}

double Tracer::self_total_ns(const std::string& name,
                             const std::string& group_prefix) const {
  double total = 0;
  int name_id = -1;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) name_id = static_cast<int>(i);
  }
  if (name_id < 0) return total;
  std::vector<bool> in_group(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    in_group[g] = groups_[g].rfind(group_prefix, 0) == 0;
  }
  const std::vector<std::int64_t> self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.name != name_id || s.group < 0 ||
        !in_group[static_cast<std::size_t>(s.group)]) {
      continue;
    }
    total += static_cast<double>(self[i]);
  }
  return total;
}

bool Tracer::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<std::int64_t> self = self_ns();
  const std::int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    out << "# group " << i << ' ' << groups_[i] << '\n';
  }
  for (std::size_t i = 0; i < names_.size(); ++i) {
    out << "# name " << i << ' ' << names_[i] << '\n';
  }
  out << "index\tparent\tgroup\tname\tstart_ns\tend_ns\tself_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.group << '\t' << s.name << '\t'
        << s.start_ns - epoch << '\t' << s.end_ns - epoch << '\t' << self[i]
        << '\n';
  }
  return static_cast<bool>(out);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double best(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double setup_estimate(const std::vector<double>& v) { return quantile(v, 0.05); }

double highest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

util::Json summarize(const std::vector<double>& samples,
                     const std::string& unit) {
  util::Json j = util::Json::object();
  j.set("unit", unit);
  j.set("median", median(samples));
  j.set("q1", quantile(samples, 0.25));
  j.set("q3", quantile(samples, 0.75));
  j.set("min", best(samples));
  j.set("n", static_cast<std::int64_t>(samples.size()));
  // Highest whole percentile with at least ten samples above it.
  const auto n = static_cast<std::int64_t>(samples.size());
  if (n >= 11) {
    const std::int64_t pct = (100 * (n - 10)) / n;
    j.set("tail_pct", pct);
    j.set("tail", quantile(samples, static_cast<double>(pct) / 100.0));
  } else {
    j.set("tail_pct", util::Json());
    j.set("tail_note", "fewer than 11 samples: no percentile has ten beyond it");
  }
  return j;
}

}  // namespace la1perf
