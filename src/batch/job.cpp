#include "batch/job.hpp"

#include <limits>
#include <stdexcept>

#include "util/cli.hpp"

namespace la1::batch {

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kFaults: return "faults";
    case JobKind::kCovClosure: return "cov-closure";
    case JobKind::kMcSweep: return "mc-sweep";
    case JobKind::kLockstepSoak: return "lockstep-soak";
  }
  return "lockstep-soak";
}

JobKind job_kind_from_string(const std::string& name) {
  if (name == "faults") return JobKind::kFaults;
  if (name == "cov-closure") return JobKind::kCovClosure;
  if (name == "mc-sweep") return JobKind::kMcSweep;
  if (name == "lockstep-soak") return JobKind::kLockstepSoak;
  throw std::runtime_error("unknown job kind: '" + name +
                           "' (expected faults, cov-closure, mc-sweep, or "
                           "lockstep-soak)");
}

namespace {

util::Json int_array(const std::vector<int>& v) {
  util::Json arr = util::Json::array();
  for (int x : v) arr.push(x);
  return arr;
}

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/// A whole number of job `job` named `what`, checked to lie in [min, max]
/// by the range check the CLI flags use: every error names the job and
/// the field instead of wrapping or narrowing the value.
std::int64_t bounded(const util::Json& v, const std::string& job,
                     const std::string& what, std::int64_t min,
                     std::int64_t max) {
  const std::string field = "job '" + job + "': " + what;
  if (v.kind() != util::Json::Kind::kInt) {
    throw std::invalid_argument(field + " must be a whole number");
  }
  return util::in_range(field, v.as_int(), min, max);
}

/// Reads the whole-number field `key`, when present, into `out`.
template <typename T>
void read_bounded(const util::Json& j, const std::string& job,
                  const char* key, std::int64_t min, std::int64_t max,
                  T& out) {
  if (const util::Json* v = j.find(key)) {
    out = static_cast<T>(bounded(*v, job, key, min, max));
  }
}

/// Reads the shard-index list `key`, when present, into `out`.
void read_shard_list(const util::Json& j, const std::string& job,
                     const char* key, std::vector<int>& out) {
  const util::Json* v = j.find(key);
  if (v == nullptr) return;
  if (!v->is_array()) {
    throw std::invalid_argument("job '" + job + "': " + key +
                                " must be an array");
  }
  for (const util::Json& x : v->items()) {
    out.push_back(static_cast<int>(
        bounded(x, job, std::string(key) + " entry", 0, kIntMax)));
  }
}

}  // namespace

util::Json JobSpec::to_json() const {
  util::Json j = util::Json::object();
  j.set("name", name);
  j.set("kind", to_string(kind));
  j.set("banks", banks);
  j.set("seed", seed);
  j.set("shards", shards);
  j.set("transactions", transactions);
  j.set("structural_faults", structural_faults);
  j.set("protocol_faults", protocol_faults);
  j.set("run_mc", run_mc);
  j.set("target", target);
  j.set("max_epochs", max_epochs);
  j.set("transactions_per_epoch", transactions_per_epoch);
  j.set("mc_wall_ms", mc_wall_ms);
  if (!inject_hang.empty()) j.set("inject_hang", int_array(inject_hang));
  if (!inject_crash.empty()) j.set("inject_crash", int_array(inject_crash));
  return j;
}

JobSpec JobSpec::from_json(const util::Json& j) {
  JobSpec spec;
  if (const util::Json* v = j.find("name")) spec.name = v->as_string();
  if (spec.name.empty()) {
    throw std::runtime_error("job is missing a 'name'");
  }
  const std::string& job = spec.name;
  if (const util::Json* v = j.find("kind")) {
    spec.kind = job_kind_from_string(v->as_string());
  }
  read_bounded(j, job, "banks", 1, 4, spec.banks);
  read_bounded(j, job, "seed", 0, kInt64Max, spec.seed);
  read_bounded(j, job, "shards", 1, kMaxShards, spec.shards);
  read_bounded(j, job, "transactions", 1, kIntMax, spec.transactions);
  read_bounded(j, job, "structural_faults", 0, kIntMax,
               spec.structural_faults);
  read_bounded(j, job, "protocol_faults", 0, kIntMax, spec.protocol_faults);
  if (const util::Json* v = j.find("run_mc")) spec.run_mc = v->as_bool();
  if (const util::Json* v = j.find("target")) {
    spec.target = v->as_double();
    // Written so that NaN fails too.
    if (!(spec.target >= 0.0 && spec.target <= 1.0)) {
      throw std::invalid_argument("job '" + job +
                                  "': target must be a number in [0, 1]");
    }
  }
  read_bounded(j, job, "max_epochs", 1, kIntMax, spec.max_epochs);
  read_bounded(j, job, "transactions_per_epoch", 1, kInt64Max,
               spec.transactions_per_epoch);
  read_bounded(j, job, "mc_wall_ms", 0, kInt64Max, spec.mc_wall_ms);
  read_shard_list(j, job, "inject_hang", spec.inject_hang);
  read_shard_list(j, job, "inject_crash", spec.inject_crash);
  return spec;
}

util::Json BatchSpec::to_json() const {
  util::Json j = util::Json::object();
  j.set("name", name);
  util::Json arr = util::Json::array();
  for (const JobSpec& job : jobs) arr.push(job.to_json());
  j.set("jobs", std::move(arr));
  return j;
}

BatchSpec BatchSpec::from_json(const util::Json& j) {
  BatchSpec spec;
  if (const util::Json* v = j.find("name")) spec.name = v->as_string();
  const util::Json* jobs = j.find("jobs");
  if (jobs == nullptr) {
    throw std::runtime_error("batch file has no 'jobs' array");
  }
  for (const util::Json& job : jobs->items()) {
    spec.jobs.push_back(JobSpec::from_json(job));
  }
  if (spec.jobs.empty()) {
    throw std::runtime_error("batch file has an empty 'jobs' array");
  }
  for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
    for (std::size_t k = i + 1; k < spec.jobs.size(); ++k) {
      if (spec.jobs[i].name == spec.jobs[k].name) {
        throw std::runtime_error("duplicate job name '" + spec.jobs[i].name +
                                 "' (journal keys must be unique)");
      }
    }
  }
  return spec;
}

BatchSpec BatchSpec::parse(const std::string& text) {
  try {
    return from_json(util::Json::parse(text));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(e.what());
  }
}

}  // namespace la1::batch
