// The batch verification runner end to end: job-file parsing and
// validation, the byte-identity contract (same batch hash at 1 and 4
// workers), the robustness degradations (injected hangs retry then land as
// qualified timeouts, injected crashes quarantine with a replay seed), and
// the journal kill/resume round trip.
#include "batch/runner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "batch/job.hpp"

namespace la1 {
namespace {

batch::BatchSpec small_batch() {
  batch::BatchSpec spec;
  spec.name = "test";
  {
    batch::JobSpec job;
    job.name = "soak";
    job.kind = batch::JobKind::kLockstepSoak;
    job.banks = 2;
    job.shards = 3;
    job.transactions = 60;
    spec.jobs.push_back(job);
  }
  {
    batch::JobSpec job;
    job.name = "closure";
    job.kind = batch::JobKind::kCovClosure;
    job.shards = 2;
    job.target = 0.8;
    job.max_epochs = 4;
    job.transactions_per_epoch = 80;
    spec.jobs.push_back(job);
  }
  return spec;
}

TEST(BatchJob, SpecRoundTripsThroughJson) {
  batch::BatchSpec spec = small_batch();
  spec.jobs[0].inject_hang = {1};
  spec.jobs[0].inject_crash = {2};
  const batch::BatchSpec back =
      batch::BatchSpec::parse(spec.to_json().dump(2));
  ASSERT_EQ(back.jobs.size(), 2u);
  EXPECT_EQ(back.name, "test");
  EXPECT_EQ(back.jobs[0].name, "soak");
  EXPECT_EQ(back.jobs[0].kind, batch::JobKind::kLockstepSoak);
  EXPECT_EQ(back.jobs[0].banks, 2);
  EXPECT_EQ(back.jobs[0].shards, 3);
  EXPECT_EQ(back.jobs[0].inject_hang, std::vector<int>{1});
  EXPECT_EQ(back.jobs[0].inject_crash, std::vector<int>{2});
  EXPECT_EQ(back.jobs[1].kind, batch::JobKind::kCovClosure);
  EXPECT_DOUBLE_EQ(back.jobs[1].target, 0.8);
}

TEST(BatchJob, ParseRejectsBadSpecs) {
  EXPECT_THROW(batch::BatchSpec::parse("not json"), std::runtime_error);
  EXPECT_THROW(batch::BatchSpec::parse("{\"jobs\": []}"), std::runtime_error);
  // Duplicate job names would collide as journal keys.
  EXPECT_THROW(
      batch::BatchSpec::parse(
          "{\"jobs\": [{\"name\": \"a\", \"kind\": \"lockstep-soak\"},"
          " {\"name\": \"a\", \"kind\": \"mc-sweep\"}]}"),
      std::runtime_error);
  EXPECT_THROW(
      batch::BatchSpec::parse(
          "{\"jobs\": [{\"name\": \"a\", \"kind\": \"no-such-kind\"}]}"),
      std::runtime_error);
}

/// The error parsing a one-job batch file whose job has `fields` (JSON
/// members after its name) gives, or "accepted".
std::string job_error(const std::string& fields) {
  try {
    batch::BatchSpec::parse("{\"jobs\": [{\"name\": \"j\", " + fields +
                            "}]}");
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "accepted";
}

TEST(BatchJob, ParseRangeChecksEveryWholeNumberField) {
  // Each value here used to wrap or narrow silently: a negative count ran
  // a job that reported pass, a negative seed or budget became 2^64 - k,
  // and 2^32 + 1 transactions narrowed to 1.
  EXPECT_EQ(job_error("\"kind\": \"faults\", \"transactions\": -5"),
            "job 'j': transactions must be at least 1");
  EXPECT_EQ(job_error("\"transactions\": 4294967297"),
            "job 'j': transactions must be at most 2147483647");
  EXPECT_EQ(job_error("\"seed\": -1"), "job 'j': seed must be at least 0");
  EXPECT_EQ(job_error("\"transactions_per_epoch\": -1"),
            "job 'j': transactions_per_epoch must be at least 1");
  EXPECT_EQ(job_error("\"mc_wall_ms\": -1"),
            "job 'j': mc_wall_ms must be at least 0");
  EXPECT_EQ(job_error("\"structural_faults\": -1"),
            "job 'j': structural_faults must be at least 0");
  EXPECT_EQ(job_error("\"protocol_faults\": 2147483648"),
            "job 'j': protocol_faults must be at most 2147483647");
  EXPECT_EQ(job_error("\"max_epochs\": 0"),
            "job 'j': max_epochs must be at least 1");
  EXPECT_EQ(job_error("\"banks\": 5"), "job 'j': banks must be at most 4");
  EXPECT_EQ(job_error("\"banks\": 4294967297"),
            "job 'j': banks must be at most 4");
  EXPECT_EQ(job_error("\"shards\": 0"), "job 'j': shards must be at least 1");
  EXPECT_EQ(job_error("\"shards\": 1000000"),
            "job 'j': shards must be at most " +
                std::to_string(batch::JobSpec::kMaxShards));
  EXPECT_EQ(job_error("\"inject_hang\": [-1]"),
            "job 'j': inject_hang entry must be at least 0");
  EXPECT_EQ(job_error("\"transactions\": \"many\""),
            "job 'j': transactions must be a whole number");
  EXPECT_EQ(job_error("\"seed\": 1.5"), "job 'j': seed must be a whole number");
  EXPECT_EQ(job_error("\"inject_crash\": 3"),
            "job 'j': inject_crash must be an array");
  // The bounds themselves are accepted.
  EXPECT_EQ(job_error("\"banks\": 4, \"shards\": " +
                      std::to_string(batch::JobSpec::kMaxShards) +
                      ", \"seed\": 0, \"mc_wall_ms\": 0, "
                      "\"transactions\": 2147483647"),
            "accepted");
}

TEST(BatchJob, ParseRejectsATargetOutsideTheUnitInterval) {
  // Each of these used to run: a closure job chasing a negative, NaN or
  // unreachable coverage target.
  const std::string error = "job 'j': target must be a number in [0, 1]";
  EXPECT_EQ(job_error("\"target\": -0.5"), error);
  EXPECT_EQ(job_error("\"target\": 1.5"), error);
  EXPECT_EQ(job_error("\"target\": 2"), error);
  // JSON text has no NaN or infinity; a job built in code can.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    util::Json job = util::Json::object();
    job.set("name", "j");
    job.set("target", bad);
    EXPECT_THROW(batch::JobSpec::from_json(job), std::invalid_argument) << bad;
  }
  // The bounds themselves are accepted.
  EXPECT_EQ(job_error("\"target\": 0"), "accepted");
  EXPECT_EQ(job_error("\"target\": 1.0"), "accepted");
}

TEST(BatchRunner, HashIsByteIdenticalAtOneAndFourWorkers) {
  const batch::BatchSpec spec = small_batch();
  batch::RunnerOptions one;
  one.workers = 1;
  const batch::BatchResult a = batch::run_batch(spec, one);
  batch::RunnerOptions four;
  four.workers = 4;
  four.steal_seed = 77;  // a different steal schedule must not show through
  const batch::BatchResult b = batch::run_batch(spec, four);

  EXPECT_TRUE(a.all_pass);
  EXPECT_TRUE(b.all_pass);
  EXPECT_EQ(a.hash, b.hash);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].hash, b.jobs[i].hash) << a.jobs[i].name;
    EXPECT_EQ(a.jobs[i].merged.dump(), b.jobs[i].merged.dump());
    EXPECT_EQ(a.jobs[i].verdict, "pass");
  }
  // Telemetry-free documents are fully deterministic end to end.
  EXPECT_EQ(a.to_json(false).dump(), b.to_json(false).dump());
}

TEST(BatchRunner, InjectedCrashDegradesWithReplaySeed) {
  batch::BatchSpec spec = small_batch();
  spec.jobs[0].inject_crash = {1};
  batch::RunnerOptions opt;
  const batch::BatchResult result = batch::run_batch(spec, opt);
  EXPECT_FALSE(result.all_pass);
  const batch::JobResult& jr = result.jobs[0];
  EXPECT_EQ(jr.verdict, "degraded");
  EXPECT_EQ(jr.crashed, 1);
  EXPECT_EQ(jr.ok, jr.shards - 1);
  bool found = false;
  for (std::size_t i = 0; i < jr.merged.size(); ++i) {
    const util::Json& row = jr.merged.items()[i];
    if (row.find("status")->as_string() != "crashed") continue;
    found = true;
    EXPECT_EQ(row.find("shard")->as_int(), 1);
    EXPECT_NE(row.find("error")->as_string().find("injected crash"),
              std::string::npos);
    EXPECT_NE(row.find("replay_seed"), nullptr);
  }
  EXPECT_TRUE(found);
  // The healthy sibling job is untouched by the quarantine.
  EXPECT_EQ(result.jobs[1].verdict, "pass");
}

TEST(BatchRunner, InjectedHangRetriesThenDegradesToTimeout) {
  batch::BatchSpec spec = small_batch();
  spec.jobs[1].inject_hang = {0};
  batch::RunnerOptions opt;
  opt.shard_wall_ms = 30;
  opt.max_retries = 1;
  opt.backoff_ms = 1;
  const batch::BatchResult result = batch::run_batch(spec, opt);
  EXPECT_FALSE(result.all_pass);
  const batch::JobResult& jr = result.jobs[1];
  EXPECT_EQ(jr.verdict, "degraded");
  EXPECT_EQ(jr.timed_out, 1);
  const util::Json& row = jr.merged.items()[0];
  EXPECT_EQ(row.find("status")->as_string(), "timeout");
  EXPECT_NE(row.find("error")->as_string().find("overrun on every attempt"),
            std::string::npos);
}

TEST(BatchRunner, CancelledBatchIsInterruptedNotDegraded) {
  exec::CancelToken token;
  token.cancel();
  batch::RunnerOptions opt;
  opt.cancel = &token;
  const batch::BatchResult result = batch::run_batch(small_batch(), opt);
  EXPECT_TRUE(result.interrupted);
  EXPECT_FALSE(result.all_pass);
  for (const batch::JobResult& jr : result.jobs) {
    EXPECT_EQ(jr.verdict, "cancelled");
    EXPECT_EQ(jr.cancelled, jr.shards);
  }
}

TEST(BatchRunner, JournalResumeReplaysAndMatchesUninterruptedHash) {
  const std::string path = testing::TempDir() + "batch_test_journal.jsonl";
  std::remove(path.c_str());
  const batch::BatchSpec spec = small_batch();

  batch::RunnerOptions plain;
  const std::uint64_t expected = batch::run_batch(spec, plain).hash;

  // First run with a journal (uninterrupted, so every shard is recorded).
  batch::RunnerOptions journaled = plain;
  journaled.journal_path = path;
  EXPECT_EQ(batch::run_batch(spec, journaled).hash, expected);

  // Simulate a kill: drop the tail of the journal mid-line.
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  in.close();
  const std::string full = text.str();
  const std::size_t cut = full.find('\n', full.size() / 2);
  ASSERT_NE(cut, std::string::npos);
  std::ofstream out(path, std::ios::trunc);
  out << full.substr(0, cut + 1) << "{\"key\": \"torn";
  out.close();

  batch::RunnerOptions resume = journaled;
  resume.resume = true;
  const batch::BatchResult resumed = batch::run_batch(spec, resume);
  EXPECT_EQ(resumed.hash, expected);
  EXPECT_TRUE(resumed.all_pass);
  int replayed = 0;
  for (const batch::JobResult& jr : resumed.jobs) replayed += jr.replayed;
  EXPECT_GT(replayed, 0);
  std::remove(path.c_str());
}

TEST(BatchRunner, McSweepShardsAreThePropertySuite) {
  batch::JobSpec job;
  job.name = "props";
  job.kind = batch::JobKind::kMcSweep;
  job.banks = 1;
  job.shards = 99;  // ignored: the property list decides
  const int count = batch::job_shard_count(job);
  EXPECT_GT(count, 0);
  EXPECT_NE(count, 99);

  batch::BatchSpec spec;
  spec.jobs.push_back(job);
  batch::RunnerOptions opt;
  const batch::BatchResult result = batch::run_batch(spec, opt);
  EXPECT_TRUE(result.all_pass) << result.to_json(false).dump(2);
  EXPECT_EQ(result.jobs[0].shards, count);
  for (std::size_t i = 0; i < result.jobs[0].merged.size(); ++i) {
    const util::Json* value = result.jobs[0].merged.items()[i].find("value");
    ASSERT_NE(value, nullptr);
    const std::string verdict = value->find("verdict")->as_string();
    EXPECT_TRUE(verdict == "Proven" || verdict == "BoundedPass")
        << value->find("property")->as_string() << ": " << verdict;
  }
}

}  // namespace
}  // namespace la1
