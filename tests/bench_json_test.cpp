// Round-trip validation of the bench `--json` reports: run each
// bench_table* binary with a small workload, parse the emitted file with
// util::Json, and check the canonical {bench, params, metrics} shape.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.hpp"
#include "proptest.hpp"
#include "util/bench_report.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"

namespace la1 {
namespace {

#ifndef LA1_BENCH_DIR
#error "LA1_BENCH_DIR must point at the bench binaries"
#endif

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Runs `bench` with `args` plus --json, returns the parsed report.
util::Json run_bench(const std::string& bench, const std::string& args) {
  const std::string json_path = testing::TempDir() + bench + ".json";
  std::remove(json_path.c_str());
  const std::string cmd = std::string(LA1_BENCH_DIR) + "/" + bench + " " +
                          args + " --json " + json_path + " > /dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  const std::string text = read_file(json_path);
  EXPECT_FALSE(text.empty()) << "no report at " << json_path;
  return util::Json::parse(text);
}

void expect_report_shape(const util::Json& doc, const std::string& bench) {
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("bench"), nullptr);
  EXPECT_EQ(doc.find("bench")->as_string(), bench);
  ASSERT_NE(doc.find("params"), nullptr);
  EXPECT_TRUE(doc.find("params")->is_object());
  ASSERT_NE(doc.find("metrics"), nullptr);
  ASSERT_TRUE(doc.find("metrics")->is_array());
  EXPECT_GT(doc.find("metrics")->size(), 0u);
  // Every report carries the run's resource footprint.
  const util::Json* res = doc.find("resources");
  ASSERT_NE(res, nullptr);
  ASSERT_TRUE(res->is_object());
  ASSERT_NE(res->find("peak_rss_bytes"), nullptr);
  EXPECT_GT(res->find("peak_rss_bytes")->as_double(), 0.0);
  ASSERT_NE(res->find("wall_seconds"), nullptr);
  EXPECT_GT(res->find("wall_seconds")->as_double(), 0.0);
  ASSERT_NE(res->find("cpu_seconds"), nullptr);
  EXPECT_GE(res->find("cpu_seconds")->as_double(), 0.0);
  // Write -> parse -> dump -> parse is a fixed point.
  EXPECT_TRUE(util::Json::parse(doc.dump(2)) == doc);
}

TEST(BenchJson, Table1AsmMc) {
  const util::Json doc =
      run_bench("bench_table1_asm_mc", "--max-banks 1 --max-states 20000");
  expect_report_shape(doc, "bench_table1_asm_mc");
  const util::Json& row = doc.find("metrics")->items().front();
  ASSERT_NE(row.find("banks"), nullptr);
  EXPECT_EQ(row.find("banks")->as_int(), 1);
  ASSERT_NE(row.find("cpu_seconds"), nullptr);
  ASSERT_NE(row.find("result"), nullptr);
}

TEST(BenchJson, Table2SymbolicMc) {
  const util::Json doc =
      run_bench("bench_table2_symbolic_mc", "--max-banks 1");
  expect_report_shape(doc, "bench_table2_symbolic_mc");
  const util::Json& row = doc.find("metrics")->items().front();
  ASSERT_NE(row.find("banks"), nullptr);
  ASSERT_NE(row.find("result"), nullptr);
  ASSERT_NE(row.find("reachable_states"), nullptr);
  EXPECT_GT(row.find("reachable_states")->as_double(), 0.0);
  ASSERT_NE(row.find("image_parts"), nullptr);
  EXPECT_GT(row.find("image_parts")->as_int(), 0);
  const util::Json* bdd = row.find("bdd");
  ASSERT_NE(bdd, nullptr);
  ASSERT_NE(bdd->find("cache_hits"), nullptr);
  EXPECT_GT(bdd->find("cache_lookups")->as_int(), 0);
}

TEST(BenchJson, Table3AbvSim) {
  const util::Json doc = run_bench(
      "bench_table3_abv_sim",
      "--banks-list 1 --sc-ticks 400 --rtl-ticks 200");
  expect_report_shape(doc, "bench_table3_abv_sim");
  const util::Json& row = doc.find("metrics")->items().front();
  ASSERT_NE(row.find("ratio"), nullptr);
  ASSERT_NE(row.find("failures"), nullptr);
  EXPECT_EQ(row.find("failures")->as_int(), 0);
}

TEST(BenchJson, Coi) {
  // Also the ctest-level watchdog for bench_coi (the ci.sh smoke entry):
  // a nonzero exit means verdict-parity or the read-mode reduction broke.
  const util::Json doc = run_bench("bench_coi", "--banks-list 1");
  expect_report_shape(doc, "bench_coi");
  const util::Json* structural = nullptr;
  const util::Json* semantic = nullptr;
  for (const util::Json& row : doc.find("metrics")->items()) {
    if (row.find("property")->as_string() != "READ_MODE") continue;
    if (row.find("cone")->as_string() == "structural") structural = &row;
    if (row.find("cone")->as_string() == "semantic") semantic = &row;
  }
  ASSERT_NE(structural, nullptr);
  ASSERT_NE(semantic, nullptr);
  EXPECT_EQ(structural->find("result")->as_string(),
            semantic->find("result")->as_string());
  EXPECT_LT(semantic->find("state_bits")->as_int(),
            structural->find("state_bits")->as_int());
  EXPECT_LT(semantic->find("input_bits")->as_int(),
            structural->find("input_bits")->as_int());
  EXPECT_LT(semantic->find("peak_bdd_nodes")->as_int(),
            structural->find("peak_bdd_nodes")->as_int());
}

TEST(BenchJson, Plan) {
  // Also the ctest-level watchdog for bench_plan: a nonzero exit means the
  // cost-model ranking diverged from measured time per cycle, or a legality
  // finding appeared on the stock device.
  const util::Json doc = run_bench("bench_plan", "--cycles 200");
  expect_report_shape(doc, "bench_plan");
  double prev_predicted = -1.0;
  for (const util::Json& row : doc.find("metrics")->items()) {
    ASSERT_NE(row.find("predicted_cost"), nullptr);
    ASSERT_NE(row.find("measured_us_per_cycle"), nullptr);
    ASSERT_NE(row.find("findings"), nullptr);
    EXPECT_EQ(row.find("findings")->as_int(), 0);
    // The stock device grows monotonically with banks, so the rows (listed
    // in 1,2,4 order) must carry strictly increasing predicted cost.
    EXPECT_GT(row.find("predicted_cost")->as_double(), prev_predicted);
    prev_predicted = row.find("predicted_cost")->as_double();
    EXPECT_GE(row.find("two_state_state_pct")->as_double(), 90.0);
  }
}

/// Random JSON document, depth-bounded. Doubles are odd multiples of 1/8 so
/// they are exactly representable and never integral: %.17g prints integral
/// doubles without a decimal point, which reparses as kInt and would turn a
/// genuine round trip into a Kind mismatch.
util::Json random_doc(util::Rng& rng, int depth) {
  static const char kPalette[] =
      "abcXYZ 019_-./\"\\\n\t\r\x01\x7f{}[]:,";
  switch (rng.below(depth > 0 ? 7 : 5)) {
    case 0:
      return util::Json();
    case 1:
      return util::Json(rng.next_bool());
    case 2:
      return util::Json(rng.range(-1000000, 1000000));
    case 3:
      return util::Json(
          static_cast<double>(2 * rng.range(-40000, 40000) + 1) / 8.0);
    case 4: {
      std::string s;
      const std::uint64_t len = rng.below(12);
      for (std::uint64_t i = 0; i < len; ++i)
        s.push_back(kPalette[rng.below(sizeof(kPalette) - 1)]);
      return util::Json(std::move(s));
    }
    case 5: {
      util::Json arr = util::Json::array();
      const std::uint64_t n = rng.below(5);
      for (std::uint64_t i = 0; i < n; ++i)
        arr.push(random_doc(rng, depth - 1));
      return arr;
    }
    default: {
      util::Json obj = util::Json::object();
      const std::uint64_t n = rng.below(5);
      for (std::uint64_t i = 0; i < n; ++i)
        obj.set(util::cat({"k", std::to_string(i)}),
                random_doc(rng, depth - 1));
      return obj;
    }
  }
}

// peak_rss_bytes is the bench's own high-water mark. Linux carries
// getrusage's ru_maxrss across execve, so a cheap bench fork+exec'd from a
// process holding 128 MB must still report only its own footprint.
TEST(BenchJson, PeakRssExcludesLauncherFootprint) {
  std::vector<char> ballast(128u << 20);
  for (std::size_t i = 0; i < ballast.size(); i += 4096) ballast[i] = 1;
  std::string bench = std::string(LA1_BENCH_DIR) + "/bench_fig3_read_timing";
  std::string flag = "--json";
  std::string json_path = testing::TempDir() + "peak_rss_probe.json";
  std::remove(json_path.c_str());
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (std::freopen("/dev/null", "w", stdout) == nullptr) _exit(126);
    char* argv[] = {bench.data(), flag.data(), json_path.data(), nullptr};
    execv(bench.c_str(), argv);
    _exit(127);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << bench;
  ASSERT_EQ(WEXITSTATUS(status), 0) << bench;
  EXPECT_EQ(ballast[4096], 1);  // the ballast stayed resident throughout

  const util::Json doc = util::Json::parse(read_file(json_path));
  expect_report_shape(doc, "bench_fig3_read_timing");
  const double peak =
      doc.find("resources")->find("peak_rss_bytes")->as_double();
  EXPECT_LT(peak, 64.0 * 1024 * 1024);
}

// Multithreaded resources accounting: CpuStopwatch reads process CPU (all
// threads), so a 4-worker bench must report cpu/wall > 1.0 — and the
// per-worker attribution folded in with add_worker_cpu must show up as
// worker_cpu_seconds. The ratio assertion only arms on hosts with the
// cores to produce it.
TEST(BenchJson, ParallelResourcesAttributeWorkerCpu) {
  util::BenchReport report("parallel_probe");
  exec::Options opt;
  opt.workers = 4;
  exec::PoolStats stats;
  exec::run_shards(
      8,
      [](const exec::Context& ctx) {
        // ~40ms of genuine compute per shard, measured on the thread clock.
        util::ThreadCpuStopwatch cpu;
        volatile std::uint64_t sink = static_cast<std::uint64_t>(ctx.shard());
        while (cpu.seconds() < 0.04) {
          sink = sink * 6364136223846793005ull + 1442695040888963407ull;
        }
        util::Json doc = util::Json::object();
        doc.set("sink", static_cast<std::int64_t>(sink & 0x7fffffff));
        return doc;
      },
      opt, &stats);
  for (const exec::WorkerStats& w : stats.per_worker) {
    report.add_worker_cpu(w.cpu_seconds);
  }

  const util::Json res = report.resources();
  ASSERT_NE(res.find("worker_cpu_seconds"), nullptr);
  EXPECT_GT(res.find("worker_cpu_seconds")->as_double(), 0.0);
  ASSERT_NE(res.find("workers_sampled"), nullptr);
  EXPECT_EQ(res.find("workers_sampled")->as_int(), 4);
  // Workers burned ~0.32s of CPU; the process clock must have seen it.
  EXPECT_GE(res.find("cpu_seconds")->as_double(),
            0.5 * res.find("worker_cpu_seconds")->as_double());

  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "cpu/wall ratio gate needs >= 4 hardware threads";
  }
  const double cpu = res.find("cpu_seconds")->as_double();
  const double wall = res.find("wall_seconds")->as_double();
  EXPECT_GT(cpu / wall, 1.0) << "4 workers should out-run the wall clock";
}

TEST(JsonProperty, RandomDocumentsRoundTrip) {
  const auto result = proptest::check<util::Json>(
      /*seed=*/20260805, /*cases=*/300,
      [](util::Rng& rng) { return random_doc(rng, 4); },
      [](const util::Json& doc) {
        return util::Json::parse(doc.dump()) == doc &&
               util::Json::parse(doc.dump(2)) == doc;
      });
  EXPECT_TRUE(result.ok) << "case " << result.failing_case
                         << " failed round trip:\n"
                         << result.counterexample.dump(2);
  EXPECT_EQ(result.cases_run, 300);
}

TEST(JsonProperty, ShrinkConvergesToMinimalCounterexample) {
  // Deliberately failing property to pin down the shrinker: values >= 100
  // violate it, and {v/2, v-1} candidates must walk down to exactly 100.
  const auto result = proptest::check<std::int64_t>(
      /*seed=*/7, /*cases=*/100,
      [](util::Rng& rng) { return rng.range(0, 1000); },
      [](const std::int64_t& v) { return v < 100; },
      [](const std::int64_t& v) {
        return std::vector<std::int64_t>{v / 2, v - 1};
      });
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.counterexample, 100);
  EXPECT_GT(result.shrink_probes, 0);
}

}  // namespace
}  // namespace la1
