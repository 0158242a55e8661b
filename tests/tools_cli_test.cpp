// Drift check for the la1check and la1batch command surfaces: each tool's
// `--help` commands section, the README command tables and the dispatchers
// must all agree on the set of subcommands. A new subcommand that forgets
// its --help line or its README row fails here, not in a user's terminal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "util/cli.hpp"
#include "util/strings.hpp"

namespace la1 {
namespace {

#ifndef LA1_LA1CHECK
#error "LA1_LA1CHECK must point at the la1check binary"
#endif
#ifndef LA1_README
#error "LA1_README must point at the repo README.md"
#endif
#ifndef LA1_LA1BATCH
#error "LA1_LA1BATCH must point at the la1batch binary"
#endif

// Every subcommand the driver dispatches. Adding one? Extend this list,
// the --help text and the README table together.
const std::set<std::string> kExpected = {
    "sim", "asm",    "rtl",  "verilog", "flow", "flowan", "lint",
    "dfa", "faults", "cov",  "msc",     "plan", "csim"};

// The batch tool's own dispatcher.
const std::set<std::string> kBatchExpected = {"run", "example"};

/// A scratch file of this test process: ctest runs the cases of this
/// binary as concurrent processes, so a shared name would race.
std::string temp_path(const std::string& name) {
  return testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string run_tool_help(const std::string& binary, int* exit_code) {
  const std::string out_path = temp_path("la1_tool_help.txt");
  std::remove(out_path.c_str());
  const std::string cmd = binary + " --help > " + out_path + " 2>&1";
  *exit_code = std::system(cmd.c_str());
  return read_file(out_path);
}

std::string run_help(int* exit_code) {
  return run_tool_help(LA1_LA1CHECK, exit_code);
}

// Parses the `commands:` section: every line of the form "  name  text"
// until the next unindented section header. Continuation lines (deeper
// indentation) belong to the previous command and are skipped.
std::set<std::string> help_commands(const std::string& help) {
  std::set<std::string> out;
  std::istringstream in(help);
  std::string line;
  bool in_commands = false;
  while (std::getline(in, line)) {
    if (line == "commands:") {
      in_commands = true;
      continue;
    }
    if (in_commands && !line.empty() && line[0] != ' ') break;
    if (in_commands && line.rfind("  ", 0) == 0 && line.size() > 2 &&
        line[2] != ' ') {
      const std::size_t end = line.find(' ', 2);
      out.insert(line.substr(2, end - 2));
    }
  }
  return out;
}

// Parses the README command table: rows of the form "| `name` | ... |".
std::set<std::string> readme_commands() {
  std::set<std::string> out;
  std::ifstream in(LA1_README);
  std::string line;
  while (std::getline(in, line)) {
    const std::string prefix = "| `";
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t end = line.find('`', prefix.size());
    if (end == std::string::npos) continue;
    const std::string name = line.substr(prefix.size(), end - prefix.size());
    // Only single-word lowercase tokens are command rows; other tables in
    // the README quote rule ids and file names.
    if (!name.empty() &&
        std::all_of(name.begin(), name.end(),
                    [](char c) { return c >= 'a' && c <= 'z'; })) {
      out.insert(name);
    }
  }
  return out;
}

TEST(ToolsCli, HelpExitsZeroAndListsEveryCommand) {
  int exit_code = -1;
  const std::string help = run_help(&exit_code);
  EXPECT_EQ(exit_code, 0) << help;
  EXPECT_EQ(help_commands(help), kExpected) << help;
}

TEST(ToolsCli, HelpDescribesEveryCommandOnItsLine) {
  int exit_code = -1;
  const std::string help = run_help(&exit_code);
  std::istringstream in(help);
  std::string line;
  bool in_commands = false;
  while (std::getline(in, line)) {
    if (line == "commands:") {
      in_commands = true;
      continue;
    }
    if (in_commands && !line.empty() && line[0] != ' ') break;
    if (!in_commands || line.rfind("  ", 0) != 0 || line.size() <= 2 ||
        line[2] == ' ') {
      continue;
    }
    // "  name   description": a one-line description must follow the name.
    const std::size_t end = line.find(' ', 2);
    ASSERT_NE(end, std::string::npos) << line;
    EXPECT_GT(line.size(), end + 2) << "no description for: " << line;
  }
}

TEST(ToolsCli, ReadmeCommandTableMatchesHelp) {
  EXPECT_EQ(readme_commands(), kExpected);
}

TEST(ToolsCli, HelpPinsBackendSelectionFlag) {
  // `faults --backend interpreted|compiled` is the simulator-selection
  // surface; losing the flag (or renaming a backend) is a breaking change.
  int exit_code = -1;
  const std::string help = run_help(&exit_code);
  EXPECT_NE(help.find("--backend interpreted|compiled"), std::string::npos)
      << help;
}

TEST(ToolsCli, CompiledFaultsReportMatchesInterpretedByteForByte) {
  // The same tiny fixed-seed campaign on both backends: the JSON reports
  // must be byte-identical — backend choice is unobservable in verdicts.
  const std::string dir = testing::TempDir();
  const std::string args =
      " faults --banks 1 --seed 5 --transactions 40 --structural 2 "
      "--protocol 1 --no-mc --json ";
  const std::string interp = dir + "la1_faults_interp.json";
  const std::string compiled = dir + "la1_faults_compiled.json";
  ASSERT_EQ(std::system((std::string(LA1_LA1CHECK) + args + interp +
                         " --backend interpreted > /dev/null 2>&1")
                            .c_str()),
            0);
  ASSERT_EQ(std::system((std::string(LA1_LA1CHECK) + args + compiled +
                         " --backend compiled > /dev/null 2>&1")
                            .c_str()),
            0);
  std::ifstream a(interp), b(compiled);
  std::ostringstream ja, jb;
  ja << a.rdbuf();
  jb << b.rdbuf();
  ASSERT_FALSE(ja.str().empty());
  EXPECT_EQ(ja.str(), jb.str());
}

TEST(ToolsCli, SimBoundsRepetitionCountsAndChecksAtomsFirst) {
  // A SERE repetition unrolls one NFA copy per count: a huge count is a
  // parse diagnostic, and an unknown atom fails before any unrolling
  // (both used to hang, or fail only after the unroll).
  const std::string out = temp_path("la1_sim_repetition.txt");
  const auto sim = [&out](const std::string& prop) {
    const int status = std::system(("timeout 5 " + std::string(LA1_LA1CHECK) +
                                    " sim --prop '" + prop + "' > " + out +
                                    " 2>&1")
                                       .c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  EXPECT_EQ(sim("never {a[*100000]; b}"), 2);
  EXPECT_NE(read_file(out).find("exceeds the limit of 1024"), std::string::npos)
      << read_file(out);
  EXPECT_EQ(sim("never {a[*1000]; b}"), 2);
  EXPECT_NE(read_file(out).find("unknown signal: a"), std::string::npos)
      << read_file(out);
}

TEST(ToolsCli, SimRejectsNestingDeeperThanTheLimit) {
  // Each nesting level is one parser frame: 60,000 of them used to
  // overflow the stack (exit 139) instead of failing with a diagnostic.
  const std::string out = temp_path("la1_sim_nesting.txt");
  const auto sim = [&out](const std::string& prop) {
    const int status = std::system(("timeout 5 " + std::string(LA1_LA1CHECK) +
                                    " sim --prop '" + prop + "' > " + out +
                                    " 2>&1")
                                       .c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  const std::string limit = "nesting deeper than the limit of 256";
  EXPECT_EQ(sim(std::string(60000, '(') + "a" + std::string(60000, ')')), 2);
  EXPECT_NE(read_file(out).find(limit), std::string::npos) << read_file(out);
  EXPECT_EQ(sim(std::string(60000, '!') + "a"), 2);
  EXPECT_NE(read_file(out).find(limit), std::string::npos) << read_file(out);
}

TEST(ToolsCli, MscRejectsRegionsNestedDeeperThanTheLimit) {
  // 100,000 nested regions used to overflow the stack (exit 139); now the
  // parser stops at the first region past the limit with a located
  // diagnostic, exit 1 like every other chart syntax error.
  const std::string chart = temp_path("la1_deep.msc");
  const std::string out = temp_path("la1_msc_nesting.txt");
  {
    std::ofstream f(chart);
    f << "msc Deep {\n  lifeline A\n  lifeline B\n";
    for (int i = 0; i < 100000; ++i) f << "opt {\n";
    f << "A -> B : Op[0]()@K\n";
    for (int i = 0; i < 100000; ++i) f << "}\n";
    f << "}\n";
  }
  const int status =
      std::system(("timeout 5 " + std::string(LA1_LA1CHECK) + " msc " + chart +
                   " > " + out + " 2>&1")
                      .c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  EXPECT_NE(read_file(out).find(chart +
                                ":260:1: opt region nested deeper than the "
                                "limit of 256"),
            std::string::npos)
      << read_file(out).substr(0, 400);
}

TEST(ToolsCli, UnknownFailOnIsRejectedBeforeAnyAnalysis) {
  // A bad --fail-on value is a usage error reported up front: no findings
  // table, cost table or sweep listing is printed before it.
  const std::string out = temp_path("la1_fail_on.txt");
  for (const std::string command : {"lint", "dfa", "flowan", "plan"}) {
    const int status =
        std::system((std::string(LA1_LA1CHECK) + " " + command +
                     " --fail-on bogus > " + out + " 2>&1")
                        .c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 2) << command;
    EXPECT_EQ(read_file(out), "error: unknown severity: bogus\n") << command;
  }
}

TEST(ToolsCli, UnknownInjectExitsTwoListingTheCatalog) {
  // The lint, flow and plan fixture catalogs share one lookup: an unknown
  // --inject name is a usage error that names every fixture it could be.
  const std::string out = temp_path("la1_bad_inject.txt");
  const std::vector<std::pair<std::string, std::string>> catalogs = {
      {"lint",
       "loop, double-driver, width-mismatch, no-reset, name-collision, "
       "stuck-reg, x-reset, dead-logic, dup-reg, unsat-sere, missing-net"},
      {"flowan", "bank-leak, ctrl-in-data, undriven-atom, dead-atom"},
      {"plan",
       "x-live-hotpath, port-conflict, tristate-lower, sched-diverge"},
  };
  for (const auto& [command, names] : catalogs) {
    const int status =
        std::system((std::string(LA1_LA1CHECK) + " " + command +
                     " --inject bogus > " + out + " 2>&1")
                        .c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 2) << command;
    EXPECT_EQ(read_file(out),
              "error: unknown injected defect 'bogus' (known: " + names +
                  ")\n")
        << command;
  }
}

TEST(ToolsCli, UnwritableOutputPathExitsTwo) {
  // Every file la1check writes goes through one checked sink: a path it
  // cannot open is an error, never a "wrote N bytes" success line.
  const std::string out = temp_path("la1_unwritable.txt");
  const std::string missing = temp_path("la1_no_such_dir") + "/";
  const auto run = [&out](const std::string& args) {
    const int status = std::system(
        (std::string(LA1_LA1CHECK) + " " + args + " > " + out + " 2>&1")
            .c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  EXPECT_EQ(run("verilog --out " + missing + "x.v"), 2);
  EXPECT_EQ(read_file(out), "cannot write " + missing + "x.v\n");
  EXPECT_EQ(run("lint --json " + missing + "x.json"), 2);
  EXPECT_NE(read_file(out).find("cannot write " + missing + "x.json\n"),
            std::string::npos)
      << read_file(out);
  EXPECT_EQ(run("cov --shrink --transactions 20 --out " + missing + "r.json"),
            2);
  EXPECT_NE(read_file(out).find("cannot write " + missing + "r.json\n"),
            std::string::npos)
      << read_file(out);
  EXPECT_EQ(read_file(out).find("wrote"), std::string::npos) << read_file(out);
}

TEST(ToolsCli, MalformedNumbersExitTwoNamingTheFlag) {
  // A numeric flag takes a whole number or the tool refuses to run: no
  // "2x" read as 2, no bare flag read as 0, no zero-cycle timing.
  const std::string out = temp_path("la1_bad_number.txt");
  const auto run = [&out](const std::string& binary, const std::string& args) {
    const int status = std::system(
        (binary + " " + args + " > " + out + " 2>&1").c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  const std::string la1check = LA1_LA1CHECK;
  EXPECT_EQ(run(la1check, "csim --cycles abc"), 2);
  EXPECT_EQ(read_file(out),
            "error: --cycles: expected an integer, got 'abc'\n");
  EXPECT_EQ(run(la1check, "sim --banks 2x"), 2);
  EXPECT_EQ(read_file(out), "error: --banks: expected an integer, got '2x'\n");
  EXPECT_EQ(run(la1check, "sim --ticks"), 2);
  EXPECT_EQ(read_file(out),
            "error: --ticks: expected an integer, got 'true'\n");
  EXPECT_EQ(run(la1check, "csim --cycles 0"), 2);
  EXPECT_EQ(read_file(out), "error: --cycles must be at least 1\n");

  const std::string job = temp_path("la1batch_job.json");
  ASSERT_EQ(std::system((std::string(LA1_LA1BATCH) + " example > " + job)
                            .c_str()),
            0);
  EXPECT_EQ(run(LA1_LA1BATCH, "run " + job + " --workers 2x"), 2);
  EXPECT_EQ(read_file(out),
            "error: --workers: expected an integer, got '2x'\n");
}

TEST(ToolsCli, OutOfRangeNumbersExitTwoNamingTheFlagAndBound) {
  // A whole number that does not fit the flag's range is refused, not
  // narrowed: 4294967297 used to run as 1 tick (and 1 timed cycle).
  const std::string out = temp_path("la1_out_of_range.txt");
  const auto run = [&out](const std::string& binary, const std::string& args) {
    const int status = std::system(
        (binary + " " + args + " > " + out + " 2>&1").c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  const std::string la1check = LA1_LA1CHECK;
  const std::string sim = "sim --prop 'never {bus_conflict}'";
  EXPECT_EQ(run(la1check, sim + " --ticks 4294967297"), 2);
  EXPECT_EQ(read_file(out), "error: --ticks must be at most 2147483647\n");
  EXPECT_EQ(run(la1check, "csim --cycles 4294967297"), 2);
  EXPECT_EQ(read_file(out), "error: --cycles must be at most 2147483647\n");
  EXPECT_EQ(run(la1check, sim + " --banks -4294967295"), 2);
  EXPECT_EQ(read_file(out), "error: --banks must be at least 1\n");
  EXPECT_EQ(run(la1check, "faults --workers 0 --no-mc"), 2);
  EXPECT_EQ(read_file(out), "error: --workers must be at least 1\n");

  const std::string job = temp_path("la1batch_range_job.json");
  ASSERT_EQ(std::system((std::string(LA1_LA1BATCH) + " example > " + job)
                            .c_str()),
            0);
  EXPECT_EQ(run(LA1_LA1BATCH, "run " + job + " --workers 4294967298"), 2);
  EXPECT_EQ(read_file(out), "error: --workers must be at most 2147483647\n");
}

/// Runs `binary args` with stdout and stderr captured apart; the exit
/// status, or -1 when the tool did not exit.
int run_split(const std::string& binary, const std::string& args,
              std::string* out, std::string* err) {
  const std::string out_path = temp_path("la1_split_out.txt");
  const std::string err_path = temp_path("la1_split_err.txt");
  const int status = std::system((binary + " " + args + " > " + out_path +
                                  " 2> " + err_path)
                                     .c_str());
  *out = read_file(out_path);
  *err = read_file(err_path);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// A shipped chart, found beside the README.
std::string example_chart() {
  const std::string readme = LA1_README;
  return readme.substr(0, readme.rfind('/') + 1) + "examples/read_mode.msc";
}

TEST(ToolsCli, UnknownFlagExitsTwoBeforeAnyWork) {
  // A misspelled flag (`asm --max-state 10`) must not run the command with
  // the flag ignored: every command refuses it before doing anything, so
  // nothing reaches stdout and a missing job file is never even opened.
  const std::string missing = temp_path("la1_no_such_job.json");
  const auto check = [](const std::string& binary, const std::string& command,
                        const std::string& operand) {
    std::string out, err;
    EXPECT_EQ(run_split(binary, command + operand + " --bnaks 4", &out, &err),
              2)
        << command;
    EXPECT_EQ(out, "") << command;
    EXPECT_EQ(err, "error: " + command + ": unknown option --bnaks\n")
        << command;
  };
  for (const std::string& command : kExpected) {
    check(LA1_LA1CHECK, command,
          command == "msc" ? util::cat({" ", example_chart()}) : "");
  }
  for (const std::string& command : kBatchExpected) {
    check(LA1_LA1BATCH, command, command == "run" ? " " + missing : "");
  }
}

TEST(ToolsCli, BooleanFlagDoesNotSwallowThePositional) {
  // `--lint` takes no value, so the chart path after it stays the operand.
  std::string out, err;
  EXPECT_EQ(run_split(LA1_LA1CHECK, "msc --lint " + example_chart() +
                                        " --json -",
                      &out, &err),
            0)
      << err;
  EXPECT_NE(out.find(example_chart() + ": chart 'ReadMode' ok"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"lint\": {"), std::string::npos) << out;
}

TEST(ToolsCli, OversizedInputFilesExitTwoBeforeParsing) {
  // Every file input goes through one bounded reader. A sparse file one
  // byte over the limit writes no data yet must be refused.
  const std::string big = temp_path("la1_oversized.txt");
  std::ofstream(big).close();
  std::filesystem::resize_file(big, util::kMaxInputBytes + 1);
  const std::string expected = "error: " + big +
                               ": larger than the limit of " +
                               std::to_string(util::kMaxInputBytes) +
                               " bytes\n";
  const std::vector<std::pair<std::string, std::string>> runs = {
      {LA1_LA1CHECK, "msc " + big},
      {LA1_LA1CHECK, "sim --vunit-file " + big},
      {LA1_LA1CHECK, "lint --vunit-file " + big},
      {LA1_LA1CHECK, "cov --replay " + big},
      {LA1_LA1BATCH, "run " + big},
  };
  for (const auto& [binary, args] : runs) {
    std::string out, err;
    EXPECT_EQ(run_split(binary, args, &out, &err), 2) << args;
    EXPECT_EQ(err, expected) << args;
  }
  std::remove(big.c_str());
}

TEST(ToolsCli, CsimSubcommandProvesParityAndReportsSpeedup) {
  const std::string dir = testing::TempDir();
  const std::string out = dir + "la1_csim.json";
  ASSERT_EQ(std::system((std::string(LA1_LA1CHECK) +
                         " csim --banks 1 --cycles 50 --parity-cycles 20 "
                         "--json " +
                         out + " > /dev/null 2>&1")
                            .c_str()),
            0);
  std::ifstream in(out);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"parity_ok\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("per_stream_speedup"), std::string::npos) << json;
}

TEST(ToolsCli, BatchHelpExitsZeroAndListsEveryCommand) {
  int exit_code = -1;
  const std::string help = run_tool_help(LA1_LA1BATCH, &exit_code);
  EXPECT_EQ(exit_code, 0) << help;
  EXPECT_EQ(help_commands(help), kBatchExpected) << help;
}

TEST(ToolsCli, BatchExampleRoundTripsThroughItsOwnRunner) {
  // `la1batch example` must emit a job file the tool itself accepts: the
  // shipped example is the quick-start, so it breaking is a user-facing bug.
  const std::string dir = testing::TempDir();
  const std::string job = dir + "la1batch_example.json";
  const std::string cmd = std::string(LA1_LA1BATCH) + " example > " + job;
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  const std::string check =
      std::string(LA1_LA1BATCH) + " run " + job +
      " --workers 2 > " + dir + "la1batch_example_run.txt 2>&1";
  EXPECT_EQ(std::system(check.c_str()), 0);
}

TEST(ToolsCli, ReadmeDocumentsTheBatchTool) {
  // The README command table quotes `la1batch ...` invocations; the name
  // contains a digit, so it never collides with the la1check command set
  // parsed above — pin its presence directly.
  std::ifstream in(LA1_README);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string readme = buf.str();
  EXPECT_NE(readme.find("| `la1batch run"), std::string::npos)
      << "README command table must document `la1batch run`";
  EXPECT_NE(readme.find("| `la1batch example"), std::string::npos)
      << "README command table must document `la1batch example`";
}

}  // namespace
}  // namespace la1
