// Drift check for the la1check and la1batch command surfaces: each tool's
// `--help` commands section, the README command tables and the dispatchers
// must all agree on the set of subcommands. A new subcommand that forgets
// its --help line or its README row fails here, not in a user's terminal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

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
