// The serving executables' command lines, driven as a user drives them:
// dsp_solve keeps --threads (its batch fan-out uses it), while the daemon,
// which solves each request on its connection's thread, does not take it;
// --steal and the retired probe and pricing widths are unknown to both.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// Runs `command` through the shell and returns its exit code and stdout
/// (stderr too when the command redirects it).
RunResult run(const std::string& command) {
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.output.append(buffer, got);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string quoted(const std::string& path) { return "'" + path + "'"; }

const std::string kSolve = quoted(DSP_SOLVE_BIN);
const std::string kServed = quoted(DSP_SERVED_BIN);

/// A flag the executable no longer knows: usage status 1 and the flag
/// named in the error, before anything is served.
void expect_unknown_flag(const std::string& binary, const std::string& name,
                         const std::string& flag) {
  const RunResult result =
      run(binary + " " + flag + " 2 examples/instances 2>&1");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find(name + ": unknown flag " + flag),
            std::string::npos)
      << result.output;
}

class DspServedRetiredFlag : public ::testing::TestWithParam<const char*> {};

TEST_P(DspServedRetiredFlag, IsRejectedAsUnknown) {
  expect_unknown_flag(kServed, "dsp_served", GetParam());
}

INSTANTIATE_TEST_SUITE_P(Cli, DspServedRetiredFlag,
                         ::testing::Values("--threads", "--steal",
                                           "--probe-concurrency",
                                           "--pricing-threads"));

class DspSolveRetiredFlag : public ::testing::TestWithParam<const char*> {};

TEST_P(DspSolveRetiredFlag, IsRejectedAsUnknown) {
  expect_unknown_flag(kSolve, "dsp_solve", GetParam());
}

INSTANTIATE_TEST_SUITE_P(Cli, DspSolveRetiredFlag,
                         ::testing::Values("--steal", "--probe-concurrency",
                                           "--pricing-threads"));

TEST(DspServedCli, UsageListsNoThreadOrTuningFlags) {
  const RunResult result = run(kServed + " --help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("usage: dsp_served"), std::string::npos);
  for (const char* flag :
       {"--threads", "--steal", "--probe-concurrency", "--pricing-threads"}) {
    EXPECT_EQ(result.output.find(flag), std::string::npos)
        << flag << " in\n" << result.output;
  }
}

TEST(DspSolveCli, UsageKeepsThreads) {
  const RunResult result = run(kSolve + " --help");
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.output.find("[--threads N]"), std::string::npos)
      << result.output;
  for (const char* flag :
       {"--steal", "--probe-concurrency", "--pricing-threads"}) {
    EXPECT_EQ(result.output.find(flag), std::string::npos)
        << flag << " in\n" << result.output;
  }
}

class DspSolveThreads : public ::testing::TestWithParam<const char*> {};

TEST_P(DspSolveThreads, ServesTheGoldenCorpus) {
  // The golden file was written with --threads 1; a wider batch fan-out
  // must serve the same rows byte for byte.
  const RunResult result =
      run("cd " + quoted(DSP_SOURCE_DIR) + " && " + kSolve + " --threads " +
          GetParam() +
          " --repeat 2 --cache-mb 8 examples/instances 2>/dev/null");
  ASSERT_EQ(result.exit_code, 0);
  std::ifstream golden(std::string(DSP_SOURCE_DIR) +
                       "/examples/dsp_solve_expected.jsonl");
  ASSERT_TRUE(golden.is_open());
  std::ostringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(result.output, expected.str());
}

INSTANTIATE_TEST_SUITE_P(Cli, DspSolveThreads, ::testing::Values("2", "8"));

TEST(DspSolveCli, ThreadsRejectsTrailingGarbage) {
  const RunResult result =
      run(kSolve + " --threads 4x examples/instances 2>&1");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.output.find("bad value for --threads: 4x"),
            std::string::npos)
      << result.output;
}

}  // namespace
