// `ssmwn protocol --live` end to end: the CLI's synchronous live path
// must honor the engine contract that dirty stepping is bit-identical
// to full stepping. Rebuild mode replaces the graph in place with no
// edge delta, so the engine only learns of the change when the caller
// re-announces the graph; a full-stepping run that skips the
// re-announcement keeps redelivering rows as if every listener had
// consumed them on the old adjacency, and its re-convergence times drift
// from the dirty run's.
//
// The CLI binary's path arrives via SSMWN_CLI_BIN (set by CMake from
// $<TARGET_FILE:ssmwn_cli>); the test is skipped when absent so the
// bare test binary still runs standalone.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <regex>
#include <string>
#include <vector>

namespace {

/// Runs the CLI with `args` and returns its stdout.
std::string run_cli(const std::string& args) {
  const std::string command =
      std::string(std::getenv("SSMWN_CLI_BIN")) + " " + args;
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string out;
  char buffer[4096];
  while (const std::size_t got = std::fread(buffer, 1, sizeof buffer, pipe)) {
    out.append(buffer, got);
  }
  ::pclose(pipe);
  return out;
}

/// The virtual-time readings of a live run: the cold-start convergence
/// time and every window's re-convergence time. Message counts are left
/// out on purpose — dirty stepping counts only active receivers.
std::vector<std::string> times(const std::string& out) {
  static const std::regex kTime(R"((t=|in )[0-9.]+s)");
  std::vector<std::string> found;
  for (auto it = std::sregex_iterator(out.begin(), out.end(), kTime);
       it != std::sregex_iterator(); ++it) {
    found.push_back(it->str());
  }
  return found;
}

TEST(CliLive, RebuildModeFullSteppingMatchesDirtyStepping) {
  if (std::getenv("SSMWN_CLI_BIN") == nullptr) {
    GTEST_SKIP() << "SSMWN_CLI_BIN not set (run via ctest)";
  }
  for (const int seed : {1, 9}) {
    const std::string args =
        "protocol --n 600 --radius 0.07 --steps 60 --live --windows 5 "
        "--topology rebuild --seed " + std::to_string(seed);
    const auto full = times(run_cli(args));
    const auto dirty = times(run_cli(args + " --stepping dirty"));
    ASSERT_EQ(full.size(), 6u) << "seed " << seed;
    EXPECT_EQ(full, dirty) << "seed " << seed;
  }
}

}  // namespace
