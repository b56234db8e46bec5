// Command-line surface tests: runs the built `healer` binary and checks that
// malformed input is rejected with exit status 2 and a message naming the
// offending flag, while well-formed invocations still succeed.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace {

struct CliRun {
  int status = -1;
  std::string err;
};

// Runs `healer <args>` with stdout discarded; returns the exit status and
// stderr.
CliRun RunCli(const std::string& args) {
  // Per-process name: ctest runs each test case as its own process.
  const std::string err_path = ::testing::TempDir() + "healer_cli_test." +
                               std::to_string(::getpid()) + ".err";
  const std::string cmd = std::string(HEALER_CLI_PATH) + " " + args +
                          " >/dev/null 2>" + err_path;
  const int raw = std::system(cmd.c_str());
  CliRun run;
  run.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  std::ifstream in(err_path);
  std::stringstream buf;
  buf << in.rdbuf();
  run.err = buf.str();
  std::remove(err_path.c_str());
  return run;
}

void ExpectRejected(const std::string& args, const std::string& flag) {
  const CliRun run = RunCli(args);
  EXPECT_EQ(run.status, 2) << "healer " << args;
  EXPECT_NE(run.err.find(flag), std::string::npos)
      << "healer " << args << " printed: " << run.err;
}

TEST(CliFlagsTest, UnknownFlagsExit2AndNameTheFlag) {
  ExpectRejected("fuzz --no-such-flag", "--no-such-flag");
  ExpectRejected("fuzz --hours 0.01 --no-such-flag 3", "--no-such-flag");
  ExpectRejected("bugs --probe", "--probe");
  ExpectRejected("fuzz stray-positional", "stray-positional");
}

TEST(CliFlagsTest, MalformedNumbersExit2AndNameTheFlag) {
  ExpectRejected("fuzz --seed abc", "--seed");
  ExpectRejected("fuzz --seed -3", "--seed");
  ExpectRejected("fuzz --seed 12abc", "--seed");
  ExpectRejected("fuzz --seed 99999999999999999999999", "--seed");
  ExpectRejected("fuzz --fault-rate xyz", "--fault-rate");
  ExpectRejected("fuzz --fault-rate -0.1", "--fault-rate");
  ExpectRejected("fuzz --fault-rate 1.5", "--fault-rate");
  ExpectRejected("fuzz --hours 1x", "--hours");
  ExpectRejected("fuzz --hours nan", "--hours");
  ExpectRejected("fuzz --hours", "--hours");
  ExpectRejected("fuzz --fleet-size 4k", "--fleet-size");
  ExpectRejected("fuzz --shards two", "--shards");
  ExpectRejected("fuzz --max-execs ''", "--max-execs");
  ExpectRejected("fuzz --http-port 70000", "--http-port");
  ExpectRejected("shard --shards 2 --shard-index x --gossip-dir d",
                 "--shard-index");
  ExpectRejected("reconcile --shards -1 --gossip-dir d", "--shards");
}

TEST(CliFlagsTest, UnknownEnumValuesExit2) {
  ExpectRejected("bugs --version 9.9", "--version");
  ExpectRejected("fuzz --tool afl", "--tool");
}

TEST(CliFlagsTest, FlagsOutsideTheirModeExit2) {
  ExpectRejected("fuzz --shards 2 --metrics-out m.prom", "--metrics-out");
  ExpectRejected("fuzz --shards 2 --journal-out j.jsonl", "--journal-out");
  ExpectRejected("fuzz --rounds 3", "--rounds");
}

TEST(CliFlagsTest, WellFormedInvocationsSucceed) {
  EXPECT_EQ(RunCli("bugs --version 4.19").status, 0);
  EXPECT_EQ(RunCli("fuzz --hours 0.05 --seed 3 --max-execs 20 "
                   "--fault-rate 0.01 --fleet-size 8")
                .status,
            0);
  EXPECT_EQ(RunCli("fuzz --shards 2 --rounds 1 --execs-per-round 8 "
                   "--seed 2 --sequential")
                .status,
            0);
}

}  // namespace
