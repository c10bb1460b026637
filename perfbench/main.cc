// perfbench: the sqlflow benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//   perfbench --self-test
//
// Prints human-readable lines, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness oracle failed, 2 on bad arguments, 3 when set-up failed.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--smoke] [--work-dir DIR]\n"
               "       perfbench --self-test\n"
               "workloads:",
               why);
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else if (arg == "--work-dir") {
        options.work_dir = value();
      } else if (arg == "--self-test") {
        self_test = true;
      } else {
        Usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      Usage(("bad value for " + arg).c_str());
    }
  }
  if (self_test) return perfbench::RunSelfTests(std::cout) ? 0 : 1;

  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known |= name == options.workload;
  }
  if (!known) Usage("unknown or missing --workload");
  if (!(options.seconds > 0 && options.seconds <= 600)) {
    Usage("--seconds must be in (0, 600]");
  }

  perfbench::Report report;
  perfbench::RunWorkload(options, &report);
  report.Print(std::cout);
  return report.correct ? 0 : 1;
}
