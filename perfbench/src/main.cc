// sstore_bench: the repository's end-to-end benchmark driver.
//
//   sstore_bench --workload <voter-wire|voter-wire-ladder|linear-road|linear-road-2p|
//                            voter-mp-durable>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--tiny] [--corrupt <check>] [--out-dir <dir>]
//
// Prints a human-readable report, then one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones (see
// perfbench/README.md). Exits 1 when any correctness check fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: sstore_bench --workload <voter-wire|voter-wire-ladder|linear-road|"
               "linear-road-2p|voter-mp-durable> --seed <n> --seconds <s> --trace <0|1> "
               "[--tiny] [--corrupt <check>] [--out-dir <dir>]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      args.trace = std::atoi(argv[++i]) != 0;
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--corrupt" && has_value) {
      args.corrupt = argv[++i];
    } else if (flag == "--out-dir" && has_value) {
      args.out_dir = argv[++i];
    } else {
      Usage();
      return 2;
    }
  }
  if (args.seconds <= 0) {
    Usage();
    return 2;
  }

  perfbench::Report report(args);
  report.Context("seed", std::to_string(args.seed));
  try {
    if (args.workload == "voter-wire") {
      perfbench::RunVoterWire(args, /*ladder=*/false, &report);
    } else if (args.workload == "voter-wire-ladder") {
      perfbench::RunVoterWire(args, /*ladder=*/true, &report);
    } else if (args.workload == "linear-road") {
      perfbench::RunLinearRoad(args, /*compare_1p=*/true, &report);
    } else if (args.workload == "linear-road-2p") {
      perfbench::RunLinearRoad(args, /*compare_1p=*/false, &report);
    } else if (args.workload == "voter-mp-durable") {
      perfbench::RunVoterMpDurable(args, &report);
    } else {
      Usage();
      return 2;
    }
  } catch (const std::exception& e) {
    report.Fail(std::string("exception: ") + e.what());
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
