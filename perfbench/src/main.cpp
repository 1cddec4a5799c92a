// Serving-path benchmark of the FLeet reproduction: one command, three
// workloads, every end-to-end metric by name with unit and sample count,
// correctness checks, and a separate traced run (--trace 1) that
// attributes each gradient's path to the library's layers.
//
//   perfbench --workload online-serve|tenant-flood|device-train
//             --seed N --seconds S --trace 0|1
//             [--trace-out PATH] [--arrivals-per-s R (online-serve)]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed correctness check exits with status 1, a bad argument with 2.
#include <exception>
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  now_ns();  // start the benchmark clock at process start
  steal_pct();
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n"
              << "usage: perfbench --workload online-serve|tenant-flood|"
                 "device-train --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  // A traced run measures an untraced window (for telemetry.overhead_pct)
  // and then a traced one; each gets half the run's time.
  if (args.trace) args.seconds /= 2;
  Report report;
  try {
    if (args.workload == "online-serve") {
      run_online_serve(args, report);
    } else if (args.workload == "tenant-flood") {
      run_tenant_flood(args, report);
    } else if (args.workload == "device-train") {
      run_device_train(args, report);
    } else {
      std::cerr << "perfbench: unknown workload " << args.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  std::cout << "workload " << args.workload << " seed " << args.seed
            << " seconds " << args.seconds << " trace " << args.trace << "\n"
            << "fingerprint " << fingerprint() << "\n"
            << "cpu steal during the run " << steal_pct() << "%\n";
  if (args.trace) {
    report.print(per_layer_metrics());
  } else {
    report.print(end_to_end_metrics(), tail_metrics());
  }
  return report.correct() ? 0 : 1;
}
