// perfbench — end-to-end benchmark of mobiledl's three user-facing paths.
//
//   perfbench --workload <keystroke_sessions|split_requests|federated_rounds>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints host provenance and check lines prefixed with '#', then one JSON
// object as the last line: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs with spans on and the module probe follows, and the metrics
// are the per-layer ones. See README.md.
#include <exception>
#include <iostream>

#include "common.hpp"
#include "perfbench.hpp"
#include "reference.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    print_provenance();
    std::cout << "# workload: " << args.workload << "  seed: " << args.seed
              << "  seconds: " << args.seconds
              << "  trace: " << (args.trace ? 1 : 0) << "\n";
    Report report;
    const std::string ref_error = ref::self_test();
    report.check(ref_error.empty(), "reference self-test" +
                                        (ref_error.empty() ? std::string()
                                                           : ": " + ref_error));
    Tracer::global().set_enabled(args.trace);
    run_workload(args, report);
    if (args.trace) Tracer::global().print_summary();
    print_result(report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
