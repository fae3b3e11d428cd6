// End-to-end benchmark entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Runs one workload and prints, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics": {name: value}}.
// Untraced runs report the end-to-end metrics; traced runs report the
// per-layer metrics of the layers the workload exercises and write their
// spans under .bench_out/. perfbench/run.py checks the names against
// BENCHMARK.json and adds the units. Exits 1 when an output check failed or
// the workload threw, 2 on bad arguments.
#include <cstdio>
#include <exception>
#include <string>

#include "common.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  Result (*run)(const Args&);
};

constexpr Workload kWorkloads[] = {
    {"compile_zoo", run_compile_zoo},
    {"offline_bert", run_offline_bert},
    {"serve_fleet", run_serve_fleet},
};

int run(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (!workload) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  Result result;
  try {
    result = workload->run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (result.tally.attempted == 0) result.tally.fail("no operation completed");
  if (!result.tally.all_ok()) {
    std::fprintf(stderr,
                 "perfbench: %lld of %lld operations failed; first: %s\n",
                 static_cast<long long>(result.tally.failed),
                 static_cast<long long>(result.tally.attempted),
                 result.tally.first_error.c_str());
  }
  std::printf("%s\n", result_json(result).c_str());
  return result.tally.all_ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
