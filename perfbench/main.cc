// perfbench: the end-to-end benchmark of the sthist library.
//
//   perfbench --workload <learn-1t|fleet-read-1k|fleet-mixed-1k> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.csv>]
//
// --trace 0 prints the end-to-end metrics, measured untraced; --trace 1
// prints the per-layer metrics of a traced run. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when a correctness check fails, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <learn-1t|fleet-read-1k|"
               "fleet-mixed-1k> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file.csv>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  perfbench::Report report;
  if (options.workload == "learn-1t") {
    perfbench::RunLearn1t(options, &report);
  } else if (options.workload == "fleet-read-1k") {
    perfbench::RunFleetRead1k(options, &report);
  } else if (options.workload == "fleet-mixed-1k") {
    perfbench::RunFleetMixed1k(options, &report);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
