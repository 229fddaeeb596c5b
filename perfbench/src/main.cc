// perfbench: the open-loop benchmark of the stabilizer and the 3-DC store.
//
//   perfbench --workload svc-uniform|svc-skew-wal|geo-3dc --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes the traced run
// and prints the per-layer metrics. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/prctl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload svc-uniform|svc-skew-wal|geo-3dc "
               "--seed N --seconds S --trace 0|1 [--workdir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.workdir = "perfbench/.run";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  if ((args.workload != "svc-uniform" && args.workload != "svc-skew-wal" &&
       args.workload != "geo-3dc") ||
      args.seconds < 1 || args.seconds > 120) {
    return Usage();
  }
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  args.nproc = cores > 0 ? static_cast<unsigned>(cores) : 1;
  // Sleeps of the generator wake within ~1 us instead of the default 50 us
  // slack; threads it spawns inherit the setting.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  std::filesystem::create_directories(args.workdir);

  std::printf("# perfbench: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
              "compiler=%s build_type=%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.nproc, PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE);
  perfbench::Checks checks;
  perfbench::Outcome out;
  const bool ran = args.workload == "geo-3dc"
                       ? perfbench::RunGeo(args, &checks, &out)
                       : perfbench::RunSvc(args, &checks, &out);
  if (!ran) {
    std::fprintf(stderr, "perfbench: workload set-up failed\n");
    return 1;
  }
  out.report.PrintTable(args.trace ? "# per-layer metrics (traced run)"
                                   : "# end-to-end metrics");
  const double failed_frac =
      out.attempted > 0
          ? static_cast<double>(out.failed) / static_cast<double>(out.attempted)
          : 1.0;
  std::printf("# failed_frac = %.6g (%llu failed of %llu attempted)\n",
              failed_frac, static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& f : checks.failures()) {
    std::printf("# CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = checks.ok() && out.failed == 0;
  std::printf("# output checks: %s\n", correct ? "all passed" : "FAILED");
  std::printf("%s\n", out.report.Json(correct, out.attempted, out.failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
