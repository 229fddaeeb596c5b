// WAL overhead — what durability costs the ordering service.
//
// Drives the fig2 fixed-load race (producers x batched ops through the
// native EunomiaService, measuring stabilized ops/sec) four times:
//
//   wal=off          the in-memory baseline (fig2's single-shard number)
//   fsync=off        WAL appends, durability left to the page cache
//   fsync=interval   group commit: one fsync per 5 ms / 64 KiB of log
//   fsync=commit     every ack waits for its batch to be on disk
//
// against a wal::PosixDisk on a fresh temp directory per configuration.
// The interesting number is the interval-fsync overhead: the group-commit
// pipeline is designed to keep it within ~15% of the in-memory baseline
// (the acceptance bar BENCH_wal.json is checked against), while
// fsync=commit pays the full synchronous-disk price and is reported for
// calibration, not expected to be close.
//
// The budget is judged on the CPU-normalized, median-of-per-rep ratio
// that bench/overhead_suite.h describes: wall clock measures the
// neighbors as much as the WAL, while CPU time charges the cycles the
// durability pipeline itself adds.
//
// Emits BENCH_wal.json in the working directory (same shape as
// BENCH_fig2.json) so CI can archive the durability-cost trajectory.
// `--smoke` shrinks the load for CI; full mode is the committed artifact.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "bench/flags.h"
#include "bench/overhead_suite.h"
#include "src/eunomia/service.h"
#include "src/harness/table.h"
#include "src/wal/disk.h"
#include "src/wal/log_writer.h"

namespace eunomia {
namespace {

struct Config {
  bool wal;
  wal::FsyncPolicy policy;  // ignored when wal is false
};
// In the order of the suite's names below; kInterval is the gated one.
const Config kConfigs[] = {
    {false, wal::FsyncPolicy::kOff},
    {true, wal::FsyncPolicy::kOff},
    {true, wal::FsyncPolicy::kInterval},
    {true, wal::FsyncPolicy::kPerCommit},
};
constexpr std::size_t kInterval = 2;

// One measured run against a fresh temp directory; extra = WAL snapshots.
bench::OverheadRun MeasureRun(std::size_t c, EunomiaService::Options options,
                              const bench::FixedLoad& load) {
  bench::OverheadRun result;
  std::unique_ptr<wal::PosixDisk> disk;
  std::string dir;
  if (kConfigs[c].wal) {
    char dir_template[] = "/tmp/eunomia-wal-bench-XXXXXX";
    if (mkdtemp(dir_template) == nullptr) {
      return result;
    }
    dir = dir_template;
    disk = std::make_unique<wal::PosixDisk>(dir);
    if (!disk->ok()) {
      return result;
    }
    options.durability.disk = disk.get();
    options.durability.fsync = kConfigs[c].policy;
  }
  {
    EunomiaService service(options);
    result = bench::TimedRace(service, load);
    result.extra = service.wal_snapshots();
  }
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return result;
}

int Run(bool smoke) {
  harness::PrintBanner(
      "WAL overhead: durable vs in-memory service throughput",
      "fig2 fixed-load race, single shard; group commit is the deployed "
      "configuration");
  const bench::OverheadSuite suite{
      "wal", "in-memory", "snapshots", "snapshots",
      {"off", "fsync=off", "fsync=interval", "fsync=commit"},
      /*reps=*/5, /*full_ops_per_partition=*/100'000, MeasureRun};
  const bench::OverheadResult result = bench::RunOverheadSuite(suite, smoke);
  const double interval_overhead_1shard =
      1.0 - result.points[kInterval].cpu_relative;
  std::printf(
      "\nsingle-shard interval-fsync (group commit) CPU overhead vs "
      "in-memory: %.1f%% %s\n",
      interval_overhead_1shard * 100.0,
      interval_overhead_1shard <= 0.15 ? "(within the 15% budget)"
                                       : "(OVER the 15% budget)");
  return bench::FinishOverheadSuite(
             suite, smoke, result,
             {{"interval_overhead_1shard", interval_overhead_1shard}})
             ? 0
             : 1;
}

}  // namespace
}  // namespace eunomia

int main(int argc, char** argv) {
  eunomia::bench::Flags flags(argc, argv, {"smoke"});
  if (!flags.ok()) {
    return flags.FailUsage();
  }
  return eunomia::Run(flags.smoke());
}
