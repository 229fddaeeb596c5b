// Metrics overhead — what always-on observability costs the ordering
// service.
//
// Drives the fig2 fixed-load race (producers x batched ops through the
// native EunomiaService, measuring stabilized ops/sec) three ways:
//
//   off        Options::metrics = nullptr — zero instrumentation, the fig2
//              baseline
//   on         a Registry attached; per-shard counters, partition frontier
//              lag, ordbuf occupancy and merge depth mirrored once per tick
//   on+scrape  same, plus a thread rendering the text exposition every 5 ms
//              (a scraper far more aggressive than any real Prometheus)
//
// The acceptance bar is the `on` configuration at one shard: the per-tick
// delta-mirroring design is supposed to make metrics free enough to leave
// enabled everywhere, which this gate pins at <=2% CPU-normalized overhead.
// Reps follow the interleaved, order-rotated method of
// bench/overhead_suite.h (see the comment there for why wall clock alone
// cannot be trusted on a shared host), and the suite carries a null
// configuration — `off2`, a second identical baseline — whose apparent
// overhead is pure measurement noise. The gate only fails when the
// instrumented overhead exceeds the budget by more than that measured
// noise floor: on a single shared core
// the benchmark's own jitter was observed swinging past 2% in both
// directions, and a gate that cannot pass its own null experiment is a
// coin flip, not a gate. `on+scrape` is reported for calibration, not
// gated.
//
// Emits BENCH_metrics.json in the working directory so CI can archive the
// observability-cost trajectory. `--smoke` shrinks the load for CI; full
// mode is the committed artifact.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "bench/flags.h"
#include "bench/overhead_suite.h"
#include "src/eunomia/service.h"
#include "src/harness/table.h"
#include "src/metrics/registry.h"

namespace eunomia {
namespace {

enum class Mode { kOff, kOn, kOnScrape };

// In the order of the suite's names below. `off2` is a second, identical
// copy of the baseline: its measured "overhead" vs `off` is pure
// measurement noise, and the gate treats it as the noise floor — on a
// shared single-core host, a 2% budget is smaller than the run-to-run
// jitter of the benchmark itself, so a breach only counts when it exceeds
// budget + floor.
const Mode kModes[] = {Mode::kOff, Mode::kOn, Mode::kOnScrape, Mode::kOff};
constexpr std::size_t kOn = 1;    // the gated configuration
constexpr std::size_t kOff2 = 3;  // the null measurement

// One measured run; extra = registered series after the run.
bench::OverheadRun MeasureRun(std::size_t c, EunomiaService::Options options,
                              const bench::FixedLoad& load) {
  // A fresh registry per run so registration cost is inside the measured
  // window, exactly as it is for a freshly started eunomiad.
  metrics::Registry registry;
  if (kModes[c] != Mode::kOff) {
    options.metrics = &registry;
  }
  std::atomic<bool> stop_scraper{false};
  std::thread scraper;
  bench::OverheadRun result;
  {
    EunomiaService service(options);
    if (kModes[c] == Mode::kOnScrape) {
      scraper = std::thread([&registry, &stop_scraper] {
        while (!stop_scraper.load(std::memory_order_relaxed)) {
          const std::string exposition = registry.TextExposition();
          (void)exposition;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      });
    }
    result = bench::TimedRace(service, load);
  }
  if (scraper.joinable()) {
    stop_scraper.store(true, std::memory_order_relaxed);
    scraper.join();
  }
  result.extra = registry.size();
  return result;
}

int Run(bool smoke) {
  harness::PrintBanner(
      "Metrics overhead: instrumented vs bare service throughput",
      "fig2 fixed-load race, single shard; the <=2% gate is what lets "
      "metrics stay on in production");
  // 3x the fig2 load per run and 9 reps where the WAL's 15% budget needs 5:
  // a 2% budget needs each measured window long enough that scheduler luck
  // (this host shares its cores) averages out within a single run, and
  // more per-rep ratios behind the median.
  const bench::OverheadSuite suite{
      "metrics", "off", "series", "registered_series",
      {"off", "on", "on+scrape", "off2"},
      /*reps=*/9, /*full_ops_per_partition=*/300'000, MeasureRun};
  const bench::OverheadResult result = bench::RunOverheadSuite(suite, smoke);
  const double on_overhead_1shard = 1.0 - result.points[kOn].cpu_relative;
  const double noise_floor_1shard =
      std::abs(1.0 - result.points[kOff2].cpu_relative);
  const bool over_budget = on_overhead_1shard > 0.02 + noise_floor_1shard;
  std::printf(
      "\nsingle-shard metrics-on CPU overhead vs bare: %.1f%% "
      "(measurement noise floor %.1f%%) %s\n",
      on_overhead_1shard * 100.0, noise_floor_1shard * 100.0,
      over_budget ? "(OVER the 2% budget)" : "(within the 2% budget)");
  if (!bench::FinishOverheadSuite(
          suite, smoke, result,
          {{"on_overhead_1shard", on_overhead_1shard},
           {"noise_floor_1shard", noise_floor_1shard}})) {
    return 1;
  }
  if (over_budget) {
    if (smoke) {
      // The smoke load is far too small for the budget to be resolvable;
      // the number above is advisory and only non-convergence fails CI.
      // The committed full-mode BENCH_metrics.json is the actual gate.
      std::printf("WARNING: over budget on a smoke load (advisory only)\n");
    } else {
      std::printf("ERROR: metrics-on overhead breaches the 2%% budget\n");
      return 1;
    }
  }
  return 0;
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
