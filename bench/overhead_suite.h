// What one feature costs the ordering service: the interleaved,
// CPU-normalized overhead method behind bench/wal_overhead (durability) and
// bench/metrics_overhead (observability).
//
// Each configuration runs the fig2 fixed-load race (bench/service_driver.h)
// and is judged as a throughput ratio against configs[0], the bare
// baseline. The host shares its cores with whatever else runs, so a naive
// "run A, then run B" comparison measures the neighbors as much as the
// feature. The method:
//
//   - Warm-up. One discarded baseline run per shard count: the first
//     service of the process pays for page faults and frequency ramp, and
//     that bill must not land on any measured configuration.
//   - Interleaved reps. Every rep runs every configuration once; back-to-
//     back reps of a single configuration would charge an entire busy
//     window to that one configuration.
//   - Rotated order. Rep r starts at configuration r mod n. Whichever
//     configuration runs first after an idle wait sees a different cache/
//     frequency state; rotation spreads that position bias across all of
//     them instead of crediting it to the baseline every rep.
//   - Per-rep ratios, median across reps. Each configuration is compared
//     with the baseline measured seconds away in the same rep, so both
//     sides of every ratio saw roughly the same interference, and the
//     median drops the reps where it still hit the two sides unequally (in
//     either direction: max-of-ratios would happily report a feature as
//     faster than the baseline off a rep whose baseline got unlucky).
//     Best-of on the raw rates cannot do this — a quiet minute for the
//     baseline and a busy one for the feature reads as overhead — so
//     best-of is only used for the absolute columns.
//   - CPU-normalized. Budgets are judged on ops per process-CPU-second,
//     which charges the cycles the feature itself adds; the wall-clock
//     ratio is printed for context.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "bench/service_driver.h"
#include "src/eunomia/service.h"
#include "src/harness/table.h"

namespace eunomia::bench {

// User + system CPU time this process has used, in seconds.
inline double ProcessCpuTime() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// One measured race.
struct OverheadRun {
  double ops_per_sec = 0.0;  // wall clock; 0.0: failed to converge
  double ops_per_cpu_sec = 0.0;
  std::uint64_t extra = 0;  // a per-configuration count (OverheadSuite::extra)
};

// Races `load` through `service`, charging the process CPU time it took.
inline OverheadRun TimedRace(EunomiaService& service, const FixedLoad& load) {
  OverheadRun run;
  const double cpu_before = ProcessCpuTime();
  run.ops_per_sec = MeasureStabilizedThroughput(service, load);
  const double cpu_spent = ProcessCpuTime() - cpu_before;
  if (run.ops_per_sec > 0.0 && cpu_spent > 0.0) {
    run.ops_per_cpu_sec = static_cast<double>(load.total_ops()) / cpu_spent;
  }
  return run;
}

struct OverheadSuite {
  const char* feature;    // table column, BENCH row key, BENCH_<feature>.json
  const char* baseline;   // configs[0] as named in "vs <baseline>"
  const char* extra;      // table column for OverheadRun::extra
  const char* extra_key;  // BENCH row key for OverheadRun::extra
  std::vector<const char*> configs;  // configs[0] is the baseline
  int reps;
  std::uint64_t full_ops_per_partition;  // --smoke runs 5'000
  // One race of configuration `c`. `options` arrives sized for the load and
  // shard count; the body adds its feature, then returns TimedRace(...).
  std::function<OverheadRun(std::size_t c, EunomiaService::Options options,
                            const FixedLoad& load)>
      run;
};

// One configuration at one shard count.
struct OverheadPoint {
  const char* config;
  std::uint32_t shards;
  OverheadRun best;  // best raw rates over the reps (extra: best wall run)
  double relative = 1.0;      // median per-rep wall-clock ratio vs configs[0]
  double cpu_relative = 1.0;  // the same on CPU-normalized rates
};

struct OverheadResult {
  FixedLoad load;
  // Shard-count major, configuration order within: points[c] is
  // configuration c at one shard.
  std::vector<OverheadPoint> points;
  bool converged = true;  // false if any run failed to stabilize its load
};

// Runs every configuration at 1 shard (and at 4 in full mode) and prints
// the table.
inline OverheadResult RunOverheadSuite(const OverheadSuite& suite,
                                       bool smoke) {
  using harness::Table;
  OverheadResult result;
  FixedLoad& load = result.load;
  load.num_partitions = smoke ? 8 : 16;
  load.ops_per_partition = smoke ? 5'000 : suite.full_ops_per_partition;
  std::printf("\n%u producer partitions race %llu ops each per configuration\n",
              load.num_partitions,
              static_cast<unsigned long long>(load.ops_per_partition));
  const std::string vs = std::string("vs ") + suite.baseline;
  Table table({suite.feature, "num_shards", "stabilized (kops/s)", vs,
               "kops/cpu-s", "cpu " + vs, suite.extra});
  const std::size_t n = suite.configs.size();
  const auto reps = static_cast<std::size_t>(suite.reps);
  const auto median = [](std::vector<double>& v) {
    if (v.empty()) {
      return 0.0;
    }
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  for (const std::uint32_t shards : smoke ? std::vector<std::uint32_t>{1u}
                                          : std::vector<std::uint32_t>{1u, 4u}) {
    EunomiaService::Options options;
    options.num_partitions = load.num_partitions;
    options.num_shards = shards;
    options.stable_period_us = 200;
    (void)suite.run(0, options, load);  // warm-up
    std::vector<std::vector<OverheadRun>> runs(n, std::vector<OverheadRun>(reps));
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = (i + rep) % n;
        runs[c][rep] = suite.run(c, options, load);
        if (runs[c][rep].ops_per_sec <= 0.0) {
          result.converged = false;  // non-convergence is a failure, not noise
        }
      }
    }
    for (std::size_t c = 0; c < n; ++c) {
      OverheadPoint point{suite.configs[c], shards, {}};
      std::vector<double> ratios;
      std::vector<double> cpu_ratios;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        const OverheadRun& r = runs[c][rep];
        const OverheadRun& base = runs[0][rep];
        if (r.ops_per_sec > point.best.ops_per_sec) {
          point.best.ops_per_sec = r.ops_per_sec;
          point.best.extra = r.extra;
        }
        point.best.ops_per_cpu_sec =
            std::max(point.best.ops_per_cpu_sec, r.ops_per_cpu_sec);
        if (base.ops_per_sec > 0 && r.ops_per_sec > 0) {
          ratios.push_back(r.ops_per_sec / base.ops_per_sec);
        }
        if (base.ops_per_cpu_sec > 0 && r.ops_per_cpu_sec > 0) {
          cpu_ratios.push_back(r.ops_per_cpu_sec / base.ops_per_cpu_sec);
        }
      }
      point.relative = median(ratios);
      point.cpu_relative = median(cpu_ratios);
      const auto pct = [c](double ratio) {
        return c != 0 ? Table::Num(ratio * 100.0, 1) + "%" : "100%";
      };
      table.AddRow({point.config, Table::Num(shards, 0),
                    Table::Num(point.best.ops_per_sec / 1000.0, 0),
                    pct(point.relative),
                    Table::Num(point.best.ops_per_cpu_sec / 1000.0, 0),
                    pct(point.cpu_relative),
                    Table::Num(static_cast<double>(point.best.extra), 0)});
      result.points.push_back(point);
    }
  }
  table.Print();
  return result;
}

// Writes BENCH_<feature>.json — the load, the caller's gate values (4
// decimals), one row per point — and reports non-convergence. Returns
// false if any run failed to stabilize its load.
inline bool FinishOverheadSuite(
    const OverheadSuite& suite, bool smoke, const OverheadResult& result,
    std::initializer_list<std::pair<const char*, double>> gates) {
  BenchJson json(std::string(suite.feature) + "_overhead", smoke);
  json.header()
      .Int("num_partitions", result.load.num_partitions)
      .Int("ops_per_partition", result.load.ops_per_partition);
  for (const auto& [name, value] : gates) {
    json.header().Num(name, value, 4);
  }
  json.header().Str("overhead_metric", "cpu_time");
  for (const OverheadPoint& point : result.points) {
    json.AddRow()
        .Str(suite.feature, point.config)
        .Int("shards", point.shards)
        .Num("mops_per_s", point.best.ops_per_sec / 1e6, 3)
        .Num("cpu_mops_per_s", point.best.ops_per_cpu_sec / 1e6, 3)
        .Int(suite.extra_key, point.best.extra);
  }
  json.Write(("BENCH_" + std::string(suite.feature) + ".json").c_str());
  if (!result.converged) {
    std::printf("ERROR: a configuration did not stabilize its load\n");
  }
  return result.converged;
}

}  // namespace eunomia::bench
