// Figure 4 — "Impact of failures in Eunomia."
//
// The paper runs 1-, 2- and 3-replica fault-tolerant Eunomia deployments,
// crashes one replica mid-run and a second one later, and plots throughput
// over time normalized to the non-fault-tolerant service:
//   - 1-FT drops to zero after the first crash (no replicas left);
//   - 2-FT survives the first crash (brief fluctuation, then ~95% of
//     non-FT) and dies at the second;
//   - 3-FT survives both and recovers to full throughput within seconds.
//
// Our timeline is scaled down (12 s instead of 700 s; crashes at t=4 s and
// t=8 s — halved again under --smoke); the crashed replica is the current
// leader each time, forcing a takeover. --smoke also emits the same
// BENCH_fig4.json the full run writes, so CI can archive the timeline.
#include <cstdio>
#include <string>
#include <vector>
#include "src/common/sync.h"

#include "bench/bench_json.h"
#include "bench/flags.h"
#include "bench/service_driver.h"
#include "src/common/stats.h"
#include "src/eunomia/service.h"
#include "src/harness/table.h"

namespace eunomia {
namespace {

using harness::Table;

// Low offered load on purpose: this experiment is about the throughput
// *timeline* around crashes (drop to zero vs seamless takeover), not about
// the service ceiling, so it stays meaningful on small machines.
constexpr std::uint32_t kPartitions = 4;

// Timeline scale; --smoke halves every edge so the whole figure (four runs)
// fits in well under a minute of CI time.
struct Scale {
  std::uint64_t duration_us;
  std::uint64_t first_crash_us;
  std::uint64_t second_crash_us;
  std::uint64_t window_us;
};

Scale ScaleFor(bool smoke) {
  if (smoke) {
    return {6'000'000, 2'000'000, 4'000'000, 500'000};
  }
  return {12'000'000, 4'000'000, 8'000'000, 1'000'000};
}

std::vector<double> MeasureTimeline(const Scale& scale, std::uint32_t replicas,
                                    bool inject_failures) {
  FtEunomiaService::Options options;
  options.num_partitions = kPartitions;
  options.num_replicas = replicas;
  options.stable_period_us = 500;

  const std::uint64_t start = bench::NowMicros();
  TimeSeries timeline(scale.window_us);
  eunomia::sync::Mutex mu{"fig4_failures::mu", eunomia::sync::kRankLeaf};
  options.sink = [&](const std::vector<OpRecord>& ops) {
    eunomia::sync::MutexLock lock(mu);
    timeline.Record(bench::NowMicros() - start, ops.size());
  };
  FtEunomiaService service(options);
  service.Start();

  std::thread crasher;
  if (inject_failures) {
    crasher = std::thread([&service, &scale, start, replicas] {
      while (bench::NowMicros() - start < scale.first_crash_us) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      service.CrashReplica(0);  // kill the leader
      while (bench::NowMicros() - start < scale.second_crash_us) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (replicas > 1) {
        service.CrashReplica(1);  // kill the new leader
      }
    });
  }

  bench::ProducerOptions load;
  load.num_partitions = kPartitions;
  load.duration_us = scale.duration_us;
  load.ops_per_batch = 20;
  bench::DriveProducers(service, load);
  if (crasher.joinable()) {
    crasher.join();
  }
  service.Stop();

  eunomia::sync::MutexLock lock(mu);
  auto rates = timeline.Rates();
  rates.resize(scale.duration_us / scale.window_us, 0.0);
  return rates;
}

void WriteTimelineJson(bool smoke, const Scale& scale, double baseline_avg,
                       const std::vector<std::vector<double>>& runs) {
  bench::BenchJson json("fig4_failures", smoke);
  const std::size_t windows = scale.duration_us / scale.window_us;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (std::size_t w = 0; w < windows; ++w) {
      const double rate = w < runs[r].size() ? runs[r][w] : 0.0;
      const double t_s = static_cast<double>(w * scale.window_us) / 1e6;
      json.AddRow()
          .Str("system", std::to_string(r + 1) + "-FT")
          .Str("workload", "t=" + Table::Num(t_s, 1) + "s")
          .Str("transport", "native")
          .Num("ops_per_s", rate, 1)
          .Num("normalized", baseline_avg > 0.0 ? rate / baseline_avg : 0.0, 3);
    }
  }
  json.Write("BENCH_fig4.json");
}

void Run(bool smoke) {
  const Scale scale = ScaleFor(smoke);
  harness::PrintBanner(
      "Figure 4: impact of replica failures on Eunomia throughput",
      smoke ? "smoke: leader crashed at t=2s, next leader at t=4s; values "
              "normalized to the failure-free 3-replica run"
            : "leader crashed at t=4s, next leader at t=8s; values "
              "normalized to the failure-free 3-replica run");

  const auto baseline =
      MeasureTimeline(scale, 3, /*inject_failures=*/false);
  double baseline_avg = 0.0;
  for (const double r : baseline) {
    baseline_avg += r;
  }
  baseline_avg /= static_cast<double>(baseline.size());

  std::vector<std::vector<double>> runs;
  for (const std::uint32_t replicas : {1u, 2u, 3u}) {
    runs.push_back(MeasureTimeline(scale, replicas, /*inject_failures=*/true));
  }

  const double window_s = static_cast<double>(scale.window_us) / 1e6;
  Table table({"t (s)", "1-FT", "2-FT", "3-FT", "event"});
  for (std::size_t w = 0; w < scale.duration_us / scale.window_us; ++w) {
    std::string event;
    if (w == scale.first_crash_us / scale.window_us) {
      event = "<- crash replica 0 (leader)";
    } else if (w == scale.second_crash_us / scale.window_us) {
      event = "<- crash replica 1";
    }
    std::vector<std::string> row = {
        Table::Num(static_cast<double>(w) * window_s, 1)};
    for (const auto& run : runs) {
      const double norm = w < run.size() ? run[w] / baseline_avg : 0.0;
      row.push_back(Table::Num(norm, 2));
    }
    row.push_back(event);
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "\npaper reference: 1-FT drops to zero at the first crash; 2-FT "
      "survives it (~95%% of non-FT) and dies at the second;\n3-FT survives "
      "both and recovers to full throughput within seconds.\n");
  WriteTimelineJson(smoke, scale, baseline_avg, runs);
}

}  // namespace
}  // namespace eunomia

int main(int argc, char** argv) {
  eunomia::bench::Flags flags(argc, argv, {"smoke"});
  if (!flags.ok()) {
    return flags.FailUsage();
  }
  eunomia::Run(flags.smoke());
  return 0;
}
