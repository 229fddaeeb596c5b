// Seed-sweep property tests: the end-to-end EunomiaKV invariants must hold
// for *every* random execution, not just the default seed. Each instance
// runs a full 3-DC deployment under a different seed (different clock
// skews, jitter, workload interleavings) and checks:
//   - convergence: all datacenters end with identical stores;
//   - completeness: every update becomes visible at every remote DC;
//   - cleanliness: no Property-2 violations reach any Eunomia core, no
//     receiver queue is left stuck.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/georep/eunomiakv.h"
#include "src/workload/workload.h"

namespace eunomia {
namespace {

class EunomiaKvSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EunomiaKvSeedSweep, InvariantsHoldUnderRandomExecutions) {
  const std::uint64_t seed = GetParam();
  geo::GeoConfig config;
  config.num_dcs = 3;
  config.partitions_per_dc = 4;
  config.servers_per_dc = 2;
  // Stress the clock model harder than NTP ever would.
  config.clocks.max_offset_us = 20'000;
  config.clocks.max_drift_ppm = 300.0;

  sim::Simulator sim(seed);
  geo::EunomiaKvSystem system(&sim, config);
  system.tracker().EnableDetailedLog();

  wl::WorkloadConfig workload;
  workload.num_keys = 150;
  workload.update_fraction = 0.35;
  workload.clients_per_dc = 4;
  workload.duration_us = 3 * sim::kSecond;
  workload.seed = seed * 7 + 1;
  wl::WorkloadDriver driver(&sim, &system, workload, config.num_dcs);
  driver.Start();
  sim.RunUntil(workload.duration_us);
  driver.Stop();
  sim.RunUntil(workload.duration_us + 5 * sim::kSecond);

  // Cleanliness.
  for (DatacenterId d = 0; d < config.num_dcs; ++d) {
    EXPECT_EQ(system.EunomiaAt(d).monotonicity_violations(), 0u) << "dc" << d;
    EXPECT_EQ(system.EunomiaAt(d).pending_ops(), 0u) << "dc" << d;
    EXPECT_EQ(system.ReceiverAt(d).PendingCount(), 0u) << "dc" << d;
  }

  // Completeness: every installed update visible at both remote DCs.
  const std::uint64_t installed = system.updates_installed();
  ASSERT_GT(installed, 100u);
  std::uint64_t visible_pairs = 0;
  for (std::uint64_t uid = 0; uid < installed; ++uid) {
    for (DatacenterId d = 0; d < config.num_dcs; ++d) {
      visible_pairs += system.tracker().VisibleAt(uid, d).has_value() ? 1 : 0;
    }
  }
  EXPECT_EQ(visible_pairs, installed * (config.num_dcs - 1));

  // Convergence.
  auto snapshot = [&](DatacenterId dc) {
    std::map<Key, std::pair<Value, geo::VectorTimestamp>> contents;
    for (PartitionId p = 0; p < config.partitions_per_dc; ++p) {
      system.StoreAt(dc, p).ForEach([&](Key key, const geo::GeoVersion& v) {
        contents[key] = {v.value, v.vts};
      });
    }
    return contents;
  };
  const auto reference = snapshot(0);
  for (DatacenterId d = 1; d < config.num_dcs; ++d) {
    EXPECT_TRUE(reference == snapshot(d)) << "dc" << d << " diverged, seed "
                                          << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EunomiaKvSeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// The same sweep with an adversarial network: heavy jitter. (FIFO links are
// preserved by the network model even under jitter; the protocols must
// tolerate arbitrary cross-channel reordering.)
class EunomiaKvJitterSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EunomiaKvJitterSweep, CausalChainsSurviveHeavyJitter) {
  const std::uint64_t seed = GetParam();
  geo::GeoConfig config;
  config.num_dcs = 3;
  config.partitions_per_dc = 4;
  config.servers_per_dc = 2;
  config.network.jitter = 0.5;  // +/-50% per-message latency noise

  sim::Simulator sim(seed);
  geo::EunomiaKvSystem system(&sim, config);
  system.tracker().EnableDetailedLog();

  // A single client's causal chain across partitions.
  int completed = 0;
  std::function<void(int)> issue = [&](int i) {
    if (i >= 25) {
      return;
    }
    system.ClientUpdate(1, 0, static_cast<Key>(i * 3 + 1), "v", [&, i] {
      ++completed;
      issue(i + 1);
    });
  };
  issue(0);
  sim.RunUntil(10 * sim::kSecond);
  ASSERT_EQ(completed, 25);

  for (DatacenterId d = 1; d < 3; ++d) {
    std::optional<std::uint64_t> prev;
    for (std::uint64_t uid = 0; uid < 25; ++uid) {
      const auto t = system.tracker().VisibleAt(uid, d);
      ASSERT_TRUE(t.has_value()) << "uid " << uid << " at dc" << d;
      if (prev) {
        EXPECT_GE(*t, *prev) << "causal order broken at dc" << d << ", seed "
                             << seed;
      }
      prev = t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EunomiaKvJitterSweep,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace eunomia
