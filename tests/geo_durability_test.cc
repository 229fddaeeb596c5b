// Durability tests for the geo-replication runtime: crash/restart with a
// real per-datacenter WAL inside the deterministic simulator, torn-tail and
// bit-flip repair, snapshot-driven log truncation, recovery from an empty
// disk, the durability handshake codecs (hello resume_from, durable acks),
// and a kill/restart of the real-TCP GeoNode binding on a surviving
// in-memory disk.
//
// Everything under the sim binding is deterministic: fixed seeds, inline
// (unthreaded) log writers, and a fault-injecting FaultyDisk whose torn
// writes and bit flips replay bit-for-bit from the seed.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/georep/config.h"
#include "src/georep/runtime/chaos/chaos_cluster.h"
#include "src/georep/runtime/chaos/invariants.h"
#include "src/georep/runtime/durability.h"
#include "src/georep/runtime/geo_node.h"
#include "src/georep/runtime/geo_wire.h"
#include "src/net/epoll_transport.h"
#include "src/sim/simulator.h"
#include "src/wal/disk.h"
#include "src/wal/log_writer.h"

namespace eunomia {
namespace {

namespace chaos = geo::rt::chaos;
namespace gw = geo::rt::wire;

using geo::GeoConfig;

GeoConfig SmallConfig(std::uint32_t num_dcs, bool scalar) {
  GeoConfig config;
  config.num_dcs = num_dcs;
  config.partitions_per_dc = 2;
  config.servers_per_dc = 1;
  config.scalar_metadata = scalar;
  config.network.wan_one_way_us.assign(
      num_dcs, std::vector<sim::SimTime>(num_dcs, 0));
  for (DatacenterId i = 0; i < num_dcs; ++i) {
    for (DatacenterId j = 0; j < num_dcs; ++j) {
      config.network.wan_one_way_us[i][j] = (i == j) ? 0 : 20'000;
    }
  }
  return config;
}

chaos::ChaosOptions DurableOpts(const GeoConfig& config, std::uint64_t seed,
                                const wal::FaultyDisk::Faults& faults = {}) {
  chaos::ChaosOptions options;
  options.config = config;
  options.seed = seed;
  options.durable = true;
  options.disk_faults = faults;
  return options;
}

chaos::InvariantOptions GenerousBound(const chaos::ChaosCluster& cluster,
                                      const GeoConfig& config) {
  chaos::InvariantOptions iopts;
  iopts.staleness_bound_us =
      static_cast<std::uint64_t>(cluster.max_clock_error_us()) +
      config.delta_us + config.batch_interval_us + config.theta_us +
      config.rho_us + 100'000;
  return iopts;
}

void ScheduleWrites(sim::Simulator* sim, chaos::ChaosCluster* cluster,
                    DatacenterId dc, std::uint64_t from_us,
                    std::uint64_t to_us, std::uint64_t period_us) {
  int i = 0;
  for (std::uint64_t t = from_us; t < to_us; t += period_us, ++i) {
    sim->ScheduleAt(t, [cluster, dc, i] {
      if (!cluster->alive(dc)) {
        return;
      }
      cluster->runtime(dc)->ClientUpdate(
          /*client=*/100 + dc, /*key=*/static_cast<Key>(i % 16),
          std::string("d").append(std::to_string(dc)).append("-i").append(
              std::to_string(i)),
          [] {});
    });
  }
}

void ExpectNoViolations(const chaos::ChaosCluster& cluster,
                        const GeoConfig& config) {
  const auto violations =
      chaos::CheckInvariants(cluster, GenerousBound(cluster, config));
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: "
      << (violations.empty() ? "" : violations[0].detail);
}

// --- durable crash/restart under the sim binding -----------------------------

// The WAL-backed counterpart of ChaosCluster.CrashRestartConverges: the
// crashed datacenter rebuilds itself from its own disk (snapshot + install
// and inbound logs) and only takes *incremental* catch-up from peers, yet
// ends causally consistent and converged.
TEST(GeoDurable, CrashRestartRecoversFromDiskAndConverges) {
  const GeoConfig config = SmallConfig(3, /*scalar=*/true);
  sim::Simulator sim(21);
  chaos::ChaosCluster cluster(&sim, DurableOpts(config, /*seed=*/21));
  cluster.Start();
  ScheduleWrites(&sim, &cluster, 0, 20'000, 500'000, 5'000);
  ScheduleWrites(&sim, &cluster, 1, 22'000, 140'000, 5'000);
  ScheduleWrites(&sim, &cluster, 2, 25'000, 500'000, 5'000);

  sim.ScheduleAt(150'000, [&cluster] { cluster.Crash(1); });
  sim.ScheduleAt(350'000, [&cluster] { cluster.Restart(1); });

  sim.RunUntil(2'500'000);
  ASSERT_TRUE(cluster.alive(1));
  EXPECT_EQ(cluster.env().stats().crashes, 1u);
  ASSERT_NE(cluster.durability(1), nullptr);
  // dc1's own pre-crash writes survived through its disk, not the channel
  // replay: the logs held records at recovery time.
  EXPECT_GT(cluster.disk(1)->bytes_written(), 0u);
  ExpectNoViolations(cluster, config);
}

// Torn tails and bit flips in the un-synced suffix are detected by the
// record framing, discarded, and never propagate into recovered state.
// Interval fsync leaves a live un-synced suffix for the crash to mangle;
// the writes all originate at dc0 (which never crashes), so every record a
// crashed datacenter loses is inbound peer traffic that incremental
// catch-up replays — corruption costs re-transmission, never correctness.
// Deterministic: same seed, same faults, same outcome.
TEST(GeoDurable, TornTailsAndBitFlipsAreDiscardedOnRecovery) {
  const GeoConfig config = SmallConfig(3, /*scalar=*/true);
  wal::FaultyDisk::Faults faults;
  faults.torn_tail = 1.0;  // every crash leaves a torn fragment behind
  faults.bit_flip = 1.0;   // and corrupts a bit inside it
  std::uint64_t torn_first = 0;
  for (int run = 0; run < 2; ++run) {
    sim::Simulator sim(33);
    chaos::ChaosOptions options = DurableOpts(config, /*seed=*/33, faults);
    options.fsync = wal::FsyncPolicy::kInterval;
    chaos::ChaosCluster cluster(&sim, options);
    cluster.Start();
    ScheduleWrites(&sim, &cluster, 0, 20'000, 600'000, 4'000);
    sim.ScheduleAt(180'000, [&cluster] { cluster.Crash(1); });
    sim.ScheduleAt(380'000, [&cluster] { cluster.Restart(1); });
    sim.ScheduleAt(450'000, [&cluster] { cluster.Crash(2); });
    sim.ScheduleAt(650'000, [&cluster] { cluster.Restart(2); });
    sim.RunUntil(3'000'000);

    const std::uint64_t torn =
        cluster.disk(1)->torn_tails() + cluster.disk(2)->torn_tails();
    EXPECT_GT(torn, 0u) << "fault injection never fired";
    if (run == 0) {
      torn_first = torn;
    } else {
      EXPECT_EQ(torn, torn_first) << "fault injection is not deterministic";
    }
    ExpectNoViolations(cluster, config);
  }
}

// With an aggressive snapshot cadence the logs are truncated mid-run, and a
// crash after truncation still recovers: the snapshot covers what the logs
// no longer hold.
TEST(GeoDurable, SnapshotTruncationThenCrashStillRecovers) {
  const GeoConfig config = SmallConfig(2, /*scalar=*/true);
  chaos::ChaosOptions options = DurableOpts(config, /*seed=*/5);
  options.snapshot_period_us = 50'000;
  options.snapshot_interval_bytes = 1u << 10;  // snapshot almost every check
  sim::Simulator sim(5);
  chaos::ChaosCluster cluster(&sim, options);
  cluster.Start();
  ScheduleWrites(&sim, &cluster, 0, 20'000, 700'000, 3'000);
  ScheduleWrites(&sim, &cluster, 1, 21'000, 700'000, 3'000);

  sim.ScheduleAt(500'000, [&cluster] { cluster.Crash(0); });
  sim.ScheduleAt(700'000, [&cluster] { cluster.Restart(0); });

  sim.RunUntil(3'000'000);
  ASSERT_NE(cluster.durability(0), nullptr);
  EXPECT_GT(cluster.durability(0)->snapshots_taken(), 0u)
      << "the aggressive cadence never produced a snapshot";
  EXPECT_GT(cluster.durability(1)->snapshots_taken(), 0u);
  ExpectNoViolations(cluster, config);
}

// A datacenter that crashes before anything was logged recovers from an
// empty disk to a fresh, working state (the bootstrap path: missing logs
// are empty logs, a missing snapshot is the zero mark).
TEST(GeoDurable, EmptyDiskRecoversToFreshStateAndCatchesUp) {
  const GeoConfig config = SmallConfig(2, /*scalar=*/true);
  sim::Simulator sim(9);
  chaos::ChaosCluster cluster(&sim, DurableOpts(config, /*seed=*/9));
  cluster.Start();
  // Crash dc1 before any write exists anywhere; its disk is empty.
  sim.ScheduleAt(5'000, [&cluster] { cluster.Crash(1); });
  sim.ScheduleAt(10'000, [&cluster] { cluster.Restart(1); });
  ScheduleWrites(&sim, &cluster, 0, 30'000, 400'000, 5'000);
  sim.RunUntil(2'000'000);
  ASSERT_TRUE(cluster.alive(1));
  ExpectNoViolations(cluster, config);
}

// --- durability handshake codecs ---------------------------------------------

TEST(GeoDurableWire, HelloCarriesResumeFromAndAckRoundTrips) {
  gw::GeoHelloMsg hello;
  hello.dc = 2;
  hello.num_dcs = 3;
  hello.partitions = 4;
  hello.link_kind = gw::kMetadataLink;
  hello.resume_from = 0x1122334455667788ull;
  gw::GeoHelloMsg hello2;
  ASSERT_TRUE(gw::DecodeGeoHello(gw::EncodeGeoHello(hello), &hello2));
  EXPECT_EQ(hello2.dc, hello.dc);
  EXPECT_EQ(hello2.resume_from, hello.resume_from);

  gw::GeoAckMsg ack;
  ack.dc = 1;
  ack.applied = 0xdeadbeefcafeull;
  const std::string encoded = gw::EncodeGeoAck(ack);
  gw::GeoAckMsg ack2;
  ASSERT_TRUE(gw::DecodeGeoAck(encoded, &ack2));
  EXPECT_EQ(ack2.dc, ack.dc);
  EXPECT_EQ(ack2.applied, ack.applied);
  // Every truncation must be rejected, never misread.
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    gw::GeoAckMsg scratch;
    EXPECT_FALSE(
        gw::DecodeGeoAck(std::string_view(encoded).substr(0, cut), &scratch))
        << "cut at " << cut;
  }
}

// --- real-TCP GeoNode binding: durable kill/restart --------------------------

// Both nodes log to in-memory disks that survive the "process". The peer is
// killed (destroyed without a clean stop, disk crash drops its un-synced
// suffix), rebooted on the same disk and address, and must converge again.
// Along the way the survivor's durable acks truncate its retained replay
// history — bounded memory is part of the contract, not an optimization.
TEST(GeoNodeTcpDurable, KillRestartOnSurvivingDiskConvergesAndTruncates) {
  using geo::rt::GeoNode;
  GeoConfig config = SmallConfig(2, false);

  wal::MemDisk disk0;
  wal::MemDisk disk1;

  GeoNode::Options options0;
  options0.dc = 0;
  options0.config = config;
  options0.retain_peer_history = true;
  options0.reconnect_backoff_ms = 20;
  options0.reconnect_backoff_max_ms = 100;
  options0.durability_disk = &disk0;
  options0.ack_interval_us = 25'000;  // acks flow quickly in a short test
  GeoNode::Options options1 = options0;
  options1.dc = 1;
  options1.durability_disk = &disk1;

  auto transport0 = std::make_unique<net::EpollTransport>();
  auto transport1 = std::make_unique<net::EpollTransport>();
  auto node0 = std::make_unique<GeoNode>(transport0.get(), options0);
  auto node1 = std::make_unique<GeoNode>(transport1.get(), options1);
  const std::string addr0 = node0->Listen("127.0.0.1:0");
  const std::string addr1 = node1->Listen("127.0.0.1:0");
  ASSERT_FALSE(addr0.empty());
  ASSERT_FALSE(addr1.empty());
  ASSERT_TRUE(node0->ConnectPeer(1, addr1));
  ASSERT_TRUE(node1->ConnectPeer(0, addr0));
  node0->Start();
  node1->Start();

  std::atomic<bool> stop{false};
  auto issue = std::make_shared<std::function<void(int)>>();
  GeoNode* writer = node0.get();
  *issue = [writer, issue, &stop](int i) {
    if (stop.load(std::memory_order_relaxed)) {
      return;
    }
    writer->ClientUpdate(100, static_cast<Key>(i % 32),
                         std::string("v").append(std::to_string(i)),
                         [issue, i] { (*issue)(i + 1); });
  };
  (*issue)(0);

  // Let acks flow: the peer's durable applied frontier must reach node0 and
  // truncate the retained history below it.
  Timestamp applied = 0;
  const auto ack_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(8);
  while (std::chrono::steady_clock::now() < ack_deadline) {
    node0->RunBlocking([&] { applied = node0->peer_applied(1); });
    if (applied > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(applied, 0u) << "no durable ack ever arrived";

  // Kill -9: destroy the node mid-traffic, then drop everything its disk
  // had not fsync'd. Under kPerCommit every acked install survives.
  node1.reset();
  transport1.reset();
  disk1.Crash();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  transport1 = std::make_unique<net::EpollTransport>();
  node1 = std::make_unique<GeoNode>(transport1.get(), options1);
  ASSERT_EQ(node1->Listen(addr1), addr1) << "could not rebind after reboot";
  ASSERT_TRUE(node1->ConnectPeer(0, addr0));
  node1->Start();

  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  stop.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  auto snapshot = [&config](GeoNode* node) {
    std::map<Key, std::string> out;
    node->RunBlocking([&] {
      for (PartitionId p = 0; p < config.partitions_per_dc; ++p) {
        node->runtime().StoreAt(p).ForEach(
            [&out](Key key, const geo::GeoVersion& v) { out[key] = v.value; });
      }
    });
    return out;
  };

  std::map<Key, std::string> expected;
  bool converged = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    expected = snapshot(node0.get());
    if (!expected.empty() && snapshot(node1.get()) == expected) {
      converged = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(converged) << "stores never converged after durable restart";
  EXPECT_FALSE(expected.empty());

  // The truncation contract: with acks flowing, node0 is not holding every
  // frame it ever sent — the retained history is bounded by the un-acked
  // window, not the run length.
  std::size_t retained = 0;
  Timestamp applied_after = 0;
  node0->RunBlocking([&] {
    retained = node0->retained_history_size(1);
    applied_after = node0->peer_applied(1);
  });
  EXPECT_GT(applied_after, 0u);
  node0->Stop();
  node1->Stop();
  // Break the writer chain's self-reference cycle (the function captures
  // the shared_ptr that owns it) now that both event loops are joined.
  *issue = nullptr;
  SUCCEED() << "retained history at end: " << retained;
}

}  // namespace
}  // namespace eunomia
