// Chaos-harness tests: the fault-injecting environment, nemesis schedules,
// invariant checker, receiver edge cases under injected faults, geo wire
// codec robustness, and the real-TCP GeoNode reconnect machinery.
//
// Everything simulated here is deterministic: fixed seeds, and the nemesis
// determinism test pins that two runs of one seed produce bit-identical
// digests (the property that makes "re-run with the printed seed" a real
// repro, not a suggestion).
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

#include "src/common/random.h"
#include "src/georep/config.h"
#include "src/georep/receiver.h"
#include "src/georep/remote_update.h"
#include "src/georep/runtime/chaos/chaos_cluster.h"
#include "src/georep/runtime/chaos/faulty_env.h"
#include "src/georep/runtime/chaos/invariants.h"
#include "src/georep/runtime/chaos/nemesis.h"
#include "src/georep/runtime/geo_node.h"
#include "src/georep/runtime/geo_wire.h"
#include "src/net/epoll_transport.h"
#include "src/sim/simulator.h"

namespace eunomia {
namespace {

namespace chaos = geo::rt::chaos;
namespace gw = geo::rt::wire;

using geo::GeoConfig;
using geo::Receiver;
using geo::RemotePayload;
using geo::RemoteUpdate;
using geo::VectorTimestamp;

// --- receiver unit tests -----------------------------------------------------

RemoteUpdate ScalarUpdate(std::uint64_t uid, DatacenterId origin,
                          Timestamp ts, std::uint32_t num_dcs) {
  RemoteUpdate u;
  u.uid = uid;
  u.key = uid;
  u.vts = VectorTimestamp(num_dcs);
  for (DatacenterId d = 0; d < num_dcs; ++d) {
    u.vts[d] = ts;
  }
  u.origin = origin;
  return u;
}

// Regression test for a real liveness bug the nemesis sweep found (seed 16
// of the 200-seed run): in scalar mode, two queue heads carrying the SAME
// timestamp from different origins blocked each other forever — each saw
// the other's head with ts <= its own dependency bound. Equal-timestamp
// updates from different origins are causally concurrent (the hybrid clock
// stamps strictly above everything a session observed), so the receiver
// serializes ties by datacenter id instead of deadlocking.
TEST(ReceiverScalar, EqualTimestampHeadsDoNotDeadlock) {
  std::vector<std::uint64_t> applied;
  Receiver receiver(
      /*self=*/0, /*num_dcs=*/3,
      [&applied](const RemoteUpdate& u, std::function<void()> done) {
        applied.push_back(u.uid);
        done();
      },
      /*scalar_mode=*/true);

  // Both updates queue before any frontier beacon arrives, so neither can
  // apply yet — the pre-fix deadlock needs both heads present.
  receiver.OnRemoteUpdate(ScalarUpdate(1, /*origin=*/1, /*ts=*/5, 3));
  receiver.OnRemoteUpdate(ScalarUpdate(2, /*origin=*/2, /*ts=*/5, 3));
  ASSERT_TRUE(applied.empty());

  receiver.OnFrontier(1, 10);
  receiver.OnFrontier(2, 10);

  // Tie broken by datacenter id: origin 1 first, then origin 2.
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0], 1u);
  EXPECT_EQ(applied[1], 2u);
  EXPECT_EQ(receiver.PendingCount(), 0u);
}

// A restarted origin re-announces a low stable frontier; the receiver must
// keep its high-water mark (OnFrontier ignores regressions) or already-
// granted visibility would be retroactively unjustified.
TEST(ReceiverScalar, FrontierIgnoresRegressionAfterRestart) {
  Receiver receiver(
      0, 3, [](const RemoteUpdate&, std::function<void()> done) { done(); },
      /*scalar_mode=*/true);
  receiver.OnFrontier(1, 100);
  EXPECT_EQ(receiver.frontier_of(1), 100u);
  receiver.OnFrontier(1, 7);  // restarted dc1 starts its frontier over
  EXPECT_EQ(receiver.frontier_of(1), 100u);
  receiver.OnFrontier(1, 150);
  EXPECT_EQ(receiver.frontier_of(1), 150u);
}

// --- chaos cluster under the sim binding -------------------------------------

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
      if (i != j) {
        config.network.wan_one_way_us[i][j] = 5'000;
      }
    }
  }
  return config;
}

chaos::ChaosOptions ClusterOpts(const GeoConfig& config, std::uint64_t seed,
                                const chaos::FaultProfile& profile = {}) {
  chaos::ChaosOptions options;
  options.config = config;
  options.profile = profile;
  options.seed = seed;
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

// Schedules fire-and-forget client updates at dc `dc` every `period_us`
// inside [from_us, to_us).
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

TEST(ChaosCluster, FaultFreeScheduleHasNoViolations) {
  for (const bool scalar : {false, true}) {
    const GeoConfig config = SmallConfig(3, scalar);
    sim::Simulator sim(7);
    chaos::ChaosCluster cluster(&sim, ClusterOpts(config, /*seed=*/7));
    cluster.Start();
    for (DatacenterId dc = 0; dc < 3; ++dc) {
      ScheduleWrites(&sim, &cluster, dc, 20'000, 400'000, 7'000);
    }
    sim.RunUntil(2'000'000);
    const auto violations =
        chaos::CheckInvariants(cluster, GenerousBound(cluster, config));
    EXPECT_TRUE(violations.empty())
        << (scalar ? "scalar" : "vector") << ": " << violations.size()
        << " violations, first: "
        << (violations.empty() ? "" : violations[0].detail);
  }
}

TEST(ChaosCluster, CrashRestartConvergesAndFrontierStaysMonotone) {
  const GeoConfig config = SmallConfig(3, /*scalar=*/true);
  sim::Simulator sim(11);
  chaos::ChaosCluster cluster(&sim, ClusterOpts(config, /*seed=*/11));
  cluster.Start();
  ScheduleWrites(&sim, &cluster, 0, 20'000, 500'000, 5'000);
  ScheduleWrites(&sim, &cluster, 2, 25'000, 500'000, 5'000);

  // dc1 dies with total state loss mid-run and is rebooted 200 ms later;
  // dc0's view of dc1's frontier must never regress across the restart.
  Timestamp frontier_before_crash = 0;
  sim.ScheduleAt(150'000, [&cluster, &frontier_before_crash] {
    frontier_before_crash = cluster.runtime(0)->receiver().frontier_of(1);
    cluster.Crash(1);
  });
  sim.ScheduleAt(350'000, [&cluster] { cluster.Restart(1); });

  sim.RunUntil(2'500'000);
  ASSERT_TRUE(cluster.alive(1));
  EXPECT_EQ(cluster.env().stats().crashes, 1u);
  EXPECT_EQ(cluster.env().stats().restarts, 1u);
  EXPECT_GE(cluster.runtime(0)->receiver().frontier_of(1),
            frontier_before_crash);
  const auto violations =
      chaos::CheckInvariants(cluster, GenerousBound(cluster, config));
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: "
      << (violations.empty() ? "" : violations[0].detail);
}

// A payload redelivered after its update already became visible (an
// at-least-once channel, or a crash-recovery re-ship racing the original)
// must be dropped by uid/timestamp dedup without disturbing the store.
TEST(ChaosCluster, DuplicatePayloadAfterVisibilityIsDropped) {
  const GeoConfig config = SmallConfig(2, /*scalar=*/false);
  sim::Simulator sim(3);
  chaos::ChaosCluster cluster(&sim, ClusterOpts(config, /*seed=*/3));
  cluster.Start();
  sim.ScheduleAt(10'000, [&cluster] {
    cluster.runtime(0)->ClientUpdate(100, /*key=*/1, "original", [] {});
  });
  sim.RunUntil(1'000'000);

  ASSERT_EQ(cluster.env().install_log(0).size(), 1u);
  const auto& record = cluster.env().install_log(0)[0];
  geo::rt::DatacenterRuntime* dc1 = cluster.runtime(1);
  ASSERT_GT(dc1->receiver().site_time()[0], 0u) << "update never applied";
  ASSERT_EQ(dc1->payload_duplicates(), 0u);

  dc1->OnPayload(record.partition, record.payload);  // exact redelivery
  EXPECT_EQ(dc1->payload_duplicates(), 1u);
  EXPECT_EQ(dc1->BufferedPayloads(), 0u);  // not buffered, dropped outright

  std::map<Key, std::string> values;
  dc1->StoreAt(record.partition)
      .ForEach([&values](Key key, const geo::GeoVersion& v) {
        values[key] = v.value;
      });
  EXPECT_EQ(values[1], "original");
}

// Benign payload loss: the channel drops payloads but re-ships them later
// (at-least-once). Go-aheads park until the re-shipped copy arrives, then
// everything drains — parked applies and buffers must be empty at the end.
TEST(ChaosCluster, LostThenReshippedPayloadDrains) {
  const GeoConfig config = SmallConfig(2, /*scalar=*/false);
  chaos::FaultProfile profile;
  profile.payload_drop = 0.5;
  profile.reship_delay_us = 30'000;
  sim::Simulator sim(13);
  chaos::ChaosCluster cluster(&sim, ClusterOpts(config, /*seed=*/13, profile));
  cluster.Start();
  ScheduleWrites(&sim, &cluster, 0, 10'000, 300'000, 4'000);
  sim.RunUntil(2'000'000);

  EXPECT_GT(cluster.env().stats().payloads_dropped, 0u);
  EXPECT_EQ(cluster.runtime(1)->PendingApplyCount(), 0u);
  EXPECT_EQ(cluster.runtime(1)->BufferedPayloads(), 0u);
  const auto violations =
      chaos::CheckInvariants(cluster, GenerousBound(cluster, config));
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: "
      << (violations.empty() ? "" : violations[0].detail);
}

// --- nemesis schedules -------------------------------------------------------

TEST(Nemesis, SameSeedSameDigest) {
  chaos::NemesisOptions options;
  options.seed = 42;
  options.smoke = true;
  const chaos::NemesisReport a = chaos::RunNemesisSchedule(options);
  const chaos::NemesisReport b = chaos::RunNemesisSchedule(options);
  EXPECT_EQ(a.Digest(), b.Digest());
  EXPECT_TRUE(a.ok()) << a.Digest();
}

TEST(Nemesis, PlantedBugIsCaughtAndReproducible) {
  chaos::NemesisOptions options;
  options.smoke = true;
  options.plant = chaos::Plant::kDropPayload;
  std::uint64_t violating_seed = 0;
  std::string digest;
  for (std::uint64_t seed = 1; seed <= 4 && violating_seed == 0; ++seed) {
    options.seed = seed;
    const chaos::NemesisReport report = chaos::RunNemesisSchedule(options);
    if (!report.ok()) {
      violating_seed = seed;
      digest = report.Digest();
    }
  }
  ASSERT_NE(violating_seed, 0u)
      << "silently dropped payloads never tripped any invariant";
  // The printed seed alone must reproduce the violation bit-for-bit.
  options.seed = violating_seed;
  const chaos::NemesisReport again = chaos::RunNemesisSchedule(options);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.Digest(), digest);
}

// --- geo wire codec fuzz-lite ------------------------------------------------

// Every truncation of a valid frame must be rejected, and no corruption may
// crash a decoder (flipped frames may still decode — only structural
// integrity is enforced at this layer). Fixed seed: failures replay.
TEST(GeoWireFuzz, TruncationsRejectedAndBitFlipsNeverCrash) {
  gw::GeoHelloMsg hello;
  hello.dc = 1;
  hello.num_dcs = 3;
  hello.partitions = 4;
  hello.link_kind = gw::kPayloadLink;

  std::vector<RemoteUpdate> updates;
  for (std::uint64_t i = 0; i < 5; ++i) {
    RemoteUpdate u = ScalarUpdate(i + 1, 1, 100 + i, 3);
    u.partition = static_cast<PartitionId>(i % 4);
    updates.push_back(u);
  }

  gw::GeoFrontierMsg frontier;
  frontier.origin = 2;
  frontier.frontier = 123'456;

  gw::GeoPayloadMsg payload_msg;
  payload_msg.partition = 3;
  payload_msg.payload =
      RemotePayload{9, 7, "value-bytes", VectorTimestamp(3), 1};

  struct Codec {
    std::string frame;
    std::function<bool(std::string_view)> decode;
  };
  const std::vector<Codec> codecs = {
      {gw::EncodeGeoHello(hello),
       [](std::string_view p) {
         gw::GeoHelloMsg m;
         return gw::DecodeGeoHello(p, &m);
       }},
      {gw::EncodeGeoMetaBatch(1, updates.data(), updates.size()),
       [](std::string_view p) {
         gw::GeoMetaBatchMsg m;
         return gw::DecodeGeoMetaBatch(p, &m);
       }},
      {gw::EncodeGeoFrontier(frontier),
       [](std::string_view p) {
         gw::GeoFrontierMsg m;
         return gw::DecodeGeoFrontier(p, &m);
       }},
      {gw::EncodeGeoPayload(payload_msg),
       [](std::string_view p) {
         gw::GeoPayloadMsg m;
         return gw::DecodeGeoPayload(p, &m);
       }},
  };

  for (const Codec& codec : codecs) {
    ASSERT_TRUE(codec.decode(codec.frame));
    for (std::size_t len = 0; len < codec.frame.size(); ++len) {
      EXPECT_FALSE(codec.decode(std::string_view(codec.frame.data(), len)))
          << "truncation to " << len << " of " << codec.frame.size()
          << " bytes accepted";
    }
  }

  Rng rng(0x67656f77697265ULL);  // pinned: any failure replays exactly
  for (int iter = 0; iter < 2000; ++iter) {
    const Codec& codec = codecs[rng.NextBounded(codecs.size())];
    std::string corrupted = codec.frame;
    const std::size_t byte = rng.NextBounded(corrupted.size());
    corrupted[byte] = static_cast<char>(
        static_cast<unsigned char>(corrupted[byte]) ^
        (1u << rng.NextBounded(8)));
    (void)codec.decode(corrupted);  // must not crash or hang; result free
  }
}

// --- real TCP GeoNode binding ------------------------------------------------

// ConnectPeer is retryable: a peer that boots after the first dial attempt
// is found by a later one instead of being a permanent failure.
TEST(GeoNodeTcp, ConnectPeerRetriesUntilPeerBoots) {
  using geo::rt::GeoNode;
  GeoConfig config = SmallConfig(2, false);

  GeoNode::Options options0;
  options0.dc = 0;
  options0.config = config;
  options0.connect_attempts = 12;
  options0.connect_backoff_ms = 25;
  GeoNode::Options options1 = options0;
  options1.dc = 1;

  net::EpollTransport transport0;
  GeoNode node0(&transport0, options0);
  ASSERT_FALSE(node0.Listen("127.0.0.1:0").empty());

  // Grab a concrete port for dc1, then free it again: dc0 starts dialing an
  // address nobody listens on yet.
  std::string addr1;
  {
    net::EpollTransport probe;
    GeoNode ephemeral(&probe, options1);
    addr1 = ephemeral.Listen("127.0.0.1:0");
    ASSERT_FALSE(addr1.empty());
    ephemeral.Stop();
  }

  std::unique_ptr<net::EpollTransport> transport1;
  std::unique_ptr<GeoNode> node1;
  std::thread late_booter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    transport1 = std::make_unique<net::EpollTransport>();
    node1 = std::make_unique<GeoNode>(transport1.get(), options1);
    ASSERT_EQ(node1->Listen(addr1), addr1);
  });

  EXPECT_TRUE(node0.ConnectPeer(1, addr1));
  late_booter.join();
  node0.Stop();
  if (node1 != nullptr) {
    node1->Stop();
  }
}

// The highest-value chaos scenario on the real binding: the remote peer
// dies with total state loss mid-traffic, reboots on the same address, and
// the survivor's background re-dial plus retained-history replay brings it
// back to an identical store.
TEST(GeoNodeTcp, PeerDeathReconnectCatchUp) {
  using geo::rt::GeoNode;
  GeoConfig config = SmallConfig(2, false);

  GeoNode::Options options0;
  options0.dc = 0;
  options0.config = config;
  options0.retain_peer_history = true;
  options0.reconnect_backoff_ms = 20;
  options0.reconnect_backoff_max_ms = 100;
  GeoNode::Options options1 = options0;
  options1.dc = 1;

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

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  node1.reset();  // peer death: all of dc1's state is gone
  transport1.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  transport1 = std::make_unique<net::EpollTransport>();
  node1 = std::make_unique<GeoNode>(transport1.get(), options1);
  ASSERT_EQ(node1->Listen(addr1), addr1) << "could not rebind after reboot";
  ASSERT_TRUE(node1->ConnectPeer(0, addr0));
  node1->Start();

  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  stop.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  EXPECT_GE(node0->reconnects(), 1u);

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

  // Writer ops still in flight at stop time drain through dc0's event loop
  // after this point, so the oracle is re-snapshotted each poll instead of
  // frozen once: converged means both FINAL states match.
  std::map<Key, std::string> expected;
  bool converged = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(8);
  while (std::chrono::steady_clock::now() < deadline) {
    expected = snapshot(node0.get());
    if (!expected.empty() && snapshot(node1.get()) == expected) {
      converged = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_FALSE(expected.empty());
  std::size_t got_keys = 0;
  std::size_t pending = 0;
  std::uint64_t buffered = 0;
  std::uint64_t parked = 0;
  node1->RunBlocking([&] {
    for (PartitionId p = 0; p < config.partitions_per_dc; ++p) {
      node1->runtime().StoreAt(p).ForEach(
          [&got_keys](Key, const geo::GeoVersion&) { ++got_keys; });
    }
    pending = node1->runtime().receiver().PendingCount();
    buffered = node1->runtime().BufferedPayloads();
    parked = node1->runtime().PendingApplyCount();
  });
  EXPECT_TRUE(converged) << "rebooted peer never caught up to "
                         << expected.size() << " keys: has " << got_keys
                         << " keys, pending=" << pending << " buffered="
                         << buffered << " parked=" << parked
                         << "; node0 reconnects=" << node0->reconnects()
                         << " send_failures=" << node0->send_failures()
                         << " wire_errors=" << node0->wire_errors()
                         << " node1 wire_errors=" << node1->wire_errors();

  node0->Stop();
  node1->Stop();
  // Break the writer chain's self-reference cycle (the function captures
  // the shared_ptr that owns it) now that both event loops are joined.
  *issue = nullptr;
}

}  // namespace
}  // namespace eunomia
