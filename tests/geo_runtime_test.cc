// Tests for the transport-agnostic geo-replication runtime
// (src/georep/runtime/):
//
//   1. Sim-binding equivalence: the refactored runtime under
//      rt::SimGeoEnvironment reproduces the pre-refactor monolithic
//      EunomiaKvSystem bit-for-bit for a fixed seed. The golden numbers
//      below were captured from the pre-extraction implementation (PR 4
//      tree) running the exact scenario in this file — including the
//      simulator's executed-event count, which pins the entire event
//      sequence, and an order-insensitive store digest, which pins the
//      replicated contents.
//   2. Receiver edge cases at the runtime seam — duplicate, reordered
//      (causally inverted), and gap-delayed cross-DC deliveries
//      (Algorithm 5) — under BOTH bindings: the simulator environment and
//      a real GeoNode fed frames by a fake peer over a transport.
//   3. The real-transport end-to-end: a 3-datacenter deployment over TCP
//      sockets where a remote update becomes visible only once both its
//      payload and the receiver's go-ahead arrived, and causal chains stay
//      ordered.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/georep/eunomiakv.h"
#include "src/georep/runtime/datacenter_runtime.h"
#include "src/georep/runtime/environment.h"
#include "src/georep/runtime/geo_node.h"
#include "src/georep/runtime/geo_wire.h"
#include "src/georep/runtime/sim_env.h"
#include "src/net/epoll_transport.h"
#include "src/net/loopback_transport.h"
#include "src/sim/simulator.h"
#include "src/workload/workload.h"

namespace eunomia {
namespace {

using geo::GeoConfig;
using geo::RemotePayload;
using geo::RemoteUpdate;
using geo::VectorTimestamp;
namespace gw = geo::rt::wire;
namespace nw = net::wire;

// ---------------------------------------------------------------------------
// 1. Sim-binding equivalence (pinned pre-refactor goldens)
// ---------------------------------------------------------------------------

std::uint64_t FnvMix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

// Order-insensitive digest of one datacenter's replicated contents (keys
// iterated in sorted order, hashing key, vector timestamp and origin).
std::uint64_t StoreDigest(const geo::EunomiaKvSystem& system, DatacenterId dc,
                          std::uint32_t partitions, std::size_t* out_size) {
  std::map<Key, const geo::GeoVersion*> sorted;
  for (PartitionId p = 0; p < partitions; ++p) {
    system.StoreAt(dc, p).ForEach(
        [&](Key k, const geo::GeoVersion& v) { sorted[k] = &v; });
  }
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& [k, v] : sorted) {
    h = FnvMix(h, k);
    for (const Timestamp t : v->vts.entries()) {
      h = FnvMix(h, t);
    }
    h = FnvMix(h, v->origin);
  }
  *out_size = sorted.size();
  return h;
}

struct GoldenRun {
  sim::Simulator sim;
  geo::EunomiaKvSystem system;
  std::uint64_t measure_from = 0;
  std::uint64_t measure_to = 0;

  static GeoConfig Config(bool scalar) {
    GeoConfig config;
    config.num_dcs = 3;
    config.partitions_per_dc = 4;
    config.servers_per_dc = 2;
    config.scalar_metadata = scalar;
    return config;
  }

  explicit GoldenRun(bool scalar) : sim(1234), system(&sim, Config(scalar)) {
    wl::WorkloadConfig workload;
    workload.num_keys = 500;
    workload.update_fraction = 0.3;
    workload.clients_per_dc = 6;
    workload.duration_us = 3 * sim::kSecond;
    workload.warmup_us = 500 * sim::kMillisecond;
    workload.cooldown_us = 500 * sim::kMillisecond;
    workload.seed = 1234;
    wl::WorkloadDriver driver(&sim, &system, workload, 3);
    driver.Start();
    sim.RunUntil(workload.duration_us);
    driver.Stop();
    sim.RunUntil(workload.duration_us + 5 * sim::kSecond);
    measure_from = driver.measure_from_us();
    measure_to = driver.measure_to_us();
  }
};

TEST(GeoRuntimeSimEquivalence, MatchesPreRefactorGoldenVectorMode) {
  GoldenRun run(/*scalar=*/false);
  const auto& tracker = run.system.tracker();
  EXPECT_EQ(tracker.reads_completed(), 12387u);
  EXPECT_EQ(tracker.updates_completed(), 5265u);
  EXPECT_DOUBLE_EQ(tracker.Throughput(run.measure_from, run.measure_to),
                   5882.5);
  // The strongest pin: the total number of simulator events executed. Any
  // divergence in scheduling, messaging, or cost charging changes this.
  EXPECT_EQ(run.sim.executed_events(), 353376u);
  EXPECT_EQ(tracker.PendingArrivals(), 0u);
  EXPECT_EQ(tracker.TrackedInstalls(), 0u);

  const std::array<std::uint64_t, 3> applied = {3529, 3477, 3524};
  const std::array<std::uint64_t, 3> emitted = {1736, 1788, 1741};
  for (DatacenterId d = 0; d < 3; ++d) {
    EXPECT_EQ(run.system.ReceiverAt(d).applied_count(), applied[d]) << d;
    EXPECT_EQ(run.system.ReceiverAt(d).duplicate_count(), 0u) << d;
    EXPECT_EQ(run.system.EunomiaAt(d).ops_emitted(), emitted[d]) << d;
    std::size_t size = 0;
    EXPECT_EQ(StoreDigest(run.system, d, 4, &size), 12613325128148312392ULL)
        << d;
    EXPECT_EQ(size, 500u) << d;
  }
  ASSERT_NE(tracker.Visibility(0, 1), nullptr);
  EXPECT_EQ(tracker.Visibility(0, 1)->count(), 1736u);
  EXPECT_DOUBLE_EQ(tracker.Visibility(0, 1)->Quantile(0.5), 3316.5);
  ASSERT_NE(tracker.Visibility(1, 2), nullptr);
  EXPECT_EQ(tracker.Visibility(1, 2)->count(), 1788u);
  EXPECT_DOUBLE_EQ(tracker.Visibility(1, 2)->Quantile(0.5), 3607.5);
}

TEST(GeoRuntimeSimEquivalence, MatchesPreRefactorGoldenScalarMode) {
  GoldenRun run(/*scalar=*/true);
  const auto& tracker = run.system.tracker();
  EXPECT_EQ(tracker.reads_completed(), 12378u);
  EXPECT_EQ(tracker.updates_completed(), 5256u);
  EXPECT_DOUBLE_EQ(tracker.Throughput(run.measure_from, run.measure_to),
                   5879.0);
  EXPECT_EQ(run.sim.executed_events(), 448524u);
  const std::array<std::uint64_t, 3> applied = {3533, 3463, 3516};
  const std::array<std::uint64_t, 3> emitted = {1723, 1793, 1740};
  for (DatacenterId d = 0; d < 3; ++d) {
    EXPECT_EQ(run.system.ReceiverAt(d).applied_count(), applied[d]) << d;
    EXPECT_EQ(run.system.EunomiaAt(d).ops_emitted(), emitted[d]) << d;
    std::size_t size = 0;
    EXPECT_EQ(StoreDigest(run.system, d, 4, &size), 7369893057614894880ULL)
        << d;
    EXPECT_EQ(size, 500u) << d;
  }
  // The scalar false-dependency floor: dc0 -> dc1 visibility is dominated
  // by the farthest leg (~40 ms), an order of magnitude above vector mode.
  ASSERT_NE(tracker.Visibility(0, 1), nullptr);
  EXPECT_EQ(tracker.Visibility(0, 1)->count(), 1723u);
  EXPECT_DOUBLE_EQ(tracker.Visibility(0, 1)->Quantile(0.5), 44467.0);
}

// ---------------------------------------------------------------------------
// 2a. Receiver edge cases at the runtime seam — simulator binding
// ---------------------------------------------------------------------------

RemoteUpdate MakeUpdate(std::uint64_t uid, Key key, DatacenterId origin,
                        PartitionId partition, VectorTimestamp vts) {
  return RemoteUpdate{uid, key, std::move(vts), origin, partition};
}

RemotePayload MakePayload(const RemoteUpdate& u, Value value) {
  return RemotePayload{u.uid, u.key, std::move(value), u.vts, u.origin};
}

// Three DatacenterRuntimes over the simulator environment, timers off so
// each test delivers messages by hand in adversarial orders.
struct SimSeam {
  sim::Simulator sim{99};
  GeoConfig config;
  geo::VisibilityTracker tracker{1'000'000, 3};
  geo::rt::UidAllocator uids{0, 1};
  geo::rt::SessionMap sessions;
  std::unique_ptr<geo::rt::SimGeoEnvironment> env;
  std::vector<std::unique_ptr<geo::rt::DatacenterRuntime>> dcs;

  SimSeam() {
    config.num_dcs = 3;
    config.partitions_per_dc = 2;
    config.servers_per_dc = 1;
    tracker.EnableDetailedLog();
    env = std::make_unique<geo::rt::SimGeoEnvironment>(&sim, config);
    for (DatacenterId m = 0; m < 3; ++m) {
      dcs.push_back(std::make_unique<geo::rt::DatacenterRuntime>(
          m, config, env.get(), &tracker, &uids, &sessions,
          std::vector<PhysicalClock>(config.partitions_per_dc)));
      env->RegisterRuntime(m, dcs.back().get());
    }
  }
};

TEST(GeoRuntimeSeamSim, DuplicateMetadataRedeliverySuppressed) {
  SimSeam seam;
  const auto u = MakeUpdate(7, /*key=*/42, /*origin=*/1, /*partition=*/0,
                            VectorTimestamp{0, 10, 0});
  seam.dcs[0]->OnPayload(0, MakePayload(u, "v1"));
  seam.dcs[0]->OnRemoteMetadata({u});
  seam.sim.RunUntilIdle();
  EXPECT_EQ(seam.dcs[0]->receiver().applied_count(), 1u);
  ASSERT_NE(seam.dcs[0]->StoreAt(0).Get(42), nullptr);

  // A leader failover re-ships the already-applied suffix.
  seam.dcs[0]->OnRemoteMetadata({u});
  seam.sim.RunUntilIdle();
  EXPECT_EQ(seam.dcs[0]->receiver().applied_count(), 1u);
  EXPECT_EQ(seam.dcs[0]->receiver().duplicate_count(), 1u);
  EXPECT_EQ(seam.dcs[0]->receiver().PendingCount(), 0u);
}

TEST(GeoRuntimeSeamSim, ReorderedCrossOriginDeliveryWaitsForDependency) {
  SimSeam seam;
  // u1@dc1, u2@dc2 causally after u1 (vts[1] = 10 carried over).
  const auto u1 = MakeUpdate(1, 5, 1, 0, VectorTimestamp{0, 10, 0});
  const auto u2 = MakeUpdate(2, 6, 2, 1, VectorTimestamp{0, 10, 5});
  // Reordered arrival: the dependent update (and its payload) first.
  seam.dcs[0]->OnPayload(1, MakePayload(u2, "v2"));
  seam.dcs[0]->OnRemoteMetadata({u2});
  seam.sim.RunUntilIdle();
  EXPECT_EQ(seam.dcs[0]->receiver().applied_count(), 0u);
  EXPECT_EQ(seam.dcs[0]->receiver().PendingCount(), 1u);
  EXPECT_EQ(seam.dcs[0]->StoreAt(1).Get(6), nullptr) << "dependency violated";

  seam.dcs[0]->OnPayload(0, MakePayload(u1, "v1"));
  seam.dcs[0]->OnRemoteMetadata({u1});
  seam.sim.RunUntilIdle();
  EXPECT_EQ(seam.dcs[0]->receiver().applied_count(), 2u);
  ASSERT_NE(seam.dcs[0]->StoreAt(1).Get(6), nullptr);
  const auto t1 = seam.tracker.VisibleAt(1, 0);
  const auto t2 = seam.tracker.VisibleAt(2, 0);
  ASSERT_TRUE(t1.has_value());
  ASSERT_TRUE(t2.has_value());
  EXPECT_LE(*t1, *t2) << "dependent update visible before its dependency";
}

TEST(GeoRuntimeSeamSim, GapDelayedPayloadParksTheGoAhead) {
  SimSeam seam;
  const auto u = MakeUpdate(3, 9, 2, 0, VectorTimestamp{0, 0, 4});
  // Metadata (and so the receiver's go-ahead) arrives; the payload is
  // delayed — the §5 data/metadata separation in its uncomfortable order.
  seam.dcs[0]->OnRemoteMetadata({u});
  seam.sim.RunUntilIdle();
  EXPECT_EQ(seam.dcs[0]->receiver().applied_count(), 0u);
  EXPECT_EQ(seam.dcs[0]->receiver().PendingCount(), 1u);  // apply in flight
  EXPECT_EQ(seam.dcs[0]->StoreAt(0).Get(9), nullptr);

  seam.dcs[0]->OnPayload(0, MakePayload(u, "late"));
  seam.sim.RunUntilIdle();
  EXPECT_EQ(seam.dcs[0]->receiver().applied_count(), 1u);
  ASSERT_NE(seam.dcs[0]->StoreAt(0).Get(9), nullptr);
  EXPECT_EQ(seam.dcs[0]->StoreAt(0).Get(9)->value, "late");
  EXPECT_TRUE(seam.tracker.VisibleAt(3, 0).has_value());
}

// ---------------------------------------------------------------------------
// 2b. The same edge cases through the real binding: a GeoNode fed raw
//     frames by a fake peer over a transport.
// ---------------------------------------------------------------------------

GeoConfig SmallRealConfig() {
  GeoConfig config;
  config.num_dcs = 3;
  config.partitions_per_dc = 2;
  config.servers_per_dc = 1;
  config.batch_interval_us = 200;
  config.theta_us = 200;
  config.delta_us = 200;
  config.rho_us = 200;
  return config;
}

// Dials a node's listener pretending to be datacenter `dc`.
struct FakePeer {
  std::shared_ptr<net::Connection> meta;
  std::shared_ptr<net::Connection> payload;

  FakePeer(net::Transport& transport, const std::string& address,
           DatacenterId dc, const GeoConfig& config) {
    auto open = [&](std::uint32_t kind) {
      auto connection =
          transport.Dial(address, net::ConnectionHandler{
                                      [](net::Connection&, nw::Frame&&) {},
                                      [](net::Connection&, nw::WireError) {}});
      if (connection != nullptr) {
      gw::GeoHelloMsg hello;
      hello.dc = dc;
      hello.num_dcs = config.num_dcs;
      hello.partitions = config.partitions_per_dc;
      hello.link_kind = kind;
      connection->SendFrame(nw::MsgType::kGeoHello,
                            gw::EncodeGeoHello(hello));
      }
      return connection;
    };
    meta = open(gw::kMetadataLink);
    payload = open(gw::kPayloadLink);
  }

  void SendMeta(DatacenterId origin, const std::vector<RemoteUpdate>& batch) {
    meta->SendFrame(nw::MsgType::kGeoMetaBatch,
                    gw::EncodeGeoMetaBatch(origin, batch.data(), batch.size()));
  }
  void SendPayload(PartitionId partition, RemotePayload p) {
    gw::GeoPayloadMsg msg;
    msg.partition = partition;
    msg.payload = std::move(p);
    payload->SendFrame(nw::MsgType::kGeoPayload, gw::EncodeGeoPayload(msg));
  }
};

// Polls `predicate` (executed on the node's loop) until true or timeout.
bool WaitForNode(geo::rt::GeoNode& node,
                 const std::function<bool(const geo::rt::DatacenterRuntime&)>&
                     predicate,
                 std::chrono::milliseconds timeout =
                     std::chrono::milliseconds(10'000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    bool ok = false;
    node.RunBlocking([&] { ok = predicate(node.runtime()); });
    if (ok) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

TEST(GeoRuntimeSeamReal, DuplicateAndGapDelayedDeliveriesOverTransport) {
  const GeoConfig config = SmallRealConfig();
  net::LoopbackTransport transport;
  geo::rt::GeoNode node(&transport, {/*dc=*/0, config,
                                     /*detailed_visibility=*/true});
  ASSERT_NE(node.Listen("seam-node0"), "");
  node.Start();
  FakePeer peer(transport, "seam-node0", /*dc=*/1, config);
  ASSERT_NE(peer.meta, nullptr);
  ASSERT_NE(peer.payload, nullptr);

  // Gap-delayed payload: go-ahead first, parked until the payload lands.
  const auto u1 = MakeUpdate(100, 7, 1, 0, VectorTimestamp{0, 10, 0});
  peer.SendMeta(1, {u1});
  ASSERT_TRUE(WaitForNode(node, [](const geo::rt::DatacenterRuntime& r) {
    return r.receiver().PendingCount() == 1;
  }));
  node.RunBlocking([&] {
    EXPECT_EQ(node.runtime().receiver().applied_count(), 0u);
    EXPECT_EQ(node.runtime().StoreAt(0).Get(7), nullptr);
  });
  peer.SendPayload(0, MakePayload(u1, "v1"));
  ASSERT_TRUE(WaitForNode(node, [](const geo::rt::DatacenterRuntime& r) {
    return r.receiver().applied_count() == 1;
  }));

  // Duplicate re-ship of the applied update: suppressed, not re-applied.
  peer.SendMeta(1, {u1});
  ASSERT_TRUE(WaitForNode(node, [](const geo::rt::DatacenterRuntime& r) {
    return r.receiver().duplicate_count() == 1;
  }));
  node.RunBlocking([&] {
    EXPECT_EQ(node.runtime().receiver().applied_count(), 1u);
    ASSERT_NE(node.runtime().StoreAt(0).Get(7), nullptr);
    EXPECT_EQ(node.runtime().StoreAt(0).Get(7)->value, "v1");
  });
  EXPECT_EQ(node.wire_errors(), 0u);
  node.Stop();
}

TEST(GeoRuntimeSeamReal, ReorderedCrossOriginDeliveryWaitsForDependency) {
  const GeoConfig config = SmallRealConfig();
  net::LoopbackTransport transport;
  geo::rt::GeoNode node(&transport, {/*dc=*/0, config,
                                     /*detailed_visibility=*/true});
  ASSERT_NE(node.Listen("seam-node0"), "");
  node.Start();
  FakePeer peer1(transport, "seam-node0", /*dc=*/1, config);
  FakePeer peer2(transport, "seam-node0", /*dc=*/2, config);
  ASSERT_NE(peer1.meta, nullptr);
  ASSERT_NE(peer2.meta, nullptr);

  const auto u1 = MakeUpdate(200, 3, 1, 0, VectorTimestamp{0, 20, 0});
  const auto u2 = MakeUpdate(201, 4, 2, 1, VectorTimestamp{0, 20, 8});
  // The dependent update from dc2 arrives first, payload and all.
  peer2.SendPayload(1, MakePayload(u2, "v2"));
  peer2.SendMeta(2, {u2});
  ASSERT_TRUE(WaitForNode(node, [](const geo::rt::DatacenterRuntime& r) {
    return r.receiver().PendingCount() == 1;
  }));
  node.RunBlocking([&] {
    EXPECT_EQ(node.runtime().receiver().applied_count(), 0u);
    EXPECT_EQ(node.runtime().StoreAt(1).Get(4), nullptr)
        << "applied before its dependency";
  });
  peer1.SendPayload(0, MakePayload(u1, "v1"));
  peer1.SendMeta(1, {u1});
  ASSERT_TRUE(WaitForNode(node, [](const geo::rt::DatacenterRuntime& r) {
    return r.receiver().applied_count() == 2;
  }));
  bool ordered = false;
  node.RunBlocking([&] {
    const auto t1 = node.tracker().VisibleAt(200, 0);
    const auto t2 = node.tracker().VisibleAt(201, 0);
    ordered = t1.has_value() && t2.has_value() && *t1 <= *t2;
  });
  EXPECT_TRUE(ordered) << "dependent update visible before its dependency";
  EXPECT_EQ(node.wire_errors(), 0u);
  node.Stop();
}

TEST(GeoRuntimeSeamReal, MalformedAndMisplacedFramesRejected) {
  const GeoConfig config = SmallRealConfig();
  net::LoopbackTransport transport;
  geo::rt::GeoNode node(&transport, {/*dc=*/0, config, false});
  ASSERT_NE(node.Listen("seam-node0"), "");
  node.Start();

  // A payload frame on the metadata link is a protocol violation.
  FakePeer misplaced(transport, "seam-node0", 1, config);
  const auto u = MakeUpdate(1, 1, 1, 0, VectorTimestamp{0, 1, 0});
  gw::GeoPayloadMsg msg;
  msg.partition = 0;
  msg.payload = MakePayload(u, "x");
  misplaced.meta->SendFrame(nw::MsgType::kGeoPayload, gw::EncodeGeoPayload(msg));

  // A hello claiming a mismatched deployment shape is rejected outright.
  GeoConfig wrong = config;
  wrong.partitions_per_dc = 99;
  FakePeer bad_shape(transport, "seam-node0", 1, wrong);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  while (node.wire_errors() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(node.wire_errors(), 2u);
  node.RunBlocking([&] {
    EXPECT_EQ(node.runtime().receiver().applied_count(), 0u);
  });
  node.Stop();
}

// ---------------------------------------------------------------------------
// 3. Real-transport 3-DC end-to-end over TCP
// ---------------------------------------------------------------------------

struct TcpCluster {
  GeoConfig config = SmallRealConfig();
  std::array<std::unique_ptr<net::EpollTransport>, 3> transports;
  std::array<std::unique_ptr<geo::rt::GeoNode>, 3> nodes;

  TcpCluster() {
    std::array<std::string, 3> addresses;
    for (DatacenterId m = 0; m < 3; ++m) {
      transports[m] = std::make_unique<net::EpollTransport>();
      nodes[m] = std::make_unique<geo::rt::GeoNode>(
          transports[m].get(),
          geo::rt::GeoNode::Options{m, config, /*detailed_visibility=*/true});
      addresses[m] = nodes[m]->Listen("127.0.0.1:0");
      EXPECT_NE(addresses[m], "");
    }
    for (DatacenterId m = 0; m < 3; ++m) {
      for (DatacenterId k = 0; k < 3; ++k) {
        if (k != m) {
          EXPECT_TRUE(nodes[m]->ConnectPeer(k, addresses[k]));
        }
      }
    }
    for (auto& node : nodes) {
      node->Start();
    }
  }

  ~TcpCluster() {
    for (auto& node : nodes) {
      node->Stop();
    }
  }
};

TEST(GeoRuntimeTcpE2e, VisibilityWaitsForPayloadAndGoAhead) {
  TcpCluster cluster;
  auto& dc0 = *cluster.nodes[0];
  auto& dc1 = *cluster.nodes[1];
  auto& dc2 = *cluster.nodes[2];

  // Park the payload fan-out dc0 -> dc1; metadata keeps flowing.
  dc0.PausePayloadsTo(1, true);

  std::atomic<bool> update_done{false};
  dc0.ClientUpdate(1, /*key=*/77, "value-of-77",
                   [&] { update_done.store(true); });

  // dc2 receives payload + go-ahead normally and applies.
  ASSERT_TRUE(WaitForNode(dc2, [](const geo::rt::DatacenterRuntime& r) {
    return r.receiver().applied_count() == 1;
  }));
  // dc1 has the go-ahead (metadata was shipped to every receiver in the
  // same stabilization round) but NOT the payload: nothing may be applied.
  ASSERT_TRUE(WaitForNode(dc1, [](const geo::rt::DatacenterRuntime& r) {
    return r.receiver().PendingCount() == 1;
  }));
  dc1.RunBlocking([&] {
    EXPECT_EQ(dc1.runtime().receiver().applied_count(), 0u);
    for (PartitionId p = 0; p < cluster.config.partitions_per_dc; ++p) {
      EXPECT_EQ(dc1.runtime().StoreAt(p).Get(77), nullptr)
          << "visible without its payload";
    }
  });

  // Release the payload: the parked go-ahead completes the apply.
  dc0.PausePayloadsTo(1, false);
  ASSERT_TRUE(WaitForNode(dc1, [](const geo::rt::DatacenterRuntime& r) {
    return r.receiver().applied_count() == 1;
  }));
  bool value_ok = false;
  dc1.RunBlocking([&] {
    for (PartitionId p = 0; p < cluster.config.partitions_per_dc; ++p) {
      const geo::GeoVersion* v = dc1.runtime().StoreAt(p).Get(77);
      if (v != nullptr && v->value == "value-of-77") {
        value_ok = true;
      }
    }
  });
  EXPECT_TRUE(value_ok);
  EXPECT_TRUE(update_done.load());
  EXPECT_EQ(dc0.send_failures(), 0u);
}

TEST(GeoRuntimeTcpE2e, CausalChainStaysOrderedAcrossRealSockets) {
  TcpCluster cluster;
  auto& dc0 = *cluster.nodes[0];

  // One client issues a causal chain of updates to different keys.
  constexpr int kChain = 12;
  std::atomic<int> completed{0};
  std::function<void(int)> issue = [&](int i) {
    if (i >= kChain) {
      return;
    }
    dc0.ClientUpdate(5, static_cast<Key>(i),
                     std::string("v").append(std::to_string(i)),
                     [&, i] {
                       completed.fetch_add(1);
                       issue(i + 1);
                     });
  };
  issue(0);

  // All of the chain applies at both remote datacenters.
  for (DatacenterId d = 1; d < 3; ++d) {
    ASSERT_TRUE(WaitForNode(
        *cluster.nodes[d], [](const geo::rt::DatacenterRuntime& r) {
          return r.receiver().applied_count() ==
                 static_cast<std::uint64_t>(kChain);
        }))
        << "dc" << d;
  }
  EXPECT_EQ(completed.load(), kChain);

  // dc0's uid stream is dc + i * num_dcs = 3i; visibility must be
  // monotone in chain order at every remote datacenter.
  for (DatacenterId d = 1; d < 3; ++d) {
    auto& node = *cluster.nodes[d];
    bool ordered = true;
    node.RunBlocking([&] {
      std::uint64_t prev = 0;
      for (int i = 0; i < kChain; ++i) {
        const auto t = node.tracker().VisibleAt(3ull * i, d);
        ASSERT_TRUE(t.has_value()) << "chain uid " << 3 * i << " at dc" << d;
        ordered = ordered && *t >= prev;
        prev = *t;
      }
    });
    EXPECT_TRUE(ordered) << "causal chain inverted at dc" << d;
  }

  // And the stores converge on the chain's values everywhere.
  for (DatacenterId d = 1; d < 3; ++d) {
    auto& node = *cluster.nodes[d];
    node.RunBlocking([&] {
      for (int i = 0; i < kChain; ++i) {
        const Key key = static_cast<Key>(i);
        bool found = false;
        for (PartitionId p = 0; p < cluster.config.partitions_per_dc; ++p) {
          const geo::GeoVersion* v = node.runtime().StoreAt(p).Get(key);
          if (v != nullptr &&
              v->value == std::string("v").append(std::to_string(i))) {
            found = true;
          }
        }
        EXPECT_TRUE(found) << "key " << key << " missing at dc" << d;
      }
    });
  }
}

TEST(GeoRuntimeTcpE2e, ConcurrentLoadFromAllDatacentersConverges) {
  TcpCluster cluster;
  constexpr int kOpsPerClient = 25;
  std::atomic<int> completed{0};
  // Two chained clients per datacenter, disjoint key ranges per client so
  // every written key has a deterministic final value. Each chain's driver
  // function captures a shared_ptr to itself to stay alive across hops;
  // that self-reference is a cycle, broken explicitly once the chains have
  // completed (the `*issue = nullptr` below) or the pair would leak.
  std::vector<std::shared_ptr<std::function<void(int)>>> issues;
  for (DatacenterId m = 0; m < 3; ++m) {
    for (int c = 0; c < 2; ++c) {
      const ClientId client = m * 10 + c;
      auto issue = std::make_shared<std::function<void(int)>>();
      issues.push_back(issue);
      *issue = [&, client, m, c, issue](int i) {
        if (i >= kOpsPerClient) {
          return;
        }
        const Key key = 1000 * (m * 2 + c) + i;
        cluster.nodes[m]->ClientUpdate(client, key, "final",
                                       [&, issue, i] {
                                         completed.fetch_add(1);
                                         (*issue)(i + 1);
                                       });
      };
      (*issue)(0);
    }
  }
  const int total = 3 * 2 * kOpsPerClient;
  // Every node applies every remote update: 2/3 of all updates each.
  for (DatacenterId d = 0; d < 3; ++d) {
    ASSERT_TRUE(WaitForNode(
        *cluster.nodes[d],
        [&](const geo::rt::DatacenterRuntime& r) {
          return r.receiver().applied_count() ==
                 static_cast<std::uint64_t>(total) / 3 * 2;
        },
        std::chrono::milliseconds(20'000)))
        << "dc" << d;
  }
  EXPECT_EQ(completed.load(), total);
  // Every chain has issued its last callback; break the self-reference
  // cycles so the drivers (and their captures) are reclaimed.
  for (auto& issue : issues) {
    *issue = nullptr;
  }
  // Identical contents everywhere.
  auto snapshot = [&](DatacenterId d) {
    std::map<Key, std::pair<Value, std::vector<Timestamp>>> contents;
    cluster.nodes[d]->RunBlocking([&] {
      for (PartitionId p = 0; p < cluster.config.partitions_per_dc; ++p) {
        cluster.nodes[d]->runtime().StoreAt(p).ForEach(
            [&](Key k, const geo::GeoVersion& v) {
              contents[k] = {v.value, v.vts.entries()};
            });
      }
    });
    return contents;
  };
  const auto dc0 = snapshot(0);
  EXPECT_EQ(dc0.size(), static_cast<std::size_t>(total));
  for (DatacenterId d = 1; d < 3; ++d) {
    EXPECT_TRUE(dc0 == snapshot(d)) << "dc" << d << " diverged";
  }
}

// ---------------------------------------------------------------------------
// Geo wire codecs
// ---------------------------------------------------------------------------

TEST(GeoWireTest, MetaBatchRoundTrip) {
  std::vector<RemoteUpdate> updates;
  updates.push_back(MakeUpdate(12, 34, 1, 3, VectorTimestamp{1, 2, 3}));
  updates.push_back(MakeUpdate(15, 99, 1, 0, VectorTimestamp{4, 5, 6}));
  const std::string payload =
      gw::EncodeGeoMetaBatch(1, updates.data(), updates.size());
  gw::GeoMetaBatchMsg msg;
  ASSERT_TRUE(gw::DecodeGeoMetaBatch(payload, &msg));
  EXPECT_EQ(msg.origin, 1u);
  ASSERT_EQ(msg.updates.size(), 2u);
  EXPECT_EQ(msg.updates[0].uid, 12u);
  EXPECT_EQ(msg.updates[0].vts, (VectorTimestamp{1, 2, 3}));
  EXPECT_EQ(msg.updates[1].key, 99u);
  EXPECT_EQ(msg.updates[1].partition, 0u);

  // Truncated payloads and inflated counts are rejected.
  gw::GeoMetaBatchMsg out;
  EXPECT_FALSE(gw::DecodeGeoMetaBatch(payload.substr(0, payload.size() - 1),
                                      &out));
  std::string inflated = payload;
  inflated[4] = 50;  // count field
  EXPECT_FALSE(gw::DecodeGeoMetaBatch(inflated, &out));
}

TEST(GeoWireTest, PayloadRoundTrip) {
  gw::GeoPayloadMsg msg;
  msg.partition = 2;
  msg.payload = RemotePayload{77, 5, "hello-world", VectorTimestamp{9, 8, 7}, 2};
  const std::string payload = gw::EncodeGeoPayload(msg);
  gw::GeoPayloadMsg out;
  ASSERT_TRUE(gw::DecodeGeoPayload(payload, &out));
  EXPECT_EQ(out.partition, 2u);
  EXPECT_EQ(out.payload.uid, 77u);
  EXPECT_EQ(out.payload.value, "hello-world");
  EXPECT_EQ(out.payload.vts, (VectorTimestamp{9, 8, 7}));
  EXPECT_FALSE(gw::DecodeGeoPayload(payload.substr(0, payload.size() - 1),
                                    &out));
}

TEST(GeoWireTest, HelloAndFrontierRoundTrip) {
  gw::GeoHelloMsg hello;
  hello.dc = 2;
  hello.num_dcs = 3;
  hello.partitions = 8;
  hello.link_kind = gw::kPayloadLink;
  gw::GeoHelloMsg hello_out;
  ASSERT_TRUE(gw::DecodeGeoHello(gw::EncodeGeoHello(hello), &hello_out));
  EXPECT_EQ(hello_out.dc, 2u);
  EXPECT_EQ(hello_out.link_kind, gw::kPayloadLink);

  gw::GeoFrontierMsg frontier{1, 123456789};
  gw::GeoFrontierMsg frontier_out;
  ASSERT_TRUE(gw::DecodeGeoFrontier(gw::EncodeGeoFrontier(frontier),
                                    &frontier_out));
  EXPECT_EQ(frontier_out.origin, 1u);
  EXPECT_EQ(frontier_out.frontier, 123456789u);
}

}  // namespace
}  // namespace eunomia
