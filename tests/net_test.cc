// Integration tests for the transport layer (src/net/): client/server
// handshake and submission over both backends, session FIFO enforcement,
// backpressure, shutdown races, and the end-to-end acceptance property —
// the stable stream received over real TCP sockets is bit-for-bit identical
// to a LoopbackTransport run with the same input.
#include <gtest/gtest.h>
#include "src/common/sync.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/net/epoll_transport.h"
#include "src/net/eunomia_client.h"
#include "src/net/eunomia_server.h"
#include "src/net/io_loop.h"
#include "src/net/loopback_transport.h"

namespace eunomia::net {
namespace {

constexpr Timestamp kFarFutureTs = 1'000'000'000'000ULL;

bool WaitUntil(const std::function<bool()>& predicate,
               std::chrono::milliseconds budget = std::chrono::seconds(20)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

// Deterministic interleaved workload: `partitions` producer connections
// each submit `batches` batches of `ops_per_batch` ops with per-partition
// strictly increasing timestamps, racing each other; a subscriber records
// the stable stream. Returns the concatenated stream in arrival order.
struct WorkloadResult {
  std::vector<OpRecord> stable;
  bool stream_broken = false;
  bool ok = false;
};

WorkloadResult RunInterleavedWorkload(Transport& transport,
                                      const std::string& listen_address,
                                      std::uint32_t partitions = 4,
                                      std::uint32_t batches = 25,
                                      std::uint32_t ops_per_batch = 40) {
  WorkloadResult result;
  EunomiaServer::Options options;
  options.num_partitions = partitions;
  options.num_shards = 2;
  options.stable_period_us = 200;
  EunomiaServer server(&transport, options);
  const std::string address = server.Start(listen_address);
  if (address.empty()) {
    return result;
  }

  eunomia::sync::Mutex mu{"net_test::mu", eunomia::sync::kRankLeaf};
  EunomiaClient::Options sub_options;
  sub_options.subscribe = true;
  sub_options.on_stable = [&](const std::vector<OpRecord>& ops) {
    eunomia::sync::MutexLock lock(mu);
    result.stable.insert(result.stable.end(), ops.begin(), ops.end());
  };
  EunomiaClient subscriber(&transport, address, sub_options);
  if (!subscriber.Connect()) {
    return result;
  }

  const std::uint64_t total =
      static_cast<std::uint64_t>(partitions) * batches * ops_per_batch;
  std::atomic<bool> all_ok{true};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < partitions; ++p) {
    producers.emplace_back([&, p] {
      EunomiaClient client(&transport, address, {});
      if (!client.Connect()) {
        all_ok.store(false);
        return;
      }
      for (std::uint32_t b = 0; b < batches; ++b) {
        std::vector<OpRecord> batch;
        batch.reserve(ops_per_batch);
        for (std::uint32_t i = 0; i < ops_per_batch; ++i) {
          // Unique, per-partition increasing, interleaved across partitions.
          const Timestamp ts =
              static_cast<Timestamp>(b * ops_per_batch + i + 1) * 7 + p;
          batch.push_back(OpRecord{ts, p, /*key=*/ts ^ p, /*tag=*/b});
        }
        if (!client.SubmitBatch(p, std::move(batch))) {
          all_ok.store(false);
          return;
        }
        std::this_thread::yield();
      }
      client.Heartbeat(p, kFarFutureTs);
      if (!client.WaitForAcks()) {
        all_ok.store(false);
      }
      client.Close();
    });
  }
  for (auto& producer : producers) {
    producer.join();
  }
  const bool streamed = WaitUntil(
      [&] { return subscriber.stable_ops_received() >= total; });
  result.stream_broken = subscriber.stream_broken();
  subscriber.Close();
  server.Stop();
  result.ok = all_ok.load() && streamed;
  return result;
}

TEST(LoopbackTransportTest, DialUnknownAddressFails) {
  LoopbackTransport transport;
  EXPECT_EQ(transport.Dial("nobody-listens-here", {}), nullptr);
}

TEST(LoopbackTransportTest, ListenRejectsDuplicateName) {
  LoopbackTransport transport;
  Transport::AcceptHandler accept = [](const std::shared_ptr<Connection>&) {
    return ConnectionHandler{};
  };
  EXPECT_EQ(transport.Listen("svc", accept), "svc");
  EXPECT_EQ(transport.Listen("svc", accept), "");
}

TEST(NetE2eTest, LoopbackSubmitStabilizeSubscribe) {
  LoopbackTransport transport;
  const WorkloadResult result = RunInterleavedWorkload(transport, "eunomia");
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(result.stream_broken);
  ASSERT_EQ(result.stable.size(), 4u * 25 * 40);
  for (std::size_t i = 1; i < result.stable.size(); ++i) {
    EXPECT_LT(OrderKeyOf(result.stable[i - 1]), OrderKeyOf(result.stable[i]));
  }
}

TEST(NetE2eTest, TcpSubmitStabilizeSubscribe) {
  EpollTransport transport;
  const WorkloadResult result =
      RunInterleavedWorkload(transport, "127.0.0.1:0");
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(result.stream_broken);
  ASSERT_EQ(result.stable.size(), 4u * 25 * 40);
}

// The acceptance property: N client connections submitting interleaved
// batches to eunomiad's server over real TCP produce a stable stream
// bit-for-bit identical, in (ts, partition) order, to an in-process
// LoopbackTransport run with the same input.
TEST(NetE2eTest, TcpStableStreamBitForBitMatchesLoopback) {
  WorkloadResult tcp_result;
  {
    EpollTransport transport;
    tcp_result = RunInterleavedWorkload(transport, "127.0.0.1:0");
  }
  WorkloadResult loopback_result;
  {
    LoopbackTransport transport;
    loopback_result = RunInterleavedWorkload(transport, "eunomia");
  }
  ASSERT_TRUE(tcp_result.ok);
  ASSERT_TRUE(loopback_result.ok);
  EXPECT_FALSE(tcp_result.stream_broken);
  EXPECT_FALSE(loopback_result.stream_broken);
  ASSERT_EQ(tcp_result.stable.size(), loopback_result.stable.size());
  // Bit-for-bit: every field of every record, in the same order.
  EXPECT_EQ(tcp_result.stable, loopback_result.stable);
  for (std::size_t i = 1; i < tcp_result.stable.size(); ++i) {
    EXPECT_LT(OrderKeyOf(tcp_result.stable[i - 1]),
              OrderKeyOf(tcp_result.stable[i]));
  }
}

TEST(NetE2eTest, BackpressureWindowAdmitsEverythingEventually) {
  LoopbackTransport transport;
  EunomiaServer::Options options;
  options.num_partitions = 1;
  options.stable_period_us = 200;
  EunomiaServer server(&transport, options);
  const std::string address = server.Start("svc");
  ASSERT_FALSE(address.empty());
  EunomiaClient::Options client_options;
  client_options.max_inflight_ops = 64;  // tiny window: forces ack waits
  EunomiaClient client(&transport, address, client_options);
  ASSERT_TRUE(client.Connect());
  Timestamp ts = 0;
  for (int b = 0; b < 50; ++b) {
    std::vector<OpRecord> batch;
    for (int i = 0; i < 32; ++i) {
      batch.push_back(OpRecord{++ts, 0, 0, 0});
    }
    ASSERT_TRUE(client.SubmitBatch(0, std::move(batch)));
  }
  ASSERT_TRUE(client.WaitForAcks());
  EXPECT_EQ(client.ops_acked(), 50u * 32);
  // Every batch's ack round trip was measured.
  EXPECT_EQ(client.ack_latency_histogram()->count(), 50u);
  client.Heartbeat(0, kFarFutureTs);
  ASSERT_TRUE(WaitUntil([&] { return server.ops_stabilized() >= 50u * 32; }));
  client.Close();
  server.Stop();
}

TEST(NetE2eTest, ProtocolVersionMismatchClosesConnection) {
  LoopbackTransport transport;
  EunomiaServer::Options options;
  options.num_partitions = 1;
  EunomiaServer server(&transport, options);
  const std::string address = server.Start("svc");
  ASSERT_FALSE(address.empty());
  std::atomic<bool> closed{false};
  ConnectionHandler handler;
  handler.on_close = [&](Connection&, wire::WireError) { closed.store(true); };
  auto connection = transport.Dial(address, std::move(handler));
  ASSERT_NE(connection, nullptr);
  wire::HelloMsg hello;
  hello.protocol_version = 99;
  connection->SendFrame(wire::MsgType::kHello, wire::EncodeHello(hello));
  EXPECT_TRUE(WaitUntil([&] { return closed.load(); }));
  EXPECT_EQ(server.connections_rejected(), 1u);
  server.Stop();
}

TEST(NetE2eTest, FrameBeforeHelloIsRejected) {
  LoopbackTransport transport;
  EunomiaServer::Options options;
  options.num_partitions = 1;
  EunomiaServer server(&transport, options);
  const std::string address = server.Start("svc");
  ASSERT_FALSE(address.empty());
  std::atomic<bool> closed{false};
  ConnectionHandler handler;
  handler.on_close = [&](Connection&, wire::WireError) { closed.store(true); };
  auto connection = transport.Dial(address, std::move(handler));
  ASSERT_NE(connection, nullptr);
  connection->SendFrame(wire::MsgType::kSubmitBatch,
                        wire::EncodeSubmitBatch(0, {OpRecord{1, 0, 0, 0}}));
  EXPECT_TRUE(WaitUntil([&] { return closed.load(); }));
  server.Stop();
}

// A raw TCP peer spraying garbage must be detected by the frame decoder and
// disconnected — never crash the server or corrupt the service.
TEST(NetE2eTest, GarbageBytesOverTcpAreRejected) {
  EpollTransport transport;
  EunomiaServer::Options options;
  options.num_partitions = 1;
  EunomiaServer server(&transport, options);
  const std::string address = server.Start("127.0.0.1:0");
  ASSERT_FALSE(address.empty());
  const auto colon = address.rfind(':');
  const int port = std::stoi(address.substr(colon + 1));

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char garbage[64] = "this is definitely not an EUNO frame, not even close";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);
  // The server closes on the bad magic; our read sees EOF.
  char buffer[16];
  const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
  EXPECT_LE(n, 0);
  ::close(fd);
  server.Stop();
}

TEST(NetE2eTest, ServerStopWhileClientsAreSubmitting) {
  LoopbackTransport transport;
  EunomiaServer::Options options;
  options.num_partitions = 2;
  options.stable_period_us = 200;
  EunomiaServer server(&transport, options);
  const std::string address = server.Start("svc");
  ASSERT_FALSE(address.empty());
  // Two producers hammer submissions while the main thread stops the
  // server: the disconnect must surface as SubmitBatch returning false,
  // never as a crash or hang (the satellite regression this PR hardens).
  std::vector<std::thread> producers;
  std::atomic<bool> go{true};
  for (std::uint32_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      EunomiaClient client(&transport, address, {});
      if (!client.Connect()) {
        return;
      }
      Timestamp ts = 0;
      while (go.load(std::memory_order_relaxed)) {
        std::vector<OpRecord> batch;
        for (int i = 0; i < 16; ++i) {
          batch.push_back(OpRecord{++ts, p, 0, 0});
        }
        if (!client.SubmitBatch(p, std::move(batch))) {
          break;  // server went away — expected
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Stop();
  go.store(false);
  for (auto& producer : producers) {
    producer.join();
  }
  SUCCEED();
}

TEST(NetE2eTest, OversizedBatchesAreChunkedIntoMultipleFrames) {
  // A submission or emission bigger than one frame must be split, not
  // dropped or rejected: the client chunks SubmitBatch, the server chunks
  // StableBatch (consecutive stream sequence numbers). Tiny frame caps
  // make the splitting observable without 599k-op batches.
  LoopbackTransport transport;
  EunomiaServer::Options options;
  options.num_partitions = 1;
  options.stable_period_us = 200;
  options.max_ops_per_stable_frame = 8;
  EunomiaServer server(&transport, options);
  const std::string address = server.Start("svc");
  ASSERT_FALSE(address.empty());

  eunomia::sync::Mutex mu{"net_test::mu", eunomia::sync::kRankLeaf};
  std::vector<OpRecord> stable;
  std::size_t stable_batches = 0;
  EunomiaClient::Options sub_options;
  sub_options.subscribe = true;
  sub_options.on_stable = [&](const std::vector<OpRecord>& ops) {
    eunomia::sync::MutexLock lock(mu);
    stable.insert(stable.end(), ops.begin(), ops.end());
    ++stable_batches;
    EXPECT_LE(ops.size(), 8u);  // the server-side frame cap held
  };
  EunomiaClient subscriber(&transport, address, sub_options);
  ASSERT_TRUE(subscriber.Connect());

  EunomiaClient::Options client_options;
  client_options.max_ops_per_frame = 16;
  EunomiaClient client(&transport, address, client_options);
  ASSERT_TRUE(client.Connect());
  std::vector<OpRecord> batch;
  for (Timestamp ts = 1; ts <= 500; ++ts) {
    batch.push_back(OpRecord{ts, 0, ts, 0});
  }
  ASSERT_TRUE(client.SubmitBatch(0, std::move(batch)));  // 500 ops, cap 16
  client.Heartbeat(0, kFarFutureTs);
  ASSERT_TRUE(client.WaitForAcks());
  EXPECT_EQ(client.ops_acked(), 500u);
  ASSERT_TRUE(WaitUntil([&] { return subscriber.stable_ops_received() >= 500; }));
  EXPECT_FALSE(subscriber.stream_broken());
  {
    eunomia::sync::MutexLock lock(mu);
    ASSERT_EQ(stable.size(), 500u);
    EXPECT_GE(stable_batches, 63u);  // 500 ops / 8-op frames
    for (std::size_t i = 1; i < stable.size(); ++i) {
      EXPECT_LT(OrderKeyOf(stable[i - 1]), OrderKeyOf(stable[i]));
    }
  }
  subscriber.Close();
  client.Close();
  server.Stop();
}

TEST(NetE2eTest, FtServerStabilizesOverLoopback) {
  LoopbackTransport transport;
  EunomiaServer::Options options;
  options.fault_tolerant = true;
  options.num_partitions = 2;
  options.num_replicas = 3;
  options.stable_period_us = 200;
  EunomiaServer server(&transport, options);
  const std::string address = server.Start("ft");
  ASSERT_FALSE(address.empty());
  EunomiaClient client(&transport, address, {});
  ASSERT_TRUE(client.Connect());
  for (std::uint32_t p = 0; p < 2; ++p) {
    std::vector<OpRecord> batch;
    for (int i = 1; i <= 100; ++i) {
      batch.push_back(OpRecord{static_cast<Timestamp>(i), p, 0, 0});
    }
    ASSERT_TRUE(client.SubmitBatch(p, std::move(batch)));
    client.Heartbeat(p, kFarFutureTs);
  }
  ASSERT_TRUE(WaitUntil([&] { return server.ops_stabilized() >= 200; }));
  client.Close();
  server.Stop();
}

// A task posted by a loop task needs no wake, and while it waits in the
// queue no later post wakes the loop either. The loop must still run both
// promptly instead of sleeping in epoll_wait until some fd fires.
TEST(IoLoopTest, TasksPostedByTasksRunWithoutAnotherWake) {
  std::promise<void> inner_ran;
  std::promise<void> later_ran;
  IoLoop loop("IoLoopTest");
  loop.Post([&] { loop.Post([&] { inner_ran.set_value(); }); });
  EXPECT_EQ(inner_ran.get_future().wait_for(std::chrono::seconds(2)),
            std::future_status::ready);
  loop.Post([&] { later_ran.set_value(); });
  EXPECT_EQ(later_ran.get_future().wait_for(std::chrono::seconds(2)),
            std::future_status::ready);
  loop.Stop();
}

}  // namespace
}  // namespace eunomia::net
