// Transport conformance suite: one matrix of backend-agnostic contract
// tests (handshake, FIFO delivery, backpressure, max-size frames, batch
// chunking, garbage rejection, stop-under-fire, close semantics) run
// against every Transport implementation — loopback and the epoll
// event-loop TCP backend. A new backend passes this suite or it does not
// ship.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/sync.h"
#include "src/net/epoll_transport.h"
#include "src/net/eunomia_client.h"
#include "src/net/eunomia_server.h"
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

// The values are part of the parameter bytes gtest prints into the test
// names; keep them stable.
enum class Backend { kLoopback = 0, kEpollTcp = 2 };

struct BackendParam {
  Backend backend;
  const char* name;
};

class TransportConformanceTest : public ::testing::TestWithParam<BackendParam> {
 protected:
  static std::unique_ptr<Transport> MakeTransport() {
    switch (GetParam().backend) {
      case Backend::kLoopback:
        return std::make_unique<LoopbackTransport>();
      case Backend::kEpollTcp:
        return std::make_unique<EpollTransport>();
    }
    return nullptr;
  }
  static std::string ListenAddress() {
    return GetParam().backend == Backend::kLoopback ? "conformance"
                                                    : "127.0.0.1:0";
  }
  static bool IsTcp() { return GetParam().backend != Backend::kLoopback; }
};

// Handshake: a real client completes the hello exchange and a submit/ack
// round trip against a real server over this backend.
TEST_P(TransportConformanceTest, HandshakeAndSubmitAck) {
  auto transport = MakeTransport();
  EunomiaServer::Options options;
  options.num_partitions = 1;
  options.stable_period_us = 200;
  EunomiaServer server(transport.get(), options);
  const std::string address = server.Start(ListenAddress());
  ASSERT_FALSE(address.empty());
  EunomiaClient client(transport.get(), address, {});
  ASSERT_TRUE(client.Connect());
  ASSERT_TRUE(client.SubmitBatch(0, {OpRecord{1, 0, 7, 9}}));
  ASSERT_TRUE(client.WaitForAcks());
  EXPECT_EQ(client.ops_acked(), 1u);
  client.Close();
  server.Stop();
}

// Raw-frame FIFO: frames arrive exactly in send order, payloads intact.
TEST_P(TransportConformanceTest, FramesArriveInFifoOrder) {
  eunomia::sync::Mutex mu{"conformance::mu", eunomia::sync::kRankLeaf};
  std::vector<std::string> received;
  auto transport = MakeTransport();
  Transport::AcceptHandler accept =
      [&](const std::shared_ptr<Connection>&) {
        ConnectionHandler handler;
        handler.on_frame = [&](Connection&, wire::Frame&& frame) {
          eunomia::sync::MutexLock lock(mu);
          // Payload views die with the callback: copy to retain.
          received.emplace_back(frame.payload);
        };
        return handler;
      };
  const std::string address = transport->Listen(ListenAddress(), accept);
  ASSERT_FALSE(address.empty());
  auto connection = transport->Dial(address, {});
  ASSERT_NE(connection, nullptr);
  constexpr int kFrames = 500;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(connection->SendFrame(wire::MsgType::kHeartbeat,
                                      "frame-" + std::to_string(i)));
  }
  ASSERT_TRUE(WaitUntil([&] {
    eunomia::sync::MutexLock lock(mu);
    return received.size() >= kFrames;
  }));
  eunomia::sync::MutexLock lock(mu);
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(received[i], "frame-" + std::to_string(i));
  }
  lock.Unlock();
  connection->Close();
  transport->Shutdown();
}

// Backpressure: a sender outrunning a slow consumer by multiples of the
// outbox capacity blocks (never errors) and everything still arrives in
// order.
TEST_P(TransportConformanceTest, BackpressureAdmitsEverythingEventually) {
  eunomia::sync::Mutex mu{"conformance::mu", eunomia::sync::kRankLeaf};
  std::size_t received = 0;
  std::size_t bytes = 0;
  auto transport = MakeTransport();
  Transport::AcceptHandler accept =
      [&](const std::shared_ptr<Connection>&) {
        ConnectionHandler handler;
        handler.on_frame = [&](Connection&, wire::Frame&& frame) {
          // Slow consumer: the sender must outrun us into its outbox cap.
          std::this_thread::sleep_for(std::chrono::microseconds(500));
          eunomia::sync::MutexLock lock(mu);
          ++received;
          bytes += frame.payload.size();
        };
        return handler;
      };
  const std::string address = transport->Listen(ListenAddress(), accept);
  ASSERT_FALSE(address.empty());
  auto connection = transport->Dial(address, {});
  ASSERT_NE(connection, nullptr);
  // 4x the 8 MiB outbox capacity, in 512 KiB frames.
  constexpr std::size_t kFrameBytes = 512u << 10;
  constexpr std::size_t kFrames = 64;
  const std::string payload(kFrameBytes, 'x');
  for (std::size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(connection->SendFrame(wire::MsgType::kHeartbeat, payload));
  }
  ASSERT_TRUE(WaitUntil([&] {
    eunomia::sync::MutexLock lock(mu);
    return received >= kFrames;
  }));
  {
    eunomia::sync::MutexLock lock(mu);
    EXPECT_EQ(received, kFrames);
    EXPECT_EQ(bytes, kFrames * kFrameBytes);
  }
  connection->Close();
  transport->Shutdown();
}

// The wire maximum: one frame carrying a full kMaxPayloadBytes (16 MiB)
// payload crosses intact (length, checksum, content).
TEST_P(TransportConformanceTest, MaxSizePayloadRoundTrips) {
  eunomia::sync::Mutex mu{"conformance::mu", eunomia::sync::kRankLeaf};
  std::string received;
  std::atomic<bool> done{false};
  auto transport = MakeTransport();
  Transport::AcceptHandler accept =
      [&](const std::shared_ptr<Connection>&) {
        ConnectionHandler handler;
        handler.on_frame = [&](Connection&, wire::Frame&& frame) {
          eunomia::sync::MutexLock lock(mu);
          received = std::string(frame.payload);
          done.store(true);
        };
        return handler;
      };
  const std::string address = transport->Listen(ListenAddress(), accept);
  ASSERT_FALSE(address.empty());
  auto connection = transport->Dial(address, {});
  ASSERT_NE(connection, nullptr);
  std::string payload(wire::kMaxPayloadBytes, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 1315423911u >> 3);
  }
  ASSERT_TRUE(connection->SendFrame(wire::MsgType::kHeartbeat, payload));
  ASSERT_TRUE(WaitUntil([&] { return done.load(); }));
  eunomia::sync::MutexLock lock(mu);
  EXPECT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);
  lock.Unlock();
  connection->Close();
  transport->Shutdown();
}

// Chunking: a batch bigger than one frame is split client-side and
// re-chunked server-side (tiny caps make it observable), and the stable
// stream still arrives complete and ordered.
TEST_P(TransportConformanceTest, OversizedBatchesAreChunked) {
  auto transport = MakeTransport();
  EunomiaServer::Options options;
  options.num_partitions = 1;
  options.stable_period_us = 200;
  options.max_ops_per_stable_frame = 8;
  EunomiaServer server(transport.get(), options);
  const std::string address = server.Start(ListenAddress());
  ASSERT_FALSE(address.empty());

  EunomiaClient::Options sub_options;
  sub_options.subscribe = true;
  EunomiaClient subscriber(transport.get(), address, sub_options);
  ASSERT_TRUE(subscriber.Connect());

  EunomiaClient::Options client_options;
  client_options.max_ops_per_frame = 16;
  EunomiaClient client(transport.get(), address, client_options);
  ASSERT_TRUE(client.Connect());
  std::vector<OpRecord> batch;
  for (Timestamp ts = 1; ts <= 500; ++ts) {
    batch.push_back(OpRecord{ts, 0, ts, 0});
  }
  ASSERT_TRUE(client.SubmitBatch(0, std::move(batch)));
  client.Heartbeat(0, kFarFutureTs);
  ASSERT_TRUE(client.WaitForAcks());
  EXPECT_EQ(client.ops_acked(), 500u);
  ASSERT_TRUE(
      WaitUntil([&] { return subscriber.stable_ops_received() >= 500; }));
  EXPECT_FALSE(subscriber.stream_broken());
  subscriber.Close();
  client.Close();
  server.Stop();
}

// Garbage on the wire is detected by the frame decoder and torn down —
// never a crash. TCP-only: loopback cannot inject raw bytes below the
// encoder.
TEST_P(TransportConformanceTest, GarbageBytesAreRejected) {
  if (!IsTcp()) {
    GTEST_SKIP() << "loopback has no raw-byte path below the frame encoder";
  }
  auto transport = MakeTransport();
  EunomiaServer::Options options;
  options.num_partitions = 1;
  EunomiaServer server(transport.get(), options);
  const std::string address = server.Start(ListenAddress());
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
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char garbage[64] = "not an EUNO frame at all, sorry";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);
  // The server tears the connection down on the bad magic; we see EOF/RST.
  char buffer[16];
  const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
  EXPECT_LE(n, 0);
  ::close(fd);
  server.Stop();
}

// Shutdown while senders are mid-flight: SendFrame surfaces false (never a
// crash or hang), Shutdown returns, and after it no callback is running.
TEST_P(TransportConformanceTest, StopUnderFire) {
  std::atomic<std::uint64_t> frames_seen{0};
  auto transport = MakeTransport();
  Transport::AcceptHandler accept =
      [&](const std::shared_ptr<Connection>&) {
        ConnectionHandler handler;
        handler.on_frame = [&](Connection&, wire::Frame&&) {
          frames_seen.fetch_add(1, std::memory_order_relaxed);
        };
        return handler;
      };
  const std::string address = transport->Listen(ListenAddress(), accept);
  ASSERT_FALSE(address.empty());
  constexpr int kSenders = 3;
  std::atomic<bool> go{true};
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&] {
      auto connection = transport->Dial(address, {});
      if (connection == nullptr) {
        return;
      }
      const std::string payload(1024, 'p');
      while (go.load(std::memory_order_relaxed)) {
        if (!connection->SendFrame(wire::MsgType::kHeartbeat, payload)) {
          return;  // transport went away underneath us — expected
        }
      }
    });
  }
  WaitUntil([&] { return frames_seen.load() >= 100; });
  transport->Shutdown();
  go.store(false);
  for (auto& sender : senders) {
    sender.join();
  }
  SUCCEED();
}

// Close semantics: on_close fires exactly once per side with kNone on a
// graceful close, Close is idempotent, and the handler (with everything it
// captured) is dropped afterwards.
TEST_P(TransportConformanceTest, CloseSemantics) {
  std::atomic<int> server_closes{0};
  std::atomic<int> client_closes{0};
  std::atomic<int> server_close_error{-1};
  auto token = std::make_shared<int>(42);  // handler-capture canary
  std::weak_ptr<int> token_watch = token;
  auto transport = MakeTransport();
  Transport::AcceptHandler accept =
      [&, token](const std::shared_ptr<Connection>&) {
        ConnectionHandler handler;
        handler.on_close = [&, token](Connection&, wire::WireError error) {
          server_close_error.store(static_cast<int>(error));
          server_closes.fetch_add(1);
        };
        return handler;
      };
  const std::string address = transport->Listen(ListenAddress(), accept);
  ASSERT_FALSE(address.empty());
  ConnectionHandler dial_handler;
  dial_handler.on_close = [&](Connection&, wire::WireError) {
    client_closes.fetch_add(1);
  };
  auto connection = transport->Dial(address, std::move(dial_handler));
  ASSERT_NE(connection, nullptr);
  ASSERT_TRUE(connection->SendFrame(wire::MsgType::kHeartbeat, "ping"));
  connection->Close();
  connection->Close();  // idempotent
  ASSERT_TRUE(WaitUntil(
      [&] { return server_closes.load() == 1 && client_closes.load() == 1; }));
  EXPECT_TRUE(connection->closed());
  EXPECT_FALSE(connection->SendFrame(wire::MsgType::kHeartbeat, "late"));
  EXPECT_EQ(server_close_error.load(),
            static_cast<int>(wire::WireError::kNone));
  // The transport dropped the accept-side handler after on_close: once our
  // local reference goes, the canary it captured must die too (the accept
  // factory's copy persists, so drop that first via Shutdown below).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(server_closes.load(), 1);
  EXPECT_EQ(client_closes.load(), 1);
  transport->Shutdown();
  transport.reset();  // releases the transport's copy of the accept factory
  accept = nullptr;
  token.reset();
  EXPECT_TRUE(WaitUntil([&] { return token_watch.expired(); },
                        std::chrono::seconds(5)));
}

std::string ParamName(const ::testing::TestParamInfo<BackendParam>& info) {
  return info.param.name;
}

constexpr BackendParam kEpollTcpParam{Backend::kEpollTcp, "epoll_tcp"};

INSTANTIATE_TEST_SUITE_P(
    Backends, TransportConformanceTest,
    ::testing::Values(BackendParam{Backend::kLoopback, "loopback"},
                      kEpollTcpParam),
    ParamName);

// Cases that only mean something for socket-backed transports.
class TcpConformanceTest : public TransportConformanceTest {};

std::size_t OpenFdCount() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

// Connection churn followed by idleness: every closed connection gives its
// socket back without waiting for a later accept or dial (the paths that
// prune the transport's registry), so a quiet listener does not hold dead
// fds until Shutdown.
TEST_P(TcpConformanceTest, ClosedConnectionsReleaseFdsWhileIdle) {
  std::atomic<int> closes{0};
  auto count_close = [&closes](Connection&, wire::WireError) {
    closes.fetch_add(1);
  };
  auto transport = MakeTransport();
  Transport::AcceptHandler accept = [&](const std::shared_ptr<Connection>&) {
    ConnectionHandler handler;
    handler.on_close = count_close;
    return handler;
  };
  const std::string address = transport->Listen(ListenAddress(), accept);
  ASSERT_FALSE(address.empty());
  const std::size_t fds_before = OpenFdCount();
  constexpr int kChurn = 8;
  for (int i = 0; i < kChurn; ++i) {
    ConnectionHandler dial_handler;
    dial_handler.on_close = count_close;
    auto connection = transport->Dial(address, std::move(dial_handler));
    ASSERT_NE(connection, nullptr);
    ASSERT_TRUE(connection->SendFrame(wire::MsgType::kHeartbeat, "hi"));
    connection->Close();
  }
  // Both ends of every churned connection (dialed + accepted) closed.
  ASSERT_TRUE(WaitUntil([&] { return closes.load() == 2 * kChurn; }));
  EXPECT_TRUE(WaitUntil([&] { return OpenFdCount() == fds_before; },
                        std::chrono::seconds(5)))
      << "open fds: " << OpenFdCount() << ", before the churn: " << fds_before;
  transport->Shutdown();
}

INSTANTIATE_TEST_SUITE_P(Backends, TcpConformanceTest,
                         ::testing::Values(kEpollTcpParam), ParamName);

}  // namespace
}  // namespace eunomia::net
