// The transport abstraction: connection-oriented, frame-delimited, FIFO
// links between an Eunomia client and the service — the same split
// FoundationDB makes in fdbrpc (one network interface, a simulated and a
// real socket implementation behind it) and glusterfs makes with rpc/.
//
// Two backends implement it:
//   - LoopbackTransport: in-process bounded queues plus one delivery thread
//     per connection side. Deterministic, no sockets — the backend tests and
//     simulator-adjacent code use it.
//   - EpollTransport: real sockets on a small pool of epoll event loops,
//     length-prefixed frames coalesced into writev batches, TCP_NODELAY.
//
// Both backends push every transmitted byte through the wire-format
// encoder/decoder (src/net/wire.h), so the framing, checksum and session
// sequence logic is exercised identically in-process and on the network.
// The session contract both guarantee:
//
//   - Frames delivered to ConnectionHandler::on_frame arrive in exactly the
//     order the peer sent them (per-channel FIFO, §3.1) — enforced, not
//     assumed: the wire session sequence makes any violation a detected
//     error that tears the connection down.
//   - on_frame / on_close for one connection are invoked from a single
//     transport thread (no concurrent callbacks per connection).
//   - Send applies backpressure: it blocks while the connection's outbound
//     buffer is at capacity and returns false once the connection is closed.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/sync.h"
#include "src/net/wire.h"

namespace eunomia::net {

class Connection;

// Callbacks an endpoint installs on a connection. on_frame receives decoded
// frames in FIFO order; the frame's payload view is only valid for the
// duration of the callback (it points into the transport's receive buffer)
// — handlers copy whatever they retain. on_close fires exactly once, with
// kNone for a clean peer close and the wire error otherwise. After on_close returns the
// transport drops the handler, releasing everything it captured — so a
// handler may own (a share of) the very object that owns this connection
// without leaking the pair.
struct ConnectionHandler {
  std::function<void(Connection&, wire::Frame&&)> on_frame;
  std::function<void(Connection&, wire::WireError)> on_close;
};

class Connection {
 public:
  virtual ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Encodes `payload` as one frame (stamping this direction's session
  // sequence number) and queues it for delivery. Frames from concurrent
  // callers are serialized; each is delivered intact and in the order the
  // sequence numbers were assigned. Blocks while the outbound buffer is
  // full; returns false if the connection is (or becomes) closed.
  bool SendFrame(wire::MsgType type, std::string_view payload);

  // Copy-free variant for the batch hot paths: `frame` is a pre-built frame
  // body from a wire::Encode*Frame builder (header hole + payload); the
  // header — including the session sequence number — is stamped in place
  // under the send lock, so the payload is never re-copied into a second
  // buffer. Same ordering, backpressure and failure semantics as SendFrame.
  bool SendFrameBody(wire::MsgType type, std::string frame);

  // Initiates teardown. Idempotent; the handler's on_close still fires
  // (once) from the transport thread. Pending outbound frames may be lost.
  virtual void Close() = 0;

  bool closed() const { return closed_.load(std::memory_order_acquire); }
  std::uint64_t id() const { return id_; }

 protected:
  Connection();

  // Hands one encoded frame to the backend for transmission. Called with
  // send_mu_ held, so implementations see frames in sequence order.
  virtual bool SendBytes(std::string bytes) REQUIRES(send_mu_) = 0;

  std::atomic<bool> closed_{false};

 private:
  const std::uint64_t id_;  // process-unique, for logging/registries
  sync::Mutex send_mu_{"net::Connection::send_mu_", sync::kRankConnSend};
  std::uint64_t send_seq_ GUARDED_BY(send_mu_) = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Invoked for each accepted connection, before any frame is delivered;
  // returns the handler to install on it.
  using AcceptHandler =
      std::function<ConnectionHandler(const std::shared_ptr<Connection>&)>;

  // Starts listening. `address` is backend-specific: "host:port" for TCP
  // (port 0 binds an ephemeral port) or any non-empty name for loopback.
  // Returns the concrete bound address ("127.0.0.1:41873"), or "" on
  // failure. One listener per transport instance.
  virtual std::string Listen(const std::string& address,
                             AcceptHandler handler) = 0;

  // Connects to a listener and installs `handler`. Returns nullptr on
  // failure.
  virtual std::shared_ptr<Connection> Dial(const std::string& address,
                                           ConnectionHandler handler) = 0;

  // Closes the listener and every connection, then joins all transport
  // threads. After Shutdown returns, no handler is running or will run.
  virtual void Shutdown() = 0;
};

namespace internal {

// Shared receive path: feeds raw bytes through the session decoder and
// dispatches completed frames. Returns false when the stream is malformed
// (error() names the failure); the caller must then tear the connection
// down. Used by both transport backends so session enforcement cannot
// diverge between them.
class FrameReceiver {
 public:
  bool Deliver(Connection& connection, const ConnectionHandler& handler,
               const char* data, std::size_t size);

  wire::WireError error() const { return decoder_.error(); }
  bool mid_frame() const { return decoder_.mid_frame(); }

 private:
  wire::FrameDecoder decoder_;
  std::vector<wire::Frame> scratch_;
};

}  // namespace internal
}  // namespace eunomia::net
