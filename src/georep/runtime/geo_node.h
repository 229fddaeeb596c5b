// GeoNode — the real-world binding of the geo-replication runtime: one
// datacenter of the EunomiaKV deployment on real threads, behind a
// net::Transport (TCP or in-process loopback).
//
// A node hosts the full DatacenterRuntime (partitions, the Eunomia
// stabilizer, the Algorithm 5 receiver) on a single event loop, which
// provides the serialization the runtime's Environment contract requires.
// Cross-datacenter traffic travels transport connections this node dials
// to every peer — per directed pair, a FIFO *metadata link* (ordered
// kGeoMetaBatch shipping + scalar-mode kGeoFrontier beacons) and a
// separate *payload link* (unordered kGeoPayload fan-out), the §5
// data/metadata separation made literal. Inbound links are validated by a
// kGeoHello naming the dialer and the deployment shape; any malformed or
// out-of-place frame closes the connection.
//
// Lifecycle: Listen -> ConnectPeer (for every peer) -> Start -> client
// traffic -> Stop. Stop shuts the transport down (the transport becomes
// dedicated to this node, as with net::EunomiaServer) and joins the event
// loop; afterwards every accessor is safe from any thread. While the node
// is live, inspect runtime state only through RunBlocking.
//
// The client API mirrors the protocol contract: done callbacks run on the
// node's event loop once the operation completed locally — closed-loop
// drivers chain the next operation from there.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/georep/config.h"
#include "src/georep/runtime/datacenter_runtime.h"
#include "src/georep/runtime/environment.h"
#include "src/georep/runtime/event_loop.h"
#include "src/georep/runtime/durability.h"
#include "src/georep/visibility.h"
#include "src/metrics/counter.h"
#include "src/metrics/gauge.h"
#include "src/net/transport.h"
#include "src/wal/disk.h"
#include "src/wal/log_writer.h"

namespace eunomia::geo::rt {

class GeoNode final : private Environment {
 public:
  struct Options {
    DatacenterId dc = 0;
    // Deployment shape + protocol timers. The simulator-only knobs
    // (CostModel, clock skew, NetworkConfig latencies) are ignored: real
    // time and the real network provide them.
    GeoConfig config;
    // Forwarded to the node's VisibilityTracker.
    bool detailed_visibility = false;
    // ConnectPeer dials up to this many times, doubling the pause between
    // attempts from connect_backoff_ms — a peer that boots slightly later
    // (or is restarting) is not a permanent failure.
    std::uint32_t connect_attempts = 5;
    std::uint32_t connect_backoff_ms = 50;
    // After a live link drops, re-dials start at reconnect_backoff_ms and
    // double up to reconnect_backoff_max_ms, forever (a dead peer may come
    // back at any time; Stop cancels the retry loop).
    std::uint32_t reconnect_backoff_ms = 50;
    std::uint32_t reconnect_backoff_max_ms = 1000;
    // Retain every frame sent to each peer and replay it when the link is
    // re-established — durable retransmission that lets a restarted peer
    // catch up. Whatever the peer did keep arrives as duplicates and is
    // absorbed by uid/timestamp dedup on its receive path. Frames a peer
    // has durably acked (kGeoAck / hello resume_from) are truncated from
    // the history and skipped on replay, so against durable peers the
    // buffer stays bounded by the ack interval; against WAL-less peers
    // (which ack 0) it grows without bound, as before.
    bool retain_peer_history = false;
    // Durability: when durability_disk is set the node write-ahead-logs
    // every local install and every inbound metadata batch / payload before
    // processing it, snapshots periodically, and recovers from the disk in
    // the constructor — a kill -9'd node rejoins from its own WAL and needs
    // only incremental catch-up from peers (resume_from in its hellos names
    // the recovered frontier). The disk must outlive the node.
    wal::Disk* durability_disk = nullptr;
    wal::FsyncPolicy fsync = wal::FsyncPolicy::kPerCommit;
    std::uint64_t fsync_interval_us = 5'000;  // kInterval policy only
    // Snapshot when at least snapshot_interval_bytes of log accumulated,
    // checked every kSnapshotCheckIntervalUs (geo_node.cc).
    std::uint64_t snapshot_interval_bytes = 1u << 20;
    // Durable nodes ack their applied frontier to every peer at this
    // period (the acks drive peers' history truncation and this node's
    // install-log truncation).
    std::uint64_t ack_interval_us = 100'000;
    // Observability. When set, the node registers its per-dc series there
    // (visibility latency histograms, receiver queue-depth gauges, replay/
    // reconnect counters) and a loop timer mirrors runtime state into them
    // every metrics_interval_us. Null: off, zero overhead.
    metrics::Registry* metrics = nullptr;
    std::uint64_t metrics_interval_us = 250'000;
  };

  // The transport becomes dedicated to this node; Stop() shuts it down.
  GeoNode(net::Transport* transport, Options options);
  ~GeoNode() override;

  GeoNode(const GeoNode&) = delete;
  GeoNode& operator=(const GeoNode&) = delete;

  // Starts listening for peer links. Returns the bound address ("" on
  // failure).
  std::string Listen(const std::string& address);

  // Dials the metadata + payload links to `peer`, retrying up to
  // Options::connect_attempts times with doubling backoff. False once every
  // attempt failed. The address is remembered: if a live link later drops,
  // the node re-dials it in the background with capped backoff.
  bool ConnectPeer(DatacenterId peer, const std::string& address);

  // Starts the event loop and the protocol timers. Call after every peer
  // is connected.
  void Start();

  // Idempotent. Afterwards no callback is running or will run.
  void Stop();

  // --- client API ------------------------------------------------------------
  void ClientRead(ClientId client, Key key, std::function<void()> done);
  void ClientUpdate(ClientId client, Key key, Value value,
                    std::function<void()> done);

  // --- introspection ---------------------------------------------------------
  DatacenterId dc() const { return options_.dc; }
  // Runs fn on the event loop and blocks until done — the safe way to read
  // runtime/tracker state while the node is live.
  void RunBlocking(std::function<void()> fn) { loop_.RunBlocking(fn); }
  const DatacenterRuntime& runtime() const { return *runtime_; }
  VisibilityTracker& tracker() { return tracker_; }
  const VisibilityTracker& tracker() const { return tracker_; }

  // Frames rejected on inbound links (protocol violations) and outbound
  // sends that failed (peer missing / connection down).
  std::uint64_t wire_errors() const {
    return wire_errors_.load(std::memory_order_relaxed);
  }
  std::uint64_t send_failures() const {
    return send_failures_.load(std::memory_order_relaxed);
  }
  // Peer links successfully re-established after a mid-run drop.
  std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

  // Null when Options::durability_disk was not set. Loop thread (or
  // stopped node) only, like runtime().
  const GeoDurability* durability() const { return durability_.get(); }
  // Highest durably-applied frontier `peer` has acked for this node's
  // updates, and the frames currently retained for it. Loop thread (or
  // stopped node) only — use RunBlocking on a live node.
  Timestamp peer_applied(DatacenterId peer) const {
    return peer_applied_[peer];
  }
  std::size_t retained_history_size(DatacenterId peer) const {
    return peers_[peer].history.size();
  }

  // Test hook for the causality e2e: while paused, outbound payloads to
  // `peer` are parked (metadata keeps flowing, so the remote receiver
  // issues go-aheads that must wait for the payload); resume releases them
  // in the original order.
  void PausePayloadsTo(DatacenterId peer, bool paused);

 private:
  struct Peer {
    std::string address;  // as dialed; background reconnects re-dial it
    std::shared_ptr<net::Connection> metadata;
    std::shared_ptr<net::Connection> payloads;
    bool down = false;  // links lost; a backoff re-dial is scheduled
    std::uint32_t backoff_ms = 0;
    bool paused = false;
    // Encoded kGeoPayload frames parked while paused.
    std::vector<std::string> parked;
    struct Sent {
      net::wire::MsgType type;
      std::string frame;
      // Self-origin frontier that covers this frame (last contained
      // update's own-component timestamp; the beacon value for frontier
      // frames). A peer that durably acked `applied` needs no frame with
      // ts <= applied. 0 = not coverable, always replay.
      Timestamp ts = 0;
    };
    // Options::retain_peer_history: frames sent and not yet acked
    // durable by this peer, in send order.
    std::vector<Sent> history;
  };

  // Environment implementation (all invoked from the loop thread).
  std::uint64_t Now() const override { return loop_.Now(); }
  void ScheduleAfter(DatacenterId dc, std::uint64_t delay_us,
                     std::function<void()> fn) override;
  void ClientHop(DatacenterId dc, std::function<void()> fn) override;
  void RunOnPartition(DatacenterId dc, PartitionId partition,
                      std::uint64_t cost_us, bool priority,
                      std::function<void()> fn) override;
  void SendMetadataBatch(DatacenterId dc, PartitionId partition,
                         std::vector<OpRecord> batch) override;
  void SendHeartbeat(DatacenterId dc, PartitionId partition,
                     Timestamp ts) override;
  void ChargeEunomia(DatacenterId dc, std::uint64_t cost_us) override;
  void SendRemoteMetadata(DatacenterId from, DatacenterId to,
                          std::vector<RemoteUpdate> batch) override;
  void SendFrontier(DatacenterId from, DatacenterId to,
                    Timestamp frontier) override;
  void SendPayload(DatacenterId from, DatacenterId to, PartitionId partition,
                   RemotePayload payload) override;
  void SendApply(DatacenterId dc, PartitionId partition,
                 std::function<void()> fn) override;

  net::ConnectionHandler MakeInboundHandler();
  void SendOnLink(const std::shared_ptr<net::Connection>& link,
                  net::wire::MsgType type, const std::string& payload);
  // Live-path send: records history (when retained), parks paused payloads,
  // and on a send failure marks the peer down. Loop thread only. `ts` is
  // the covering frontier recorded with the history entry (see Peer::Sent).
  void SendToPeer(DatacenterId to, net::wire::MsgType type, std::string frame,
                  Timestamp ts = 0);
  // Dials both links to peers_[peer].address. Synchronous; false if either
  // dial or hello failed (nothing is kept half-connected).
  bool DialLinks(DatacenterId peer);
  // Drops both links and schedules the backoff re-dial loop. Loop thread.
  void MarkLinkDown(DatacenterId peer);
  void TryReconnect(DatacenterId peer);
  // Raises peer_applied_[peer] and truncates its retained history below
  // the new mark. Loop thread only.
  void NotePeerApplied(DatacenterId peer, Timestamp applied);
  // Periodic durable-node duties (self-rescheduling loop timers).
  void AckTick();
  void SnapshotTick();
  // Self-rescheduling loop timer (Options::metrics only): samples the
  // receiver queue gauges and delta-mirrors the runtime's cumulative
  // counters into the registry. Runs on the loop thread, so it reads
  // runtime state with the same serialization RunBlocking provides.
  void MetricsTick();
  // Frontier up to which this node's install WAL may be truncated: its own
  // stable frontier, floored by what every peer has durably acked (0 until
  // all peers ack — a peer that never acks pins the log, by design).
  Timestamp InstallTruncateMark() const;

  // Per-dc registry series plus the mirror marks MetricsTick deltas
  // against. Built in the constructor when Options::metrics is set.
  struct Telemetry {
    std::shared_ptr<metrics::Gauge> buffered_payloads;
    std::shared_ptr<metrics::Gauge> pending_applies;
    std::shared_ptr<metrics::Counter> updates_installed;
    std::shared_ptr<metrics::Counter> payload_duplicates;
    std::shared_ptr<metrics::Counter> reconnects;
    std::shared_ptr<metrics::Counter> replayed_frames;
    std::shared_ptr<metrics::Counter> wire_errors;
    std::shared_ptr<metrics::Counter> send_failures;
    std::uint64_t mirrored_installed = 0;
    std::uint64_t mirrored_duplicates = 0;
    std::uint64_t mirrored_reconnects = 0;
    std::uint64_t mirrored_wire_errors = 0;
    std::uint64_t mirrored_send_failures = 0;
  };

  net::Transport* const transport_;
  const Options options_;
  EventLoop loop_;
  std::unique_ptr<Telemetry> telemetry_;
  VisibilityTracker tracker_;
  UidAllocator uids_;
  SessionMap sessions_;
  std::unique_ptr<GeoDurability> durability_;  // before runtime_: its hooks
  std::unique_ptr<DatacenterRuntime> runtime_;
  // Installs recovered from the WAL, re-fanned-out to every peer at Start
  // (the pre-crash fan-out may not have completed; peers dedup).
  std::vector<std::pair<PartitionId, RemotePayload>> recovered_installs_;
  std::vector<Timestamp> peer_applied_;  // loop thread; indexed by peer
  std::vector<Peer> peers_;  // indexed by DatacenterId; [dc()] unused
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> wire_errors_{0};
  std::atomic<std::uint64_t> send_failures_{0};
  std::atomic<std::uint64_t> reconnects_{0};
};

}  // namespace eunomia::geo::rt
