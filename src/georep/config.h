// Deployment configuration and service-time cost model shared by every
// simulated geo-replicated system.
//
// Throughput differences between the protocols in the paper's evaluation are
// *capacity* effects: each protocol puts a different amount of work on the
// storage servers (per-op processing, metadata enrichment, stabilization
// traffic) and, for sequencer systems, adds a synchronous round-trip to the
// client's critical path. The cost model makes those per-task service times
// explicit so that the simulated throughput is an emergent property of
// closed-loop clients saturating FCFS servers — the same mechanism that
// shapes the real numbers. Defaults are calibrated so that one simulated
// server sustains roughly 3 kops/s, the per-machine Riak KV capacity the
// paper reports (§7.1).
#pragma once

#include <cstdint>

#include "src/sim/network.h"

namespace eunomia::geo {

struct CostModel {
  // Base service times at a storage server (microseconds). Calibrated so
  // the simulated cluster's absolute throughput lands in the paper's range
  // (one Riak server sustains roughly 3 kops/s of simple KV traffic, §7.1;
  // the full 3-DC deployment peaks around 13 kops/s at 99:1 in Fig. 5).
  std::uint64_t read_us = 550;
  std::uint64_t update_us = 750;
  std::uint64_t apply_remote_us = 500;

  // Per-vector-entry metadata enrichment cost. Charged per entry on Cure's
  // operations and stabilization messages — Cure's snapshot/dependency
  // machinery does real per-entry work. EunomiaKV also carries vectors but
  // its dependency checking is trivial (§4: the overhead "is negligible in
  // our protocol as Eunomia allows for trivial dependency checking
  // procedures"), so it pays only the flat eunomia_metadata_us below.
  std::uint64_t vclock_entry_us = 8;

  // Flat per-op metadata cost for EunomiaKV / sequencer systems (vector
  // copy + entrywise max — near-free).
  std::uint64_t eunomia_metadata_us = 6;

  // Extra cost on EunomiaKV's update path: unique-id generation, metadata
  // batching toward Eunomia, and the direct payload fan-out to sibling
  // partitions (§5). This is why the paper's EunomiaKV overhead vs eventual
  // consistency grows with the update ratio (4.7% average, ~1% read-heavy).
  std::uint64_t eunomia_update_metadata_us = 55;

  // Per-op multi-version store maintenance (version chains + GC), paid by
  // the global-stabilization protocols that must retain invisible versions
  // (GentleRain and Cure).
  std::uint64_t multiversion_us = 25;

  // Handling one stabilization / heartbeat message at a partition server
  // (GentleRain & Cure global stabilization, §7.2).
  std::uint64_t stab_msg_us = 120;
  // Per-round local-stable-time computation at a partition.
  std::uint64_t gst_compute_us = 80;

  // Sequencer service time per request (S-Seq / A-Seq). ~20 us/request
  // matches the native sequencer's measured ~48 kops/s ceiling (§7.1).
  std::uint64_t seq_request_us = 18;

  // Extra round-trip latency of the partition <-> sequencer RPC beyond the
  // raw network hops: Erlang messaging, scheduling and serialization in the
  // paper's Riak testbed. Pure latency (no capacity consumed); calibrated
  // so a sequencer round-trip costs ~2 ms, which reproduces the paper's
  // ~14.8% S-Seq throughput penalty at 90:10 (§2, Fig. 1).
  std::uint64_t seq_rpc_overhead_us = 1700;

  // Eunomia service node: per-op ingestion and per-op emission cost. The
  // service runs on its own machine, off the storage servers.
  std::uint64_t eunomia_op_us = 2;

  // Receiver processing per remote update (metadata bookkeeping).
  std::uint64_t receiver_op_us = 5;
};

struct ClockConfig {
  // Per-node clock offsets drawn uniformly from [-max_offset, +max_offset].
  std::int64_t max_offset_us = 500;  // well within NTP discipline on a LAN
  double max_drift_ppm = 50.0;
};

struct GeoConfig {
  std::uint32_t num_dcs = 3;
  std::uint32_t partitions_per_dc = 8;
  std::uint32_t servers_per_dc = 3;

  // Eunomia timers (§3, §5).
  std::uint64_t batch_interval_us = 1000;  // partition -> Eunomia batching
  std::uint64_t theta_us = 1000;           // PROCESS_STABLE period
  std::uint64_t delta_us = 1000;           // partition heartbeat interval
  std::uint64_t rho_us = 1000;             // receiver CHECK_PENDING period

  // GentleRain / Cure global stabilization timers: the paper sets the
  // cross-DC heartbeat interval to 10 ms and the local stable-time
  // computation to 5 ms (§7.2).
  std::uint64_t gst_interval_us = 5000;
  std::uint64_t remote_hb_interval_us = 10000;

  // EunomiaKV metadata mode (§4): vectors track inter-DC dependencies
  // exactly; setting this compresses them into a single scalar "as in
  // GentleRain", introducing false dependencies across datacenters — the
  // visibility lower bound becomes the latency to the farthest datacenter
  // regardless of the update's origin. Used by bench/ablation_metadata.
  bool scalar_metadata = false;

  CostModel costs;
  ClockConfig clocks;
  sim::NetworkConfig network = sim::PaperTopology();

  std::uint64_t timeline_window_us = 1'000'000;
};

}  // namespace eunomia::geo
