// EunomiaCore — Algorithm 3 of the paper: the site stabilization procedure.
//
// The core keeps:
//   - Ops: the set of not-yet-stable operations, held in a pluggable
//     *ordered buffer* (src/ordbuf/). The paper's C++ implementation (§6)
//     uses a red-black tree; Property 2 (per-partition timestamp
//     monotonicity) admits a strictly cheaper layout — one sorted run per
//     partition with a tournament-tree merge at extraction — which is the
//     default backend. The red-black tree remains selectable so the §6
//     design choice stays reproducible and the fast path's semantics stay
//     pinned against it (the emitted sequence is bit-for-bit identical
//     across backends).
//   - PartitionTime: the latest timestamp received from every partition
//     (updated by both operations and heartbeats), held in an incremental
//     min-tournament so StableTime() is an O(1) read instead of an O(P)
//     scan on every stabilization tick.
//
// A timestamp is *stable* when it is <= min(PartitionTime): Property 2
// guarantees no partition will ever produce a smaller one. ProcessStable
// extracts all stable operations in timestamp order — an order consistent
// with causality by Property 1 — ready to be shipped to remote datacenters.
//
// The class is single-threaded on purpose: the service wrapper (service.h)
// serializes access, mirroring the single stabilizer thread of the paper's
// implementation.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "src/common/types.h"
#include "src/eunomia/op.h"
#include "src/ordbuf/min_tournament.h"
#include "src/ordbuf/ordered_buffer.h"
#include "src/ordbuf/partition_run_buffer.h"
#include "src/ordbuf/rbtree_buffer.h"

namespace eunomia {

class EunomiaCore {
 public:
  // The core tracks partitions [first_partition, first_partition +
  // num_partitions). A non-zero base lets a sharded service give each worker
  // a private core over its contiguous partition range while ops keep their
  // global partition ids. `backend` selects the ordered-buffer policy
  // holding the not-yet-stable op set.
  explicit EunomiaCore(std::uint32_t num_partitions,
                       std::uint32_t first_partition = 0,
                       ordbuf::Backend backend = ordbuf::Backend::kPartitionRun);

  std::uint32_t num_partitions() const { return num_partitions_; }
  std::uint32_t first_partition() const { return first_partition_; }
  // Derived from the engaged variant alternative — no shadow state to keep
  // in sync with the buffer.
  ordbuf::Backend backend() const {
    if (std::holds_alternative<ordbuf::RbTreeBuffer<OpRecord>>(ops_)) {
      return ordbuf::Backend::kRbTree;
    }
    return ordbuf::Backend::kPartitionRun;
  }

  // ADD_OP (Alg. 3 lines 1-4). Returns false — and ignores the op — if it
  // violates Property 2 (non-monotonic timestamp from its partition); the
  // violation counter lets tests and the service assert this never happens
  // with correct partitions.
  bool AddOp(const OpRecord& op);

  // Bulk ADD_OP for a partition batch. Batches arrive in increasing
  // timestamp order (Property 2), so consecutive ops are O(1) appends in
  // the run-queue backend and hinted (root-descent-free) inserts in the
  // tree backends. Non-monotone ops are counted and dropped exactly as
  // AddOp does. Returns the number accepted.
  std::size_t AddBatch(std::span<const OpRecord> batch);

  // HEARTBEAT (Alg. 3 lines 5-6). Heartbeats only move PartitionTime; a
  // stale heartbeat (<= current entry) is ignored.
  void Heartbeat(PartitionId partition, Timestamp ts);

  // min(PartitionTime) (Alg. 3 line 8) — O(1) from the tournament root.
  // Zero until every partition has been heard from at least once.
  Timestamp StableTime() const { return partition_time_.Min(); }

  // PROCESS_STABLE (Alg. 3 lines 7-11): extracts every pending op with
  // ts <= StableTime() in (ts, partition) order, appending to *out.
  // Returns the number of ops emitted.
  std::size_t ProcessStable(std::vector<OpRecord>* out);

  // Extracts every pending op with ts <= bound regardless of the local
  // StableTime. Used by fault-tolerant followers applying the leader's
  // authoritative STABLE notice (Alg. 4 lines 13-15): the leader may have
  // heard from partitions this replica has not.
  std::size_t ForceExtractUpTo(Timestamp bound, std::vector<OpRecord>* out);

  // --- introspection ---------------------------------------------------------
  std::size_t pending_ops() const {
    return std::visit([](const auto& buf) { return buf.size(); }, ops_);
  }
  Timestamp partition_time(PartitionId p) const {
    assert(p >= first_partition_ && p - first_partition_ < num_partitions_);
    return partition_time_.Get(p - first_partition_);
  }
  Timestamp last_emitted() const { return last_emitted_; }
  std::uint64_t ops_received() const { return ops_received_; }
  std::uint64_t ops_emitted() const { return ops_emitted_; }
  std::uint64_t heartbeats_received() const { return heartbeats_received_; }
  std::uint64_t monotonicity_violations() const { return monotonicity_violations_; }

 private:
  using OpsBuffer = std::variant<ordbuf::PartitionRunBuffer<OpRecord>,
                                 ordbuf::RbTreeBuffer<OpRecord>>;

  static OpsBuffer MakeBuffer(ordbuf::Backend backend, std::uint32_t num_partitions,
                              std::uint32_t first_partition);

  std::uint32_t num_partitions_;
  std::uint32_t first_partition_;
  OpsBuffer ops_;
  ordbuf::MinTournament partition_time_;
  Timestamp last_emitted_ = 0;
  std::uint64_t ops_received_ = 0;
  std::uint64_t ops_emitted_ = 0;
  std::uint64_t heartbeats_received_ = 0;
  std::uint64_t monotonicity_violations_ = 0;
};

}  // namespace eunomia
