// Tests for the fault-tolerant Eunomia pieces (§3.3 / Algorithm 4):
// partition-side ReplicatedSender (prefix property via resend-until-acked)
// and EunomiaReplica (batch dedup, leader stabilization, follower discard),
// including property tests under message loss, duplication and reordering.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "src/common/random.h"
#include "src/eunomia/replica.h"
#include "src/eunomia/sender.h"

namespace eunomia {
namespace {

OpRecord Op(Timestamp ts, PartitionId p = 0) { return OpRecord{ts, p, 0, ts}; }

TEST(PartitionBatcherTest, AccumulatesAndHandsOff) {
  PartitionBatcher batcher;
  EXPECT_TRUE(batcher.empty());
  batcher.Add(Op(1));
  batcher.Add(Op(2));
  EXPECT_EQ(batcher.size(), 2u);
  const auto batch = batcher.TakeBatch();
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batcher.empty());
}

TEST(ReplicatedSenderTest, BatchContainsEverythingUnacked) {
  ReplicatedSender sender(2);
  sender.Add(Op(10));
  sender.Add(Op(20));
  sender.Add(Op(30));
  EXPECT_EQ(sender.BatchFor(0).size(), 3u);
  sender.OnAck(0, 20);
  const auto batch = sender.BatchFor(0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].ts, 30u);
  // Replica 1 never acked: still gets everything... but buffered ops are
  // only trimmed below min ack across replicas.
  EXPECT_EQ(sender.BatchFor(1).size(), 3u);
}

TEST(ReplicatedSenderTest, TrimsAtMinAck) {
  ReplicatedSender sender(2);
  sender.Add(Op(10));
  sender.Add(Op(20));
  sender.OnAck(0, 20);
  EXPECT_EQ(sender.unacked_size(), 2u);  // replica 1 still behind
  sender.OnAck(1, 10);
  EXPECT_EQ(sender.unacked_size(), 1u);
  sender.OnAck(1, 20);
  EXPECT_EQ(sender.unacked_size(), 0u);
}

TEST(ReplicatedSenderTest, OutOfOrderAcksOnlyMoveForward) {
  ReplicatedSender sender(1);
  sender.Add(Op(10));
  sender.Add(Op(20));
  sender.OnAck(0, 20);
  sender.OnAck(0, 10);  // late ack must not resurrect acked ops
  EXPECT_EQ(sender.ack_of(0), 20u);
  EXPECT_TRUE(sender.BatchFor(0).empty());
}

TEST(ReplicatedSenderTest, DropReplicaUnblocksTrimming) {
  ReplicatedSender sender(2);
  sender.Add(Op(10));
  sender.OnAck(0, 10);
  EXPECT_EQ(sender.unacked_size(), 1u);  // replica 1 holding things up
  sender.DropReplica(1);
  EXPECT_EQ(sender.unacked_size(), 0u);
}

TEST(EunomiaReplicaTest, NewBatchFiltersDuplicates) {
  EunomiaReplica replica(0, 1);
  const std::vector<OpRecord> batch1 = {Op(10), Op(20)};
  EXPECT_EQ(replica.NewBatch(batch1, 0), 20u);
  // Resend with overlap: only the new op lands.
  const std::vector<OpRecord> batch2 = {Op(10), Op(20), Op(30)};
  EXPECT_EQ(replica.NewBatch(batch2, 0), 30u);
  EXPECT_EQ(replica.core().ops_received(), 3u);
  EXPECT_EQ(replica.core().monotonicity_violations(), 0u);
}

TEST(EunomiaReplicaTest, LeaderEmitsFollowerDiscards) {
  EunomiaReplica leader(0, 1);
  EunomiaReplica follower(1, 1);
  const std::vector<OpRecord> batch = {Op(10), Op(20), Op(30)};
  leader.NewBatch(batch, 0);
  follower.NewBatch(batch, 0);

  std::vector<OpRecord> shipped;
  const auto result = leader.ProcessStable(&shipped);
  EXPECT_EQ(result.stable_time, 30u);
  EXPECT_EQ(shipped.size(), 3u);

  follower.OnStableNotice(result.stable_time);
  EXPECT_EQ(follower.core().pending_ops(), 0u);
}

TEST(EunomiaReplicaTest, FollowerTakeoverEmitsOnlySuffix) {
  EunomiaReplica leader(0, 1);
  EunomiaReplica follower(1, 1);
  std::vector<OpRecord> ops = {Op(10), Op(20), Op(30), Op(40)};
  leader.NewBatch(ops, 0);
  follower.NewBatch(ops, 0);

  std::vector<OpRecord> shipped;
  leader.ProcessStable(&shipped);                // leader ships all 4
  follower.OnStableNotice(20);                   // notice only covered 2
  // Leader crashes; follower becomes leader and stabilizes.
  std::vector<OpRecord> reshipped;
  follower.ProcessStable(&reshipped);
  ASSERT_EQ(reshipped.size(), 2u);               // suffix 30, 40 re-shipped
  EXPECT_EQ(reshipped[0].ts, 30u);
  EXPECT_EQ(reshipped[1].ts, 40u);
}

TEST(EunomiaReplicaTest, BatchBehindAppliedNoticeIsNotReemitted) {
  // A follower can apply the leader's STABLE notice before a batch the
  // notice covers reaches its inbox. Those ops were already shipped: the
  // late batch must not re-buffer them, or this replica re-emits them once
  // it takes over as leader. The ack still has to cover them so the sender
  // can trim.
  EunomiaReplica follower(1, 1);
  follower.OnStableNotice(100);
  const std::vector<OpRecord> late = {Op(50), Op(80), Op(120)};
  EXPECT_GE(follower.NewBatch(late, 0), 80u);

  std::vector<OpRecord> emitted;
  follower.ProcessStable(&emitted);  // the leader crashed; follower leads
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].ts, 120u);
  EXPECT_EQ(follower.core().monotonicity_violations(), 0u);

  // A batch lying wholly below the notice is acked without buffering.
  EunomiaReplica other(2, 1);
  other.OnStableNotice(100);
  const std::vector<OpRecord> stale = {Op(50), Op(80)};
  EXPECT_EQ(other.NewBatch(stale, 0), 80u);
  EXPECT_EQ(other.core().pending_ops(), 0u);
}

// --- end-to-end property: prefix property & identical emission under chaos --

struct LossyChannel {
  double drop;
  double dup;
  Rng* rng;
  bool Delivers() const { return !rng->NextBool(drop); }
  bool Duplicates() const { return rng->NextBool(dup); }
};

// Simulates partitions sending through lossy/duplicating channels to N
// replicas using ReplicatedSender; verifies that (a) every replica holding
// op u from p also holds every earlier op from p (prefix property), and
// (b) the leader's emission is gapless and ordered.
TEST(FtEunomiaPropertyTest, PrefixPropertyUnderLossAndDuplication) {
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    constexpr std::uint32_t kReplicas = 3;
    constexpr std::uint32_t kPartitions = 4;
    std::vector<EunomiaReplica> replicas;
    for (std::uint32_t r = 0; r < kReplicas; ++r) {
      replicas.emplace_back(r, kPartitions);
    }
    std::vector<ReplicatedSender> senders(kPartitions,
                                          ReplicatedSender(kReplicas));
    std::vector<Timestamp> next_ts(kPartitions, 1);
    LossyChannel channel{0.3, 0.2, &rng};

    std::vector<OpRecord> emitted;

    for (int round = 0; round < 300; ++round) {
      // Each partition creates 0-3 ops.
      for (std::uint32_t p = 0; p < kPartitions; ++p) {
        const std::uint64_t n = rng.NextBounded(4);
        for (std::uint64_t i = 0; i < n; ++i) {
          next_ts[p] += 1 + rng.NextBounded(5);
          senders[p].Add(OpRecord{next_ts[p], p, 0, next_ts[p]});
        }
      }
      // Flush: every partition sends its per-replica batch over the lossy
      // channel; acks flow back over a lossy channel too.
      for (std::uint32_t p = 0; p < kPartitions; ++p) {
        for (std::uint32_t r = 0; r < kReplicas; ++r) {
          auto batch = senders[p].BatchFor(r);
          if (batch.empty()) {
            continue;
          }
          const int copies = channel.Delivers() ? (channel.Duplicates() ? 2 : 1) : 0;
          for (int c = 0; c < copies; ++c) {
            const Timestamp ack = replicas[r].NewBatch(batch, p);
            if (channel.Delivers()) {
              senders[p].OnAck(r, ack);
            }
          }
        }
      }
      // Leader (replica 0) stabilizes occasionally.
      if (round % 5 == 4) {
        std::vector<OpRecord> out;
        const auto result = replicas[0].ProcessStable(&out);
        for (const OpRecord& op : out) {
          emitted.push_back(op);
        }
        for (std::uint32_t r = 1; r < kReplicas; ++r) {
          if (channel.Delivers()) {  // stable notices may be lost too
            replicas[r].OnStableNotice(result.stable_time);
          }
        }
      }
      // Prefix property: per replica and partition, PartitionTime must cover
      // every op at-or-below it (NewBatch enforces in-order application, so
      // it suffices that pending + emitted leave no gaps; checked at drain).
    }

    // Drain: keep flushing until every replica acked everything.
    for (int safety = 0; safety < 10000; ++safety) {
      bool all_acked = true;
      for (std::uint32_t p = 0; p < kPartitions; ++p) {
        for (std::uint32_t r = 0; r < kReplicas; ++r) {
          auto batch = senders[p].BatchFor(r);
          if (!batch.empty()) {
            all_acked = false;
            if (channel.Delivers()) {
              const Timestamp ack = replicas[r].NewBatch(batch, p);
              if (channel.Delivers()) {
                senders[p].OnAck(r, ack);
              }
            }
          }
        }
      }
      if (all_acked) {
        break;
      }
    }
    // Every replica converged to identical PartitionTime vectors.
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      for (std::uint32_t r = 0; r < kReplicas; ++r) {
        EXPECT_EQ(replicas[r].core().partition_time(p), next_ts[p])
            << "replica " << r << " partition " << p;
      }
    }
    // Final leader emission: heartbeat every partition far ahead so the
    // whole backlog stabilizes, then check it is gapless, ordered, complete.
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      replicas[0].Heartbeat(p, next_ts[p] + 1000);
    }
    std::vector<OpRecord> out;
    replicas[0].ProcessStable(&out);
    for (const OpRecord& op : out) {
      emitted.push_back(op);
    }
    EXPECT_EQ(emitted.size(), replicas[0].core().ops_received());
    for (std::size_t i = 1; i < emitted.size(); ++i) {
      const bool ordered = emitted[i - 1].ts < emitted[i].ts ||
                           (emitted[i - 1].ts == emitted[i].ts &&
                            emitted[i - 1].partition < emitted[i].partition);
      EXPECT_TRUE(ordered);
    }
  }
}

// All replicas fed the same (lossy) stream and stabilized independently
// produce identical op sequences — replicas never coordinate (§7.1: "their
// results are independent of relative order of inputs").
TEST(FtEunomiaPropertyTest, ReplicasEmitIdenticalSequences) {
  Rng rng(123);
  constexpr std::uint32_t kReplicas = 3;
  constexpr std::uint32_t kPartitions = 3;
  std::vector<EunomiaReplica> replicas;
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    replicas.emplace_back(r, kPartitions);
  }
  std::vector<ReplicatedSender> senders(kPartitions, ReplicatedSender(kReplicas));
  std::vector<Timestamp> next_ts(kPartitions, 1);
  std::vector<std::vector<Timestamp>> emissions(kReplicas);

  for (int round = 0; round < 200; ++round) {
    for (std::uint32_t p = 0; p < kPartitions; ++p) {
      next_ts[p] += 1 + rng.NextBounded(3);
      senders[p].Add(OpRecord{next_ts[p], p, 0, 0});
      // Deliver to replicas with independent losses; resend next round.
      for (std::uint32_t r = 0; r < kReplicas; ++r) {
        if (rng.NextBool(0.5)) {
          const auto batch = senders[p].BatchFor(r);
          const Timestamp ack = replicas[r].NewBatch(batch, p);
          senders[p].OnAck(r, ack);
        }
      }
    }
    for (std::uint32_t r = 0; r < kReplicas; ++r) {
      std::vector<OpRecord> out;
      replicas[r].ProcessStable(&out);  // every replica stabilizes itself
      for (const OpRecord& op : out) {
        emissions[r].push_back(op.ts * 100 + op.partition);
      }
    }
  }
  // Prefix equality: the shorter emission must be a prefix of the longer.
  for (std::uint32_t r = 1; r < kReplicas; ++r) {
    const std::size_t n = std::min(emissions[0].size(), emissions[r].size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(emissions[0][i], emissions[r][i]) << "replica " << r;
    }
  }
}

}  // namespace
}  // namespace eunomia
