// Pins the semantics of the ordered-buffer fast path: an EunomiaCore backed
// by PartitionRunBuffer must emit a bit-for-bit identical
// sequence to the paper's red-black-tree core under randomized workloads —
// skewed partitions, heartbeat-only partitions, duplicate/non-monotone
// drops, ForceExtractUpTo — and the backend choice must thread through the
// native services unchanged.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/eunomia/core.h"
#include "src/eunomia/service.h"
#include "src/ordbuf/ordered_buffer.h"

namespace eunomia {
namespace {

constexpr ordbuf::Backend kAllBackends[] = {ordbuf::Backend::kRbTree,
                                            ordbuf::Backend::kPartitionRun};

void ExpectSameObservableState(const EunomiaCore& reference,
                               const EunomiaCore& candidate) {
  ASSERT_EQ(reference.pending_ops(), candidate.pending_ops());
  ASSERT_EQ(reference.StableTime(), candidate.StableTime());
  ASSERT_EQ(reference.last_emitted(), candidate.last_emitted());
  ASSERT_EQ(reference.ops_received(), candidate.ops_received());
  ASSERT_EQ(reference.ops_emitted(), candidate.ops_emitted());
  ASSERT_EQ(reference.monotonicity_violations(),
            candidate.monotonicity_violations());
  for (PartitionId p = reference.first_partition();
       p < reference.first_partition() + reference.num_partitions(); ++p) {
    ASSERT_EQ(reference.partition_time(p), candidate.partition_time(p));
  }
}

// The equivalence property test of the tentpole: drive one core per backend
// through an identical randomized interleaving and require every emission —
// ProcessStable and ForceExtractUpTo alike — to match the rbtree core
// exactly, op for op, byte for byte.
TEST(OrderedBufferEquivalenceTest, EmissionIsBitForBitIdenticalAcrossBackends) {
  Rng rng(0xE0B0F);
  for (int trial = 0; trial < 12; ++trial) {
    const std::uint32_t partitions =
        1 + static_cast<std::uint32_t>(rng.NextBounded(10));
    const std::uint32_t first_partition =
        static_cast<std::uint32_t>(rng.NextBounded(3)) * 16;
    EunomiaCore rbtree(partitions, first_partition, ordbuf::Backend::kRbTree);
    EunomiaCore runs(partitions, first_partition,
                     ordbuf::Backend::kPartitionRun);
    EunomiaCore* cores[] = {&rbtree, &runs};

    // A random subset of partitions is heartbeat-only: their streams move
    // PartitionTime without ever buffering ops (idle partitions, §3.2).
    std::vector<bool> heartbeat_only(partitions);
    for (std::uint32_t p = 0; p < partitions; ++p) {
      heartbeat_only[p] = rng.NextBool(0.25);
    }
    std::vector<Timestamp> next(partitions, 0);
    std::uint64_t tag = 0;

    for (int step = 0; step < 600; ++step) {
      // Skewed partition pick: min of two uniforms biases toward partition 0.
      const auto local_p = static_cast<std::uint32_t>(
          std::min(rng.NextBounded(partitions), rng.NextBounded(partitions)));
      const PartitionId p = first_partition + local_p;
      const int action = static_cast<int>(rng.NextBounded(100));
      if (action < 55) {
        // A timestamp-ordered batch, optionally poisoned with duplicate and
        // regressing timestamps that every backend must drop identically.
        std::vector<OpRecord> batch;
        const std::uint64_t n = 1 + rng.NextBounded(24);
        for (std::uint64_t i = 0; i < n; ++i) {
          if (!batch.empty() && rng.NextBool(0.1)) {
            OpRecord dup = batch.back();  // duplicate: ts <= PartitionTime
            dup.tag = ++tag;
            batch.push_back(dup);
            continue;
          }
          next[local_p] += 1 + rng.NextBounded(40);
          batch.push_back(OpRecord{next[local_p], p, rng.NextBounded(1000), ++tag});
        }
        if (heartbeat_only[local_p]) {
          for (EunomiaCore* core : cores) {
            core->Heartbeat(p, next[local_p]);
          }
        } else {
          const std::size_t accepted = rbtree.AddBatch(batch);
          ASSERT_EQ(runs.AddBatch(batch), accepted);
        }
      } else if (action < 75) {
        next[local_p] += rng.NextBounded(60);
        for (EunomiaCore* core : cores) {
          core->Heartbeat(p, next[local_p]);
        }
      } else if (action < 90) {
        std::vector<OpRecord> expect;
        std::vector<OpRecord> got;
        const std::size_t n = rbtree.ProcessStable(&expect);
        ASSERT_EQ(runs.ProcessStable(&got), n);
        ASSERT_EQ(got, expect) << "trial " << trial << " step " << step;
      } else {
        // The follower path: the (simulated) leader's notice may exceed the
        // local StableTime — it extracts past silent partitions.
        const Timestamp bound =
            rbtree.StableTime() + rng.NextBounded(2000);
        std::vector<OpRecord> expect;
        std::vector<OpRecord> got;
        const std::size_t n = rbtree.ForceExtractUpTo(bound, &expect);
        ASSERT_EQ(runs.ForceExtractUpTo(bound, &got), n);
        ASSERT_EQ(got, expect) << "trial " << trial << " step " << step;
      }
      ExpectSameObservableState(rbtree, runs);
    }

    // Drain completely and require the final emissions to agree too.
    for (std::uint32_t lp = 0; lp < partitions; ++lp) {
      for (EunomiaCore* core : cores) {
        core->Heartbeat(first_partition + lp, next[lp] + 1'000'000);
      }
    }
    std::vector<OpRecord> expect;
    std::vector<OpRecord> got;
    rbtree.ProcessStable(&expect);
    runs.ProcessStable(&got);
    ASSERT_EQ(got, expect);
    ASSERT_EQ(runs.pending_ops(), 0u);
  }
}

// Options::buffer_backend must reach the shard cores: the single-shard
// service emits the same stable sequence whatever the backend.
TEST(OrderedBufferEquivalenceTest, ServiceEmitsIdenticalSequencePerBackend) {
  constexpr std::uint32_t kPartitions = 6;
  constexpr std::uint64_t kOpsPerPartition = 400;
  std::vector<std::vector<OpRecord>> emissions;
  for (const ordbuf::Backend backend : kAllBackends) {
    EunomiaService::Options options;
    options.num_partitions = kPartitions;
    options.num_shards = 1;
    options.stable_period_us = 100;
    options.buffer_backend = backend;
    std::vector<OpRecord> emitted;
    options.sink = [&emitted](const std::vector<OpRecord>& batch) {
      emitted.insert(emitted.end(), batch.begin(), batch.end());
    };
    EunomiaService service(options);
    service.Start();
    for (std::uint64_t i = 0; i < kOpsPerPartition; ++i) {
      for (PartitionId p = 0; p < kPartitions; ++p) {
        std::vector<OpRecord> batch = service.AcquireBatchBuffer();
        batch.push_back(OpRecord{(i + 1) * 10 + p, p, p, i});
        service.SubmitBatch(p, std::move(batch));
      }
    }
    for (PartitionId p = 0; p < kPartitions; ++p) {
      service.Heartbeat(p, kOpsPerPartition * 10 + 1000);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (service.ops_stabilized() < kOpsPerPartition * kPartitions &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    service.Stop();
    ASSERT_EQ(emitted.size(), kOpsPerPartition * kPartitions)
        << "backend " << ordbuf::BackendName(backend);
    emissions.push_back(std::move(emitted));
  }
  EXPECT_EQ(emissions[0], emissions[1]);
}

// Options::buffer_backend must reach the FT replicas, and the shared-batch
// fan-out must keep acking per partition.
TEST(OrderedBufferEquivalenceTest, FtServiceStabilizesOnEveryBackend) {
  for (const ordbuf::Backend backend : kAllBackends) {
    FtEunomiaService::Options options;
    options.num_partitions = 3;
    options.num_replicas = 3;
    options.stable_period_us = 200;
    options.buffer_backend = backend;
    std::atomic<std::uint64_t> emitted{0};
    options.sink = [&emitted](const std::vector<OpRecord>& batch) {
      emitted.fetch_add(batch.size());
    };
    FtEunomiaService service(options);
    service.Start();
    constexpr std::uint64_t kOps = 200;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      for (PartitionId p = 0; p < 3; ++p) {
        service.SubmitBatch(p, {OpRecord{(i + 1) * 5 + p, p, 0, i}});
      }
    }
    for (PartitionId p = 0; p < 3; ++p) {
      service.Heartbeat(p, kOps * 5 + 100);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (service.ops_stabilized() < kOps * 3 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    service.Stop();
    EXPECT_EQ(service.ops_stabilized(), kOps * 3)
        << "backend " << ordbuf::BackendName(backend);
    // The leader must have ingested (and cumulatively acked) every batch to
    // have emitted the full stream. Followers may be mid-drain at Stop, so
    // only the leader's frontier is exact.
    for (PartitionId p = 0; p < 3; ++p) {
      EXPECT_EQ(service.AckOf(0, p), kOps * 5 + p);
    }
  }
}

}  // namespace
}  // namespace eunomia
