// Tests for the native multithreaded Eunomia services (§6) and the leader
// detector. These use real threads with short wall-clock budgets.
#include <gtest/gtest.h>
#include "src/common/sync.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/clock/hybrid_clock.h"
#include "src/common/random.h"
#include "src/eunomia/service.h"

namespace eunomia {
namespace {

std::uint64_t NowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::vector<OpRecord> MakeBatch(PartitionId p, Timestamp start, int n) {
  std::vector<OpRecord> batch;
  for (int i = 0; i < n; ++i) {
    batch.push_back(OpRecord{start + static_cast<Timestamp>(i), p, 0, 0});
  }
  return batch;
}

TEST(EunomiaServiceTest, StabilizesSubmittedOpsInOrder) {
  std::vector<Timestamp> emitted;
  eunomia::sync::Mutex mu{"service_test::mu", eunomia::sync::kRankLeaf};
  EunomiaService::Options options;
  options.num_partitions = 2;
  options.stable_period_us = 200;
  options.sink = [&](const std::vector<OpRecord>& ops) {
    eunomia::sync::MutexLock lock(mu);
    for (const OpRecord& op : ops) {
      emitted.push_back(op.ts);
    }
  };
  EunomiaService service(options);
  service.Start();
  service.SubmitBatch(0, MakeBatch(0, 100, 50));
  service.SubmitBatch(1, MakeBatch(1, 1000, 50));
  // Heartbeats move both partitions past every submitted op.
  service.Heartbeat(0, 5000);
  service.Heartbeat(1, 5000);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.ops_stabilized() < 100 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.Stop();
  EXPECT_EQ(service.ops_stabilized(), 100u);
  eunomia::sync::MutexLock lock(mu);
  ASSERT_EQ(emitted.size(), 100u);
  for (std::size_t i = 1; i < emitted.size(); ++i) {
    EXPECT_LE(emitted[i - 1], emitted[i]);
  }
}

TEST(EunomiaServiceTest, SilentPartitionBlocksStabilityUntilHeartbeat) {
  EunomiaService::Options options;
  options.num_partitions = 2;
  options.stable_period_us = 200;
  EunomiaService service(options);
  service.Start();
  service.SubmitBatch(0, MakeBatch(0, 100, 10));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(service.ops_stabilized(), 0u);  // partition 1 silent
  service.Heartbeat(1, 1000);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.ops_stabilized() < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.Stop();
  EXPECT_EQ(service.ops_stabilized(), 10u);
}

TEST(EunomiaServiceTest, ConcurrentProducers) {
  EunomiaService::Options options;
  options.num_partitions = 8;
  options.stable_period_us = 200;
  EunomiaService service(options);
  service.Start();
  constexpr int kOpsPerPartition = 2000;
  std::vector<std::thread> producers;
  for (PartitionId p = 0; p < 8; ++p) {
    producers.emplace_back([&service, p] {
      HybridClock clock;
      for (int i = 0; i < kOpsPerPartition / 100; ++i) {
        std::vector<OpRecord> batch;
        for (int j = 0; j < 100; ++j) {
          batch.push_back(OpRecord{clock.TimestampUpdate(NowMicros(), 0), p, 0, 0});
        }
        service.SubmitBatch(p, std::move(batch));
      }
      service.Heartbeat(p, clock.max_ts() + 1'000'000'000ULL);
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.ops_stabilized() < 8ull * kOpsPerPartition &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.Stop();
  EXPECT_EQ(service.ops_stabilized(), 8ull * kOpsPerPartition);
}

TEST(EunomiaServiceTest, HeartbeatForwardedOnlyWhenItAdvances) {
  // Regression: the stabilizer used to re-deliver the unchanged inbox
  // heartbeat to the core on every tick, inflating heartbeats_received_.
  EunomiaService::Options options;
  options.num_partitions = 1;
  options.stable_period_us = 200;
  EunomiaService service(options);
  service.Start();
  service.Heartbeat(0, 100);
  const auto first_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.heartbeats_forwarded() < 1 &&
         std::chrono::steady_clock::now() < first_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.heartbeats_forwarded(), 1u);
  service.Heartbeat(0, 100);  // unchanged value
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // ~100 ticks
  EXPECT_EQ(service.heartbeats_forwarded(), 1u);
  service.Heartbeat(0, 200);  // advances
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.heartbeats_forwarded() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.Stop();
  EXPECT_EQ(service.heartbeats_forwarded(), 2u);
}

TEST(EunomiaServiceTest, StopFlushesOpsStagedBehindTheGlobalMinGate) {
  // Regression: with num_shards > 1, ops one shard extracted as stable but
  // the merge stage still withheld (another shard's stable time lagging)
  // must be delivered on Stop, not destroyed — the unsharded service
  // delivered everything it extracted.
  std::vector<Timestamp> emitted;
  eunomia::sync::Mutex mu{"service_test::mu", eunomia::sync::kRankLeaf};
  EunomiaService::Options options;
  options.num_partitions = 4;  // shard 0 owns {0,1}, shard 1 owns {2,3}
  options.num_shards = 2;
  options.stable_period_us = 200;
  options.sink = [&](const std::vector<OpRecord>& ops) {
    eunomia::sync::MutexLock lock(mu);
    for (const OpRecord& op : ops) {
      emitted.push_back(op.ts);
    }
  };
  EunomiaService service(options);
  service.Start();
  service.SubmitBatch(0, MakeBatch(0, 100, 5));
  service.SubmitBatch(1, MakeBatch(1, 200, 5));
  service.Heartbeat(0, 1000);
  service.Heartbeat(1, 1000);
  // Once both heartbeats are forwarded, the same shard iteration extracts
  // and stages all 10 ops; partitions 2/3 stay silent so the global min is
  // zero and nothing may be emitted yet.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.heartbeats_forwarded() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.heartbeats_forwarded(), 2u);
  EXPECT_EQ(service.ops_stabilized(), 0u);
  service.Stop();
  EXPECT_EQ(service.ops_stabilized(), 10u);
  eunomia::sync::MutexLock lock(mu);
  ASSERT_EQ(emitted.size(), 10u);
  EXPECT_TRUE(std::is_sorted(emitted.begin(), emitted.end()));
}

TEST(EunomiaServiceTest, ShardCountClampedToPartitions) {
  EunomiaService::Options options;
  options.num_partitions = 3;
  options.num_shards = 16;
  EunomiaService service(options);
  EXPECT_EQ(service.num_shards(), 3u);
}

// Shard-equivalence property: for random workloads the multi-shard service
// emits the same stable-op sequence as num_shards = 1. Batch boundaries at
// the sink may differ; the concatenated emission order may not.
TEST(EunomiaServicePropertyTest, ShardedEmissionMatchesUnsharded) {
  constexpr std::uint32_t kPartitions = 8;
  // Pre-generate one workload: per-partition monotone timestamp batches in
  // a fixed interleaved submission order, so every configuration sees
  // byte-identical input.
  Rng rng(4242);
  std::vector<std::pair<PartitionId, std::vector<OpRecord>>> workload;
  std::vector<Timestamp> next(kPartitions, 0);
  std::uint64_t total_ops = 0;
  std::uint64_t tag = 0;
  for (int round = 0; round < 120; ++round) {
    const auto p = static_cast<PartitionId>(rng.NextBounded(kPartitions));
    std::vector<OpRecord> batch;
    const std::uint64_t n = 1 + rng.NextBounded(30);
    for (std::uint64_t i = 0; i < n; ++i) {
      next[p] += 1 + rng.NextBounded(50);
      batch.push_back(OpRecord{next[p], p, rng.NextBounded(1000), tag++});
    }
    total_ops += batch.size();
    workload.emplace_back(p, std::move(batch));
  }
  const Timestamp drain_hb =
      *std::max_element(next.begin(), next.end()) + 1'000'000;

  auto run = [&](std::uint32_t num_shards) {
    std::vector<OpRecord> emitted;
    eunomia::sync::Mutex mu{"service_test::mu", eunomia::sync::kRankLeaf};
    EunomiaService::Options options;
    options.num_partitions = kPartitions;
    options.num_shards = num_shards;
    options.stable_period_us = 100;
    options.sink = [&](const std::vector<OpRecord>& ops) {
      eunomia::sync::MutexLock lock(mu);
      emitted.insert(emitted.end(), ops.begin(), ops.end());
    };
    EunomiaService service(options);
    service.Start();
    for (const auto& [p, batch] : workload) {
      service.SubmitBatch(p, batch);
    }
    for (PartitionId p = 0; p < kPartitions; ++p) {
      service.Heartbeat(p, drain_hb);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (service.ops_stabilized() < total_ops &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    service.Stop();
    EXPECT_EQ(service.ops_stabilized(), total_ops)
        << "num_shards=" << num_shards;
    eunomia::sync::MutexLock lock(mu);
    return emitted;
  };

  const std::vector<OpRecord> baseline = run(1);
  ASSERT_EQ(baseline.size(), total_ops);
  for (const std::uint32_t shards : {2u, 3u, 4u, 8u}) {
    const std::vector<OpRecord> sharded = run(shards);
    ASSERT_EQ(sharded.size(), baseline.size()) << "num_shards=" << shards;
    EXPECT_TRUE(sharded == baseline)
        << "emission order diverged at num_shards=" << shards;
  }
}

TEST(FtEunomiaServiceTest, LeaderEmitsAndAcksAdvance) {
  FtEunomiaService::Options options;
  options.num_partitions = 2;
  options.num_replicas = 3;
  options.stable_period_us = 200;
  std::atomic<std::uint64_t> sink_count{0};
  options.sink = [&](const std::vector<OpRecord>& ops) {
    sink_count.fetch_add(ops.size());
  };
  FtEunomiaService service(options);
  service.Start();
  EXPECT_EQ(service.CurrentLeader(), std::optional<std::uint32_t>(0));
  service.SubmitBatch(0, MakeBatch(0, 10, 20));
  service.SubmitBatch(1, MakeBatch(1, 10, 20));
  service.Heartbeat(0, 10'000);
  service.Heartbeat(1, 10'000);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.ops_stabilized() < 40 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.ops_stabilized(), 40u);
  EXPECT_EQ(sink_count.load(), 40u);
  // Acks from all three replicas reached the op frontier.
  for (std::uint32_t r = 0; r < 3; ++r) {
    const auto ack_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (service.AckOf(r, 0) < 29 &&
           std::chrono::steady_clock::now() < ack_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(service.AckOf(r, 0), 29u);
  }
  service.Stop();
}

TEST(FtEunomiaServiceTest, CrashFailover) {
  FtEunomiaService::Options options;
  options.num_partitions = 1;
  options.num_replicas = 3;
  options.stable_period_us = 200;
  FtEunomiaService service(options);
  service.Start();
  service.SubmitBatch(0, MakeBatch(0, 10, 10));
  service.Heartbeat(0, 1000);
  auto wait_for = [&service](std::uint64_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (service.ops_stabilized() < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  wait_for(10);
  EXPECT_EQ(service.ops_stabilized(), 10u);

  service.CrashReplica(0);
  EXPECT_EQ(service.CurrentLeader(), std::optional<std::uint32_t>(1));
  service.SubmitBatch(0, MakeBatch(0, 2000, 10));
  service.Heartbeat(0, 10'000);
  wait_for(20);
  EXPECT_GE(service.ops_stabilized(), 20u);

  service.CrashReplica(1);
  service.CrashReplica(2);
  EXPECT_FALSE(service.AnyReplicaAlive());
  EXPECT_EQ(service.CurrentLeader(), std::nullopt);
  service.Stop();
}

TEST(FtEunomiaServiceTest, StopIsNotACrash) {
  // Regression: Stop() used to store alive = false for every replica, so a
  // post-Stop AckOf returned kTimestampMax as if the replica had failed.
  FtEunomiaService::Options options;
  options.num_partitions = 1;
  options.num_replicas = 2;
  options.stable_period_us = 200;
  FtEunomiaService service(options);
  service.Start();
  service.SubmitBatch(0, MakeBatch(0, 10, 10));  // ts 10..19
  service.Heartbeat(0, 100);
  for (std::uint32_t r = 0; r < 2; ++r) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (service.AckOf(r, 0) < 19 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  service.Stop();
  for (std::uint32_t r = 0; r < 2; ++r) {
    EXPECT_EQ(service.AckOf(r, 0), 19u) << "replica " << r;
    EXPECT_NE(service.AckOf(r, 0), kTimestampMax);
  }
  EXPECT_TRUE(service.AnyReplicaAlive());  // stopped, not crashed
  EXPECT_EQ(service.CurrentLeader(), std::optional<std::uint32_t>(0));
}

TEST(FtEunomiaServiceTest, LeaderSinkCanCrashOwnReplica) {
  // Regression: CrashReplica called from the leader's sink callback runs on
  // the leader's own thread; an unguarded join would self-deadlock.
  FtEunomiaService::Options options;
  options.num_partitions = 1;
  options.num_replicas = 3;
  options.stable_period_us = 200;
  std::atomic<bool> crashed{false};
  std::atomic<std::uint64_t> sink_count{0};
  FtEunomiaService* svc = nullptr;
  options.sink = [&](const std::vector<OpRecord>& ops) {
    sink_count.fetch_add(ops.size());
    if (!crashed.exchange(true)) {
      svc->CrashReplica(0);  // leader crashes itself mid-emission
    }
  };
  FtEunomiaService service(options);
  svc = &service;
  service.Start();
  service.SubmitBatch(0, MakeBatch(0, 10, 10));
  service.Heartbeat(0, 1000);
  auto wait_for = [&service](std::uint64_t n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (service.ops_stabilized() < n &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  wait_for(10);
  // The counter advances once the sink has run; poll for the failover.
  const auto crash_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.CurrentLeader() != std::optional<std::uint32_t>(1) &&
         std::chrono::steady_clock::now() < crash_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(crashed.load());
  EXPECT_EQ(service.CurrentLeader(), std::optional<std::uint32_t>(1));
  // The survivors keep stabilizing new traffic.
  service.SubmitBatch(0, MakeBatch(0, 5000, 10));
  service.Heartbeat(0, 10'000);
  wait_for(20);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // Exactly once: the crashing leader broadcast its stable notice before the
  // sink ran, so the successor discards that prefix instead of re-emitting.
  EXPECT_EQ(service.ops_stabilized(), 20u);
  EXPECT_EQ(sink_count.load(), 20u);
  service.Stop();  // reaps the self-crashed replica's thread
}

// --- lifecycle hardening (the transport layer races these paths) -------------

TEST(EunomiaServiceTest, DoubleStopIsIdempotent) {
  EunomiaService::Options options;
  options.num_partitions = 2;
  options.stable_period_us = 200;
  EunomiaService service(options);
  service.Start();
  service.SubmitBatch(0, MakeBatch(0, 100, 10));
  service.Stop();
  service.Stop();  // second Stop: no-op, no crash, no double-join
  EXPECT_FALSE(service.running());
}

TEST(EunomiaServiceTest, ConcurrentStopCallersBothReturnStopped) {
  EunomiaService::Options options;
  options.num_partitions = 4;
  options.num_shards = 2;
  options.stable_period_us = 200;
  EunomiaService service(options);
  service.Start();
  service.SubmitBatch(0, MakeBatch(0, 100, 50));
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&service] { service.Stop(); });
  }
  for (auto& stopper : stoppers) {
    stopper.join();
  }
  // Every caller returned only after the pipeline was fully down.
  EXPECT_FALSE(service.running());
}

TEST(EunomiaServiceTest, SubmitAndHeartbeatAfterStopAreDropped) {
  EunomiaService::Options options;
  options.num_partitions = 1;
  options.stable_period_us = 200;
  EunomiaService service(options);
  service.Start();
  service.SubmitBatch(0, MakeBatch(0, 100, 10));
  service.Heartbeat(0, 5000);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.ops_stabilized() < 10 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.Stop();
  const std::uint64_t submitted = service.ops_submitted();
  const std::uint64_t stabilized = service.ops_stabilized();
  service.SubmitBatch(0, MakeBatch(0, 10000, 10));
  service.Heartbeat(0, 20000);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(service.ops_submitted(), submitted);
  EXPECT_EQ(service.ops_stabilized(), stabilized);
}

TEST(EunomiaServiceTest, SubmittersRacingStopNeverCrash) {
  // The regression the transport layer motivates: a disconnecting TCP
  // client's last SubmitBatch can race service shutdown.
  for (int round = 0; round < 5; ++round) {
    EunomiaService::Options options;
    options.num_partitions = 4;
    options.num_shards = 2;
    options.stable_period_us = 100;
    EunomiaService service(options);
    service.Start();
    std::atomic<bool> go{true};
    std::vector<std::thread> submitters;
    for (std::uint32_t p = 0; p < 4; ++p) {
      submitters.emplace_back([&service, &go, p] {
        Timestamp ts = 0;
        while (go.load(std::memory_order_relaxed)) {
          service.SubmitBatch(p, MakeBatch(p, ts += 100, 16));
          service.Heartbeat(p, ts + 50);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    service.Stop();
    go.store(false);
    for (auto& submitter : submitters) {
      submitter.join();
    }
  }
  SUCCEED();
}

TEST(EunomiaServiceTest, StableListenersSeeTheSameStreamAsTheSink) {
  std::vector<OpRecord> sink_ops;
  std::vector<OpRecord> listener_ops;
  EunomiaService::Options options;
  options.num_partitions = 2;
  options.stable_period_us = 200;
  options.sink = [&](const std::vector<OpRecord>& ops) {
    sink_ops.insert(sink_ops.end(), ops.begin(), ops.end());
  };
  EunomiaService service(options);
  // Registered before Start: the listener observes every emission the sink
  // does, in the same order (both run on the merge thread).
  service.AddStableListener([&](const std::vector<OpRecord>& ops) {
    listener_ops.insert(listener_ops.end(), ops.begin(), ops.end());
  });
  service.Start();
  service.SubmitBatch(0, MakeBatch(0, 100, 50));
  service.SubmitBatch(1, MakeBatch(1, 1000, 50));
  service.Heartbeat(0, 5000);
  service.Heartbeat(1, 5000);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.ops_stabilized() < 100 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.Stop();
  ASSERT_EQ(sink_ops.size(), 100u);
  EXPECT_EQ(listener_ops, sink_ops);
}

TEST(FtEunomiaServiceTest, DoubleStopAndSubmitAfterStopAreSafe) {
  FtEunomiaService::Options options;
  options.num_partitions = 2;
  options.num_replicas = 3;
  options.stable_period_us = 200;
  FtEunomiaService service(options);
  service.Start();
  service.SubmitBatch(0, MakeBatch(0, 100, 10));
  service.Heartbeat(0, 500);
  service.Heartbeat(1, 500);
  service.Stop();
  service.Stop();
  const std::uint64_t stabilized = service.ops_stabilized();
  service.SubmitBatch(0, MakeBatch(0, 10000, 10));  // dropped, not buffered
  service.Heartbeat(0, 20000);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(service.ops_stabilized(), stabilized);
}

TEST(FtEunomiaServiceTest, ConcurrentStopAndSubmittersNeverCrash) {
  FtEunomiaService::Options options;
  options.num_partitions = 2;
  options.num_replicas = 3;
  options.stable_period_us = 100;
  FtEunomiaService service(options);
  service.Start();
  std::atomic<bool> go{true};
  std::vector<std::thread> submitters;
  for (std::uint32_t p = 0; p < 2; ++p) {
    submitters.emplace_back([&service, &go, p] {
      Timestamp ts = 0;
      while (go.load(std::memory_order_relaxed)) {
        service.SubmitBatch(p, MakeBatch(p, ts += 100, 8));
      }
    });
  }
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 2; ++i) {
    stoppers.emplace_back([&service] { service.Stop(); });
  }
  for (auto& stopper : stoppers) {
    stopper.join();
  }
  go.store(false);
  for (auto& submitter : submitters) {
    submitter.join();
  }
  SUCCEED();
}

}  // namespace
}  // namespace eunomia
