// Ablation A1 — the §6 design choice: which ordered buffer backs Eunomia?
//
// "At its core, Eunomia is implemented using a red-black tree ... For our
// particular case, the red-black tree turned out to be more efficient than
// other self-balancing binary search trees such as AVL trees."
//
// This bench measures the buffer on Eunomia's actual access pattern:
// mostly-ascending timestamped inserts from N interleaved partition streams,
// punctuated by periodic ExtractUpTo(stable_time) bulk removals. std::map
// (the library red-black tree) is included as a sanity reference.
//
// Two tiers:
//   - BM_OrdBuf*: the two OrderedBuffer policies (src/ordbuf/) driven
//     through the concept interface the core actually uses — per-partition
//     monotone Append + emit-callback ExtractUpTo: the paper's red-black
//     tree against the PartitionRunBuffer fast path that exploits Property 2
//     (O(1) ring appends + tournament-merge extraction).
//   - BM_RedBlackTree/BM_StdMap: the raw trees through their
//     Insert/ExtractUpTo interface.
#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#include "src/common/random.h"
#include "src/eunomia/op.h"
#include "src/ordbuf/partition_run_buffer.h"
#include "src/ordbuf/rbtree_buffer.h"
#include "src/rbtree/red_black_tree.h"

namespace eunomia {
namespace {

// Generates the Eunomia workload: per-partition monotone timestamps with
// small cross-partition skew, so the global insert order is only *roughly*
// ascending — exactly what the service sees.
struct StreamGen {
  explicit StreamGen(std::uint32_t partitions, std::uint64_t seed)
      : next(partitions, 1), rng(seed) {}

  OpOrderKey NextKey() {
    const auto p = static_cast<PartitionId>(rng.NextBounded(next.size()));
    next[p] += 1 + rng.NextBounded(8);
    return OpOrderKey{next[p], p};
  }

  Timestamp MinFrontier() const {
    Timestamp lo = kTimestampMax;
    for (const Timestamp t : next) {
      lo = std::min(lo, t);
    }
    return lo;
  }

  std::vector<Timestamp> next;
  Rng rng;
};

constexpr int kBatch = 64;          // inserts between stabilizations
constexpr std::uint32_t kParts = 32;

template <typename Tree>
void RunInsertExtract(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Tree tree;
    StreamGen gen(kParts, 42);
    std::vector<std::pair<OpOrderKey, std::uint64_t>> out;
    state.ResumeTiming();
    for (int round = 0; round < static_cast<int>(state.range(0)); ++round) {
      for (int i = 0; i < kBatch; ++i) {
        tree.Insert(gen.NextKey(), 0);
      }
      out.clear();
      tree.ExtractUpTo(OpOrderKey{gen.MinFrontier(), ~PartitionId{0}}, &out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.counters["ops"] = benchmark::Counter(
      static_cast<double>(state.range(0)) * kBatch *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_RedBlackTree(benchmark::State& state) {
  RunInsertExtract<RedBlackTree<OpOrderKey, std::uint64_t>>(state);
}

// std::map adapter with the same interface subset.
class StdMapBuffer {
 public:
  bool Insert(const OpOrderKey& k, std::uint64_t v) {
    return map_.emplace(k, v).second;
  }
  std::size_t ExtractUpTo(const OpOrderKey& bound,
                          std::vector<std::pair<OpOrderKey, std::uint64_t>>* out) {
    std::size_t n = 0;
    auto it = map_.begin();
    while (it != map_.end() && !(bound < it->first)) {
      out->emplace_back(it->first, it->second);
      it = map_.erase(it);
      ++n;
    }
    return n;
  }

 private:
  std::map<OpOrderKey, std::uint64_t> map_;
};

void BM_StdMap(benchmark::State& state) { RunInsertExtract<StdMapBuffer>(state); }

BENCHMARK(BM_RedBlackTree)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StdMap)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

// --- the OrderedBuffer policy comparison -------------------------------------
// Same workload shape, but through the concept interface EunomiaCore uses:
// per-partition monotone Append, periodic emit-callback extraction at the
// partition frontier. This is the number the §6 design choice actually
// gates: stabilizer insert+extract throughput.

template <typename Buffer>
void RunBufferInsertExtract(benchmark::State& state) {
  const auto partitions = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    Buffer buf(partitions);
    StreamGen gen(partitions, 42);
    std::vector<std::uint64_t> out;
    state.ResumeTiming();
    for (int round = 0; round < static_cast<int>(state.range(0)); ++round) {
      for (int i = 0; i < kBatch; ++i) {
        buf.Append(gen.NextKey(), 0);
      }
      out.clear();
      buf.ExtractUpTo(OpOrderKey{gen.MinFrontier(), ~PartitionId{0}},
                      [&out](const OpOrderKey&, std::uint64_t&& v) {
                        out.push_back(v);
                      });
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.counters["ops"] = benchmark::Counter(
      static_cast<double>(state.range(0)) * kBatch *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_OrdBufRbTree(benchmark::State& state) {
  RunBufferInsertExtract<ordbuf::RbTreeBuffer<std::uint64_t>>(state);
}
void BM_OrdBufPartitionRun(benchmark::State& state) {
  RunBufferInsertExtract<ordbuf::PartitionRunBuffer<std::uint64_t>>(state);
}

// Args: {rounds, partitions}. 32 partitions matches the historical tree
// bench; 60 is the paper's Fig. 2 saturation point.
BENCHMARK(BM_OrdBufRbTree)
    ->Args({256, 32})->Args({1024, 32})->Args({1024, 60})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OrdBufPartitionRun)
    ->Args({256, 32})->Args({1024, 32})->Args({1024, 60})
    ->Unit(benchmark::kMillisecond);

// Pure ascending-insert throughput (the degenerate hot path when one
// partition dominates).
template <typename Tree>
void RunAscending(benchmark::State& state) {
  for (auto _ : state) {
    Tree tree;
    for (std::uint64_t i = 1; i <= 100000; ++i) {
      tree.Insert(OpOrderKey{i, 0}, 0);
    }
    benchmark::DoNotOptimize(&tree);
  }
  state.counters["inserts"] =
      benchmark::Counter(100000.0 * state.iterations(), benchmark::Counter::kIsRate);
}

void BM_RedBlackAscending(benchmark::State& state) {
  RunAscending<RedBlackTree<OpOrderKey, std::uint64_t>>(state);
}
BENCHMARK(BM_RedBlackAscending)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace eunomia

BENCHMARK_MAIN();
