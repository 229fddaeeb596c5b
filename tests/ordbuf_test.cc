// Tests for the ordered-buffer policy layer (src/ordbuf/): the tournament
// structures, and a shared parameterized suite run against both
// OrderedBuffer implementations — the run-queue fast path must be
// observationally identical to the tree-backed buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/common/random.h"
#include "src/eunomia/op.h"
#include "src/ordbuf/min_tournament.h"
#include "src/ordbuf/ordered_buffer.h"
#include "src/ordbuf/partition_run_buffer.h"
#include "src/ordbuf/rbtree_buffer.h"
#include "src/ordbuf/tournament_tree.h"

namespace eunomia::ordbuf {
namespace {

// --- MinTournament -----------------------------------------------------------

TEST(MinTournamentTest, InitializesEveryEntryAndTheMin) {
  MinTournament mt(5, 7);
  EXPECT_EQ(mt.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(mt.Get(i), 7u);
  }
  EXPECT_EQ(mt.Min(), 7u);
}

TEST(MinTournamentTest, PaddingBeyondSizeNeverWins) {
  // n = 5 pads to capacity 8; the three phantom leaves hold kTimestampMax.
  MinTournament mt(5, 0);
  for (std::uint32_t i = 0; i < 5; ++i) {
    mt.Set(i, 1000 + i);
  }
  EXPECT_EQ(mt.Min(), 1000u);
}

TEST(MinTournamentTest, SingleEntry) {
  MinTournament mt(1);
  EXPECT_EQ(mt.Min(), kTimestampZero);
  mt.Set(0, 42);
  EXPECT_EQ(mt.Min(), 42u);
  EXPECT_EQ(mt.Get(0), 42u);
}

TEST(MinTournamentTest, TracksTheMovingMinimum) {
  MinTournament mt(4);
  mt.Set(0, 10);
  mt.Set(1, 20);
  mt.Set(2, 30);
  EXPECT_EQ(mt.Min(), kTimestampZero);  // partition 3 not heard from
  mt.Set(3, 5);
  EXPECT_EQ(mt.Min(), 5u);
  mt.Set(3, 40);  // the old min advances past everyone
  EXPECT_EQ(mt.Min(), 10u);
  mt.Set(0, 50);
  EXPECT_EQ(mt.Min(), 20u);
}

TEST(MinTournamentTest, RandomizedMatchesLinearScan) {
  Rng rng(11);
  for (const std::uint32_t n : {1u, 2u, 3u, 7u, 16u, 33u}) {
    MinTournament mt(n);
    std::vector<Timestamp> reference(n, kTimestampZero);
    for (int step = 0; step < 2000; ++step) {
      const auto i = static_cast<std::uint32_t>(rng.NextBounded(n));
      const Timestamp v = rng.NextBounded(1000);
      mt.Set(i, v);
      reference[i] = v;
      ASSERT_EQ(mt.Min(), *std::min_element(reference.begin(), reference.end()));
      ASSERT_EQ(mt.Get(i), reference[i]);
    }
  }
}

// --- MergeTournament ---------------------------------------------------------

// Reference oracle: linear scan for the smallest non-empty head.
std::optional<std::uint32_t> ScanWinner(
    const std::vector<std::optional<OpOrderKey>>& heads) {
  std::optional<std::uint32_t> best;
  for (std::uint32_t i = 0; i < heads.size(); ++i) {
    if (!heads[i].has_value()) {
      continue;
    }
    if (!best.has_value() || *heads[i] < *heads[*best]) {
      best = i;
    }
  }
  return best;
}

TEST(MergeTournamentTest, ArbitraryLeafUpdatesKeepTheWinnerCorrect) {
  Rng rng(23);
  for (const std::uint32_t runs : {1u, 2u, 3u, 5u, 8u, 13u}) {
    std::vector<std::optional<OpOrderKey>> heads(runs);
    const auto key_of = [&heads](std::uint32_t r) -> const OpOrderKey* {
      return r < heads.size() && heads[r].has_value() ? &*heads[r] : nullptr;
    };
    MergeTournament mt(runs);
    mt.Rebuild(key_of);
    for (int step = 0; step < 3000; ++step) {
      const auto r = static_cast<std::uint32_t>(rng.NextBounded(runs));
      // Mix revivals (empty -> key), head advances (key -> larger key), and
      // exhaustions (key -> empty): exactly the three transitions the run
      // buffer drives. Revival of an arbitrary leaf is the case the classic
      // loser-tree replay gets wrong.
      const int action = static_cast<int>(rng.NextBounded(3));
      if (action == 0) {
        heads[r] = std::nullopt;
      } else {
        const Timestamp base = heads[r].has_value() ? heads[r]->ts : 0;
        heads[r] = OpOrderKey{base + 1 + rng.NextBounded(100), r};
      }
      mt.Update(r, key_of);
      const auto expect = ScanWinner(heads);
      if (expect.has_value()) {
        ASSERT_EQ(mt.Winner(), *expect) << "runs=" << runs << " step=" << step;
      } else {
        // All empty: any winner is acceptable; the buffer checks the head.
        ASSERT_LT(mt.Winner(), std::max(runs, 1u));
      }
    }
  }
}

// --- shared OrderedBuffer suite ----------------------------------------------

template <typename Buffer>
class OrderedBufferPolicyTest : public ::testing::Test {};

using BufferTypes = ::testing::Types<PartitionRunBuffer<std::uint64_t>,
                                     RbTreeBuffer<std::uint64_t>>;
TYPED_TEST_SUITE(OrderedBufferPolicyTest, BufferTypes);

using Extracted = std::vector<std::pair<OpOrderKey, std::uint64_t>>;

template <typename Buffer>
Extracted Drain(Buffer& buf, const OpOrderKey& bound) {
  Extracted out;
  buf.ExtractUpTo(bound, [&out](const OpOrderKey& key, std::uint64_t&& value) {
    out.emplace_back(key, value);
  });
  return out;
}

constexpr OpOrderKey kAll{kTimestampMax, ~PartitionId{0}};

TYPED_TEST(OrderedBufferPolicyTest, ExtractsInterleavedStreamsInGlobalOrder) {
  TypeParam buf(4);
  // Four interleaved ascending streams; global arrival order is scrambled.
  buf.Append({100, 2}, 1);
  buf.Append({50, 0}, 2);
  buf.Append({75, 3}, 3);
  buf.Append({60, 0}, 4);
  buf.Append({55, 1}, 5);
  buf.Append({120, 2}, 6);
  EXPECT_EQ(buf.size(), 6u);
  EXPECT_FALSE(buf.empty());
  const Extracted out = Drain(buf, kAll);
  ASSERT_EQ(out.size(), 6u);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].first, out[i].first);
  }
  EXPECT_EQ(out.front().first, (OpOrderKey{50, 0}));
  EXPECT_EQ(out.back().first, (OpOrderKey{120, 2}));
  EXPECT_TRUE(buf.empty());
}

TYPED_TEST(OrderedBufferPolicyTest, BoundaryAtEqualTimestampAcrossPartitions) {
  // Concurrent updates on different partitions may share ts == bound; every
  // one of them is below (bound, max-partition) and must come out, ordered
  // by partition id, while ts == bound + 1 stays.
  TypeParam buf(3);
  buf.Append({100, 1}, 11);
  buf.Append({100, 0}, 22);
  buf.Append({100, 2}, 33);
  buf.Append({101, 0}, 44);
  buf.Append({101, 1}, 55);
  const Extracted out = Drain(buf, OpOrderKey{100, ~PartitionId{0}});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, (OpOrderKey{100, 0}));
  EXPECT_EQ(out[1].first, (OpOrderKey{100, 1}));
  EXPECT_EQ(out[2].first, (OpOrderKey{100, 2}));
  EXPECT_EQ(out[0].second, 22u);
  EXPECT_EQ(buf.size(), 2u);
}

TYPED_TEST(OrderedBufferPolicyTest, ExactPartitionBoundIsInclusiveBelow) {
  // A bound of (100, 1) takes (100, 0) and (100, 1) but not (100, 2).
  TypeParam buf(3);
  buf.Append({100, 0}, 1);
  buf.Append({100, 1}, 2);
  buf.Append({100, 2}, 3);
  const Extracted out = Drain(buf, OpOrderKey{100, 1});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].first, (OpOrderKey{100, 1}));
  EXPECT_EQ(buf.size(), 1u);
}

TYPED_TEST(OrderedBufferPolicyTest, ReuseAfterExtractIncludingDrainedRunRevival) {
  TypeParam buf(2);
  buf.Append({10, 0}, 1);
  buf.Append({20, 1}, 2);
  EXPECT_EQ(Drain(buf, kAll).size(), 2u);
  EXPECT_TRUE(buf.empty());
  // Revive both fully drained runs — on the run-queue backend this replays
  // arbitrary tournament leaves, the case a naive merge structure corrupts.
  buf.Append({30, 1}, 3);
  buf.Append({25, 0}, 4);
  const Extracted out = Drain(buf, kAll);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, (OpOrderKey{25, 0}));
  EXPECT_EQ(out[1].first, (OpOrderKey{30, 1}));
}

TYPED_TEST(OrderedBufferPolicyTest, PartialExtractKeepsTheSuffixOrdered) {
  TypeParam buf(2);
  for (Timestamp ts = 1; ts <= 100; ++ts) {
    buf.Append({ts * 2, 0}, ts);
    buf.Append({ts * 2 + 1, 1}, ts);
  }
  const Extracted first = Drain(buf, OpOrderKey{99, ~PartitionId{0}});
  ASSERT_EQ(first.size(), 98u);  // ts 2..99
  EXPECT_EQ(buf.size(), 102u);
  const Extracted rest = Drain(buf, kAll);
  ASSERT_EQ(rest.size(), 102u);
  EXPECT_EQ(rest.front().first, (OpOrderKey{100, 0}));
  for (std::size_t i = 1; i < rest.size(); ++i) {
    EXPECT_LT(rest[i - 1].first, rest[i].first);
  }
}

TYPED_TEST(OrderedBufferPolicyTest, FirstPartitionBaseMapsGlobalIds) {
  // A shard buffer owning global partitions [8, 11).
  TypeParam buf(3, /*first_partition=*/8);
  buf.Append({10, 9}, 1);
  buf.Append({5, 8}, 2);
  buf.Append({7, 10}, 3);
  const Extracted out = Drain(buf, kAll);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, (OpOrderKey{5, 8}));
  EXPECT_EQ(out[1].first, (OpOrderKey{7, 10}));
  EXPECT_EQ(out[2].first, (OpOrderKey{10, 9}));
}

TYPED_TEST(OrderedBufferPolicyTest, RandomizedMatchesReferenceModel) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint32_t partitions = 1 + static_cast<std::uint32_t>(rng.NextBounded(9));
    TypeParam buf(partitions);
    std::map<OpOrderKey, std::uint64_t> model;
    std::vector<Timestamp> next(partitions, 0);
    std::uint64_t tag = 0;
    for (int step = 0; step < 400; ++step) {
      if (rng.NextBool(0.8)) {
        // Skewed appends: low partitions get most of the traffic.
        auto p = static_cast<PartitionId>(
            std::min(rng.NextBounded(partitions), rng.NextBounded(partitions)));
        const std::uint64_t run = 1 + rng.NextBounded(16);
        for (std::uint64_t i = 0; i < run; ++i) {
          next[p] += 1 + rng.NextBounded(30);
          const OpOrderKey key{next[p], p};
          buf.Append(key, tag);
          model.emplace(key, tag);
          ++tag;
        }
      } else {
        // Extract at a random bound, sometimes one that splits an equal-ts
        // group across partitions.
        const Timestamp bound_ts = rng.NextBounded(2000) * (trial + 1);
        const auto bound_p = static_cast<PartitionId>(rng.NextBounded(partitions + 1));
        const OpOrderKey bound{bound_ts, bound_p};
        const Extracted got = Drain(buf, bound);
        Extracted expect;
        while (!model.empty() && !(bound < model.begin()->first)) {
          expect.emplace_back(*model.begin());
          model.erase(model.begin());
        }
        ASSERT_EQ(got, expect) << "trial " << trial << " step " << step;
        ASSERT_EQ(buf.size(), model.size());
      }
    }
    const Extracted tail = Drain(buf, kAll);
    ASSERT_EQ(tail.size(), model.size());
    auto it = model.begin();
    for (const auto& [key, value] : tail) {
      ASSERT_EQ(key, it->first);
      ASSERT_EQ(value, it->second);
      ++it;
    }
  }
}

}  // namespace
}  // namespace eunomia::ordbuf
