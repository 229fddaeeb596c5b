// Unit and property tests for the ordered-buffer substrates: the custom
// red-black tree (the paper's §6 data-structure choice), exercised through a
// typed test suite plus randomized invariant checks after every mutation
// batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "src/common/random.h"
#include "src/rbtree/red_black_tree.h"

namespace eunomia {
namespace {

template <typename Tree>
class OrderedBufferTest : public ::testing::Test {};

using TreeTypes = ::testing::Types<RedBlackTree<int, int>>;
TYPED_TEST_SUITE(OrderedBufferTest, TreeTypes);

TYPED_TEST(OrderedBufferTest, EmptyTree) {
  TypeParam tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.Find(1), nullptr);
  EXPECT_FALSE(tree.Erase(1));
  EXPECT_TRUE(tree.Validate());
}

TYPED_TEST(OrderedBufferTest, InsertFindErase) {
  TypeParam tree;
  EXPECT_TRUE(tree.Insert(5, 50));
  EXPECT_TRUE(tree.Insert(3, 30));
  EXPECT_TRUE(tree.Insert(8, 80));
  EXPECT_FALSE(tree.Insert(5, 55));  // duplicate rejected
  EXPECT_EQ(tree.size(), 3u);
  ASSERT_NE(tree.Find(5), nullptr);
  EXPECT_EQ(*tree.Find(5), 50);  // original value retained
  EXPECT_TRUE(tree.Erase(3));
  EXPECT_FALSE(tree.Contains(3));
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_TRUE(tree.Validate());
}

TYPED_TEST(OrderedBufferTest, MinKey) {
  TypeParam tree;
  tree.Insert(10, 0);
  tree.Insert(2, 0);
  tree.Insert(7, 0);
  EXPECT_EQ(tree.MinKey(), 2);
  tree.Erase(2);
  EXPECT_EQ(tree.MinKey(), 7);
}

TYPED_TEST(OrderedBufferTest, InOrderTraversal) {
  TypeParam tree;
  Rng rng(42);
  std::set<int> reference;
  for (int i = 0; i < 500; ++i) {
    const int key = static_cast<int>(rng.NextBounded(10000));
    tree.Insert(key, key * 2);
    reference.insert(key);
  }
  std::vector<int> visited;
  tree.ForEach([&visited](const int& k, const int& v) {
    EXPECT_EQ(v, k * 2);
    visited.push_back(k);
  });
  std::vector<int> expected(reference.begin(), reference.end());
  EXPECT_EQ(visited, expected);
}

TYPED_TEST(OrderedBufferTest, ExtractUpToRemovesInOrder) {
  TypeParam tree;
  for (const int k : {9, 1, 7, 3, 5, 2, 8}) {
    tree.Insert(k, k);
  }
  std::vector<std::pair<int, int>> out;
  EXPECT_EQ(tree.ExtractUpTo(5, &out), 4u);
  std::vector<std::pair<int, int>> expected = {{1, 1}, {2, 2}, {3, 3}, {5, 5}};
  EXPECT_EQ(out, expected);
  EXPECT_EQ(tree.size(), 3u);
  EXPECT_FALSE(tree.Contains(5));
  EXPECT_TRUE(tree.Contains(7));
  EXPECT_TRUE(tree.Validate());
}

TYPED_TEST(OrderedBufferTest, ExtractUpToBelowMinIsNoop) {
  TypeParam tree;
  tree.Insert(10, 1);
  std::vector<std::pair<int, int>> out;
  EXPECT_EQ(tree.ExtractUpTo(9, &out), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(tree.size(), 1u);
}

TYPED_TEST(OrderedBufferTest, ExtractEverything) {
  TypeParam tree;
  for (int i = 0; i < 100; ++i) {
    tree.Insert(i, i);
  }
  std::vector<std::pair<int, int>> out;
  EXPECT_EQ(tree.ExtractUpTo(1000, &out), 100u);
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.Validate());
}

TYPED_TEST(OrderedBufferTest, Clear) {
  TypeParam tree;
  for (int i = 0; i < 50; ++i) {
    tree.Insert(i, i);
  }
  tree.Clear();
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.Validate());
  EXPECT_TRUE(tree.Insert(1, 1));  // usable after clear
}

TYPED_TEST(OrderedBufferTest, MoveSemantics) {
  TypeParam tree;
  tree.Insert(1, 10);
  tree.Insert(2, 20);
  TypeParam moved(std::move(tree));
  EXPECT_EQ(moved.size(), 2u);
  ASSERT_NE(moved.Find(1), nullptr);
  EXPECT_EQ(*moved.Find(1), 10);
  TypeParam assigned;
  assigned.Insert(9, 90);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 2u);
  EXPECT_FALSE(assigned.Contains(9));
  EXPECT_TRUE(assigned.Validate());
}

// Property test: random interleaving of insert / erase / extract, validated
// against std::map after every batch, with structural invariants checked.
TYPED_TEST(OrderedBufferTest, RandomizedAgainstReference) {
  TypeParam tree;
  std::map<int, int> reference;
  Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 50; ++i) {
      const int op = static_cast<int>(rng.NextBounded(10));
      const int key = static_cast<int>(rng.NextBounded(500));
      if (op < 6) {
        const bool inserted = tree.Insert(key, key + round);
        const bool ref_inserted = reference.emplace(key, key + round).second;
        ASSERT_EQ(inserted, ref_inserted);
      } else if (op < 9) {
        ASSERT_EQ(tree.Erase(key), reference.erase(key) > 0);
      } else {
        const int bound = static_cast<int>(rng.NextBounded(500));
        std::vector<std::pair<int, int>> out;
        tree.ExtractUpTo(bound, &out);
        auto it = reference.begin();
        std::size_t expected_count = 0;
        while (it != reference.end() && it->first <= bound) {
          ASSERT_LT(expected_count, out.size());
          ASSERT_EQ(out[expected_count].first, it->first);
          ASSERT_EQ(out[expected_count].second, it->second);
          it = reference.erase(it);
          ++expected_count;
        }
        ASSERT_EQ(out.size(), expected_count);
      }
    }
    ASSERT_EQ(tree.size(), reference.size());
    ASSERT_TRUE(tree.Validate()) << "invariants violated at round " << round;
  }
  // Final content identical.
  std::vector<std::pair<int, int>> contents;
  tree.ForEach([&contents](const int& k, const int& v) {
    contents.emplace_back(k, v);
  });
  std::vector<std::pair<int, int>> expected(reference.begin(), reference.end());
  EXPECT_EQ(contents, expected);
}

// Sequential ascending insert (the Eunomia hot path: timestamps mostly
// increase) must stay balanced.
TYPED_TEST(OrderedBufferTest, AscendingInsertStaysBalanced) {
  TypeParam tree;
  for (int i = 0; i < 20000; ++i) {
    tree.Insert(i, i);
  }
  EXPECT_TRUE(tree.Validate());
  std::vector<std::pair<int, int>> out;
  EXPECT_EQ(tree.ExtractUpTo(9999, &out), 10000u);
  EXPECT_TRUE(tree.Validate());
  EXPECT_EQ(tree.size(), 10000u);
}

TEST(RedBlackTreeTest, InsertHintedAppendsAndInGapRuns) {
  RedBlackTree<std::uint64_t, std::uint64_t> tree;
  // Appending run: every insert hinted by the previous one.
  RedBlackTree<std::uint64_t, std::uint64_t>::NodeRef hint = nullptr;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    hint = tree.InsertHinted(k * 10, k, hint);
    ASSERT_NE(hint, nullptr);
  }
  EXPECT_TRUE(tree.Validate());
  // In-gap run between existing keys 500 and 510.
  hint = nullptr;
  for (std::uint64_t k = 501; k < 510; ++k) {
    hint = tree.InsertHinted(k, k, hint);
    ASSERT_NE(hint, nullptr);
  }
  EXPECT_TRUE(tree.Validate());
  // Duplicate through the hinted path is still rejected.
  EXPECT_EQ(tree.InsertHinted(505, 0, hint), nullptr);
  EXPECT_EQ(tree.size(), 1009u);
  std::vector<std::uint64_t> keys;
  tree.ForEach([&](const std::uint64_t& k, const std::uint64_t&) {
    keys.push_back(k);
  });
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(RedBlackTreeTest, InsertHintedRandomRunsMatchReference) {
  // Interleaved monotone runs with stale/wrong hints and periodic
  // extraction — the shape AddBatch produces — must keep the invariants and
  // the exact contents of a std::map reference.
  RedBlackTree<std::uint64_t, std::uint64_t> tree;
  std::map<std::uint64_t, std::uint64_t> reference;
  Rng rng(99);
  std::uint64_t next_key = 1;
  for (int round = 0; round < 400; ++round) {
    if (rng.NextBounded(10) < 7) {
      // A monotone run starting at a random point past the extraction
      // frontier, hinted insert per element.
      std::uint64_t k = next_key + rng.NextBounded(50);
      RedBlackTree<std::uint64_t, std::uint64_t>::NodeRef hint = nullptr;
      const std::uint64_t len = 1 + rng.NextBounded(30);
      for (std::uint64_t i = 0; i < len; ++i) {
        k += 1 + rng.NextBounded(5);
        const auto ref = tree.InsertHinted(k, k * 2, hint);
        const bool inserted_ref = reference.emplace(k, k * 2).second;
        ASSERT_EQ(ref != nullptr, inserted_ref);
        if (ref != nullptr) {
          hint = ref;
        }
        next_key = std::max(next_key, k);
      }
    } else {
      // Extraction invalidates all hints (runs above restart from nullptr).
      const std::uint64_t bound = next_key / 2 + rng.NextBounded(next_key + 1);
      std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
      tree.ExtractUpTo(bound, &out);
      std::size_t erased = 0;
      for (auto it = reference.begin();
           it != reference.end() && it->first <= bound;) {
        it = reference.erase(it);
        ++erased;
      }
      ASSERT_EQ(out.size(), erased);
    }
    ASSERT_TRUE(tree.Validate());
  }
  ASSERT_EQ(tree.size(), reference.size());
  std::vector<std::pair<std::uint64_t, std::uint64_t>> contents;
  tree.ForEach([&](const std::uint64_t& k, const std::uint64_t& v) {
    contents.emplace_back(k, v);
  });
  std::vector<std::pair<std::uint64_t, std::uint64_t>> expected(
      reference.begin(), reference.end());
  EXPECT_EQ(contents, expected);
}

TEST(RedBlackTreeTest, ValidateDetectsHealthyTreeAfterHeavyChurn) {
  RedBlackTree<std::uint64_t, std::uint64_t> tree;
  Rng rng(13);
  std::set<std::uint64_t> keys;
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t k = rng.NextBounded(1u << 20);
    if (tree.Insert(k, k)) {
      keys.insert(k);
    }
    if (i % 3 == 0 && !keys.empty()) {
      const std::uint64_t victim = *keys.begin();
      EXPECT_TRUE(tree.Erase(victim));
      keys.erase(keys.begin());
    }
  }
  EXPECT_EQ(tree.size(), keys.size());
  EXPECT_TRUE(tree.Validate());
}

}  // namespace
}  // namespace eunomia
