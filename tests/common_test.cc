// Unit tests for src/common: PRNG, zipf sampler, statistics, CRC-32.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/common/zipf.h"

namespace eunomia {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ForkedStreamsAreIndependentAndStable) {
  Rng parent1(7);
  Rng parent2(7);
  Rng child_a = parent1.Fork(0);
  Rng child_b = parent2.Fork(0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(child_a.Next(), child_b.Next());
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(5);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.NextBounded(kBuckets)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.NextInRange(5, 5), 5);
  EXPECT_EQ(rng.NextInRange(5, 4), 5);  // degenerate range clamps to lo
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(17);
  double sum = 0.0;
  constexpr int kSamples = 200000;
  for (int i = 0; i < kSamples; ++i) {
    sum += rng.NextExponential(250.0);
  }
  EXPECT_NEAR(sum / kSamples, 250.0, 5.0);
}

TEST(ZipfTest, SamplesWithinRange) {
  ZipfGenerator zipf(1000, 0.99);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 1000u);
  }
}

TEST(ZipfTest, RankZeroIsHottest) {
  ZipfGenerator zipf(10000, 0.99);
  Rng rng(2);
  std::vector<int> counts(10000, 0);
  for (int i = 0; i < 200000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  // Rank 0 must dominate, and the head must hold most of the mass.
  const int max_count = *std::max_element(counts.begin(), counts.end());
  EXPECT_EQ(max_count, counts[0]);
  int head = 0;
  for (int i = 0; i < 100; ++i) {
    head += counts[i];
  }
  EXPECT_GT(head, 200000 / 3);  // top 1% of keys > 1/3 of accesses
}

TEST(ZipfTest, SingleItemAlwaysZero) {
  ZipfGenerator zipf(1, 0.99);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zipf.Sample(rng), 0u);
  }
}

TEST(ZipfTest, ExponentOneSupported) {
  ZipfGenerator zipf(100, 1.0);
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Sample(rng), 100u);
  }
}

TEST(CdfTest, QuantilesOfKnownDistribution) {
  Cdf cdf;
  for (int i = 1; i <= 100; ++i) {
    cdf.Add(static_cast<double>(i));
  }
  EXPECT_NEAR(cdf.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(cdf.Quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(cdf.Quantile(0.5), 50.5, 1e-9);
}

TEST(TimeSeriesTest, RatesPerWindow) {
  TimeSeries ts(1'000'000);  // 1 s windows
  for (int i = 0; i < 500; ++i) {
    ts.Record(100);  // all in window 0
  }
  ts.Record(1'500'000);
  const auto rates = ts.Rates();
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 500.0);
  EXPECT_DOUBLE_EQ(rates[1], 1.0);
}

TEST(TimeSeriesTest, ValueMeans) {
  TimeSeries ts(1000);
  ts.RecordValue(100, 10.0);
  ts.RecordValue(200, 30.0);
  ts.RecordValue(1500, 5.0);
  const auto means = ts.ValueMeans();
  ASSERT_EQ(means.size(), 2u);
  EXPECT_DOUBLE_EQ(means[0], 20.0);
  EXPECT_DOUBLE_EQ(means[1], 5.0);
}

// The one CRC-32 behind wire frames and WAL records. The zlib CRC-32 of
// "123456789" is the classic 0xCBF43926 check value — it pins the
// polynomial and bit order. Streaming over any split of a buffer must equal
// the one-shot value: the WAL checksums type byte ++ payload that way. The
// sample spans several 16-byte strides plus a tail, so splits land inside,
// between and after the wide loop's blocks.
TEST(Crc32Test, KnownAnswerAndStreamingMatchesOneShot) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  std::string sample;
  for (int i = 0; i < 77; ++i) {
    sample.push_back(static_cast<char>(i * 37 + 11));
  }
  const std::uint32_t whole = Crc32(sample.data(), sample.size());
  // Byte-at-a-time never enters the 16-byte loop: pins it to the classic
  // table walk.
  std::uint32_t bytewise = Crc32Seed();
  for (const char c : sample) {
    bytewise = Crc32Update(bytewise, &c, 1);
  }
  EXPECT_EQ(Crc32Final(bytewise), whole);
  for (std::size_t cut = 0; cut <= sample.size(); ++cut) {
    std::uint32_t state = Crc32Update(Crc32Seed(), sample.data(), cut);
    state = Crc32Update(state, sample.data() + cut, sample.size() - cut);
    EXPECT_EQ(Crc32Final(state), whole) << "split at " << cut;
  }
}

}  // namespace
}  // namespace eunomia
