// Histogram: fixed-bucket log-linear latency/size histogram with wait-free
// recording.
//
// Bucket scheme — the one log-linear latency histogram in the tree; the
// scrape endpoint and the bench summaries read the same buckets. Values
// 0..31 get exact buckets; above that each power-of-two octave is split
// into 32 linear sub-buckets (kSubBucketBits = 5), giving ~2% relative
// error over the full uint64 range in 2048 buckets.
//
// Concurrency: recording is 3 relaxed fetch_adds into one of kStripes
// cache-line-isolated shards; threads are assigned stripes round-robin on
// first use. No locks, no CAS loops — writers can never stall each other
// or a scrape. Scrapes (Snap / AppendSeries) sum the stripes; the result
// is loosely consistent across buckets, which is all the exposition format
// promises. Max() is approximated as the upper bound of the highest
// non-empty bucket (exact tracking would need a CAS loop on the record
// path, breaking wait-freedom for a number nobody alerts on).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/metrics/metric.h"

namespace eunomia::metrics {

class Histogram final : public Metric {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr int kNumBuckets = 64 << kSubBucketBits;  // 2048
  static constexpr std::size_t kStripes = 8;

  Histogram(std::string name, std::string help, Labels labels = {});

  // Wait-free; safe from any thread, any lock context.
  void Record(std::uint64_t value);

  // A merged point-in-time view. All derived statistics (quantiles, mean)
  // are computed on snapshots so the endpoint and the benches share one
  // code path.
  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::vector<std::uint64_t> buckets;  // kNumBuckets entries

    double Mean() const;
    // q in [0, 1]; returns the upper bound of the bucket holding the
    // q-quantile observation (0 when empty).
    std::uint64_t Quantile(double q) const;
    std::uint64_t Percentile(double p) const { return Quantile(p / 100.0); }
    std::uint64_t Max() const;
  };
  Snapshot Snap() const;

  // Merged observation count (cheaper than a full Snap).
  std::uint64_t count() const;

  MetricType type() const override { return MetricType::kHistogram; }
  void AppendSeries(std::string* out) const override;

  static int BucketFor(std::uint64_t value);
  static std::uint64_t BucketUpperBound(int bucket);

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets{};
  };
  static std::size_t StripeIndex();

  const std::unique_ptr<Stripe[]> stripes_;
};

}  // namespace eunomia::metrics
