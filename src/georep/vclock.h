// Vector timestamps for inter-datacenter dependency tracking (§4, Table 2).
//
// Updates are tagged with a vector with one entry per datacenter (u.vts);
// clients maintain VClock_c with the same shape. The paper chooses vectors
// over a single scalar because they introduce no false dependencies across
// datacenters: the lower-bound visibility latency becomes the latency from
// the *originator*, not from the farthest datacenter (§4). The overhead is
// "negligible in our protocol as Eunomia allows for trivial dependency
// checking procedures".
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <compare>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>

#include "src/common/types.h"

namespace eunomia::geo {

// Widest deployment a vector timestamp can describe. Entries live inline
// (no heap block per session, store version, registry entry or payload),
// so the width is a compile-time bound; decoders and georepd reject wider
// shapes.
inline constexpr std::uint32_t kMaxDcs = 8;

class VectorTimestamp {
 public:
  VectorTimestamp() = default;
  explicit VectorTimestamp(std::uint32_t num_dcs) : size_(num_dcs) {
    assert(num_dcs <= kMaxDcs);
  }
  VectorTimestamp(std::initializer_list<Timestamp> init)
      : size_(static_cast<std::uint32_t>(init.size())) {
    assert(init.size() <= kMaxDcs);
    std::copy(init.begin(), init.end(), entries_.begin());
  }

  std::uint32_t size() const { return size_; }

  Timestamp operator[](DatacenterId dc) const {
    assert(dc < size_);
    return entries_[dc];
  }
  Timestamp& operator[](DatacenterId dc) {
    assert(dc < size_);
    return entries_[dc];
  }

  // Per-entry max merge (client read path, Alg. 1 generalized to vectors).
  void MergeMax(const VectorTimestamp& other) {
    assert(size_ == other.size_);
    for (std::uint32_t i = 0; i < size_; ++i) {
      entries_[i] = std::max(entries_[i], other.entries_[i]);
    }
  }

  // True iff every entry of *this >= the matching entry of other.
  bool Dominates(const VectorTimestamp& other) const {
    assert(size_ == other.size_);
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (entries_[i] < other.entries_[i]) {
        return false;
      }
    }
    return true;
  }

  // Happens-before: this < other in the causal partial order.
  bool StrictlyBefore(const VectorTimestamp& other) const {
    return other.Dominates(*this) && *this != other;
  }

  bool Concurrent(const VectorTimestamp& other) const {
    return !Dominates(other) && !other.Dominates(*this);
  }

  // Arbitrary total order extending the partial order, used for last-writer-
  // wins arbitration in the multi-version store: compare component sums,
  // then lexicographically. (If a dominates b, sum(a) > sum(b), so the total
  // order is compatible with causality.)
  std::span<const Timestamp> TotalOrderKey() const { return entries(); }
  Timestamp Sum() const {
    Timestamp s = 0;
    for (const Timestamp e : entries()) {
      s += e;
    }
    return s;
  }

  // Entries past size() stay zero, so comparing whole arrays compares the
  // live entries. <=> is the lexicographic LWW tie-break of TotalOrderKey,
  // not causality (see StrictlyBefore).
  friend bool operator==(const VectorTimestamp&, const VectorTimestamp&) = default;
  friend auto operator<=>(const VectorTimestamp&, const VectorTimestamp&) = default;

  std::string ToString() const {
    std::string out = "[";
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (i > 0) {
        out += ",";
      }
      out += std::to_string(entries_[i]);
    }
    out += "]";
    return out;
  }

  std::span<const Timestamp> entries() const { return {entries_.data(), size_}; }

 private:
  std::array<Timestamp, kMaxDcs> entries_{};
  std::uint32_t size_ = 0;
};

}  // namespace eunomia::geo
