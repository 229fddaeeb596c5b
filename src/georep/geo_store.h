// Single-version store with vector-timestamp LWW arbitration.
//
// EunomiaKV (and the sequencer systems) deliver remote updates in a causally
// safe order, so one version per key suffices: an incoming update either
// causally dominates the stored version (it replaces it) or is concurrent
// (arbitrated deterministically by total-order key, then origin id — the
// standard last-writer-wins register over causal delivery).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "src/common/types.h"
#include "src/georep/vclock.h"

namespace eunomia::geo {

struct GeoVersion {
  Value value;
  VectorTimestamp vts;
  DatacenterId origin = 0;
};

class GeoStore {
 public:
  // Returns true if the write became the current version.
  bool Put(Key key, Value value, const VectorTimestamp& vts, DatacenterId origin) {
    auto [it, inserted] = map_.try_emplace(key);
    GeoVersion& cur = it->second;
    if (!inserted && !Supersedes(vts, origin, cur)) {
      return false;
    }
    cur.value = std::move(value);
    cur.vts = vts;
    cur.origin = origin;
    return true;
  }

  const GeoVersion* Get(Key key) const {
    const auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  std::size_t size() const { return map_.size(); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [key, version] : map_) {
      fn(key, version);
    }
  }

  // Public so convergence checkers (the chaos harness's oracle) can fold
  // the same arbitration over an update log. The relation is a strict total
  // order on distinct versions — dominance implies a strictly larger
  // component sum, so the winner of a set of writes is independent of the
  // order they are folded in; that order-independence is exactly what makes
  // per-key convergence well-defined.
  static bool Supersedes(const VectorTimestamp& vts, DatacenterId origin,
                         const GeoVersion& cur) {
    if (vts.Dominates(cur.vts)) {
      return true;
    }
    if (cur.vts.Dominates(vts)) {
      return false;
    }
    // Concurrent: deterministic arbitration.
    const Timestamp new_sum = vts.Sum();
    const Timestamp cur_sum = cur.vts.Sum();
    if (new_sum != cur_sum) {
      return new_sum > cur_sum;
    }
    if (vts != cur.vts) {
      return vts > cur.vts;
    }
    return origin > cur.origin;
  }

  std::unordered_map<Key, GeoVersion> map_;
};

}  // namespace eunomia::geo
