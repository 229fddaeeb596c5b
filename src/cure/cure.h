// Cure baseline (Akkoorath et al., ICDCS '16) — global stabilization with a
// vector clock per datacenter (§2, §7.2).
//
// Cure tracks causality with a vector with one entry per datacenter, so an
// update's visibility at a remote site is gated only on the entries it
// actually depends on — the visibility lower bound becomes the latency from
// the *originator* (like EunomiaKV, unlike GentleRain). The price is the
// metadata enrichment: every operation and every stabilization message
// carries and merges M-entry vectors, and the Global Stable Snapshot (GSS)
// aggregation computes per-entry minima. That overhead is charged on the
// partition servers, which is why Cure trades throughput for visibility
// latency in Fig. 1 / Fig. 5.
//
// Machinery mirrors our GentleRain implementation (same intervals: 10 ms
// cross-DC heartbeats, 5 ms local aggregation) with scalars replaced by
// vectors.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/clock/physical_clock.h"
#include "src/common/types.h"
#include "src/georep/config.h"
#include "src/georep/geo_system.h"
#include "src/georep/vclock.h"
#include "src/georep/visibility.h"
#include "src/sim/network.h"
#include "src/sim/server.h"
#include "src/sim/simulator.h"
#include "src/store/hash_ring.h"
#include "src/store/versioned_store.h"

namespace eunomia::geo {

// Vector stamp adapter for the multi-version store.
struct VectorStamp {
  VectorTimestamp vts;
  const VectorTimestamp& TotalOrderKey() const { return vts; }
};

class CureSystem final : public GeoSystem {
 public:
  CureSystem(sim::Simulator* sim, GeoConfig config);

  std::string name() const override { return "Cure"; }

  void ClientRead(ClientId client, DatacenterId dc, Key key,
                  std::function<void()> done) override;
  void ClientUpdate(ClientId client, DatacenterId dc, Key key, Value value,
                    std::function<void()> done) override;

  VisibilityTracker& tracker() override { return tracker_; }
  const VisibilityTracker& tracker() const override { return tracker_; }

  const VectorTimestamp& GssAt(DatacenterId dc, PartitionId partition) const {
    return dcs_[dc].partitions[partition].gss;
  }

 private:
  struct PendingVisibility {
    std::uint64_t uid = 0;
    VectorTimestamp vts;
    DatacenterId origin = 0;
  };

  struct Partition {
    PartitionId id = 0;
    DatacenterId dc = 0;
    sim::Server* server = nullptr;
    sim::EndpointId endpoint = 0;
    PhysicalClock clock;
    Timestamp max_ts = 0;
    store::MultiVersionStore<VectorStamp> store;
    std::vector<Timestamp> version_vector;  // latest heard per DC
    VectorTimestamp gss;                    // Global Stable Snapshot
    std::vector<PendingVisibility> pending;
  };

  struct Datacenter {
    DatacenterId id = 0;
    std::vector<std::unique_ptr<sim::Server>> servers;
    std::vector<Partition> partitions;
    sim::EndpointId aggregator_endpoint = 0;
    std::vector<VectorTimestamp> partition_reports;
    std::uint32_t reports_outstanding = 0;  // once-per-round broadcast gate
  };

  // Visibility predicate: every remote entry of vts (other than the local
  // datacenter's own) must be covered by the GSS.
  static bool VisibleUnder(const VectorTimestamp& gss, const VectorTimestamp& vts,
                           DatacenterId self);

  void ScheduleHeartbeats(DatacenterId dc, PartitionId p);
  void ScheduleGssRound(DatacenterId dc);
  void AdvanceGss(Partition& part, const VectorTimestamp& gss);
  void DeliverRemote(DatacenterId dc, PartitionId p, std::uint64_t uid, Key key,
                     Value value, VectorTimestamp vts, DatacenterId origin);

  sim::Simulator* sim_;
  GeoConfig config_;
  sim::Network network_;
  store::ConsistentHashRing router_;
  std::vector<Datacenter> dcs_;
  std::unordered_map<ClientId, VectorTimestamp> sessions_;
  VisibilityTracker tracker_;
};

}  // namespace eunomia::geo
