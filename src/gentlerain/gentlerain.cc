#include "src/gentlerain/gentlerain.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace eunomia::geo {

GentleRainSystem::GentleRainSystem(sim::Simulator* sim, GeoConfig config)
    : sim_(sim),
      config_(std::move(config)),
      network_(sim, config_.network),
      router_(config_.partitions_per_dc),
      tracker_(config_.timeline_window_us, config_.num_dcs) {
  dcs_.resize(config_.num_dcs);
  Rng clock_rng = sim_->rng().Fork(0xC10C);
  for (DatacenterId m = 0; m < config_.num_dcs; ++m) {
    Datacenter& dc = dcs_[m];
    dc.id = m;
    for (std::uint32_t s = 0; s < config_.servers_per_dc; ++s) {
      dc.servers.push_back(std::make_unique<sim::Server>(sim_));
    }
    dc.partitions.resize(config_.partitions_per_dc);
    dc.partition_reports.assign(config_.partitions_per_dc, 0);
    dc.aggregator_endpoint = network_.Register(m);
    for (PartitionId p = 0; p < config_.partitions_per_dc; ++p) {
      Partition& part = dc.partitions[p];
      part.id = p;
      part.dc = m;
      part.server =
          dc.servers[store::ServerOfPartition(p, config_.servers_per_dc)].get();
      part.endpoint = network_.Register(m);
      const std::int64_t off = clock_rng.NextInRange(-config_.clocks.max_offset_us,
                                                     config_.clocks.max_offset_us);
      const double drift = (2.0 * clock_rng.NextDouble() - 1.0) *
                           config_.clocks.max_drift_ppm;
      part.clock = PhysicalClock(off, drift);
      part.version_vector.assign(config_.num_dcs, 0);
    }
  }
  for (DatacenterId m = 0; m < config_.num_dcs; ++m) {
    for (PartitionId p = 0; p < config_.partitions_per_dc; ++p) {
      ScheduleHeartbeats(m, p);
    }
    ScheduleGstRound(m);
  }
}

void GentleRainSystem::ScheduleHeartbeats(DatacenterId dc, PartitionId p) {
  sim_->ScheduleAfter(config_.remote_hb_interval_us, [this, dc, p] {
    Partition& part = dcs_[dc].partitions[p];
    const Timestamp now_ts =
        std::max(part.clock.Read(sim_->now()), part.max_ts);
    // One heartbeat to each remote sibling; sending consumes capacity.
    part.server->SubmitPriority(
        config_.costs.stab_msg_us * (config_.num_dcs - 1), [] {});
    for (DatacenterId k = 0; k < config_.num_dcs; ++k) {
      if (k == dc) {
        continue;
      }
      network_.Send(part.endpoint, dcs_[k].partitions[p].endpoint,
                    [this, k, p, dc, now_ts] {
                      Partition& sibling = dcs_[k].partitions[p];
                      sibling.server->SubmitPriority(
                          config_.costs.stab_msg_us, [this, k, p, dc, now_ts] {
                            Partition& s = dcs_[k].partitions[p];
                            s.version_vector[dc] =
                                std::max(s.version_vector[dc], now_ts);
                          });
                    });
    }
    ScheduleHeartbeats(dc, p);
  });
}

void GentleRainSystem::ScheduleGstRound(DatacenterId dc) {
  // Rounds are self-clocking: the next tick is armed when the previous
  // round's aggregation completes, so a too-small interval degenerates to
  // back-to-back rounds (a timer-driven process coalesces ticks) instead of
  // an unbounded backlog of overlapping rounds.
  sim_->ScheduleAfter(config_.gst_interval_us, [this, dc] {
    Datacenter& d = dcs_[dc];
    // Phase 1: each partition computes min over remote VV entries and
    // reports to the local aggregator (cost charged at the partition).
    for (PartitionId p = 0; p < config_.partitions_per_dc; ++p) {
      Partition& part = d.partitions[p];
      part.server->SubmitPriority(config_.costs.gst_compute_us, [this, dc, p] {
        Datacenter& dd = dcs_[dc];
        Partition& pp = dd.partitions[p];
        Timestamp report = kTimestampMax;
        for (DatacenterId k = 0; k < config_.num_dcs; ++k) {
          if (k == dd.id) {
            continue;
          }
          report = std::min(report, pp.version_vector[k]);
        }
        network_.Send(pp.endpoint, dd.aggregator_endpoint, [this, dc, p, report] {
          Datacenter& ddd = dcs_[dc];
          ddd.partition_reports[p] = report;
          // Phase 2: once every partition reported for this round, the
          // aggregator computes the DC-wide minimum, broadcasts once, and
          // arms the next round.
          if (++ddd.reports_outstanding < config_.partitions_per_dc) {
            return;
          }
          ddd.reports_outstanding -= config_.partitions_per_dc;
          ScheduleGstRound(dc);
          Timestamp gst = kTimestampMax;
          for (const Timestamp r : ddd.partition_reports) {
            gst = std::min(gst, r);
          }
          if (gst == kTimestampMax || gst == 0) {
            return;
          }
          for (PartitionId q = 0; q < config_.partitions_per_dc; ++q) {
            network_.Send(ddd.aggregator_endpoint, ddd.partitions[q].endpoint,
                          [this, dc, q, gst] {
                            Partition& target = dcs_[dc].partitions[q];
                            target.server->SubmitPriority(
                                config_.costs.stab_msg_us, [this, dc, q, gst] {
                                  AdvanceGst(dcs_[dc].partitions[q], gst);
                                });
                          });
          }
        });
      });
    }
  });
}

void GentleRainSystem::AdvanceGst(Partition& part, Timestamp gst) {
  if (gst <= part.gst) {
    return;
  }
  part.gst = gst;
  // Release remote updates now allowed by the stabilization procedure.
  auto it = part.pending.begin();
  while (it != part.pending.end()) {
    if (it->ts <= part.gst) {
      tracker_.OnRemoteVisible(it->uid, part.dc, sim_->now());
      it = part.pending.erase(it);
    } else {
      ++it;
    }
  }
}

void GentleRainSystem::ClientRead(ClientId client, DatacenterId dc, Key key,
                                  std::function<void()> done) {
  assert(dc < dcs_.size());
  Partition& part = dcs_[dc].partitions[router_.Responsible(key)];
  const sim::SimTime hop = config_.network.intra_dc_one_way_us;
  sim_->ScheduleAfter(hop, [this, &part, client, key, done = std::move(done),
                            hop] {
    part.server->Submit(config_.costs.read_us + config_.costs.multiversion_us,
                        [this, &part, client, key, done, hop] {
      const Timestamp gst = part.gst;
      const auto* version =
          part.store.Get(key, [gst](const ScalarStamp& s) { return s.ts <= gst; });
      const Timestamp ts = version != nullptr ? version->stamp.ts : 0;
      sim_->ScheduleAfter(hop, [this, client, ts, done] {
        Timestamp& session = sessions_[client];
        session = std::max(session, ts);
        tracker_.OnOpComplete(/*is_update=*/false, sim_->now());
        done();
      });
    });
  });
}

void GentleRainSystem::ClientUpdate(ClientId client, DatacenterId dc, Key key,
                                    Value value, std::function<void()> done) {
  assert(dc < dcs_.size());
  Partition& part = dcs_[dc].partitions[router_.Responsible(key)];
  const sim::SimTime hop = config_.network.intra_dc_one_way_us;
  sim_->ScheduleAfter(hop, [this, &part, client, key, value = std::move(value),
                            done = std::move(done), hop]() mutable {
    part.server->Submit(config_.costs.update_us + config_.costs.multiversion_us,
                        [this, &part, client, key, value = std::move(value), done,
                         hop]() mutable {
      const Timestamp dep = sessions_[client];
      const Timestamp phys = part.clock.Read(sim_->now());
      // GentleRain's clock-skew wait: the update timestamp must exceed the
      // client's dependency time, and only the *physical* clock may provide
      // it (no logical catch-up).
      const std::uint64_t wait_us = dep >= phys ? (dep - phys + 1) : 0;
      sim_->ScheduleAfter(wait_us, [this, &part, client, key,
                                    value = std::move(value), done,
                                    hop]() mutable {
        const Timestamp phys_now = part.clock.Read(sim_->now());
        const Timestamp ts = std::max(phys_now, part.max_ts + 1);
        part.max_ts = ts;
        part.store.Put(key, value, ScalarStamp{ts}, part.dc, /*local=*/true);
        const std::uint64_t uid = tracker_.OnInstalled(part.dc, sim_->now());
        // Updates double as heartbeats: siblings learn our timestamp.
        for (DatacenterId k = 0; k < config_.num_dcs; ++k) {
          if (k == part.dc) {
            continue;
          }
          network_.Send(part.endpoint, dcs_[k].partitions[part.id].endpoint,
                        [this, k, pid = part.id, uid, key, value, ts,
                         origin = part.dc] {
                          DeliverRemote(k, pid, uid, key, value, ts, origin);
                        });
        }
        Timestamp& session = sessions_[client];
        session = std::max(session, ts);
        sim_->ScheduleAfter(hop, [this, done] {
          tracker_.OnOpComplete(/*is_update=*/true, sim_->now());
          done();
        });
      });
    });
  });
}

void GentleRainSystem::DeliverRemote(DatacenterId dc, PartitionId p,
                                     std::uint64_t uid, Key key, Value value,
                                     Timestamp ts, DatacenterId origin) {
  Partition& part = dcs_[dc].partitions[p];
  tracker_.OnRemoteArrival(uid, dc, sim_->now());
  part.server->SubmitPriority(config_.costs.apply_remote_us,
                      [this, &part, uid, key, value = std::move(value), ts,
                       origin]() mutable {
                        part.store.Put(key, std::move(value), ScalarStamp{ts},
                                       origin, /*local=*/false);
                        part.version_vector[origin] =
                            std::max(part.version_vector[origin], ts);
                        if (ts <= part.gst) {
                          tracker_.OnRemoteVisible(uid, part.dc, sim_->now());
                        } else {
                          part.pending.push_back({uid, ts});
                        }
                      });
}

}  // namespace eunomia::geo
