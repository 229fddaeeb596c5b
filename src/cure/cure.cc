#include "src/cure/cure.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace eunomia::geo {

CureSystem::CureSystem(sim::Simulator* sim, GeoConfig config)
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
    dc.partition_reports.assign(config_.partitions_per_dc,
                                VectorTimestamp(config_.num_dcs));
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
      part.gss = VectorTimestamp(config_.num_dcs);
    }
  }
  for (DatacenterId m = 0; m < config_.num_dcs; ++m) {
    for (PartitionId p = 0; p < config_.partitions_per_dc; ++p) {
      ScheduleHeartbeats(m, p);
    }
    ScheduleGssRound(m);
  }
}

bool CureSystem::VisibleUnder(const VectorTimestamp& gss,
                              const VectorTimestamp& vts, DatacenterId self) {
  for (DatacenterId d = 0; d < vts.size(); ++d) {
    if (d == self) {
      continue;  // dependencies on local updates are locally satisfied
    }
    if (gss[d] < vts[d]) {
      return false;
    }
  }
  return true;
}

void CureSystem::ScheduleHeartbeats(DatacenterId dc, PartitionId p) {
  sim_->ScheduleAfter(config_.remote_hb_interval_us, [this, dc, p] {
    Partition& part = dcs_[dc].partitions[p];
    const Timestamp now_ts =
        std::max(part.clock.Read(sim_->now()), part.max_ts);
    // Vector-carrying heartbeats: costlier than GentleRain's scalars.
    const std::uint64_t msg_cost =
        config_.costs.stab_msg_us + config_.costs.vclock_entry_us * config_.num_dcs;
    part.server->SubmitPriority(msg_cost * (config_.num_dcs - 1), [] {});
    for (DatacenterId k = 0; k < config_.num_dcs; ++k) {
      if (k == dc) {
        continue;
      }
      network_.Send(part.endpoint, dcs_[k].partitions[p].endpoint,
                    [this, k, p, dc, now_ts, msg_cost] {
                      Partition& sibling = dcs_[k].partitions[p];
                      sibling.server->SubmitPriority(msg_cost, [this, k, p, dc, now_ts] {
                        Partition& s = dcs_[k].partitions[p];
                        s.version_vector[dc] =
                            std::max(s.version_vector[dc], now_ts);
                      });
                    });
    }
    ScheduleHeartbeats(dc, p);
  });
}

void CureSystem::ScheduleGssRound(DatacenterId dc) {
  sim_->ScheduleAfter(config_.gst_interval_us, [this, dc] {
    Datacenter& d = dcs_[dc];
    const std::uint64_t compute_cost =
        config_.costs.gst_compute_us +
        config_.costs.vclock_entry_us * config_.num_dcs;
    for (PartitionId p = 0; p < config_.partitions_per_dc; ++p) {
      Partition& part = d.partitions[p];
      part.server->SubmitPriority(compute_cost, [this, dc, p] {
        Datacenter& dd = dcs_[dc];
        Partition& pp = dd.partitions[p];
        VectorTimestamp report(config_.num_dcs);
        for (DatacenterId k = 0; k < config_.num_dcs; ++k) {
          report[k] = pp.version_vector[k];
        }
        network_.Send(pp.endpoint, dd.aggregator_endpoint, [this, dc, p, report] {
          Datacenter& ddd = dcs_[dc];
          ddd.partition_reports[p] = report;
          // Once every partition reported for this round, compute and
          // broadcast exactly once, then arm the next (self-clocking) round.
          if (++ddd.reports_outstanding < config_.partitions_per_dc) {
            return;
          }
          ddd.reports_outstanding -= config_.partitions_per_dc;
          ScheduleGssRound(dc);
          // Per-entry minimum across partitions.
          VectorTimestamp gss = ddd.partition_reports[0];
          for (PartitionId q = 1; q < config_.partitions_per_dc; ++q) {
            for (DatacenterId k = 0; k < config_.num_dcs; ++k) {
              gss[k] = std::min(gss[k], ddd.partition_reports[q][k]);
            }
          }
          const std::uint64_t msg_cost =
              config_.costs.stab_msg_us +
              config_.costs.vclock_entry_us * config_.num_dcs;
          for (PartitionId q = 0; q < config_.partitions_per_dc; ++q) {
            network_.Send(ddd.aggregator_endpoint, ddd.partitions[q].endpoint,
                          [this, dc, q, gss, msg_cost] {
                            Partition& target = dcs_[dc].partitions[q];
                            target.server->SubmitPriority(
                                msg_cost, [this, dc, q, gss] {
                                  AdvanceGss(dcs_[dc].partitions[q], gss);
                                });
                          });
          }
        });
      });
    }
  });
}

void CureSystem::AdvanceGss(Partition& part, const VectorTimestamp& gss) {
  bool advanced = false;
  for (DatacenterId k = 0; k < gss.size(); ++k) {
    if (gss[k] > part.gss[k]) {
      part.gss[k] = gss[k];
      advanced = true;
    }
  }
  if (!advanced) {
    return;
  }
  auto it = part.pending.begin();
  while (it != part.pending.end()) {
    if (VisibleUnder(part.gss, it->vts, part.dc)) {
      tracker_.OnRemoteVisible(it->uid, part.dc, sim_->now());
      it = part.pending.erase(it);
    } else {
      ++it;
    }
  }
}

void CureSystem::ClientRead(ClientId client, DatacenterId dc, Key key,
                            std::function<void()> done) {
  assert(dc < dcs_.size());
  Partition& part = dcs_[dc].partitions[router_.Responsible(key)];
  const sim::SimTime hop = config_.network.intra_dc_one_way_us;
  const std::uint64_t cost =
      config_.costs.read_us + config_.costs.multiversion_us +
      config_.costs.vclock_entry_us * config_.num_dcs;
  sim_->ScheduleAfter(hop, [this, &part, client, key, done = std::move(done),
                            hop, cost] {
    part.server->Submit(cost, [this, &part, client, key, done, hop] {
      const VectorTimestamp& gss = part.gss;
      const DatacenterId self = part.dc;
      const auto* version = part.store.Get(
          key, [&gss, self](const VectorStamp& s) {
            return VisibleUnder(gss, s.vts, self);
          });
      VectorTimestamp vts = version != nullptr ? version->stamp.vts
                                               : VectorTimestamp(config_.num_dcs);
      sim_->ScheduleAfter(hop, [this, client, vts = std::move(vts), done] {
        auto [it, inserted] =
            sessions_.try_emplace(client, VectorTimestamp(config_.num_dcs));
        it->second.MergeMax(vts);
        tracker_.OnOpComplete(/*is_update=*/false, sim_->now());
        done();
      });
    });
  });
}

void CureSystem::ClientUpdate(ClientId client, DatacenterId dc, Key key,
                              Value value, std::function<void()> done) {
  assert(dc < dcs_.size());
  Partition& part = dcs_[dc].partitions[router_.Responsible(key)];
  const sim::SimTime hop = config_.network.intra_dc_one_way_us;
  const std::uint64_t cost =
      config_.costs.update_us + config_.costs.multiversion_us +
      config_.costs.vclock_entry_us * config_.num_dcs;
  sim_->ScheduleAfter(hop, [this, &part, client, key, value = std::move(value),
                            done = std::move(done), hop, cost]() mutable {
    part.server->Submit(cost, [this, &part, client, key,
                               value = std::move(value), done, hop]() mutable {
      auto [sit, inserted] =
          sessions_.try_emplace(client, VectorTimestamp(config_.num_dcs));
      const VectorTimestamp deps = sit->second;
      const Timestamp phys = part.clock.Read(sim_->now());
      // Like GentleRain, Cure waits out clock skew: the commit timestamp
      // must exceed the client's dependency on this datacenter.
      const Timestamp dep_local = deps[part.dc];
      const std::uint64_t wait_us = dep_local >= phys ? (dep_local - phys + 1) : 0;
      sim_->ScheduleAfter(wait_us, [this, &part, client, key,
                                    value = std::move(value), deps, done,
                                    hop]() mutable {
        const Timestamp phys_now = part.clock.Read(sim_->now());
        const Timestamp ts = std::max(phys_now, part.max_ts + 1);
        part.max_ts = ts;
        VectorTimestamp vts = deps;
        vts[part.dc] = ts;
        part.store.Put(key, value, VectorStamp{vts}, part.dc, /*local=*/true);
        const std::uint64_t uid = tracker_.OnInstalled(part.dc, sim_->now());
        for (DatacenterId k = 0; k < config_.num_dcs; ++k) {
          if (k == part.dc) {
            continue;
          }
          network_.Send(part.endpoint, dcs_[k].partitions[part.id].endpoint,
                        [this, k, pid = part.id, uid, key, value, vts,
                         origin = part.dc] {
                          DeliverRemote(k, pid, uid, key, value, vts, origin);
                        });
        }
        auto it = sessions_.find(client);
        if (it != sessions_.end()) {
          it->second = vts;
        }
        sim_->ScheduleAfter(hop, [this, done] {
          tracker_.OnOpComplete(/*is_update=*/true, sim_->now());
          done();
        });
      });
    });
  });
}

void CureSystem::DeliverRemote(DatacenterId dc, PartitionId p, std::uint64_t uid,
                               Key key, Value value, VectorTimestamp vts,
                               DatacenterId origin) {
  Partition& part = dcs_[dc].partitions[p];
  tracker_.OnRemoteArrival(uid, dc, sim_->now());
  const std::uint64_t cost = config_.costs.apply_remote_us +
                             config_.costs.vclock_entry_us * config_.num_dcs;
  part.server->SubmitPriority(cost, [this, &part, uid, key, value = std::move(value),
                             vts = std::move(vts), origin]() mutable {
    const Timestamp commit_ts = vts[origin];
    part.store.Put(key, std::move(value), VectorStamp{vts}, origin,
                   /*local=*/false);
    part.version_vector[origin] =
        std::max(part.version_vector[origin], commit_ts);
    if (VisibleUnder(part.gss, vts, part.dc)) {
      tracker_.OnRemoteVisible(uid, part.dc, sim_->now());
    } else {
      part.pending.push_back({uid, vts, origin});
    }
  });
}

}  // namespace eunomia::geo
