#include "src/georep/runtime/datacenter_runtime.h"

#include <cassert>
#include <utility>

namespace eunomia::geo::rt {

DatacenterRuntime::DatacenterRuntime(DatacenterId id, const GeoConfig& config,
                                     Environment* env,
                                     VisibilityTracker* tracker,
                                     UidAllocator* uids, SessionMap* sessions,
                                     std::vector<PhysicalClock> clocks,
                                     DurabilityHooks* hooks)
    : id_(id),
      config_(config),
      env_(env),
      hooks_(hooks),
      tracker_(tracker),
      uids_(uids),
      sessions_(sessions),
      router_(config_.partitions_per_dc),
      partitions_(config_.partitions_per_dc),
      eunomia_(config_.partitions_per_dc) {
  assert(clocks.size() == partitions_.size());
  for (PartitionId p = 0; p < config_.partitions_per_dc; ++p) {
    Partition& part = partitions_[p];
    part.id = p;
    part.clock = clocks[p];
    part.hybrid = PartitionedHybridClock(p, config_.partitions_per_dc);
    part.comm_interval_us = config_.batch_interval_us;
  }
  receiver_ = std::make_unique<Receiver>(
      id_, config_.num_dcs,
      [this](const RemoteUpdate& update, std::function<void()> done) {
        ApplyRemote(update.partition, update, std::move(done));
      },
      config_.scalar_metadata);
}

void DatacenterRuntime::StartTimers() {
  for (PartitionId p = 0; p < config_.partitions_per_dc; ++p) {
    SchedulePartitionFlush(p);
  }
  ScheduleStabilizer();
  ScheduleReceiverCheck();
}

void DatacenterRuntime::SetPartitionCommInterval(PartitionId partition,
                                                 std::uint64_t interval_us) {
  assert(partition < partitions_.size());
  partitions_[partition].comm_interval_us = interval_us == 0 ? 1 : interval_us;
}

void DatacenterRuntime::SetPartitionClock(PartitionId partition,
                                          const PhysicalClock& clock) {
  assert(partition < partitions_.size());
  partitions_[partition].clock = clock;
}

void DatacenterRuntime::RestoreLocalUpdate(PartitionId partition,
                                           const RemotePayload& update) {
  assert(partition < partitions_.size());
  assert(update.origin == id_);
  Partition& part = partitions_[partition];
  part.store.Put(update.key, update.value, update.vts, update.origin);
  // Future timestamps must strictly exceed every restored one, or the
  // batcher's monotonicity (Property 2) — and remote dedup — would break.
  part.hybrid.Observe(update.vts[id_]);
  part.batcher.Add(OpRecord{update.vts[id_], partition, update.key, update.uid});
  registry_[update.uid] = RemoteUpdate{update.uid, update.key, update.vts, id_,
                                       partition};
  ++updates_installed_;
}

void DatacenterRuntime::RestoreStoreVersion(PartitionId partition, Key key,
                                            const GeoVersion& version) {
  assert(partition < partitions_.size());
  Partition& part = partitions_[partition];
  part.store.Put(key, version.value, version.vts, version.origin);
  if (version.origin == id_) {
    part.hybrid.Observe(version.vts[id_]);
  }
}

void DatacenterRuntime::RestoreSiteTime(const VectorTimestamp& site_time) {
  receiver_->RestoreSiteTime(site_time);
}

void DatacenterRuntime::PrimePartitionClock(PartitionId partition,
                                            Timestamp ts) {
  assert(partition < partitions_.size());
  partitions_[partition].hybrid.Observe(ts);
}

void DatacenterRuntime::SchedulePartitionFlush(PartitionId p) {
  const std::uint64_t interval = partitions_[p].comm_interval_us;
  env_->ScheduleAfter(id_, interval, [this, p] {
    FlushPartition(p);
    SchedulePartitionFlush(p);
  });
}

void DatacenterRuntime::FlushPartition(PartitionId p) {
  Partition& part = partitions_[p];
  if (!part.batcher.empty()) {
    // FIFO link partition -> Eunomia (§3.1 assumption).
    env_->SendMetadataBatch(id_, p, part.batcher.TakeBatch());
    return;
  }
  // Idle partition: heartbeat if due (Alg. 2 lines 10-12). HeartbeatValue
  // records the emitted timestamp so later updates strictly exceed it,
  // preserving Property 2 even if an update lands in the same microsecond.
  const Timestamp now_phys = part.clock.Read(env_->Now());
  if (part.hybrid.HeartbeatDue(now_phys, config_.delta_us)) {
    env_->SendHeartbeat(id_, p, part.hybrid.HeartbeatValue(now_phys));
  }
}

void DatacenterRuntime::OnMetadataBatch(const std::vector<OpRecord>& batch) {
  // Per-partition batches are timestamp-ordered: bulk insert through the
  // hinted run path.
  eunomia_.AddBatch(batch);
}

void DatacenterRuntime::OnHeartbeat(PartitionId partition, Timestamp ts) {
  eunomia_.Heartbeat(partition, ts);
}

void DatacenterRuntime::ScheduleStabilizer() {
  env_->ScheduleAfter(id_, config_.theta_us, [this] {
    RunStabilizer();
    ScheduleStabilizer();
  });
}

void DatacenterRuntime::RunStabilizer() {
  stable_scratch_.clear();
  const std::size_t emitted = eunomia_.ProcessStable(&stable_scratch_);
  // Scalar variant: the receivers gate on each origin's stable frontier
  // (GST-style), so the stabilizer broadcasts its StableTime as a beacon
  // even when there is nothing to ship. The beacon goes out AFTER the
  // batch below on the same FIFO link, so a receiver that sees frontier F
  // is guaranteed to already hold every op with ts <= F in its queue.
  auto send_frontier_beacons = [this] {
    const Timestamp frontier = eunomia_.StableTime();
    if (frontier == 0) {
      return;
    }
    for (DatacenterId k = 0; k < config_.num_dcs; ++k) {
      if (k == id_) {
        continue;
      }
      env_->SendFrontier(id_, k, frontier);
    }
  };
  if (emitted == 0) {
    if (config_.scalar_metadata) {
      send_frontier_beacons();
    }
    return;
  }
  // Charge the Eunomia node for the extraction work.
  env_->ChargeEunomia(id_, config_.costs.eunomia_op_us * emitted + 1);
  // Ship ordered metadata to every remote receiver; the FIFO WAN link
  // preserves the stabilization order.
  std::vector<RemoteUpdate> batch;
  batch.reserve(emitted);
  for (const OpRecord& op : stable_scratch_) {
    const auto it = registry_.find(op.tag);
    assert(it != registry_.end());
    batch.push_back(it->second);
    registry_.erase(it);
  }
  for (DatacenterId k = 0; k < config_.num_dcs; ++k) {
    if (k == id_) {
      continue;
    }
    env_->SendRemoteMetadata(id_, k, batch);
  }
  if (config_.scalar_metadata) {
    send_frontier_beacons();
  }
}

void DatacenterRuntime::OnRemoteMetadata(const std::vector<RemoteUpdate>& batch) {
  if (hooks_ != nullptr) {
    // Logged before the receiver sees it: anything that influenced SiteTime
    // must be reconstructible, or a post-crash replay would under-run the
    // pre-crash applied frontier.
    hooks_->OnInboundMetadata(batch);
  }
  for (const RemoteUpdate& u : batch) {
    receiver_->OnRemoteUpdate(u);
  }
}

void DatacenterRuntime::OnFrontier(DatacenterId origin, Timestamp frontier) {
  receiver_->OnFrontier(origin, frontier);
}

void DatacenterRuntime::ScheduleReceiverCheck() {
  env_->ScheduleAfter(id_, config_.rho_us, [this] {
    receiver_->CheckPending();
    ScheduleReceiverCheck();
  });
}

void DatacenterRuntime::ClientRead(ClientId client, Key key,
                                   std::function<void()> done) {
  ClientReadValue(client, key,
                  [done = std::move(done)](const GeoVersion&) { done(); });
}

void DatacenterRuntime::ClientReadValue(
    ClientId client, Key key, std::function<void(const GeoVersion&)> done) {
  const PartitionId p = router_.Responsible(key);
  Partition& part = partitions_[p];
  env_->ClientHop(id_, [this, &part, client, key, done = std::move(done)] {
    const std::uint64_t cost =
        config_.costs.read_us + config_.costs.eunomia_metadata_us;
    env_->RunOnPartition(id_, part.id, cost, /*priority=*/false,
                         [this, &part, client, key, done] {
      const GeoVersion* version = part.store.Get(key);
      GeoVersion observed = version != nullptr
                                ? *version
                                : GeoVersion{Value{},
                                             VectorTimestamp(config_.num_dcs),
                                             0};
      env_->ClientHop(id_, [this, client, observed = std::move(observed),
                            done] {
        auto [it, inserted] =
            sessions_->try_emplace(client, VectorTimestamp(config_.num_dcs));
        it->second.MergeMax(observed.vts);  // Alg. 1 line 4, vector form
        tracker_->OnOpComplete(/*is_update=*/false, env_->Now());
        done(observed);
      });
    });
  });
}

void DatacenterRuntime::ClientUpdate(ClientId client, Key key, Value value,
                                     std::function<void()> done) {
  const PartitionId p = router_.Responsible(key);
  Partition& part = partitions_[p];
  env_->ClientHop(id_, [this, &part, client, key, value = std::move(value),
                        done = std::move(done)]() mutable {
    ExecuteUpdate(part, client, key, std::move(value), std::move(done));
  });
}

void DatacenterRuntime::ExecuteUpdate(Partition& part, ClientId client,
                                      Key key, Value value,
                                      std::function<void()> done) {
  const std::uint64_t cost = config_.costs.update_us +
                             config_.costs.eunomia_metadata_us +
                             config_.costs.eunomia_update_metadata_us;
  env_->RunOnPartition(id_, part.id, cost, /*priority=*/false,
                       [this, &part, client, key, value = std::move(value),
                        done = std::move(done)]() mutable {
    auto [sit, inserted] =
        sessions_->try_emplace(client, VectorTimestamp(config_.num_dcs));
    VectorTimestamp& session = sit->second;

    // u.vts: local entry from the hybrid clock (Alg. 2 line 5, vector form);
    // remote entries copied from VClock_c (§4 "Update").
    const Timestamp now_phys = part.clock.Read(env_->Now());
    const Timestamp local_ts =
        part.hybrid.TimestampUpdate(now_phys, session[id_]);
    VectorTimestamp vts = session;
    vts[id_] = local_ts;
    if (config_.scalar_metadata) {
      // Scalar compression (§4, "we could easily adapt our protocols to use
      // a single scalar, as in [GentleRain]"): the update carries one scalar
      // — its own timestamp — as both its id and its dependency summary, so
      // a remote datacenter may apply it only once it has applied *every*
      // datacenter's updates up to that value (GentleRain's GST >= u.ts
      // condition). This creates false dependencies on every datacenter:
      // the visibility lower bound becomes the farthest inter-DC latency,
      // and a quiescent datacenter stalls everyone (which is why GentleRain
      // needs heartbeats).
      for (DatacenterId d = 0; d < config_.num_dcs; ++d) {
        vts[d] = local_ts;
      }
    }

    part.store.Put(key, value, vts, id_);
    ++updates_installed_;
    const std::uint64_t uid = uids_->Next();
    tracker_->RecordInstalled(uid, id_, env_->Now());

    // Metadata to Eunomia (batched, §5): only (ts, partition, key, uid).
    part.batcher.Add(OpRecord{local_ts, part.id, key, uid});
    registry_[uid] = RemoteUpdate{uid, key, vts, id_, part.id};

    // Data/metadata separation (§5): ship the payload directly to the
    // sibling partitions, no ordering constraints.
    RemotePayload payload{uid, key, value, vts, id_};
    if (hooks_ != nullptr) {
      // Log-before-ship: once any byte of this update leaves the process
      // (payload fan-out below, metadata at the next flush), a crash must
      // be able to resurrect it, or peers end up holding orphaned payloads
      // whose metadata go-ahead can never arrive.
      hooks_->OnLocalInstall(part.id, payload);
    }
    for (DatacenterId k = 0; k < config_.num_dcs; ++k) {
      if (k == id_) {
        continue;
      }
      env_->SendPayload(id_, k, part.id, payload);
    }

    // Reply to the client: VClock_c <- u.vts (strictly greater, §4).
    env_->ClientHop(id_, [this, client, vts = std::move(vts), done] {
      auto it = sessions_->find(client);
      if (it != sessions_->end()) {
        it->second = vts;
      }
      tracker_->OnOpComplete(/*is_update=*/true, env_->Now());
      done();
    });
  });
}

void DatacenterRuntime::OnPayload(PartitionId p, RemotePayload payload) {
  // At-least-once payload channels (a faulty network redelivering, or a
  // crash-recovery re-ship racing the original) can present an update whose
  // apply already completed. SiteTime only passes u.vts[origin] once u has
  // been applied here (the receiver advances it strictly in apply order and
  // per-DC timestamps are unique across partitions), so this copy is
  // provably stale — drop it before any visibility bookkeeping. On exactly-
  // once channels the payload precedes its own apply and the test never
  // fires.
  if (payload.origin != id_ &&
      payload.vts[payload.origin] <= receiver_->site_time()[payload.origin]) {
    ++payload_duplicates_;
    return;
  }
  if (hooks_ != nullptr) {
    // After the duplicate check (redeliveries are not re-logged), before the
    // payload can be buffered or applied.
    hooks_->OnInboundPayload(p, payload);
  }
  Partition& part = partitions_[p];
  // Per-datacenter trackers (real binding) never saw the origin's install:
  // materialize the origin attribution here. A no-op on the sim binding's
  // shared tracker.
  tracker_->EnsureInstalled(payload.uid, payload.origin, env_->Now());
  tracker_->OnRemoteArrival(payload.uid, id_, env_->Now());
  const std::uint64_t uid = payload.uid;
  part.payloads.emplace(uid, std::move(payload));
  // If the receiver's go-ahead beat the payload, finish the apply now.
  const auto pending = part.pending_applies.find(uid);
  if (pending != part.pending_applies.end()) {
    auto done = std::move(pending->second);
    part.pending_applies.erase(pending);
    ExecuteRemote(part, uid, std::move(done));
  }
}

void DatacenterRuntime::ApplyRemote(PartitionId p, const RemoteUpdate& meta,
                                    std::function<void()> done) {
  // Receiver -> partition APPLY message (Alg. 5 line 14).
  env_->SendApply(id_, p, [this, p, uid = meta.uid, done = std::move(done)] {
    Partition& part = partitions_[p];
    if (part.payloads.count(uid) > 0) {
      ExecuteRemote(part, uid, done);
    } else {
      // Metadata arrived before the payload: park the go-ahead.
      part.pending_applies.emplace(uid, done);
    }
  });
}

void DatacenterRuntime::ExecuteRemote(Partition& part, std::uint64_t uid,
                                      std::function<void()> done) {
  env_->RunOnPartition(id_, part.id, config_.costs.apply_remote_us,
                       /*priority=*/true,
                       [this, &part, uid, done = std::move(done)] {
    const auto it = part.payloads.find(uid);
    assert(it != part.payloads.end());
    RemotePayload payload = std::move(it->second);
    part.payloads.erase(it);
    part.store.Put(payload.key, std::move(payload.value), payload.vts,
                   payload.origin);
    tracker_->OnRemoteVisible(uid, id_, env_->Now());
    done();  // receiver advances SiteTime and keeps flushing
  });
}

const GeoStore& DatacenterRuntime::StoreAt(PartitionId partition) const {
  assert(partition < partitions_.size());
  return partitions_[partition].store;
}

std::size_t DatacenterRuntime::BufferedPayloads() const {
  std::size_t n = 0;
  for (const Partition& part : partitions_) {
    n += part.payloads.size();
  }
  return n;
}

std::size_t DatacenterRuntime::PendingApplyCount() const {
  std::size_t n = 0;
  for (const Partition& part : partitions_) {
    n += part.pending_applies.size();
  }
  return n;
}

const VectorTimestamp* DatacenterRuntime::SessionOf(ClientId client) const {
  const auto it = sessions_->find(client);
  return it == sessions_->end() ? nullptr : &it->second;
}

}  // namespace eunomia::geo::rt
