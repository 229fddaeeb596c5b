// geo-3dc: three EunomiaKV datacenters (geo::rt::GeoNode), each on its own
// epoll TCP transport on loopback, 8 partitions per DC and the 1 ms batch /
// theta / rho timers of fig5.
//
// The main thread is the generator: a Poisson stream of 90:10 reads and
// updates over uniform keys, each op from a client id drawn out of a large
// pool (independent users, so the load is open-loop) at a uniformly chosen
// DC, timed from its due time until its done callback runs. A second
// thread probes visibility: every 0.5 ms it writes a fresh key at
// one DC and polls the other two DCs' stores (through RunBlocking) until
// the value is readable there.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "src/eunomia/core.h"
#include "src/georep/config.h"
#include "src/georep/runtime/event_loop.h"
#include "src/georep/runtime/geo_node.h"
#include "src/net/epoll_transport.h"
#include "src/net/loopback_transport.h"
#include "src/store/hash_ring.h"

namespace perfbench {
namespace {

using eunomia::ClientId;
using eunomia::DatacenterId;
using eunomia::Key;
using eunomia::OpRecord;
using eunomia::PartitionId;
using eunomia::Timestamp;
namespace geo = eunomia::geo;
namespace net = eunomia::net;

constexpr std::uint32_t kDcs = 3;
constexpr std::uint32_t kPartitionsPerDc = 8;
constexpr std::uint64_t kTimerUs = 1000;  // batch, theta and rho, as fig5
constexpr Key kKeys = 1'000'000;
constexpr ClientId kClients = 100'000;
constexpr double kUpdateFrac = 0.10;
constexpr Key kProbeKeyBase = Key{1} << 40;
constexpr ClientId kProbeClientBase = ClientId{1} << 40;
constexpr std::int64_t kProbeEveryNs = 500'000;
constexpr double kNominalKops = 50;
constexpr double kLimitMs = 20;
constexpr int kLadderStart = 24;
// cpu_us_per_op is measured in a cost phase that keeps the nodes saturated.
// At an open-loop rate ops arrive one by one and many wake an idle thread,
// so CPU per op is set by how soon the host runs woken threads: on a shared
// 4-core VM it fell from ~33 to ~21 us/op at 50 kops, and from ~18 to
// ~13 us/op at 150 kops, in busy host periods. A window of outstanding
// ops refilled every 1 ms keeps every loop busy in both.
constexpr std::uint64_t kCostWindow = 4000;
// Phase records: 1 warm-up, 2 nominal, 3 traced nominal, 4.. ladder rungs,
// then the cost phase.
constexpr std::size_t kCostRec = 64;
constexpr std::size_t kPhases = kCostRec + 1;
constexpr double kRungWindowS = 0.5;  // >= 1000 probe samples per window

geo::GeoConfig MakeConfig() {
  geo::GeoConfig config;
  config.num_dcs = kDcs;
  config.partitions_per_dc = kPartitionsPerDc;
  config.servers_per_dc = 1;
  config.batch_interval_us = kTimerUs;
  config.theta_us = kTimerUs;
  config.rho_us = kTimerUs;
  return config;
}

// Three nodes, fully meshed. TCP: one epoll transport per node; loopback:
// one shared in-process transport.
class Deployment {
 public:
  ~Deployment() { Stop(); }

  bool Start(bool loopback) {
    const geo::GeoConfig config = MakeConfig();
    if (loopback) {
      shared_ = std::make_unique<net::LoopbackTransport>();
    }
    std::vector<std::string> addresses;
    for (DatacenterId m = 0; m < kDcs; ++m) {
      net::Transport* transport = shared_.get();
      if (transport == nullptr) {
        transports_.push_back(std::make_unique<net::EpollTransport>());
        transport = transports_.back().get();
      }
      geo::rt::GeoNode::Options options;
      options.dc = m;
      options.config = config;
      nodes_.push_back(std::make_unique<geo::rt::GeoNode>(transport, options));
      addresses.push_back(nodes_.back()->Listen(
          loopback ? "perfbench-dc" + std::to_string(m) : "127.0.0.1:0"));
      if (addresses.back().empty()) return false;
    }
    for (DatacenterId m = 0; m < kDcs; ++m) {
      for (DatacenterId k = 0; k < kDcs; ++k) {
        if (k != m && !nodes_[m]->ConnectPeer(k, addresses[k])) return false;
      }
    }
    for (auto& node : nodes_) node->Start();
    return true;
  }

  void Stop() {
    for (auto& node : nodes_) node->Stop();
    nodes_.clear();
    transports_.clear();
    if (shared_) shared_->Shutdown();
    shared_.reset();
  }

  geo::rt::GeoNode& node(DatacenterId d) { return *nodes_[d]; }

 private:
  std::unique_ptr<net::LoopbackTransport> shared_;
  std::vector<std::unique_ptr<net::Transport>> transports_;
  std::vector<std::unique_ptr<geo::rt::GeoNode>> nodes_;
};

// Per-phase, per-DC latencies, written on that DC's event loop.
struct DcRec {
  Windowed update;
  Windowed read;
  std::atomic<std::uint64_t> done{0};
};

struct PhaseRec {
  DcRec dc[kDcs];
  Windowed late;
  std::vector<double> backlog;
  UsageMarks usage;
  std::uint64_t issued = 0;
  std::uint64_t updates = 0;
  double seconds = 0;
  double target_kops = 0;
  // Written by the prober under its mutex.
  Windowed visible;
  Samples loop_rtt;
  std::vector<double> pending, buffered, stab_pending, stable_lag_us;
};

struct Probe {
  Key key;
  PartitionId partition;
  std::string value;
  std::int64_t due;
  DatacenterId origin;
  std::uint32_t seen_mask;
  std::size_t phase;
};

// The visibility prober; runs on its own generator thread.
class Prober {
 public:
  Prober(Deployment* dep, std::vector<std::unique_ptr<PhaseRec>>* phases,
         Tracer* tracer)
      : dep_(dep), phases_(phases), tracer_(tracer), ring_(kPartitionsPerDc) {}

  // Phase to attribute new probes to; negative pauses probing.
  void SetPhase(int phase) { phase_.store(phase, std::memory_order_release); }
  void SetSampling(bool on) { sampling_.store(on, std::memory_order_release); }
  void Stop() { stop_.store(true, std::memory_order_release); }
  std::uint64_t issued() const { return issued_.load(std::memory_order_acquire); }
  std::uint64_t resolved() const { return resolved_.load(std::memory_order_acquire); }
  std::mutex& mu() { return mu_; }
  std::vector<Key> keys() const {
    std::lock_guard<std::mutex> lock(mu_);
    return keys_;
  }

  void Run() {
    std::int64_t next_probe = NowNs();
    std::int64_t next_sample = NowNs();
    std::uint64_t n = 0;
    geo::rt::EventLoop clock;  // never started: only its shared Now()
    std::int64_t give_up = 0;  // set once Stop() is seen
    for (;;) {
      const std::int64_t now = NowNs();
      if (stop_.load(std::memory_order_acquire)) {
        if (give_up == 0) give_up = now + 5'000'000'000;
        if (outstanding_.empty() || now > give_up) break;
      }
      const int phase = phase_.load(std::memory_order_acquire);
      if (phase >= 0 && !stop_.load(std::memory_order_acquire) &&
          now >= next_probe) {
        IssueProbe(n++, next_probe, static_cast<std::size_t>(phase));
        next_probe += kProbeEveryNs;
        if (next_probe < now) next_probe = now;  // late: skip, don't burst
      }
      if (phase < 0) next_probe = std::max(next_probe, now);
      Poll();
      if (sampling_.load(std::memory_order_acquire) && phase >= 0 &&
          now >= next_sample) {
        Sample(static_cast<std::size_t>(phase), clock);
        next_sample = now + 5'000'000;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

 private:
  void IssueProbe(std::uint64_t n, std::int64_t due, std::size_t phase) {
    const DatacenterId origin = static_cast<DatacenterId>(n % kDcs);
    Probe p{kProbeKeyBase + n, 0, "probe-" + std::to_string(n), due, origin,
            1u << origin, phase};
    p.partition = ring_.Responsible(p.key);
    {
      std::lock_guard<std::mutex> lock(mu_);
      keys_.push_back(p.key);
    }
    dep_->node(origin).ClientUpdate(kProbeClientBase + origin, p.key, p.value,
                                    [] {});
    outstanding_.push_back(std::move(p));
    issued_.fetch_add(1, std::memory_order_release);
  }

  // One RunBlocking per remote node checks every outstanding probe there.
  void Poll() {
    if (outstanding_.empty()) return;
    for (DatacenterId d = 0; d < kDcs; ++d) {
      if (std::all_of(outstanding_.begin(), outstanding_.end(),
                      [d](const Probe& p) { return p.seen_mask & (1u << d); })) {
        continue;
      }
      geo::rt::GeoNode& node = dep_->node(d);
      std::vector<std::int64_t> seen(outstanding_.size(), 0);
      const std::uint64_t id = tracer_->on() ? tracer_->NextId() : 0;
      ScopedSpan span(tracer_, "georep.node.probe_read", id, 0);
      node.RunBlocking([&] {
        const std::int64_t t = NowNs();
        for (std::size_t i = 0; i < outstanding_.size(); ++i) {
          const Probe& p = outstanding_[i];
          if (p.seen_mask & (1u << d)) continue;
          const geo::GeoVersion* v =
              node.runtime().StoreAt(p.partition).Get(p.key);
          if (v != nullptr && v->value == p.value) seen[i] = t;
        }
      });
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = 0; i < outstanding_.size(); ++i) {
        if (seen[i] == 0) continue;
        Probe& p = outstanding_[i];
        p.seen_mask |= 1u << d;
        (*phases_)[p.phase]->visible.Add(p.due, seen[i] - p.due);
      }
    }
    const std::uint32_t all = (1u << kDcs) - 1;
    const auto before = outstanding_.size();
    outstanding_.erase(
        std::remove_if(outstanding_.begin(), outstanding_.end(),
                       [all](const Probe& p) { return p.seen_mask == all; }),
        outstanding_.end());
    resolved_.fetch_add(before - outstanding_.size(), std::memory_order_release);
  }

  // Traced runs: the loop round trip and the receiver/stabilizer depths.
  void Sample(std::size_t phase, const geo::rt::EventLoop& clock) {
    PhaseRec* rec = (*phases_)[phase].get();
    for (DatacenterId d = 0; d < kDcs; ++d) {
      geo::rt::GeoNode& node = dep_->node(d);
      const std::int64_t t0 = NowNs();
      node.RunBlocking([] {});
      const std::int64_t rtt = NowNs() - t0;
      double pending = 0, buffered = 0, stab = 0, lag_us = 0;
      node.RunBlocking([&] {
        const auto& rt = node.runtime();
        pending = static_cast<double>(rt.receiver().PendingCount());
        buffered = static_cast<double>(rt.BufferedPayloads());
        stab = static_cast<double>(rt.eunomia().pending_ops());
        const double stable_us = static_cast<double>(rt.eunomia().StableTime()) /
                                 kPartitionsPerDc;
        lag_us = static_cast<double>(clock.Now()) - stable_us;
      });
      std::lock_guard<std::mutex> lock(mu_);
      rec->loop_rtt.Add(rtt);
      rec->pending.push_back(pending);
      rec->buffered.push_back(buffered);
      rec->stab_pending.push_back(stab);
      rec->stable_lag_us.push_back(lag_us);
    }
  }

  Deployment* const dep_;
  std::vector<std::unique_ptr<PhaseRec>>* const phases_;
  Tracer* const tracer_;
  const eunomia::store::ConsistentHashRing ring_;
  std::atomic<int> phase_{-1};
  std::atomic<bool> sampling_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> resolved_{0};
  std::vector<Probe> outstanding_;  // prober thread only
  mutable std::mutex mu_;           // guards phase samples and keys_
  std::vector<Key> keys_;
};

// The open-loop op generator (main thread).
class Generator {
 public:
  Generator(Deployment* dep, Prober* prober, std::uint64_t seed,
            std::vector<std::unique_ptr<PhaseRec>>* phases, Tracer* tracer)
      : dep_(dep), prober_(prober), seed_(seed), phases_(phases),
        tracer_(tracer) {}

  // Offers `rate_kops` for `seconds`, with the prober attributing its
  // probes to the same phase.
  void RunPhase(std::size_t rec_index, std::uint64_t schedule_id,
                double rate_kops, double seconds, double window_s) {
    PhaseRec* rec = (*phases_)[rec_index].get();
    rec->target_kops = rate_kops;
    rec->seconds = seconds;
    Rng rng(MixSeed(seed_, schedule_id));
    const double per_ns = rate_kops * 1e-6;
    const std::int64_t start = NowNs() + 1'000'000;
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    rec->late.Start(start, seconds, window_s);
    for (DcRec& d : rec->dc) {
      d.update.Start(start, seconds, window_s);
      d.read.Start(start, seconds, window_s);
    }
    {
      std::lock_guard<std::mutex> lock(prober_->mu());
      rec->visible.Start(start, seconds, window_s);
    }
    prober_->SetPhase(static_cast<int>(rec_index));
    double next = static_cast<double>(start) + rng.ExpGapNs(per_ns);
    std::int64_t next_sample = start;
    std::int64_t next_mark = start + 1'000'000'000;
    rec->usage.Mark(rec->issued);
    while (next < static_cast<double>(end)) {
      const auto due = static_cast<std::int64_t>(next);
      SleepUntilNs(due);
      if (due >= next_mark) {
        rec->usage.Mark(rec->issued);
        next_mark += 1'000'000'000;
      }
      const std::int64_t now = NowNs();
      if (now >= next_sample) {
        rec->backlog.push_back(static_cast<double>(issued_ - Done()));
        next_sample = now + 1'000'000;
      }
      rec->late.Add(due, now - due);
      const auto dc = static_cast<DatacenterId>(rng.Below(kDcs));
      const ClientId client = rng.Below(kClients);
      const Key key = rng.Below(kKeys);
      const bool update = rng.Uniform01() <= kUpdateFrac;
      Issue(rec, dc, client, key, update, due);
      next += rng.ExpGapNs(per_ns);
    }
    rec->usage.Mark(rec->issued);
    prober_->SetPhase(-1);
  }

  // Keeps between kCostWindow / 2 and kCostWindow ops outstanding for
  // `seconds`, without an arrival schedule: the nodes' threads never idle,
  // so the CPU per op measured here is the work per op, not how often the
  // host lets idle threads sleep. Refills once per 1 ms.
  void RunSaturated(std::size_t rec_index, std::uint64_t schedule_id,
                    double seconds) {
    PhaseRec* rec = (*phases_)[rec_index].get();
    rec->seconds = seconds;
    Rng rng(MixSeed(seed_, schedule_id));
    const std::int64_t start = NowNs();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    rec->late.Start(start, seconds, 1.0);
    for (DcRec& d : rec->dc) {
      d.update.Start(start, seconds, 1.0);
      d.read.Start(start, seconds, 1.0);
    }
    {
      std::lock_guard<std::mutex> lock(prober_->mu());
      rec->visible.Start(start, seconds, 1.0);
    }
    prober_->SetPhase(static_cast<int>(rec_index));
    std::int64_t next_mark = start + 1'000'000'000;
    rec->usage.Mark(rec->issued);
    for (std::int64_t now = start; now < end; now = NowNs()) {
      if (now >= next_mark) {
        rec->usage.Mark(rec->issued);
        next_mark += 1'000'000'000;
      }
      std::uint64_t done = 0;
      for (const DcRec& d : rec->dc) done += d.done.load(std::memory_order_acquire);
      for (std::uint64_t n = rec->issued - done; n < kCostWindow; ++n) {
        const auto dc = static_cast<DatacenterId>(rng.Below(kDcs));
        const ClientId client = rng.Below(kClients);
        const Key key = rng.Below(kKeys);
        const bool update = rng.Uniform01() <= kUpdateFrac;
        Issue(rec, dc, client, key, update, now);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    rec->usage.Mark(rec->issued);
    prober_->SetPhase(-1);
  }

  std::uint64_t issued() const { return issued_; }
  std::uint64_t updates() const { return updates_; }
  std::uint64_t Done() const {
    std::uint64_t n = 0;
    for (const auto& rec : *phases_) {
      for (const DcRec& d : rec->dc) n += d.done.load(std::memory_order_acquire);
    }
    return n;
  }
  const std::vector<Key>& written() const { return written_; }

 private:
  void Issue(PhaseRec* rec, DatacenterId dc, ClientId client, Key key,
             bool update, std::int64_t due) {
    DcRec* d = &rec->dc[dc];
    const std::uint64_t op_id = tracer_->on() ? tracer_->NextId() : 0;
    Tracer* tracer = tracer_;
    geo::rt::GeoNode& node = dep_->node(dc);
    ++issued_;
    ++rec->issued;
    ScopedSpan call(tracer_, "georep.client_call",
                    op_id != 0 ? tracer_->NextId() : 0, op_id);
    if (update) {
      ++updates_;
      ++rec->updates;
      written_.push_back(key);
      node.ClientUpdate(client, key, std::to_string(issued_),
                        [d, due, op_id, tracer] {
                          const std::int64_t now = NowNs();
                          d->update.Add(due, now - due);
                          if (op_id != 0) {
                            tracer->Add({"georep.op", op_id, 0, due, now});
                          }
                          d->done.fetch_add(1, std::memory_order_release);
                        });
    } else {
      node.ClientRead(client, key, [d, due, op_id, tracer] {
        const std::int64_t now = NowNs();
        d->read.Add(due, now - due);
        if (op_id != 0) {
          tracer->Add({"georep.op", op_id, 0, due, now});
        }
        d->done.fetch_add(1, std::memory_order_release);
      });
    }
  }

  Deployment* const dep_;
  Prober* const prober_;
  const std::uint64_t seed_;
  std::vector<std::unique_ptr<PhaseRec>>* const phases_;
  Tracer* const tracer_;
  std::uint64_t issued_ = 0;
  std::uint64_t updates_ = 0;
  std::vector<Key> written_;
};

std::uint64_t AppliedTotal(Deployment& dep) {
  std::uint64_t n = 0;
  for (DatacenterId d = 0; d < kDcs; ++d) {
    dep.node(d).RunBlocking(
        [&] { n += dep.node(d).runtime().receiver().applied_count(); });
  }
  return n;
}

// Waits until every op completed, every probe resolved and every update
// was applied at both remote DCs.
bool Drain(Deployment& dep, Generator& gen, Prober& prober, double timeout_s) {
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(timeout_s * 1e9);
  for (;;) {
    const bool done =
        gen.Done() == gen.issued() && prober.resolved() == prober.issued() &&
        AppliedTotal(dep) == (kDcs - 1) * (gen.updates() + prober.issued());
    if (done) return true;
    if (NowNs() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

RungStats ToRung(PhaseRec* rec, std::mutex& prober_mu) {
  RungStats r;
  r.target_kops = rec->target_kops;
  r.offered_kops = static_cast<double>(rec->issued) / rec->seconds / 1e3;
  std::uint64_t done = 0;
  for (DcRec& d : rec->dc) {
    done += d.done.load(std::memory_order_acquire);
    r.update.Append(d.update);
    r.read.Append(d.read);
  }
  r.completed_kops = static_cast<double>(done) / rec->seconds / 1e3;
  {
    std::lock_guard<std::mutex> lock(prober_mu);
    r.visible = rec->visible;
  }
  r.late = rec->late;
  r.backlog = rec->backlog;
  r.attempted = rec->issued;
  r.failed = rec->issued - std::min(rec->issued, done);
  return r;
}

// Replays the nominal schedule's updates through one EunomiaCore per DC
// (8 partitions each, 1 ms batches), unpaced.
void ReplayCore(std::uint64_t seed, double seconds, Checks* checks,
                Report* report) {
  Rng rng(MixSeed(seed, 2));
  const eunomia::store::ConsistentHashRing ring(kPartitionsPerDc);
  const double per_ns = kNominalKops * 1e-6;
  const auto end = static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::unique_ptr<eunomia::EunomiaCore>> cores;
  std::vector<std::vector<std::vector<OpRecord>>> batches(
      kDcs, std::vector<std::vector<OpRecord>>(kPartitionsPerDc));
  std::vector<std::vector<Timestamp>> last(kDcs,
                                           std::vector<Timestamp>(kPartitionsPerDc, 0));
  for (DatacenterId d = 0; d < kDcs; ++d) {
    cores.push_back(std::make_unique<eunomia::EunomiaCore>(kPartitionsPerDc));
  }
  std::vector<OpRecord> stable;
  std::int64_t add_ns = 0, process_ns = 0;
  std::uint64_t ops = 0, emitted = 0;
  double next = rng.ExpGapNs(per_ns);
  for (std::int64_t tick = 1'000'000; tick <= end + 1'000'000; tick += 1'000'000) {
    while (next < static_cast<double>(tick) && next < static_cast<double>(end)) {
      const auto dc = static_cast<DatacenterId>(rng.Below(kDcs));
      rng.Below(kClients);
      const Key key = rng.Below(kKeys);
      if (rng.Uniform01() <= kUpdateFrac) {
        const PartitionId p = ring.Responsible(key);
        const Timestamp ts =
            std::max(static_cast<Timestamp>(next), last[dc][p] + 1);
        last[dc][p] = ts;
        batches[dc][p].push_back(OpRecord{ts, p, key, 0});
      }
      next += rng.ExpGapNs(per_ns);
    }
    for (DatacenterId d = 0; d < kDcs; ++d) {
      for (PartitionId p = 0; p < kPartitionsPerDc; ++p) {
        auto& b = batches[d][p];
        const std::int64_t t0 = NowNs();
        if (b.empty()) {
          last[d][p] = std::max(last[d][p] + 1, static_cast<Timestamp>(tick - 1));
          cores[d]->Heartbeat(p, last[d][p]);
        } else {
          cores[d]->AddBatch(b);
          ops += b.size();
        }
        add_ns += NowNs() - t0;
        b.clear();
      }
      stable.clear();
      const std::int64_t t0 = NowNs();
      cores[d]->ProcessStable(&stable);
      process_ns += NowNs() - t0;
      emitted += stable.size();
    }
  }
  std::uint64_t pending = 0;
  for (auto& core : cores) pending += core->pending_ops();
  checks->Expect(emitted + pending == ops, "geo core replay lost ops");
  char note[64];
  std::snprintf(note, sizeof(note), "%llu update ops replayed",
                static_cast<unsigned long long>(ops));
  report->Add("eunomia.core.add_batch_ns_per_op",
              static_cast<double>(add_ns) / static_cast<double>(std::max<std::uint64_t>(ops, 1)),
              "ns", note);
  report->Add("eunomia.core.process_stable_ns_per_op",
              static_cast<double>(process_ns) /
                  static_cast<double>(std::max<std::uint64_t>(emitted, 1)),
              "ns", note);
}

eunomia::metrics::Histogram::Snapshot MergedVisibility(Deployment& dep) {
  eunomia::metrics::Histogram::Snapshot merged;
  merged.buckets.assign(eunomia::metrics::Histogram::kNumBuckets, 0);
  for (DatacenterId d = 0; d < kDcs; ++d) {
    dep.node(d).RunBlocking([&] {
      for (DatacenterId o = 0; o < kDcs; ++o) {
        const auto* h = dep.node(d).tracker().VisibilityHistogram(o, d);
        if (h == nullptr) continue;
        const auto s = h->Snap();
        merged.count += s.count;
        merged.sum += s.sum;
        for (std::size_t i = 0; i < s.buckets.size(); ++i) merged.buckets[i] += s.buckets[i];
      }
    });
  }
  return merged;
}

// Checks after the drain: every update applied at both remote DCs, no wire
// errors or send failures, and every written key equal across DCs.
void CheckDeployment(Deployment& dep, Generator& gen, Prober& prober,
                     Checks* checks) {
  const std::uint64_t expected = (kDcs - 1) * (gen.updates() + prober.issued());
  const std::uint64_t applied = AppliedTotal(dep);
  checks->Expect(applied == expected,
                 "remote applies " + std::to_string(applied) + " != " +
                     std::to_string(expected));
  for (DatacenterId d = 0; d < kDcs; ++d) {
    checks->Expect(dep.node(d).wire_errors() == 0, "geo wire_errors() != 0");
    checks->Expect(dep.node(d).send_failures() == 0, "geo send_failures() != 0");
  }
  std::vector<Key> keys = gen.written();
  const std::vector<Key> probe_keys = prober.keys();
  keys.insert(keys.end(), probe_keys.begin(), probe_keys.end());
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const eunomia::store::ConsistentHashRing ring(kPartitionsPerDc);
  std::vector<std::vector<std::string>> values(kDcs);
  for (DatacenterId d = 0; d < kDcs; ++d) {
    dep.node(d).RunBlocking([&] {
      values[d].reserve(keys.size());
      for (Key key : keys) {
        const auto* v = dep.node(d).runtime().StoreAt(ring.Responsible(key)).Get(key);
        values[d].push_back(v == nullptr ? std::string("<missing>") : v->value);
      }
    });
  }
  std::size_t diverged = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (values[0][i] != values[1][i] || values[0][i] != values[2][i] ||
        values[0][i] == "<missing>") {
      ++diverged;
    }
  }
  checks->Expect(diverged == 0, std::to_string(diverged) + " of " +
                                    std::to_string(keys.size()) +
                                    " written keys differ across DCs");
}

}  // namespace

bool RunGeo(const RunArgs& args, Checks* checks, Outcome* out) {
  std::printf(
      "# workload geo-3dc: %u GeoNodes, %u partitions/DC, batch=theta=rho=%llu "
      "us, epoll TCP on 127.0.0.1 (one transport per node), %.0f:%.0f "
      "read:update, uniform keys (%llu), %llu client ids, a probe every %lld us, "
      "nominal %.0f kops, limit visible_p99 <= %.0f ms\n",
      kDcs, kPartitionsPerDc, static_cast<unsigned long long>(kTimerUs),
      100 * (1 - kUpdateFrac), 100 * kUpdateFrac,
      static_cast<unsigned long long>(kKeys),
      static_cast<unsigned long long>(kClients),
      static_cast<long long>(kProbeEveryNs / 1000), kNominalKops, kLimitMs);
  Tracer tracer;
  GenBudget budget(args.nproc);
  auto phases = MakeRecords<PhaseRec>(kPhases);

  SpinCores(&budget, 2.0);
  std::unique_ptr<Deployment> dep;
  const int kSetups = 31;
  const SetupTimes setup = MedianSetup(
      kSetups, [&] { dep.reset(); },
      [&] {
        dep = std::make_unique<Deployment>();
        return dep->Start(/*loopback=*/false);
      });
  if (setup.wall_s < 0) {
    std::printf("set-up failed\n");
    return false;
  }

  Prober prober(dep.get(), &phases, &tracer);
  Generator gen(dep.get(), &prober, args.seed, &phases, &tracer);
  GenThread prober_thread(&budget, [&] { prober.Run(); });
  checks->Expect(prober_thread.ok(), "prober thread over the nproc budget");

  const double nominal_s = args.seconds * (args.trace ? 0.25 : 0.3);
  const double cost_s = args.seconds * 0.2;
  gen.RunPhase(1, 1, kNominalKops, std::min(0.5, args.seconds * 0.05), 1.0);
  checks->Expect(Drain(*dep, gen, prober, 10), "warm-up did not drain");

  const NominalPhase nominal_phase = RunNominal(
      1e6, [&] { gen.RunPhase(2, 2, kNominalKops, nominal_s, 1.0); },
      [&] {
        checks->Expect(Drain(*dep, gen, prober, 10), "nominal phase did not drain");
        return ToRung(phases[2].get(), prober.mu());
      });
  const RungStats& nominal = nominal_phase.stats;
  PrintRung("nominal", 0, nominal, KneeVerdict(nominal, kLimitMs));

  Report& rep = out->report;
  // The rate ladder for max_rate_kops; reported like svc's (see svc.cc).
  auto run_ladder = [&] {
    std::size_t next_rec = 4;
    RunLadder(
        Ladder{kNominalKops, 50}, kLadderStart, kLimitMs,
        [&](double rate_kops) -> std::optional<RungStats> {
          if (next_rec >= kCostRec) return std::nullopt;
          const std::size_t rec = next_rec++;
          gen.RunPhase(rec, 100 + rec, rate_kops, 3 * kRungWindowS, kRungWindowS);
          const bool drained = Drain(*dep, gen, prober, 10);
          RungStats r = ToRung(phases[rec].get(), prober.mu());
          r.drained = drained;
          return r;
        },
        /*in_json=*/args.trace, &rep);
  };
  if (!args.trace) {
    char note[96];
    std::snprintf(note, sizeof(note),
                  "process CPU, median of %d set-ups (wall median %.6g s)",
                  kSetups, setup.wall_s);
    rep.Add("setup_s", setup.cpu_s, "s", note);
    // Cost phase for cpu_us_per_op.
    gen.RunSaturated(kCostRec, 3, cost_s);
    checks->Expect(Drain(*dep, gen, prober, 10), "cost phase did not drain");
    std::printf("# cost phase: %llu ops outstanding at most, %.1f kops delivered\n",
                static_cast<unsigned long long>(kCostWindow),
                static_cast<double>(phases[kCostRec]->issued) / cost_s / 1e3);
    run_ladder();
    AddLatencies(&rep, nominal, nominal.read, /*traced=*/false);
    AddPeakRss(&rep, phases[2]->usage, /*traced=*/false);
    rep.Add("cpu_us_per_op", phases[kCostRec]->usage.MedianUsPerOp(), "us",
            "process CPU / ops in the saturated cost phase, median of 1-s intervals");
  } else {
    std::uint64_t dup0 = 0, applied0 = 0, dup1 = 0, applied1 = 0;
    auto counters = [&](std::uint64_t* dup, std::uint64_t* applied) {
      for (DatacenterId d = 0; d < kDcs; ++d) {
        dep->node(d).RunBlocking([&] {
          *dup += dep->node(d).runtime().payload_duplicates();
          *applied += dep->node(d).runtime().receiver().applied_count();
        });
      }
    };
    counters(&dup0, &applied0);
    const auto vis0 = MergedVisibility(*dep);
    tracer.Enable(true);
    prober.SetSampling(true);
    gen.RunPhase(3, 2, kNominalKops, nominal_s, 1.0);
    prober.SetSampling(false);
    tracer.Enable(false);
    checks->Expect(Drain(*dep, gen, prober, 10), "traced phase did not drain");
    counters(&dup1, &applied1);
    const auto vis1 = MergedVisibility(*dep);
    PhaseRec* traced = phases[3].get();
    const RungStats traced_rung = ToRung(traced, prober.mu());
    run_ladder();

    AddLatencies(&rep, nominal, nominal.read, /*traced=*/true);
    AddPeakRss(&rep, phases[2]->usage, /*traced=*/true);
    rep.AddPct("loadgen.late_p99_us", nominal.late.Pooled().Quantile(0.99), 1e3, "us");
    rep.Add("loadgen.offered_kops", nominal.offered_kops, "kops");
    for (const char* name :
         {"net.client.submit_call_p50_us", "net.client.submit_call_p99_us",
          "net.client.ack_rtt_p50_us", "net.client.ack_rtt_p99_us"}) {
      rep.Add(name, 0, "us", "no EunomiaClient on this workload");
    }
    rep.Add("net.client.inflight_ops_p99", 0, "count", "no EunomiaClient on this workload");
    rep.Add("net.server.backlog_ops_p99", 0, "count", "no EunomiaServer on this workload");
    rep.Add("net.wire.encode_ns_per_op", 0, "ns", "service codec not on this path");
    rep.Add("net.wire.decode_ns_per_op", 0, "ns", "service codec not on this path");
    rep.Add("eunomia.service.visible_p50_ms", 0, "ms", "no EunomiaService on this workload");
    rep.Add("eunomia.service.visible_p99_ms", 0, "ms", "no EunomiaService on this workload");
    rep.Add("eunomia.service.submit_call_p99_us", 0, "us", "no EunomiaService on this workload");
    ReplayCore(args.seed, std::min(nominal_s, 2.0), checks, &rep);
    for (const char* name : {"wal.append_call_p99_us", "wal.flush_call_p50_us",
                             "wal.flush_call_p99_us"}) {
      rep.Add(name, 0, "us", "no WAL on this workload");
    }
    rep.Add("wal.bytes_per_op", 0, "B", "no WAL on this workload");
    rep.Add("wal.ops_per_batch_written", 0, "count", "no WAL on this workload");
    {
      std::lock_guard<std::mutex> lock(prober.mu());
      rep.AddPct("georep.node.loop_rtt_p50_us", traced->loop_rtt.Quantile(0.5), 1e3, "us");
      rep.AddPct("georep.node.loop_rtt_p99_us", traced->loop_rtt.Quantile(0.99), 1e3, "us");
      rep.AddPct("georep.receiver.pending_p99", QuantileOf(traced->pending, 0.99), 1, "count");
      rep.AddPct("georep.receiver.buffered_payloads_p99",
                 QuantileOf(traced->buffered, 0.99), 1, "count");
      rep.AddPct("georep.stabilizer.stable_lag_p99_ms",
                 QuantileOf(traced->stable_lag_us, 0.99), 1e3, "ms");
      rep.AddPct("georep.stabilizer.pending_ops_p99",
                 QuantileOf(traced->stab_pending, 0.99), 1, "count");
    }
    rep.AddPct("georep.receiver.added_delay_p50_ms", HistPct(vis1, vis0, 0.5), 1e6, "ms");
    rep.AddPct("georep.receiver.added_delay_p99_ms", HistPct(vis1, vis0, 0.99), 1e6, "ms");
    rep.Add("georep.receiver.dup_ratio",
            applied1 > applied0 ? static_cast<double>(dup1 - dup0) /
                                      static_cast<double>(applied1 - applied0)
                                : 0,
            "frac", "payload_duplicates / applied_count");
    AddProcessAndOverhead(&rep, nominal_phase, traced_rung);
    FinishTrace(tracer, traced->issued,
                args.workdir + "/spans-" + args.workload + ".csv", checks);
  }

  checks->Expect(Drain(*dep, gen, prober, 20), "final drain did not complete");
  prober.Stop();
  prober_thread.Join();
  CheckDeployment(*dep, gen, prober, checks);
  out->attempted = gen.issued() + prober.issued();
  const std::uint64_t missing_ops = gen.issued() - std::min(gen.issued(), gen.Done());
  const std::uint64_t missing_probes =
      prober.issued() - std::min(prober.issued(), prober.resolved());
  out->failed = missing_ops + missing_probes;
  checks->Expect(budget.peak_threads() <= args.nproc &&
                     budget.peak_connections() <= args.nproc,
                 "generator exceeded nproc threads or connections");
  std::printf("# generator peak: %u threads, %u connections (cap %u)\n",
              budget.peak_threads(), budget.peak_connections(), budget.cap());
  dep.reset();

  if (args.trace) {
    // georep.loopback: the same nominal load over the in-process transport.
    auto lb_phases = MakeRecords<PhaseRec>(kPhases);
    Deployment lb;
    checks->Expect(lb.Start(/*loopback=*/true), "loopback deployment start");
    Prober lb_prober(&lb, &lb_phases, &tracer);
    Generator lb_gen(&lb, &lb_prober, args.seed, &lb_phases, &tracer);
    {
      GenThread t(&budget, [&] { lb_prober.Run(); });
      lb_gen.RunPhase(2, 2, kNominalKops, nominal_s, 1.0);
      checks->Expect(Drain(lb, lb_gen, lb_prober, 10), "loopback run did not drain");
      lb_prober.Stop();
    }
    CheckDeployment(lb, lb_gen, lb_prober, checks);
    std::lock_guard<std::mutex> lock(lb_prober.mu());
    rep.AddPct("georep.loopback.visible_p50_ms", lb_phases[2]->visible.Pooled().Quantile(0.5),
               1e6, "ms");
  }
  return true;
}

}  // namespace perfbench
