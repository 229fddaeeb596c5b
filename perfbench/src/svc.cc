// svc-uniform and svc-skew-wal: the eunomiad shape (16 partitions, the
// partition_run buffer, theta = 500 us, one shard per core) behind the epoll
// TCP transport on loopback, driven open-loop from this process.
//
// The main thread is the whole generator. Every 1 ms tick (the paper's
// partition batching interval) it sends, for each partition, the ops whose
// Poisson due time fell in the last interval as one SubmitBatch, or a
// Heartbeat when there were none. Partitions share 3 producer connections;
// one subscriber connection reads the stable stream. Each op carries its
// due time in OpRecord::tag and a dense per-partition sequence number in
// OpRecord::key, so the subscriber can time it from its due time and prove
// the stream emitted every op exactly once, in (ts, partition) order.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "svc.h"
#include "src/eunomia/core.h"
#include "src/eunomia/service.h"
#include "src/metrics/histogram.h"
#include "src/net/epoll_transport.h"
#include "src/net/eunomia_client.h"
#include "src/net/eunomia_server.h"
#include "src/net/wire.h"
#include "src/wal/disk.h"
#include "src/wal/log_writer.h"

namespace perfbench {
namespace svc {

RungStats ToRung(PhaseRec* rec) {
  RungStats r;
  std::lock_guard<std::mutex> lock(rec->mu);
  r.target_kops = rec->target_kops;
  r.offered_kops = static_cast<double>(rec->sent) / rec->seconds / 1e3;
  r.completed_kops = static_cast<double>(rec->received) / rec->seconds / 1e3;
  r.visible = rec->visible;
  r.update = rec->update;
  r.late = rec->late;
  r.backlog = rec->backlog;
  r.attempted = rec->sent;
  r.failed = rec->sent > rec->received ? rec->sent - rec->received : 0;
  return r;
}

}  // namespace svc

namespace {

using namespace svc;

using eunomia::OpRecord;
using eunomia::PartitionId;
using eunomia::Timestamp;
namespace net = eunomia::net;
namespace wal = eunomia::wal;
namespace wire = eunomia::net::wire;

struct SvcShape {
  double zipf_s = 0;  // 0: every partition offers the same rate
  bool wal = false;
  double nominal_kops = 0;
  double limit_ms = 0;
  int ladder_start = 0;
};

// Rates and limits are fixed per workload (see perfbench/README.md).
SvcShape ShapeFor(const std::string& workload) {
  SvcShape s;
  if (workload == "svc-skew-wal") {
    s.zipf_s = 2.0;
    s.wal = true;
    s.nominal_kops = 100;
    s.limit_ms = 25;
    s.ladder_start = 40;
  } else {
    s.nominal_kops = 1000;
    s.limit_ms = 10;
    s.ladder_start = 42;
  }
  return s;
}

// Share of the offered rate per partition. Zipf ranks are spread over the
// partitions with stride 5 (coprime to 16), so the hot partitions land on
// different shards the same way on every run.
std::vector<double> PartitionWeights(const SvcShape& shape) {
  std::vector<double> w(kPartitions, 1.0 / kPartitions);
  if (shape.zipf_s > 0) {
    double sum = 0;
    for (std::uint32_t r = 0; r < kPartitions; ++r) {
      sum += 1.0 / std::pow(r + 1, shape.zipf_s);
    }
    for (std::uint32_t r = 0; r < kPartitions; ++r) {
      w[(r * 5) % kPartitions] = 1.0 / std::pow(r + 1, shape.zipf_s) / sum;
    }
  }
  return w;
}

constexpr double kRungWindowS = 0.1;
// Phase records: 1 warm-up, 2 nominal, 3 traced nominal, 4.. ladder rungs.
constexpr std::size_t kPhaseRecs = 64;

unsigned NumShards(unsigned nproc) {
  return std::clamp<unsigned>(nproc, 1, kPartitions);
}

// The networked deployment: server + 3 producers + 1 subscriber.
class NetSystem final : public Target {
 public:
  NetSystem(GenBudget* budget, StreamChecker* checker,
            std::shared_ptr<eunomia::metrics::Histogram> ack_hist)
      : budget_(budget), checker_(checker), ack_hist_(std::move(ack_hist)) {}
  ~NetSystem() override { Teardown(); }

  bool Setup(const SvcShape& shape, unsigned nproc, const std::string& wal_dir) {
    if (shape.wal) {
      std::filesystem::create_directories(wal_dir);
      disk_ = std::make_unique<wal::PosixDisk>(wal_dir);
      if (!disk_->ok()) {
        return false;
      }
    }
    server_transport_ = std::make_unique<net::EpollTransport>();
    client_transport_ = std::make_unique<net::EpollTransport>();
    net::EunomiaServer::Options options;
    options.num_partitions = kPartitions;
    options.num_shards = NumShards(nproc);
    options.stable_period_us = kThetaUs;
    options.buffer_backend = eunomia::ordbuf::Backend::kPartitionRun;
    if (disk_ != nullptr) {
      options.durability.disk = disk_.get();
      options.durability.fsync = wal::FsyncPolicy::kInterval;
      options.durability.fsync_interval_us = kFsyncIntervalUs;
    }
    server_ = std::make_unique<net::EunomiaServer>(server_transport_.get(),
                                                   options);
    const std::string address = server_->Start("127.0.0.1:0");
    if (address.empty()) {
      return false;
    }
    for (std::uint32_t c = 0; c < kProducers; ++c) {
      if (!budget_->TakeConnection()) {
        return false;
      }
      ++connections_;
      net::EunomiaClient::Options co;
      co.ack_latency_us = ack_hist_;
      producers_.push_back(std::make_unique<net::EunomiaClient>(
          client_transport_.get(), address, co));
      if (!producers_.back()->Connect()) {
        return false;
      }
    }
    if (!budget_->TakeConnection()) {
      return false;
    }
    ++connections_;
    net::EunomiaClient::Options so;
    so.subscribe = true;
    StreamChecker* checker = checker_;
    so.on_stable = [checker](const std::vector<OpRecord>& ops) {
      checker->OnStable(ops);
    };
    subscriber_ = std::make_unique<net::EunomiaClient>(client_transport_.get(),
                                                       address, so);
    return subscriber_->Connect();
  }

  void Teardown() {
    for (auto& p : producers_) p->Close();
    if (subscriber_) subscriber_->Close();
    if (server_) server_->Stop();
    if (client_transport_) client_transport_->Shutdown();
    producers_.clear();
    subscriber_.reset();
    server_.reset();
    server_transport_.reset();
    client_transport_.reset();
    disk_.reset();
    budget_->ReleaseConnections(connections_);
    connections_ = 0;
  }

  std::vector<OpRecord> Acquire(PartitionId p) override {
    return producers_[p % kProducers]->AcquireBatchBuffer();
  }
  void Submit(PartitionId p, std::vector<OpRecord> batch) override {
    if (!producers_[p % kProducers]->SubmitBatch(p, std::move(batch))) {
      submit_failures_++;
    }
  }
  void Heartbeat(PartitionId p, Timestamp ts) override {
    if (!producers_[p % kProducers]->Heartbeat(p, ts)) {
      submit_failures_++;
    }
  }
  std::uint64_t Acked(std::uint32_t c) override {
    return producers_[c]->ops_acked();
  }
  double Backlog() override {
    return static_cast<double>(server_->ops_submitted_remote()) -
           static_cast<double>(server_->ops_stabilized());
  }
  double Inflight() override {
    double sum = 0;
    for (auto& p : producers_) {
      sum += static_cast<double>(p->ops_submitted()) -
             static_cast<double>(p->ops_acked());
    }
    return sum;
  }

  void Check(Checks* checks) const {
    checks->Expect(!subscriber_->stream_broken(), "subscriber stream_broken()");
    checks->Expect(!subscriber_->disconnected(), "subscriber disconnected");
    for (const auto& p : producers_) {
      checks->Expect(!p->disconnected(), "producer disconnected");
    }
    checks->Expect(submit_failures_ == 0, "SubmitBatch/Heartbeat failed");
  }

 private:
  GenBudget* const budget_;
  StreamChecker* const checker_;
  std::shared_ptr<eunomia::metrics::Histogram> ack_hist_;
  unsigned connections_ = 0;
  std::uint64_t submit_failures_ = 0;
  std::unique_ptr<wal::PosixDisk> disk_;
  std::unique_ptr<net::EpollTransport> server_transport_;
  std::unique_ptr<net::EpollTransport> client_transport_;
  std::unique_ptr<net::EunomiaServer> server_;
  std::vector<std::unique_ptr<net::EunomiaClient>> producers_;
  std::unique_ptr<net::EunomiaClient> subscriber_;
};

// The same service in-process (the eunomia.service peel): no wire, no
// sockets. Its sink is the same StreamChecker.
class InprocSystem final : public Target {
 public:
  InprocSystem(const SvcShape& shape, unsigned nproc, StreamChecker* checker,
               wal::Disk* disk) {
    eunomia::EunomiaService::Options options;
    options.num_partitions = kPartitions;
    options.num_shards = NumShards(nproc);
    options.stable_period_us = kThetaUs;
    options.sink = [checker](const std::vector<OpRecord>& ops) {
      checker->OnStable(ops);
    };
    if (shape.wal) {
      options.durability.disk = disk;
      options.durability.fsync = wal::FsyncPolicy::kInterval;
      options.durability.fsync_interval_us = kFsyncIntervalUs;
    }
    service_ = std::make_unique<eunomia::EunomiaService>(std::move(options));
    service_->Start();
  }
  ~InprocSystem() override { service_->Stop(); }

  std::vector<OpRecord> Acquire(PartitionId) override {
    return service_->AcquireBatchBuffer();
  }
  void Submit(PartitionId p, std::vector<OpRecord> batch) override {
    service_->SubmitBatch(p, std::move(batch));
  }
  void Heartbeat(PartitionId p, Timestamp ts) override {
    service_->Heartbeat(p, ts);
  }
  std::uint64_t Acked(std::uint32_t) override { return ~0ULL; }
  double Backlog() override {
    return static_cast<double>(service_->ops_submitted()) -
           static_cast<double>(service_->ops_stabilized());
  }
  double Inflight() override { return 0; }

 private:
  std::unique_ptr<eunomia::EunomiaService> service_;
};

// Replays the nominal schedule through the wire codec and a single
// EunomiaCore, unpaced, and reports per-op costs. Checks that decoding
// round-trips and that the core emits every op once, in order.
void ReplayCoreAndWire(const std::vector<double>& weights, std::uint64_t seed,
                       std::uint64_t schedule_id, double rate_kops,
                       double schedule_s, Checks* checks, Report* report) {
  const std::int64_t start = kTickNs;
  const std::int64_t end = start + static_cast<std::int64_t>(schedule_s * 1e9);
  Schedule schedule(seed, schedule_id, weights, rate_kops, start, end);
  eunomia::EunomiaCore core(kPartitions);
  std::vector<Timestamp> last_ts(kPartitions, 0);
  std::vector<std::uint64_t> key(kPartitions, 0);
  std::vector<OpRecord> batch;
  std::vector<OpRecord> stable;
  wire::SubmitBatchMsg submit_msg;
  wire::StableBatchMsg stable_msg;
  std::int64_t add_ns = 0, process_ns = 0, enc_ns = 0, dec_ns = 0;
  std::uint64_t ops = 0, emitted = 0, wire_ops = 0, stream_seq = 0;
  eunomia::OpOrderKey last{0, 0};
  for (std::int64_t tick = start + kTickNs; tick <= end + kTickNs; tick += kTickNs) {
    for (PartitionId p = 0; p < kPartitions; ++p) {
      batch.clear();
      schedule.Take(p, tick, [&](std::int64_t due) {
        const Timestamp ts =
            std::max(static_cast<Timestamp>(due), last_ts[p] + 1);
        last_ts[p] = ts;
        batch.push_back(OpRecord{ts, p, key[p]++, static_cast<std::uint64_t>(due)});
      });
      std::int64_t t0 = NowNs();
      if (batch.empty()) {
        last_ts[p] = std::max(last_ts[p] + 1, static_cast<Timestamp>(tick - 1));
        core.Heartbeat(p, last_ts[p]);
        add_ns += NowNs() - t0;
        continue;
      }
      core.AddBatch(batch);
      add_ns += NowNs() - t0;
      ops += batch.size();
      t0 = NowNs();
      std::string frame = wire::EncodeSubmitBatchFrame(p, batch.data(), batch.size());
      wire::FinalizeFrameHeader(wire::MsgType::kSubmitBatch, 0, &frame);
      const std::int64_t t1 = NowNs();
      const bool ok = wire::DecodeSubmitBatch(
          std::string_view(frame).substr(wire::kHeaderBytes), &submit_msg);
      dec_ns += NowNs() - t1;
      enc_ns += t1 - t0;
      wire_ops += batch.size();
      checks->Expect(ok && submit_msg.ops == batch, "wire submit round-trip");
    }
    stable.clear();
    const std::int64_t t0 = NowNs();
    core.ProcessStable(&stable);
    process_ns += NowNs() - t0;
    if (stable.empty()) continue;
    for (const OpRecord& op : stable) {
      checks->Expect(last < eunomia::OrderKeyOf(op), "core replay order");
      last = eunomia::OrderKeyOf(op);
    }
    emitted += stable.size();
    const std::int64_t t1 = NowNs();
    std::string frame =
        wire::EncodeStableBatchFrame(stream_seq++, stable.data(), stable.size());
    wire::FinalizeFrameHeader(wire::MsgType::kStableBatch, stream_seq, &frame);
    const std::int64_t t2 = NowNs();
    const bool ok = wire::DecodeStableBatch(
        std::string_view(frame).substr(wire::kHeaderBytes), &stable_msg);
    dec_ns += NowNs() - t2;
    enc_ns += t2 - t1;
    wire_ops += stable.size();
    checks->Expect(ok && stable_msg.ops == stable, "wire stable round-trip");
  }
  // The final heartbeat round leaves only ops at the very frontier unstable.
  checks->Expect(emitted + core.pending_ops() == ops, "core replay lost ops");
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  const double wn = static_cast<double>(std::max<std::uint64_t>(wire_ops, 1));
  char note[64];
  std::snprintf(note, sizeof(note), "%llu ops replayed",
                static_cast<unsigned long long>(ops));
  report->Add("net.wire.encode_ns_per_op", static_cast<double>(enc_ns) / wn, "ns", note);
  report->Add("net.wire.decode_ns_per_op", static_cast<double>(dec_ns) / wn, "ns", note);
  report->Add("eunomia.core.add_batch_ns_per_op", static_cast<double>(add_ns) / n, "ns", note);
  report->Add("eunomia.core.process_stable_ns_per_op",
              static_cast<double>(process_ns) / static_cast<double>(std::max<std::uint64_t>(emitted, 1)),
              "ns", note);
}

// Calls LogWriter the way ServiceWal does (one inline kInterval writer per
// partition, a flush of every log each fsync interval) with the nominal
// schedule's encoded batches, paced in real time.
void ReplayWal(const std::vector<double>& weights, std::uint64_t seed,
               std::uint64_t schedule_id, double rate_kops, double seconds,
               const std::string& dir, Checks* checks, Report* report) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  wal::PosixDisk disk(dir);
  checks->Expect(disk.ok(), "wal peel: open data dir");
  wal::LogWriter::Options wo;
  wo.policy = wal::FsyncPolicy::kInterval;
  wo.interval_us = kFsyncIntervalUs;
  wo.threaded = false;
  std::vector<std::unique_ptr<wal::LogWriter>> logs;
  for (PartitionId p = 0; p < kPartitions; ++p) {
    logs.push_back(std::make_unique<wal::LogWriter>(
        &disk, "peel-log-p" + std::to_string(p), wo));
  }
  const std::int64_t start = NowNs() + kTickNs;
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  Schedule schedule(seed, schedule_id, weights, rate_kops, start, end);
  std::vector<Timestamp> last_ts(kPartitions, 0);
  std::vector<OpRecord> batch;
  Samples append_call, flush_call;
  std::uint64_t ops = 0;
  bool ok = true;
  int tick_no = 0;
  for (std::int64_t tick = start + kTickNs; tick <= end + kTickNs;
       tick += kTickNs, ++tick_no) {
    SleepUntilNs(tick);
    for (PartitionId p = 0; p < kPartitions; ++p) {
      batch.clear();
      schedule.Take(p, tick, [&](std::int64_t due) {
        const Timestamp ts = std::max(static_cast<Timestamp>(due), last_ts[p] + 1);
        last_ts[p] = ts;
        batch.push_back(OpRecord{ts, p, 0, static_cast<std::uint64_t>(due)});
      });
      std::string payload;
      std::uint8_t type = 1;  // batch record
      if (batch.empty()) {
        type = 2;  // heartbeat record
        payload = wire::EncodeHeartbeat({p, static_cast<Timestamp>(tick)});
      } else {
        payload = wire::EncodeSubmitBatch(p, batch);
        ops += batch.size();
      }
      const std::int64_t t0 = NowNs();
      ok = logs[p]->Append(type, payload) && ok;
      append_call.Add(NowNs() - t0);
    }
    if (tick_no % static_cast<int>(kFsyncIntervalUs / 1000) == 0) {
      for (auto& log : logs) {
        const std::int64_t t0 = NowNs();
        ok = log->Flush() && ok;
        flush_call.Add(NowNs() - t0);
      }
    }
  }
  std::uint64_t bytes = 0, writes = 0;
  for (auto& log : logs) {
    ok = log->Flush() && ok;
    bytes += log->bytes_appended();
    writes += log->batches_written();
  }
  checks->Expect(ok, "wal peel: append/flush failed");
  logs.clear();
  std::filesystem::remove_all(dir);
  report->AddPct("wal.append_call_p99_us", append_call.Quantile(0.99), 1e3, "us");
  report->AddPct("wal.flush_call_p50_us", flush_call.Quantile(0.50), 1e3, "us");
  report->AddPct("wal.flush_call_p99_us", flush_call.Quantile(0.99), 1e3, "us");
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  report->Add("wal.bytes_per_op", static_cast<double>(bytes) / n, "B");
  report->Add("wal.ops_per_batch_written",
              static_cast<double>(ops) /
                  static_cast<double>(std::max<std::uint64_t>(writes, 1)),
              "count");
}

}  // namespace

bool RunSvc(const RunArgs& args, Checks* checks, Outcome* out) {
  const SvcShape shape = ShapeFor(args.workload);
  const std::vector<double> weights = PartitionWeights(shape);
  std::printf(
      "# workload %s: %u partitions, %u shards, %u producer connections + 1 "
      "subscriber, epoll TCP on 127.0.0.1, partition_run buffer, theta %llu "
      "us, batch %lld us, %s rates%s, nominal %.0f kops, limit visible_p99 <= "
      "%.0f ms\n",
      args.workload.c_str(), kPartitions, NumShards(args.nproc), kProducers,
      static_cast<unsigned long long>(kThetaUs),
      static_cast<long long>(kTickNs / 1000),
      shape.zipf_s > 0 ? ("Zipf s=" + std::to_string(shape.zipf_s)).c_str()
                       : "uniform",
      shape.wal ? ", per-partition WAL fsync=interval 5 ms" : "",
      shape.nominal_kops, shape.limit_ms);

  Tracer tracer;
  GenBudget budget(args.nproc);
  const std::int64_t epoch = NowNs();
  Phases phases = MakeRecords<PhaseRec>(kPhaseRecs);
  StreamChecker checker(epoch, &phases, checks, &tracer);
  auto ack_hist = std::make_shared<eunomia::metrics::Histogram>(
      "perfbench_ack_rtt_us", "batch ack round trip");

  // Set-up: median of several full set-ups; the last one is kept.
  const std::string wal_root = args.workdir + "/wal";
  SpinCores(&budget, 2.0);
  std::unique_ptr<NetSystem> sys;
  const int kSetups = 31;
  int setup_no = 0;
  const SetupTimes setup = MedianSetup(
      kSetups, [&] { sys.reset(); },
      [&] {
        const std::string dir = wal_root + "/setup" + std::to_string(setup_no++);
        std::filesystem::remove_all(dir);
        sys = std::make_unique<NetSystem>(&budget, &checker, ack_hist);
        return sys->Setup(shape, args.nproc, dir);
      });
  if (setup.wall_s < 0) {
    std::printf("set-up failed\n");
    return false;
  }

  TickGenerator gen(weights, args.seed, epoch, sys.get(), &checker, &phases,
                &tracer);
  const double nominal_s = args.seconds * (args.trace ? 0.25 : 0.3);
  gen.RunPhase(1, 1, shape.nominal_kops, std::min(0.5, args.seconds * 0.05), 1.0);
  checks->Expect(gen.Drain(10), "warm-up did not drain");

  const NominalPhase nominal_phase = RunNominal(
      static_cast<double>(kTickNs),
      [&] { gen.RunPhase(2, 2, shape.nominal_kops, nominal_s, 1.0); },
      [&] {
        checks->Expect(gen.Drain(10), "nominal phase did not drain");
        return ToRung(phases[2].get());
      });
  const RungStats& nominal = nominal_phase.stats;
  PrintRung("nominal", 0, nominal, KneeVerdict(nominal, shape.limit_ms));

  Report& rep = out->report;
  // The rate ladder for max_rate_kops. Its run-to-run spread on a shared
  // host is wider than any bound BENCHMARK.json may set, so that file lists
  // it as a per-layer metric: the traced run reports it and an untraced run
  // prints it.
  auto run_ladder = [&] {
    std::size_t next_rec = 4;
    RunLadder(
        Ladder{shape.nominal_kops, shape.ladder_start + 32}, shape.ladder_start,
        shape.limit_ms,
        [&](double rate_kops) -> std::optional<RungStats> {
          if (next_rec >= kPhaseRecs) return std::nullopt;
          const std::size_t rec = next_rec++;
          gen.RunPhase(rec, 100 + rec, rate_kops, 8 * kRungWindowS, kRungWindowS);
          const bool drained = gen.Drain(10);
          RungStats r = ToRung(phases[rec].get());
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
    run_ladder();
    // The service has no point reads: its one read path is the stable-
    // stream subscription, so read_* is the subscriber's due -> receive.
    AddLatencies(&rep, nominal, nominal.visible, /*traced=*/false);
    AddPeakRss(&rep, phases[2]->usage, /*traced=*/false);
    rep.Add("cpu_us_per_op", phases[2]->usage.MedianUsPerOp(), "us",
            "process CPU / ops, median of 1-s intervals");
  } else {
    // Traced nominal phase: same load, spans on.
    const auto ack0 = ack_hist->Snap();
    tracer.Enable(true);
    gen.RunPhase(3, 2, shape.nominal_kops, nominal_s, 1.0);
    tracer.Enable(false);
    checks->Expect(gen.Drain(10), "traced phase did not drain");
    const auto ack1 = ack_hist->Snap();
    PhaseRec* traced = phases[3].get();
    const RungStats traced_rung = ToRung(traced);
    run_ladder();

    AddLatencies(&rep, nominal, nominal.visible, /*traced=*/true);
    AddPeakRss(&rep, phases[2]->usage, /*traced=*/true);
    rep.AddPct("loadgen.late_p99_us", nominal.late.Pooled().Quantile(0.99), 1e3, "us");
    rep.Add("loadgen.offered_kops", nominal.offered_kops, "kops");
    rep.AddPct("net.client.submit_call_p50_us", traced->submit_call.Quantile(0.5), 1e3, "us");
    rep.AddPct("net.client.submit_call_p99_us", traced->submit_call.Quantile(0.99), 1e3, "us");
    rep.AddPct("net.client.ack_rtt_p50_us", HistPct(ack1, ack0, 0.5), 1e3, "us");
    rep.AddPct("net.client.ack_rtt_p99_us", HistPct(ack1, ack0, 0.99), 1e3, "us");
    rep.AddPct("net.client.inflight_ops_p99", QuantileOf(traced->inflight, 0.99), 1, "count");
    rep.AddPct("net.server.backlog_ops_p99", QuantileOf(traced->backlog, 0.99), 1, "count");
    AddProcessAndOverhead(&rep, nominal_phase, traced_rung);
    FinishTrace(tracer, traced->sent,
                args.workdir + "/spans-" + args.workload + ".csv", checks);
  }

  // Output checks on the networked run.
  checks->Expect(gen.Drain(20), "final drain: ops never became visible");
  sys->Check(checks);
  for (PartitionId p = 0; p < kPartitions; ++p) {
    checks->Expect(checker.emitted(p) == gen.sent_on(p),
                   "partition " + std::to_string(p) + " emitted " +
                       std::to_string(checker.emitted(p)) + " of " +
                       std::to_string(gen.sent_on(p)));
  }
  out->attempted = gen.sent();
  const std::uint64_t visible = std::min(checker.received(), gen.sent());
  const std::uint64_t acked = gen.acked();
  out->failed = std::max(gen.sent() - visible, gen.sent() - acked);
  checks->Expect(budget.peak_threads() <= args.nproc &&
                     budget.peak_connections() <= args.nproc,
                 "generator exceeded nproc threads or connections");
  std::printf("# generator peak: %u threads, %u connections (cap %u)\n",
              budget.peak_threads(), budget.peak_connections(), budget.cap());
  sys.reset();
  std::filesystem::remove_all(wal_root);

  if (args.trace) {
    // eunomia.service peel: the nominal schedule into an in-process service.
    {
      Phases peel_phases = MakeRecords<PhaseRec>(4);
      StreamChecker peel_checker(epoch, &peel_phases, checks, &tracer);
      std::unique_ptr<wal::PosixDisk> disk;
      const std::string dir = args.workdir + "/wal-peel-service";
      if (shape.wal) {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        disk = std::make_unique<wal::PosixDisk>(dir);
      }
      {
        InprocSystem inproc(shape, args.nproc, &peel_checker, disk.get());
        TickGenerator peel(weights, args.seed, epoch, &inproc, &peel_checker,
                    &peel_phases, &tracer);
        peel.RunPhase(1, 1, shape.nominal_kops, std::min(0.5, args.seconds * 0.05), 1.0);
        checks->Expect(peel.Drain(10), "service peel warm-up did not drain");
        peel.RunPhase(2, 2, shape.nominal_kops, nominal_s, 1.0);
        checks->Expect(peel.Drain(10), "service peel did not drain");
        for (PartitionId p = 0; p < kPartitions; ++p) {
          checks->Expect(peel_checker.emitted(p) == peel.sent_on(p),
                         "service peel lost ops");
        }
      }
      disk.reset();
      std::filesystem::remove_all(dir);
      PhaseRec* rec = peel_phases[2].get();
      rep.AddPct("eunomia.service.visible_p50_ms", rec->visible.Pooled().Quantile(0.5), 1e6, "ms");
      rep.AddPct("eunomia.service.visible_p99_ms", rec->visible.MedianOfWindows(0.99), 1e6, "ms");
      rep.AddPct("eunomia.service.submit_call_p99_us", rec->submit_call.Quantile(0.99), 1e3, "us");
    }
    ReplayCoreAndWire(weights, args.seed, 2, shape.nominal_kops,
                      std::min(nominal_s, 2.0), checks, &rep);
    ReplayWal(weights, args.seed, 2, shape.nominal_kops, std::min(nominal_s, 1.0),
              args.workdir + "/wal-peel-log", checks, &rep);
    for (const char* name :
         {"georep.node.loop_rtt_p50_us", "georep.node.loop_rtt_p99_us"}) {
      rep.Add(name, 0, "us", "no geo node on this workload");
    }
    for (const char* name :
         {"georep.receiver.added_delay_p50_ms", "georep.receiver.added_delay_p99_ms",
          "georep.stabilizer.stable_lag_p99_ms", "georep.loopback.visible_p50_ms"}) {
      rep.Add(name, 0, "ms", "no geo node on this workload");
    }
    for (const char* name :
         {"georep.receiver.pending_p99", "georep.receiver.buffered_payloads_p99",
          "georep.stabilizer.pending_ops_p99"}) {
      rep.Add(name, 0, "count", "no geo node on this workload");
    }
    rep.Add("georep.receiver.dup_ratio", 0, "frac", "no geo node on this workload");
  }
  return true;
}

}  // namespace perfbench
