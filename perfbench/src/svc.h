// Internals of the service workloads shared with the self-tests: the
// open-loop TickGenerator, the stable-stream checker, and the Target seam
// the generator submits through.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "src/eunomia/op.h"

namespace perfbench::svc {

using eunomia::OpRecord;
using eunomia::PartitionId;
using eunomia::Timestamp;

constexpr std::uint32_t kPartitions = 16;
constexpr std::uint32_t kProducers = 3;
constexpr std::int64_t kTickNs = 1'000'000;  // partition batching interval
constexpr std::uint64_t kThetaUs = 500;
constexpr std::uint64_t kFsyncIntervalUs = 5'000;  // ServiceDurability default
// The latency of every 32nd op of each partition (by sequence number) is
// recorded: at 1M ops/s that still leaves 31k samples a second, and it
// keeps the samples' memory out of peak_rss_mb.
constexpr std::uint64_t kSampleEvery = 32;
constexpr int kPhaseShift = 48;
constexpr std::uint64_t kDueMask = (1ULL << kPhaseShift) - 1;

// Per-phase measurements. visible/received are written by the stable
// stream's delivery thread under mu; the rest by the generator thread.
struct PhaseRec {
  std::mutex mu;
  Windowed visible;
  std::uint64_t received = 0;
  Windowed update;
  Windowed late;
  Samples submit_call;
  std::vector<double> backlog;
  std::vector<double> inflight;
  UsageMarks usage;
  std::uint64_t sent = 0;
  double seconds = 0;
  double target_kops = 0;
};

using Phases = std::vector<std::unique_ptr<PhaseRec>>;

// Consumer of the stable stream: records due -> visible and checks the
// stream is dense per partition and ordered by (ts, partition).
class StreamChecker {
 public:
  StreamChecker(std::int64_t epoch, Phases* phases, Checks* checks,
                Tracer* tracer)
      : epoch_(epoch), phases_(phases), checks_(checks), tracer_(tracer),
        next_key_(kPartitions, 0) {}

  void OnStable(const std::vector<OpRecord>& ops) {
    const std::int64_t now = NowNs();
    ScopedSpan span(tracer_, "loadgen.check",
                    tracer_->on() ? tracer_->NextId() : 0, 0);
    PhaseRec* rec = nullptr;
    std::uint64_t rec_phase = ~0ULL;
    std::unique_lock<std::mutex> lock;
    for (const OpRecord& op : ops) {
      const eunomia::OpOrderKey key = eunomia::OrderKeyOf(op);
      if (any_ && !(last_ < key)) {
        checks_->Fail("stable stream out of (ts, partition) order");
      }
      any_ = true;
      last_ = key;
      if (op.partition >= kPartitions || op.key != next_key_[op.partition]) {
        checks_->Fail("stable stream not dense: partition " +
                      std::to_string(op.partition) + " emitted seq " +
                      std::to_string(op.key));
      } else {
        ++next_key_[op.partition];
      }
      const std::uint64_t phase = op.tag >> kPhaseShift;
      if (phase != rec_phase) {
        if (phase >= phases_->size()) {
          checks_->Fail("stable op with unknown phase");
          continue;
        }
        rec_phase = phase;
        rec = (*phases_)[phase].get();
        lock = std::unique_lock<std::mutex>(rec->mu);
      }
      if (op.key % kSampleEvery == 0) {
        const std::int64_t due =
            epoch_ + static_cast<std::int64_t>(op.tag & kDueMask);
        rec->visible.Add(due, now - due);
      }
      ++rec->received;
    }
    received_.fetch_add(ops.size(), std::memory_order_release);
  }

  std::uint64_t received() const {
    return received_.load(std::memory_order_acquire);
  }
  // Ops emitted per partition so far (the next expected sequence number).
  std::uint64_t emitted(PartitionId p) const { return next_key_[p]; }

 private:
  const std::int64_t epoch_;
  Phases* const phases_;
  Checks* const checks_;
  Tracer* const tracer_;
  bool any_ = false;
  eunomia::OpOrderKey last_{0, 0};
  std::vector<std::uint64_t> next_key_;
  std::atomic<std::uint64_t> received_{0};
};

// Where the generator's batches go: the networked service or, for the
// peel, an in-process EunomiaService.
class Target {
 public:
  virtual ~Target() = default;
  virtual std::vector<OpRecord> Acquire(PartitionId p) = 0;
  virtual void Submit(PartitionId p, std::vector<OpRecord> batch) = 0;
  virtual void Heartbeat(PartitionId p, Timestamp ts) = 0;
  // Ops acknowledged so far on producer connection c.
  virtual std::uint64_t Acked(std::uint32_t c) = 0;
  virtual double Backlog() = 0;
  virtual double Inflight() = 0;
};

// Per-partition Poisson arrivals of one phase. `schedule_id` names the
// random streams, so a peel can replay exactly the ops a phase offered.
class Schedule {
 public:
  Schedule() = default;
  Schedule(std::uint64_t seed, std::uint64_t schedule_id,
           const std::vector<double>& weights, double rate_kops,
           std::int64_t start_ns, std::int64_t end_ns)
      : end_ns_(end_ns) {
    for (std::uint32_t p = 0; p < weights.size(); ++p) {
      Stream s{Rng(MixSeed(seed, schedule_id * 64 + p)),
               rate_kops * weights[p] * 1e-6, 0};
      s.next = static_cast<double>(start_ns) +
               (s.per_ns > 0 ? s.rng.ExpGapNs(s.per_ns) : 1e30);
      streams_.push_back(s);
    }
  }
  // Calls emit(due_ns) for each op of partition p due before `until`.
  template <typename F>
  void Take(PartitionId p, std::int64_t until, F&& emit) {
    if (streams_.empty()) return;
    Stream& s = streams_[p];
    const double limit = static_cast<double>(std::min(until, end_ns_));
    while (s.next < limit) {
      emit(static_cast<std::int64_t>(s.next));
      s.next += s.rng.ExpGapNs(s.per_ns);
    }
  }

 private:
  struct Stream {
    Rng rng;
    double per_ns;
    double next;
  };
  std::int64_t end_ns_ = 0;
  std::vector<Stream> streams_;
};

// The open-loop generator: one tick per batching interval.
class TickGenerator {
 public:
  TickGenerator(const std::vector<double>& weights, std::uint64_t seed,
         std::int64_t epoch, Target* target, StreamChecker* checker,
         Phases* phases, Tracer* tracer)
      : weights_(weights), seed_(seed), epoch_(epoch), target_(target),
        checker_(checker), phases_(phases), tracer_(tracer),
        last_ts_(kPartitions, 0), key_(kPartitions, 0), acks_(kProducers),
        sent_by_producer_(kProducers, 0) {
    next_tick_ = NowNs() + kTickNs;
  }

  // Offers `rate_kops` for `seconds`, recording into phase `rec_index`
  // with latency windows of `window_s`.
  void RunPhase(std::size_t rec_index, std::uint64_t schedule_id,
                double rate_kops, double seconds, double window_s) {
    PhaseRec* rec = (*phases_)[rec_index].get();
    rec->target_kops = rate_kops;
    rec->seconds = seconds;
    const std::int64_t start = next_tick_;
    const std::int64_t end =
        start + static_cast<std::int64_t>(seconds * 1e9);
    {
      std::lock_guard<std::mutex> lock(rec->mu);
      rec->visible.Start(start, seconds, window_s);
      rec->update.Start(start, seconds, window_s);
      rec->late.Start(start, seconds, window_s);
    }
    schedule_ = Schedule(seed_, schedule_id, weights_, rate_kops, start, end);
    rec_ = rec;
    phase_tag_ = static_cast<std::uint64_t>(rec_index) << kPhaseShift;
    rec->usage.Mark(rec->sent);
    std::int64_t next_mark = start + 1'000'000'000;
    while (next_tick_ <= end) {
      if (next_tick_ >= next_mark && next_tick_ < end) {
        rec->usage.Mark(rec->sent);
        next_mark += 1'000'000'000;
      }
      Tick();
    }
    rec->usage.Mark(rec->sent);
    schedule_ = Schedule();
  }

  // Idle ticks (heartbeats only) until every sent op was emitted and
  // acknowledged, or the timeout passed.
  bool Drain(double timeout_s) {
    rec_ = nullptr;
    const std::int64_t deadline =
        NowNs() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (NowNs() < deadline) {
      if (checker_->received() >= sent_ && AllAcked()) {
        return true;
      }
      Tick();
    }
    return checker_->received() >= sent_ && AllAcked();
  }

  std::uint64_t sent() const { return sent_; }
  std::uint64_t acked() const {
    std::uint64_t n = 0;
    for (std::uint32_t c = 0; c < kProducers; ++c) {
      n += std::min(target_->Acked(c), sent_by_producer_[c]);
    }
    return n;
  }
  std::uint64_t sent_on(PartitionId p) const { return key_[p]; }

 private:
  struct PendingAck {
    std::uint64_t cum;  // 1-based op index on its producer connection
    std::int64_t due;
    PhaseRec* rec;
  };

  bool AllAcked() {
    for (std::uint32_t c = 0; c < kProducers; ++c) {
      if (target_->Acked(c) < sent_by_producer_[c]) return false;
    }
    return true;
  }

  void PollAcks(std::int64_t now) {
    for (std::uint32_t c = 0; c < kProducers; ++c) {
      auto& q = acks_[c];
      if (q.empty()) continue;
      const std::uint64_t acked = target_->Acked(c);
      while (!q.empty() && q.front().cum <= acked) {
        q.front().rec->update.Add(q.front().due, now - q.front().due);
        q.pop_front();
      }
    }
  }

  // Waits for the tick's due time, polling acks every 50 us meanwhile.
  void WaitFor(std::int64_t due) {
    for (;;) {
      const std::int64_t now = NowNs();
      PollAcks(now);
      if (now >= due) return;
      SleepUntilNs(std::min(due, now + 50'000));
    }
  }

  void Tick() {
    const std::int64_t due = next_tick_;
    next_tick_ += kTickNs;
    WaitFor(due);
    PhaseRec* rec = rec_;
    if (rec != nullptr) {
      rec->late.Add(due, NowNs() - due);
    }
    const std::uint64_t tick_id = tracer_->on() ? tracer_->NextId() : 0;
    ScopedSpan tick_span(tracer_, "loadgen.tick", tick_id, 0);
    for (PartitionId p = 0; p < kPartitions; ++p) {
      std::vector<OpRecord> batch = target_->Acquire(p);
      const std::uint32_t c = p % kProducers;
      schedule_.Take(p, due, [&](std::int64_t op_due) {
        const Timestamp rel = static_cast<Timestamp>(op_due - epoch_);
        const Timestamp ts = std::max(rel, last_ts_[p] + 1);
        last_ts_[p] = ts;
        ++sent_by_producer_[c];
        if (key_[p] % kSampleEvery == 0) {
          acks_[c].push_back({sent_by_producer_[c], op_due, rec});
        }
        batch.push_back(OpRecord{ts, p, key_[p]++, phase_tag_ | rel});
      });
      if (batch.empty()) {
        const Timestamp hb = std::max(
            last_ts_[p] + 1, static_cast<Timestamp>(due - epoch_ - 1));
        last_ts_[p] = hb;
        ScopedSpan span(tracer_, "net.client.heartbeat",
                        tick_id != 0 ? tracer_->NextId() : 0, tick_id);
        target_->Heartbeat(p, hb);
        continue;
      }
      const std::size_t n = batch.size();
      sent_ += n;
      rec->sent += n;
      const std::int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer_, "net.client.submit",
                        tick_id != 0 ? tracer_->NextId() : 0, tick_id);
        target_->Submit(p, std::move(batch));
      }
      rec->submit_call.Add(NowNs() - t0);
    }
    if (rec != nullptr) {
      rec->backlog.push_back(target_->Backlog());
      rec->inflight.push_back(target_->Inflight());
    }
  }

  const std::vector<double> weights_;
  const std::uint64_t seed_;
  const std::int64_t epoch_;
  Target* const target_;
  StreamChecker* const checker_;
  Phases* const phases_;
  Tracer* const tracer_;
  std::int64_t next_tick_ = 0;
  Schedule schedule_;
  PhaseRec* rec_ = nullptr;
  std::uint64_t phase_tag_ = 0;
  std::uint64_t sent_ = 0;
  std::vector<Timestamp> last_ts_;
  std::vector<std::uint64_t> key_;
  std::vector<std::deque<PendingAck>> acks_;
  std::vector<std::uint64_t> sent_by_producer_;
};

RungStats ToRung(PhaseRec* rec);

}  // namespace perfbench::svc
