// Self-tests of the benchmark's own logic: the percentile rule, the knee
// rule and ladder, the generator budget, and that latency is timed from the
// due time, so a stalled sink raises p99 and fails the rung. Exits non-zero
// if any expectation failed.
#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "bench.h"
#include "svc.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

void TestPercentileRule() {
  std::printf("percentile rule\n");
  Expect(SamplesBeyond(1000, 0.99) == 10, "n=1000: 10 samples beyond p99");
  Expect(SamplesBeyond(999, 0.99) == 9, "n=999: 9 samples beyond p99");
  Samples s;
  for (int i = 1; i <= 1000; ++i) s.Add(i);
  const auto p99 = s.Quantile(0.99);
  const auto p50 = s.Quantile(0.50);
  Expect(p99.supported && p99.value_ns == 990, "p99 of 1..1000 is 990, supported");
  Expect(p50.supported && p50.value_ns == 500, "p50 of 1..1000 is 500");
  Samples few;
  for (int i = 1; i <= 999; ++i) few.Add(i);
  Expect(!few.Quantile(0.99).supported, "p99 of 999 samples is unsupported");
  Expect(few.Quantile(0.50).supported, "p50 of 999 samples is supported");
  Expect(!QuantileOf({1, 2, 3}, 0.5).supported, "3 values cannot support p50");
}

RungStats GoodRung() {
  RungStats r;
  r.target_kops = 100;
  r.offered_kops = 100;
  r.completed_kops = 100;
  r.visible.Start(0, 1.0, 0.25);
  for (int i = 0; i < 4000; ++i) {
    r.visible.Add(i * 250'000, 1'000'000 + i);  // ~1 ms, spread over 1 s
    r.late.Add(0, 20'000);                      // 20 us
  }
  r.backlog.assign(100, 150);  // 100 kops x 1.5 ms
  r.attempted = 100'000;
  return r;
}

void TestKneeRule() {
  std::printf("knee rule\n");
  constexpr double kLimitMs = 10;
  Expect(KneeVerdict(GoodRung(), kLimitMs).empty(), "a healthy rung passes");
  RungStats r = GoodRung();
  r.failed = 1;
  Expect(!KneeVerdict(r, kLimitMs).empty(), "a failed op fails the rung");
  r = GoodRung();
  for (int i = 0; i < 200; ++i) r.visible.Add(i * 5'000'000, 50'000'000);
  Expect(!KneeVerdict(r, kLimitMs).empty(), "visible_p99 over the limit fails");
  r = GoodRung();
  r.visible = Windowed();
  r.visible.Start(0, 1.0, 0.25);
  for (int i = 0; i < 2000; ++i) r.visible.Add(i * 500'000, 1'000'000);
  Expect(!KneeVerdict(r, kLimitMs).empty(), "an unsupported p99 fails");
  r = GoodRung();
  for (int i = 0; i < 600; ++i) r.late.Add(0, 5'000'000);  // 13% of sends
  Expect(!KneeVerdict(r, kLimitMs).empty(), "a late generator fails the rung");
  r = GoodRung();
  r.offered_kops = 90;
  Expect(!KneeVerdict(r, kLimitMs).empty(), "under-offering fails the rung");
  r = GoodRung();
  for (int i = 0; i < 100; ++i) r.backlog.push_back(100.0 * 1000 * i);
  Expect(!KneeVerdict(r, kLimitMs).empty(), "a growing backlog fails the rung");
}

void TestWindows() {
  std::printf("windows\n");
  // 10 windows; in `stalled` of them every 20th op waited 30 ms and the
  // generator ran 5 ms late.
  auto run = [](int stalled, Windowed* late, Windowed* visible) {
    late->Start(0, 10.0, 1.0);
    visible->Start(0, 10.0, 1.0);
    for (int w = 0; w < 10; ++w) {
      for (int i = 0; i < 1000; ++i) {
        const std::int64_t due = w * 1'000'000'000LL + i * 1'000'000LL;
        const bool hit = w < stalled && i % 20 == 0;
        late->Add(due, hit ? 5'000'000 : 20'000);
        visible->Add(due, hit ? 30'000'000 : 1'000'000);
      }
    }
  };
  Windowed late, visible;
  run(4, &late, &visible);
  Expect(late.LateWindows(1e6) == 4, "4 of 10 windows have a late generator");
  const auto p99 = visible.MedianOfWindows(0.99);
  Expect(p99.supported && p99.windows == 10 && p99.value_ns == 1'000'000,
         "every window counts; stalls in 4 of 10 leave the median");
  Windowed late6, visible6;
  run(6, &late6, &visible6);
  Expect(visible6.MedianOfWindows(0.99).value_ns == 30'000'000,
         "stalls in 6 of 10 windows move the median");
}

void TestLadder() {
  std::printf("ladder\n");
  const Ladder ladder{100, 40};
  int probes = 0;
  auto knee_at = [&](double knee) {
    return [&probes, knee, &ladder](int k) {
      ++probes;
      return ladder.Rate(k) <= knee;
    };
  };
  // 100 * 1.05^4 = 121.6 <= 123.4 < 127.6 = 100 * 1.05^5.
  Expect(ladder.Search(knee_at(123.4), 0) == 4, "climbing finds k=4");
  Expect(ladder.Search(knee_at(123.4), 16) == 4, "descending finds k=4");
  probes = 0;
  Expect(ladder.Search(knee_at(1e9), 0) == 40, "no knee: stops at kmax");
  Expect(probes <= 12, "bounded number of probes");
  Expect(ladder.Search(knee_at(1), 0) == Ladder::kMin - 1, "nothing passes: kMin - 1");
  Expect(ladder.Rate(1) / ladder.Rate(0) - 1 < 0.1,
         "grid resolution (5%) is finer than the max_rate bound");

  // RunLadder: rungs up to 123.4 kops pass, except that the first attempt
  // at each rate fails once (a host stall); the retry keeps the climb going.
  std::vector<double> seen;
  Report rep;
  const double max_rate = RunLadder(
      ladder, 0, 10,
      [&](double rate) -> std::optional<RungStats> {
        RungStats r = GoodRung();
        r.target_kops = r.offered_kops = rate;
        r.completed_kops = rate * 0.99;
        const bool first = std::count(seen.begin(), seen.end(), rate) == 0;
        seen.push_back(rate);
        if (first || rate > 123.4) r.failed = 1;
        return r;
      },
      true, &rep);
  Expect(std::abs(max_rate - ladder.Rate(4) * 0.99) < 1e-9,
         "a rung failing once is retried; max_rate is the delivered rate at k=4");
  Expect(rep.metrics().size() == 1 && rep.metrics()[0].name == "max_rate_kops",
         "RunLadder reports max_rate_kops");
  int calls = 0;
  const double none = RunLadder(
      ladder, 0, 10, [&](double) -> std::optional<RungStats> {
        ++calls;
        return std::nullopt;
      },
      true, &rep);
  Expect(none == 0 && calls > 0, "no phase records left: nothing passes");
}

void TestBudget() {
  std::printf("generator budget\n");
  GenBudget budget(4);
  Expect(budget.TakeThread() && budget.TakeThread() && budget.TakeThread(),
         "main + 3 threads fit in nproc=4");
  Expect(!budget.TakeThread(), "a 5th thread is refused");
  for (int i = 0; i < 4; ++i) budget.TakeConnection();
  Expect(!budget.TakeConnection(), "a 5th connection is refused");
  Expect(budget.peak_threads() == 4 && budget.peak_connections() == 4,
         "peaks stay at the cap");
  GenBudget small(1);
  GenThread t(&small, [] {});
  Expect(!t.ok(), "GenThread is not started over the cap");
}

// A sink that emits every batch at once (one partition, so the stream is
// ordered). It stalls for `stall_ms` on the first submit after 200 ms and,
// when `every_ms` > 0, again every `every_ms` after that.
class StallTarget final : public svc::Target {
 public:
  StallTarget(svc::StreamChecker* checker, int stall_ms, int every_ms)
      : checker_(checker), stall_ms_(stall_ms), every_ms_(every_ms),
        next_stall_(NowNs() + 200'000'000) {}
  std::vector<svc::OpRecord> Acquire(svc::PartitionId) override { return {}; }
  void Submit(svc::PartitionId, std::vector<svc::OpRecord> batch) override {
    if (stall_ms_ > 0 && NowNs() >= next_stall_) {
      next_stall_ = every_ms_ > 0 ? next_stall_ + every_ms_ * 1'000'000LL
                                  : std::numeric_limits<std::int64_t>::max();
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
    }
    checker_->OnStable(batch);
  }
  void Heartbeat(svc::PartitionId, svc::Timestamp) override {}
  std::uint64_t Acked(std::uint32_t) override { return ~0ULL; }
  double Backlog() override { return 0; }
  double Inflight() override { return 0; }

 private:
  svc::StreamChecker* checker_;
  int stall_ms_;
  int every_ms_;
  std::int64_t next_stall_;
};

RungStats RunStall(int stall_ms, int every_ms, Checks* checks) {
  Tracer tracer;
  svc::Phases phases = MakeRecords<svc::PhaseRec>(2);
  const std::int64_t epoch = NowNs();
  svc::StreamChecker checker(epoch, &phases, checks, &tracer);
  StallTarget target(&checker, stall_ms, every_ms);
  std::vector<double> weights(svc::kPartitions, 0.0);
  weights[0] = 1.0;
  svc::TickGenerator gen(weights, 7, epoch, &target, &checker, &phases, &tracer);
  gen.RunPhase(1, 1, 800, 0.6, 0.1);
  gen.Drain(1);
  return svc::ToRung(phases[1].get());
}

void TestDueTimeLatency() {
  std::printf("latency from the due time\n");
  constexpr double kLimitMs = 10;
  Checks checks;
  // The synthetic sink shares the host with everything else; a calm run
  // gets three tries to come out clean.
  RungStats calm = RunStall(0, 0, &checks);
  for (int attempt = 1; attempt < 3 && !KneeVerdict(calm, kLimitMs).empty(); ++attempt) {
    calm = RunStall(0, 0, &checks);
  }
  const RungStats once = RunStall(40, 0, &checks);
  const RungStats repeated = RunStall(15, 50, &checks);
  const double calm_p99 = calm.visible.Pooled().Quantile(0.99).value_ns / 1e6;
  const double once_p99 = once.visible.Pooled().Quantile(0.99).value_ns / 1e6;
  std::printf("    pooled p99: calm %.2f ms, one 40 ms stall %.2f ms\n", calm_p99,
              once_p99);
  Expect(checks.ok(), "stream checks pass on the synthetic sink");
  const std::string calm_verdict = KneeVerdict(calm, kLimitMs);
  if (!calm_verdict.empty()) std::printf("    calm verdict: %s\n", calm_verdict.c_str());
  Expect(calm_verdict.empty(), "an unstalled sink passes the rung");
  Expect(once_p99 > 20 && once_p99 > calm_p99 + 15,
         "ops due during a 40 ms stall raise the pooled p99 past 20 ms");
  const std::string verdict = KneeVerdict(repeated, kLimitMs);
  std::printf("    stalled every 50 ms: %s\n", verdict.c_str());
  Expect(!verdict.empty(), "a sink stalling 15 ms every 50 ms fails the rung");
}

// A sink that emits one op twice must fail the exactly-once check.
void TestDuplicateIsCaught() {
  std::printf("exactly-once check\n");
  Tracer tracer;
  Checks checks;
  svc::Phases phases = MakeRecords<svc::PhaseRec>(2);
  svc::StreamChecker checker(NowNs(), &phases, &checks, &tracer);
  const std::vector<svc::OpRecord> batch = {{10, 0, 0, 1ULL << svc::kPhaseShift},
                                            {11, 0, 1, 1ULL << svc::kPhaseShift}};
  checker.OnStable(batch);
  Expect(checks.ok(), "a dense ordered stream passes");
  checker.OnStable({batch[1]});
  Expect(!checks.ok(), "a re-emitted op is flagged");
}

}  // namespace
}  // namespace perfbench

int main() {
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  perfbench::TestPercentileRule();
  perfbench::TestKneeRule();
  perfbench::TestWindows();
  perfbench::TestLadder();
  perfbench::TestBudget();
  perfbench::TestDueTimeLatency();
  perfbench::TestDuplicateIsCaught();
  std::printf("perfbench self-test: %s\n",
              perfbench::g_failures == 0 ? "all passed" : "FAILED");
  return perfbench::g_failures == 0 ? 0 : 1;
}
