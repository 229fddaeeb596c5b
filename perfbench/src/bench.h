// Shared pieces of the open-loop benchmark: clocks, seeded arrivals, the
// percentile rule, the generator's thread/connection budget, the knee rule
// and rate ladder, the span recorder, and the metric report.
//
// Everything here is benchmark logic, not system code: the workloads
// (svc.cc, geo.cc) drive the system only through its public APIs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/metrics/histogram.h"

namespace perfbench {

class Checks;
class Report;

// --- time --------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Sleeps until the steady-clock instant `ns`; returns immediately if past.
void SleepUntilNs(std::int64_t ns);

// --- seeded arrivals -----------------------------------------------------------

// SplitMix64: small, fast and identical on every platform, so a seed names
// the same schedule everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  double Uniform01();  // in (0, 1]
  // Exponential inter-arrival gap for a Poisson process of `per_ns` events
  // per nanosecond.
  double ExpGapNs(double per_ns);
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream);

// --- samples and the percentile rule --------------------------------------------

// Latency samples in nanoseconds, saturating at ~4.29 s.
class Samples {
 public:
  void Add(std::int64_t ns);
  void Append(const Samples& other);
  std::size_t size() const { return v_.size(); }

  // Nearest-rank q-quantile. `supported` is true only when at least
  // kMinBeyond samples lie strictly above the quantile's rank.
  struct Pct {
    bool supported = false;
    double value_ns = 0.0;
    std::size_t n = 0;
    std::size_t beyond = 0;
    std::size_t windows = 0;  // > 0: a median over this many windows
    std::size_t of_windows = 0;  // ... out of this many
    double window_s = 0;
  };
  Pct Quantile(double q) const;

 private:
  mutable std::vector<std::uint32_t> v_;
};

inline constexpr std::size_t kMinBeyond = 10;
// Samples strictly above the nearest-rank q-quantile of n samples.
std::size_t SamplesBeyond(std::size_t n, double q);

// Quantile of plain values (counts, depths), same rule.
Samples::Pct QuantileOf(std::vector<double> values, double q);

// Latency samples split into fixed windows by due time. A tail percentile
// is taken per window and summarized by the median over all windows, so one
// host stall moves one window instead of the whole figure, while overload,
// which slows every window after it starts, still moves the median.
class Windowed {
 public:
  void Start(std::int64_t start_ns, double seconds, double window_s);
  void Add(std::int64_t due_ns, std::int64_t latency_ns);
  void Append(const Windowed& other);
  Samples Pooled() const;
  // Median over windows of each window's q-quantile, skipping windows the
  // percentile rule does not support. Supported when at least kMinWindows
  // windows are used.
  Samples::Pct MedianOfWindows(double q) const;
  // For a Windowed of generator lateness: the number of windows whose p99
  // lateness exceeds `limit_ns`. A validity guard that is printed, not a
  // filter: every window counts in every metric.
  std::size_t LateWindows(double limit_ns) const;
  std::size_t windows() const { return windows_.size(); }

  static constexpr std::size_t kMinWindows = 3;

 private:
  std::int64_t start_ = 0;
  std::int64_t width_ns_ = 1'000'000'000;
  std::vector<Samples> windows_;
};

// --- generator budget ----------------------------------------------------------

// The load generator may own at most `cap` threads and `cap` connections
// (cap = nproc). Workloads take every thread and connection through this.
class GenBudget {
 public:
  explicit GenBudget(unsigned cap) : cap_(cap) {}
  bool TakeThread();
  bool TakeConnection();
  void ReleaseConnections(unsigned n) { connections_ -= n; }
  unsigned threads() const { return threads_; }
  unsigned connections() const { return connections_; }
  unsigned cap() const { return cap_; }
  unsigned peak_threads() const { return peak_threads_; }
  unsigned peak_connections() const { return peak_connections_; }
  void ReleaseThread() { --threads_; }

 private:
  unsigned cap_;
  unsigned threads_ = 1;  // the calling (main) thread drives the schedule
  unsigned connections_ = 0;
  unsigned peak_threads_ = 1;
  unsigned peak_connections_ = 0;
};

// A generator-owned thread, joined on destruction.
class GenThread {
 public:
  GenThread(GenBudget* budget, std::function<void()> fn);
  ~GenThread();
  GenThread(const GenThread&) = delete;
  GenThread& operator=(const GenThread&) = delete;
  bool ok() const { return thread_.joinable(); }
  void Join();

 private:
  GenBudget* budget_;
  std::thread thread_;
};

// Keeps every core busy for `seconds` with the budget's threads. Shared
// VMs may give a process its full CPU speed only after about a second of
// sustained demand, so each run does this before it sets up.
void SpinCores(GenBudget* budget, double seconds);

// --- one rung of offered load, the knee rule and the ladder ----------------------

struct RungStats {
  double target_kops = 0;
  double offered_kops = 0;    // ops the generator issued per second
  double completed_kops = 0;  // ops that became visible per second
  Windowed visible;  // due -> visible (svc: stable stream; geo: probe)
                     // The knee rule takes its p99 as a median of windows.
  Windowed update;   // due -> ack / done
  Windowed read;     // due -> done (geo)
  Windowed late;              // generator lateness per send
  std::vector<double> backlog;  // sampled ops waiting inside the system
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool drained = true;  // every op of the rung completed afterwards
};

// Empty string when the rung meets every condition; otherwise the reason.
// A rung passes when it drained, nothing failed, visible_p99 is supported and within
// `limit_ms`, the generator kept up (within one 1 ms batch interval for
// 90% of its sends, so a sporadic host stall does not count as falling
// behind) and offered at least 97% of the target rate, and the backlog at
// the end of the rung stays below what the limit allows to queue
// (rate x limit, Little's law) -- a growing backlog exceeds it.
std::string KneeVerdict(const RungStats& rung, double limit_ms);

// Fixed geometric grid rate_k = base * 1.05^k, k in [kMin, kmax]. Search
// probes k = start, then climbs start + 1, 2, 4, 8, ... (or descends) to
// bracket the knee and bisects the bracket. Returns the highest passing k,
// or kMin - 1 if none passed. `probe` runs one rung at grid index k.
struct Ladder {
  static constexpr double kStep = 1.05;
  static constexpr int kMin = -64;
  double base_kops = 0;
  int kmax = 0;
  double Rate(int k) const;
  int Search(const std::function<bool(int)>& probe, int start) const;
};

// Prints one rung: offered and delivered rate, visible p99, generator
// lateness, backlog and the knee rule's verdict.
void PrintRung(const char* label, int k, const RungStats& r,
               const std::string& verdict);

// The rate ladder for max_rate_kops. `run_rung(rate_kops)` offers one rung
// and returns its stats, or nothing when the workload has no phase record
// left. Each rung is judged by KneeVerdict and printed; a failed rung is run
// once more and fails only if both attempts fail, so one host stall does not
// end the climb. Returns the rate delivered at the highest passing rung
// (0 if none passed) and adds it to `rep` as max_rate_kops.
double RunLadder(const Ladder& ladder, int start, double limit_ms,
                 const std::function<std::optional<RungStats>(double)>& run_rung,
                 bool in_json, Report* rep);

// --- tracing -----------------------------------------------------------------

// Spans are kept in memory and written out at the end. A span
// names its layer ("net.client.submit"), the id of its batch or op, and
// its parent span's id (0: none).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void Enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  void Add(const Span& span);
  std::uint64_t NextId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  std::vector<Span> Collect() const;

 private:
  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

struct LayerTime {
  std::string layer;
  std::uint64_t spans = 0;
  double total_ms = 0;
  double self_ms = 0;
};

// Self time of a span = its duration minus the union of its children's
// intervals clipped to it. Aggregated by span name.
std::vector<LayerTime> SummarizeSpans(const std::vector<Span>& spans);
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);
// Prints each span name's count, total and self time (also per op of the
// traced phase), and writes the spans to `path`.
void FinishTrace(const Tracer& tracer, std::uint64_t traced_ops,
                 const std::string& path, Checks* checks);

// Times one call into a layer and records it as a span when tracing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t id,
             std::uint64_t parent)
      : tracer_(tracer), span_{name, id, parent, NowNs(), 0} {}
  ~ScopedSpan() {
    if (tracer_ != nullptr && tracer_->on()) {
      span_.end_ns = NowNs();
      tracer_->Add(span_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t start_ns() const { return span_.start_ns; }

 private:
  Tracer* tracer_;
  Span span_;
};

// --- process counters ----------------------------------------------------------

struct ProcUsage {
  double user_s = 0;
  double sys_s = 0;
  std::uint64_t invol_ctx = 0;
  double max_rss_mb = 0;
};
ProcUsage ReadProcUsage();

// Process CPU and peak RSS read at 1 s marks through a phase, with the ops
// issued by each mark. Each mark resets the peak-RSS mark, so every
// interval has its own peak. The medians over intervals are not moved by
// a host episode that covers less than half of the phase.
class UsageMarks {
 public:
  void Mark(std::uint64_t ops);
  double MedianUsPerOp() const;
  double MedianPeakRssMb() const;

 private:
  struct At {
    ProcUsage usage;
    std::uint64_t ops;
    double peak_rss_mb;  // since the previous mark
  };
  std::vector<At> marks_;
};

// The nominal phase: one attempt, every window counted.
struct NominalPhase {
  RungStats stats;
  ProcUsage u0, u1;  // around the offered load
  std::size_t late_windows = 0;  // 1 s windows with a late generator
};

// Returns freed heap memory (earlier set-ups, the warm-up) to the kernel,
// runs `offer()` (the nominal load) between two process-usage reads, then
// `finish()` (drain, collect the stats). Prints the late-window count: a
// validity guard, printed, not a filter.
NominalPhase RunNominal(double late_limit_ns, const std::function<void()>& offer,
                        const std::function<RungStats()>& finish);

// A histogram quantile over the samples added between two snapshots, with
// the same support rule as Samples; the histogram counts microseconds.
Samples::Pct HistPct(const eunomia::metrics::Histogram::Snapshot& after,
                     const eunomia::metrics::Histogram::Snapshot& before,
                     double q);

// --- report --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count / provenance, printed beside the value
  bool in_json = true;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "", bool in_json = true);
  // A percentile metric; recorded only when the percentile rule supports it.
  // Returns false (and prints it as unsupported) otherwise.
  bool AddPct(const std::string& name, const Samples::Pct& pct, double scale,
              const std::string& unit, bool in_json = true);
  const std::vector<Metric>& metrics() const { return metrics_; }
  void PrintTable(const char* title) const;
  std::string Json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

std::string PctNote(const Samples::Pct& pct);

// Adds the nominal phase's latency metrics, each a median over its 1 s
// windows. An untraced run prints them without putting them in the JSON; a
// traced run reports them. BENCHMARK.json lists them as per-layer metrics:
// on a shared host their run-to-run spread is wider than any bound it allows.
void AddLatencies(Report* rep, const RungStats& nominal, const Windowed& read,
                  bool traced);
// Adds peak_rss_mb, the median of the nominal phase's per-second peaks, the
// same way: a per-layer metric, because under a busy host the system queues
// data and the figure rose from ~12 to up to 21 MB on svc-uniform.
void AddPeakRss(Report* rep, const UsageMarks& nominal, bool traced);
// process.cpu_user_s, process.cpu_sys_s and process.invol_ctx_switches
// over the untraced nominal phase, and trace.overhead_frac: traced vs
// untraced pooled visible_p50.
void AddProcessAndOverhead(Report* rep, const NominalPhase& nominal,
                           const RungStats& traced);

// --- shared run context ------------------------------------------------------------

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // scratch space inside the checkout (WAL, spans)
  unsigned nproc = 1;
};

// Counts correctness violations; any violation makes the run incorrect.
class Checks {
 public:
  void Fail(const std::string& what);
  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  bool ok() const;
  std::vector<std::string> failures() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::string> failures_;
};

// The outcome of one workload run, before printing.
struct Outcome {
  Report report;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Workload entry points (svc.cc, geo.cc). Return false on a set-up failure.
bool RunSvc(const RunArgs& args, Checks* checks, Outcome* out);
bool RunGeo(const RunArgs& args, Checks* checks, Outcome* out);

// Median of a few values (setup trials).
double Median(std::vector<double> v);

// Set-up cost: the median over `n` set-ups of the process CPU time (user +
// sys, all threads) each took. `teardown` (untimed) removes the previous
// system; `setup` builds a new one and returns false on failure. The last
// system built is kept. CPU time, not wall time: the wall time of a ~1 ms
// set-up is mostly the host waking the new threads, which on a shared VM
// moved its median 1.5x between calm and busy periods. The median wall
// time is returned too, for printing. wall_s < 0: a set-up failed.
struct SetupTimes {
  double cpu_s = 0;
  double wall_s = -1;
};
SetupTimes MedianSetup(int n, const std::function<void()>& teardown,
                       const std::function<bool()>& setup);

template <typename Rec>
std::vector<std::unique_ptr<Rec>> MakeRecords(std::size_t n) {
  std::vector<std::unique_ptr<Rec>> recs;
  for (std::size_t i = 0; i < n; ++i) recs.push_back(std::make_unique<Rec>());
  return recs;
}

}  // namespace perfbench
