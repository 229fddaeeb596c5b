#include "bench.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <limits>
#include <unordered_map>

namespace perfbench {

void SleepUntilNs(std::int64_t ns) {
  const std::int64_t now = NowNs();
  if (ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns - now));
  }
}

// --- Rng ---------------------------------------------------------------------

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform01() {
  return static_cast<double>((Next() >> 11) + 1) * 0x1.0p-53;
}

double Rng::ExpGapNs(double per_ns) { return -std::log(Uniform01()) / per_ns; }

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x100000001b3ULL ^ (stream + 0x51ed270b27ULL));
  rng.Next();
  return rng.Next();
}

// --- Samples -----------------------------------------------------------------

void Samples::Add(std::int64_t ns) {
  if (ns < 0) {
    ns = 0;
  }
  v_.push_back(static_cast<std::uint32_t>(
      std::min<std::int64_t>(ns, std::numeric_limits<std::uint32_t>::max())));
}

void Samples::Append(const Samples& other) {
  v_.insert(v_.end(), other.v_.begin(), other.v_.end());
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  if (n == 0) {
    return 0;
  }
  // Nearest rank: the ceil(q * n)-th smallest sample (1-based).
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

namespace {

template <typename T>
Samples::Pct QuantileIn(std::vector<T>& v, double q) {
  Samples::Pct pct;
  pct.n = v.size();
  if (v.empty()) {
    return pct;
  }
  pct.beyond = SamplesBeyond(v.size(), q);
  const std::size_t index = v.size() - pct.beyond - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(index),
                   v.end());
  pct.value_ns = static_cast<double>(v[index]);
  pct.supported = pct.beyond >= kMinBeyond;
  return pct;
}

}  // namespace

Samples::Pct Samples::Quantile(double q) const { return QuantileIn(v_, q); }

Samples::Pct QuantileOf(std::vector<double> values, double q) {
  return QuantileIn(values, q);
}

void Windowed::Start(std::int64_t start_ns, double seconds, double window_s) {
  start_ = start_ns;
  width_ns_ = static_cast<std::int64_t>(window_s * 1e9);
  windows_.assign(
      static_cast<std::size_t>(std::max(1.0, std::ceil(seconds / window_s - 1e-9))),
      Samples());
}

void Windowed::Add(std::int64_t due_ns, std::int64_t latency_ns) {
  if (windows_.empty()) {
    windows_.resize(1);
  }
  const std::int64_t index = (due_ns - start_) / width_ns_;
  windows_[static_cast<std::size_t>(std::clamp<std::int64_t>(
               index, 0, static_cast<std::int64_t>(windows_.size()) - 1))]
      .Add(latency_ns);
}

void Windowed::Append(const Windowed& other) {
  if (windows_.size() < other.windows_.size()) {
    windows_.resize(other.windows_.size());
    start_ = other.start_;
  }
  for (std::size_t i = 0; i < other.windows_.size(); ++i) {
    windows_[i].Append(other.windows_[i]);
  }
}

Samples Windowed::Pooled() const {
  Samples all;
  for (const Samples& w : windows_) all.Append(w);
  return all;
}

Samples::Pct Windowed::MedianOfWindows(double q) const {
  Samples::Pct out;
  std::vector<double> values;
  for (const Samples& w : windows_) {
    const Samples::Pct pct = w.Quantile(q);
    out.n += pct.n;
    if (!pct.supported) continue;
    values.push_back(pct.value_ns);
    out.beyond = values.size() == 1 ? pct.beyond : std::min(out.beyond, pct.beyond);
  }
  out.windows = values.size();
  out.of_windows = windows_.size();
  out.window_s = static_cast<double>(width_ns_) / 1e9;
  out.supported = values.size() >= kMinWindows;
  out.value_ns = Median(values);
  return out;
}

std::size_t Windowed::LateWindows(double limit_ns) const {
  std::size_t late = 0;
  for (const Samples& w : windows_) {
    late += w.size() > 0 && w.Quantile(0.99).value_ns > limit_ns ? 1 : 0;
  }
  return late;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

SetupTimes MedianSetup(int n, const std::function<void()>& teardown,
                       const std::function<bool()>& setup) {
  std::vector<double> wall, cpu;
  for (int i = 0; i < n; ++i) {
    teardown();
    const ProcUsage u0 = ReadProcUsage();
    const std::int64_t t0 = NowNs();
    if (!setup()) return {};
    wall.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    const ProcUsage u1 = ReadProcUsage();
    cpu.push_back(u1.user_s + u1.sys_s - u0.user_s - u0.sys_s);
  }
  return {Median(cpu), Median(wall)};
}

// --- GenBudget ---------------------------------------------------------------

bool GenBudget::TakeThread() {
  if (threads_ + 1 > cap_) {
    return false;
  }
  ++threads_;
  peak_threads_ = std::max(peak_threads_, threads_);
  return true;
}

bool GenBudget::TakeConnection() {
  if (connections_ + 1 > cap_) {
    return false;
  }
  ++connections_;
  peak_connections_ = std::max(peak_connections_, connections_);
  return true;
}

GenThread::GenThread(GenBudget* budget, std::function<void()> fn)
    : budget_(budget) {
  if (budget_->TakeThread()) {
    thread_ = std::thread(std::move(fn));
  }
}

GenThread::~GenThread() { Join(); }

void GenThread::Join() {
  if (thread_.joinable()) {
    thread_.join();
    budget_->ReleaseThread();
  }
}

void SpinCores(GenBudget* budget, double seconds) {
  const std::int64_t until = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  auto spin = [until] {
    volatile std::uint64_t x = 0;
    while (NowNs() < until) {
      for (int i = 0; i < 10000; ++i) x = x + static_cast<std::uint64_t>(i);
    }
  };
  std::vector<std::unique_ptr<GenThread>> threads;
  while (budget->threads() < budget->cap()) {
    threads.push_back(std::make_unique<GenThread>(budget, spin));
  }
  spin();
}

// --- knee rule and ladder ----------------------------------------------------

std::string KneeVerdict(const RungStats& rung, double limit_ms) {
  constexpr double kLateP90Us = 1000;  // one batch interval
  constexpr double kMinOfferedFrac = 0.97;
  char why[160];
  if (!rung.drained) return "did not drain";
  if (rung.failed > 0) {
    std::snprintf(why, sizeof(why), "%llu ops failed",
                  static_cast<unsigned long long>(rung.failed));
    return why;
  }
  const Samples::Pct vis = rung.visible.MedianOfWindows(0.99);
  if (!vis.supported) {
    std::snprintf(why, sizeof(why), "visible_p99 unsupported (n=%zu)", vis.n);
    return why;
  }
  if (vis.value_ns / 1e6 > limit_ms) {
    std::snprintf(why, sizeof(why), "visible_p99 %.2f ms > limit %.1f ms",
                  vis.value_ns / 1e6, limit_ms);
    return why;
  }
  const Samples::Pct late = rung.late.Pooled().Quantile(0.90);
  if (late.n > 0 && late.value_ns / 1e3 > kLateP90Us) {
    std::snprintf(why, sizeof(why), "generator late: p90 %.0f us > %.0f us",
                  late.value_ns / 1e3, kLateP90Us);
    return why;
  }
  if (rung.offered_kops < kMinOfferedFrac * rung.target_kops) {
    std::snprintf(why, sizeof(why), "offered %.1f < %.0f%% of %.1f kops",
                  rung.offered_kops, 100 * kMinOfferedFrac,
                  rung.target_kops);
    return why;
  }
  // Little's law: at the limit latency the system may hold rate x limit
  // ops. The median of the rung's last quarter of backlog samples is used,
  // so a burst after a late tick does not count but sustained growth does.
  const double allowed = rung.target_kops * limit_ms;
  if (!rung.backlog.empty()) {
    const std::size_t from = rung.backlog.size() * 3 / 4;
    const double tail = Median(std::vector<double>(
        rung.backlog.begin() + static_cast<std::ptrdiff_t>(from), rung.backlog.end()));
    if (tail > allowed) {
      std::snprintf(why, sizeof(why), "backlog %.0f ops > %.0f allowed", tail,
                    allowed);
      return why;
    }
  }
  return "";
}

double Ladder::Rate(int k) const { return base_kops * std::pow(kStep, k); }

int Ladder::Search(const std::function<bool(int)>& probe, int start) const {
  int pass = kMin - 1;  // highest known passing index
  int fail = kmax + 1;  // lowest known failing index
  if (probe(start)) {
    pass = start;
    for (int d = 1; pass < kmax; d *= 2) {
      const int k = std::min(pass + d, kmax);
      if (!probe(k)) {
        fail = k;
        break;
      }
      pass = k;
    }
  } else {
    fail = start;
    for (int d = 1; fail > kMin; d *= 2) {
      const int k = std::max(fail - d, kMin);
      if (probe(k)) {
        pass = k;
        break;
      }
      fail = k;
    }
  }
  while (fail - pass > 1) {
    const int mid = pass + (fail - pass) / 2;
    if (probe(mid)) {
      pass = mid;
    } else {
      fail = mid;
    }
  }
  return pass;
}

void PrintRung(const char* label, int k, const RungStats& r,
               const std::string& verdict) {
  const auto vis = r.visible.MedianOfWindows(0.99);
  const auto late = r.late.Pooled().Quantile(0.99);
  const auto backlog = QuantileOf(r.backlog, 0.99);
  std::printf(
      "  %-8s k=%-3d target %8.1f kops  offered %8.1f  done %8.1f  "
      "visible_p99 %7.2f ms (n=%zu)  late_p99 %6.0f us (n=%zu)  backlog_p99 "
      "%8.0f  %s\n",
      label, k, r.target_kops, r.offered_kops, r.completed_kops,
      vis.value_ns / 1e6, vis.n, late.value_ns / 1e3, late.n, backlog.value_ns,
      verdict.empty() ? "PASS" : ("FAIL: " + verdict).c_str());
}

double RunLadder(const Ladder& ladder, int start, double limit_ms,
                 const std::function<std::optional<RungStats>(double)>& run_rung,
                 bool in_json, Report* rep) {
  std::map<int, double> delivered;  // passing rungs
  auto attempt = [&](int k) {
    const std::optional<RungStats> r = run_rung(ladder.Rate(k));
    if (!r) return false;
    const std::string verdict = KneeVerdict(*r, limit_ms);
    PrintRung("rung", k, *r, verdict);
    if (verdict.empty()) delivered[k] = r->completed_kops;
    return verdict.empty();
  };
  const int best =
      ladder.Search([&](int k) { return attempt(k) || attempt(k); }, start);
  const double max_rate = delivered.count(best) ? delivered[best] : 0.0;
  char note[96];
  std::snprintf(note, sizeof(note), "delivered at rung k=%d (target %.1f kops)",
                best, ladder.Rate(best));
  rep->Add("max_rate_kops", max_rate, "kops", note, in_json);
  return max_rate;
}

// --- tracing -----------------------------------------------------------------

void Tracer::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<LayerTime> SummarizeSpans(const std::vector<Span>& spans) {
  // Children grouped by parent id.
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, LayerTime> by_name;
  for (const Span& s : spans) {
    const std::int64_t total = std::max<std::int64_t>(0, s.end_ns - s.start_ns);
    std::int64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_start = 0;
      std::int64_t cur_end = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) {
          continue;
        }
        if (cur_end < a) {
          if (cur_end > cur_start) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
        } else {
          cur_end = std::max(cur_end, b);
        }
      }
      if (cur_end > cur_start) covered += cur_end - cur_start;
    }
    LayerTime& lt = by_name[s.name];
    lt.layer = s.name;
    ++lt.spans;
    lt.total_ms += static_cast<double>(total) / 1e6;
    lt.self_ms += static_cast<double>(total - std::min(total, covered)) / 1e6;
  }
  std::vector<LayerTime> out;
  for (auto& [name, lt] : by_name) {
    out.push_back(lt);
  }
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "name,id,parent,start_ns,end_ns\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s,%llu,%llu,%lld,%lld\n", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void FinishTrace(const Tracer& tracer, std::uint64_t traced_ops,
                 const std::string& path, Checks* checks) {
  const std::vector<Span> spans = tracer.Collect();
  const double ops = static_cast<double>(std::max<std::uint64_t>(traced_ops, 1));
  for (const LayerTime& lt : SummarizeSpans(spans)) {
    std::printf("  span %-24s %8llu spans  total %9.2f ms  self %9.2f ms  "
                "self %.3f us/op\n",
                lt.layer.c_str(), static_cast<unsigned long long>(lt.spans),
                lt.total_ms, lt.self_ms, lt.self_ms * 1e3 / ops);
  }
  checks->Expect(WriteSpans(spans, path), "write spans");
  std::printf("  spans written to %s\n", path.c_str());
}

// --- process counters ----------------------------------------------------------

ProcUsage ReadProcUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
  u.invol_ctx = static_cast<std::uint64_t>(ru.ru_nivcsw);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

namespace {

// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
void ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
}

// VmHWM in MB, or getrusage's ru_maxrss where /proc is unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return ReadProcUsage().max_rss_mb;
}

}  // namespace

void UsageMarks::Mark(std::uint64_t ops) {
  marks_.push_back({ReadProcUsage(), ops, PeakRssMb()});
  ResetPeakRss();
}

double UsageMarks::MedianUsPerOp() const {
  std::vector<double> per_op;
  for (std::size_t i = 0; i + 1 < marks_.size(); ++i) {
    const At& a = marks_[i];
    const At& b = marks_[i + 1];
    if (b.ops > a.ops) {
      const double cpu_s =
          b.usage.user_s + b.usage.sys_s - a.usage.user_s - a.usage.sys_s;
      per_op.push_back(cpu_s * 1e6 / static_cast<double>(b.ops - a.ops));
    }
  }
  return Median(per_op);
}

double UsageMarks::MedianPeakRssMb() const {
  std::vector<double> peaks;
  for (std::size_t i = 1; i < marks_.size(); ++i) {
    peaks.push_back(marks_[i].peak_rss_mb);
  }
  return Median(peaks);
}

NominalPhase RunNominal(double late_limit_ns, const std::function<void()>& offer,
                        const std::function<RungStats()>& finish) {
  NominalPhase n;
  malloc_trim(0);
  n.u0 = ReadProcUsage();
  offer();
  n.u1 = ReadProcUsage();
  n.stats = finish();
  n.late_windows = n.stats.late.LateWindows(late_limit_ns);
  std::printf("# nominal phase: generator late (p99 > %.0f us) in %zu of %zu "
              "1-s windows\n",
              late_limit_ns / 1e3, n.late_windows, n.stats.late.windows());
  return n;
}

Samples::Pct HistPct(const eunomia::metrics::Histogram::Snapshot& after,
                     const eunomia::metrics::Histogram::Snapshot& before,
                     double q) {
  auto d = after;
  d.count -= before.count;
  d.sum -= before.sum;
  for (std::size_t i = 0; i < d.buckets.size() && i < before.buckets.size(); ++i) {
    d.buckets[i] -= before.buckets[i];
  }
  Samples::Pct pct;
  pct.n = d.count;
  pct.beyond = SamplesBeyond(d.count, q);
  pct.supported = pct.beyond >= kMinBeyond;
  pct.value_ns = static_cast<double>(d.Quantile(q)) * 1e3;  // us -> ns
  return pct;
}

// --- report --------------------------------------------------------------------

std::string PctNote(const Samples::Pct& pct) {
  char buf[128];
  if (pct.windows > 0) {
    std::snprintf(buf, sizeof(buf),
                  "median of %zu of %zu %g-s windows, n=%zu, >=%zu beyond each%s",
                  pct.windows, pct.of_windows, pct.window_s, pct.n, pct.beyond,
                  pct.supported ? "" : ", UNSUPPORTED");
  } else {
    std::snprintf(buf, sizeof(buf), "n=%zu, %zu beyond%s", pct.n, pct.beyond,
                  pct.supported ? "" : ", UNSUPPORTED");
  }
  return buf;
}

void Report::Add(const std::string& name, double value, const std::string& unit,
                 const std::string& note, bool in_json) {
  if (!std::isfinite(value)) {
    value = 0;
  }
  metrics_.push_back({name, value, unit, note, in_json});
}

bool Report::AddPct(const std::string& name, const Samples::Pct& pct,
                    double scale, const std::string& unit, bool in_json) {
  if (!pct.supported) {
    std::printf("  %-44s unsupported (%s)\n", name.c_str(),
                PctNote(pct).c_str());
    return false;
  }
  Add(name, pct.value_ns / scale, unit, PctNote(pct));
  metrics_.back().in_json = in_json;
  return true;
}

void AddLatencies(Report* rep, const RungStats& nominal, const Windowed& read,
                  bool traced) {
  const struct {
    const char* name;
    const Windowed* samples;
  } series[] = {{"visible", &nominal.visible},
                {"update", &nominal.update},
                {"read", &read}};
  for (const auto& [name, samples] : series) {
    const std::string prefix = name;
    rep->AddPct(prefix + "_p50_ms", samples->MedianOfWindows(0.50), 1e6, "ms",
                traced);
    rep->AddPct(prefix + "_p99_ms", samples->MedianOfWindows(0.99), 1e6, "ms",
                traced);
  }
}

void AddPeakRss(Report* rep, const UsageMarks& nominal, bool traced) {
  rep->Add("peak_rss_mb", nominal.MedianPeakRssMb(), "MB",
           "peak RSS (VmHWM), median of 1-s intervals", traced);
}

void AddProcessAndOverhead(Report* rep, const NominalPhase& nominal,
                           const RungStats& traced) {
  const ProcUsage& u0 = nominal.u0;
  const ProcUsage& u1 = nominal.u1;
  rep->Add("process.cpu_user_s", u1.user_s - u0.user_s, "s", "untraced nominal phase");
  rep->Add("process.cpu_sys_s", u1.sys_s - u0.sys_s, "s", "untraced nominal phase");
  rep->Add("process.invol_ctx_switches",
           static_cast<double>(u1.invol_ctx - u0.invol_ctx), "count",
           "untraced nominal phase");
  const double untraced_p50 = nominal.stats.visible.Pooled().Quantile(0.5).value_ns;
  const double traced_p50 = traced.visible.Pooled().Quantile(0.5).value_ns;
  rep->Add("trace.overhead_frac",
           untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50 : 0,
           "frac", "traced vs untraced pooled visible_p50");
}

void Report::PrintTable(const char* title) const {
  std::printf("%s\n", title);
  for (const Metric& m : metrics_) {
    std::printf("  %-44s %14.6g %-6s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str(),
                m.in_json ? "" : " [printed only]");
  }
}

std::string Report::Json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!m.in_json) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

// --- checks --------------------------------------------------------------------

void Checks::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failures_.size() < 64) {
    failures_.push_back(what);
  }
}

bool Checks::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_.empty();
}

std::vector<std::string> Checks::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

}  // namespace perfbench
