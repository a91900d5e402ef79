// The benchmark's own arithmetic, kept apart from the workloads so it can be
// unit-tested: percentiles and the tail rule, in-memory spans with self
// time, and open-loop lateness accounting.

#ifndef CQA_PERFBENCH_BENCH_CORE_H_
#define CQA_PERFBENCH_BENCH_CORE_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile: the smallest sample with at least p*n samples at
/// or below it. `p` in (0, 1]. Empty input gives 0.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

/// Samples strictly above the nearest-rank p-th percentile position.
inline size_t SamplesBeyond(size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n));
  return n - std::min(n, static_cast<size_t>(rank));
}

/// The highest of p50, p90, p99, p99.9 that has at least ten samples beyond
/// it; 0.5 when even p50 has fewer (the median is always reported).
inline double TailPercentile(size_t n) {
  double best = 0.5;
  for (const double p : {0.5, 0.9, 0.99, 0.999}) {
    if (SamplesBeyond(n, p) >= 10) best = p;
  }
  return best;
}

/// Completions per second as the median over `segments` equal slices of
/// [0, window_ms]; `done_ms` holds completion times from the window start.
/// One slow slice (a noisy neighbour on a shared machine) moves this far
/// less than it moves the whole-window average.
inline double SegmentedRate(const std::vector<double>& done_ms,
                            double window_ms, int segments) {
  if (window_ms <= 0.0 || segments < 1) return 0.0;
  const double width = window_ms / segments;
  std::vector<double> rates(static_cast<size_t>(segments), 0.0);
  for (const double t : done_ms) {
    if (t < 0.0 || t > window_ms) continue;
    const int i = std::min(segments - 1, static_cast<int>(t / width));
    rates[static_cast<size_t>(i)] += 1000.0 / width;
  }
  return Percentile(rates, 0.5);
}

/// One timed call at a layer boundary. `parent` is an index into the same
/// span vector, or -1 for a request's root span.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  long long request = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (clipped to it).
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ms, s.end_ms});
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms, hi = spans[i].end_ms;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// Records spans in memory; nothing is written until the run ends. A
/// disabled tracer records nothing and Begin returns -1.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span under the innermost open span of this tracer.
  int Begin(std::string name, long long request) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    s.start_ms = MsBetween(origin_, Clock::now());
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  /// Closes span `id` (the innermost open one); a non-empty `rename`
  /// replaces its name, for spans classified by their outcome.
  void End(int id, const std::string& rename = "") {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ms = MsBetween(origin_, Clock::now());
    if (!rename.empty()) spans_[static_cast<size_t>(id)].name = rename;
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span for straight-line code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, long long request)
      : tracer_(tracer), id_(tracer->Begin(std::move(name), request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Total self time per span name.
inline std::map<std::string, double> SelfTimeByName(
    const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

/// An open-loop schedule: operation i is due at start + i / rate seconds,
/// whatever happened to earlier operations. Lateness is how far behind its
/// due time an operation actually started (never negative), and latency of
/// an open-loop operation is measured from its due time, so a stall is
/// charged to every operation it delayed.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double start_ms, double rate_per_s)
      : start_ms_(start_ms), interval_ms_(1000.0 / rate_per_s) {}

  double DueMs(long long i) const {
    return start_ms_ + static_cast<double>(i) * interval_ms_;
  }

  /// Records that operation i started at `actual_ms`; returns its lateness.
  double RecordStart(long long i, double actual_ms) {
    const double late = std::max(0.0, actual_ms - DueMs(i));
    lateness_ms_.push_back(late);
    return late;
  }

  const std::vector<double>& lateness_ms() const { return lateness_ms_; }

 private:
  double start_ms_;
  double interval_ms_;
  std::vector<double> lateness_ms_;
};

}  // namespace perfbench

#endif  // CQA_PERFBENCH_BENCH_CORE_H_
