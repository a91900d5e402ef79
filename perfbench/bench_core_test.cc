// Unit tests of the benchmark's own arithmetic (bench_core.h). Plain
// asserts that stay on in every build; exits nonzero on the first failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_core.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "bench_core_test:%d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT(Near(perfbench::Percentile(v, 0.5), 50));
  EXPECT(Near(perfbench::Percentile(v, 0.9), 90));
  EXPECT(Near(perfbench::Percentile(v, 0.99), 99));
  EXPECT(Near(perfbench::Percentile(v, 1.0), 100));
  EXPECT(Near(perfbench::Percentile({7.0}, 0.9), 7));
  EXPECT(Near(perfbench::Percentile({}, 0.5), 0));
  EXPECT(Near(perfbench::Percentile({1, 2, 3}, 0.5), 2));
}

void TestTailRule() {
  // The highest percentile with at least ten samples beyond it.
  EXPECT(perfbench::SamplesBeyond(100, 0.9) == 10);
  EXPECT(perfbench::SamplesBeyond(99, 0.9) == 9);
  EXPECT(Near(perfbench::TailPercentile(5), 0.5));
  EXPECT(Near(perfbench::TailPercentile(99), 0.5));
  EXPECT(Near(perfbench::TailPercentile(100), 0.9));
  EXPECT(Near(perfbench::TailPercentile(999), 0.9));
  EXPECT(Near(perfbench::TailPercentile(1000), 0.99));
  EXPECT(Near(perfbench::TailPercentile(10000), 0.999));
}

void TestSegmentedRate() {
  // A 1000 ms window in 5 slices of 200 ms holding 10, 10, 2, 10, 11
  // completions: the median slice rate is 10 per 200 ms = 50/s, while the
  // whole-window average would read 43/s.
  std::vector<double> done;
  const int per_slice[5] = {10, 10, 2, 10, 11};
  for (int slice = 0; slice < 5; ++slice) {
    for (int k = 0; k < per_slice[slice]; ++k) {
      done.push_back(slice * 200.0 + 1.0 + k);
    }
  }
  done.back() = 1000.0;  // a completion at the window end counts
  EXPECT(Near(perfbench::SegmentedRate(done, 1000.0, 5), 50));
  EXPECT(Near(perfbench::SegmentedRate(done, 1000.0, 1), 43));
  EXPECT(Near(perfbench::SegmentedRate({}, 1000.0, 5), 0));
  EXPECT(Near(perfbench::SegmentedRate(done, 0.0, 5), 0));
}

perfbench::Span MakeSpan(double start, double end, int parent) {
  perfbench::Span s;
  s.name = "s";
  s.start_ms = start;
  s.end_ms = end;
  s.parent = parent;
  return s;
}

void TestSelfTime() {
  // root [0,10] with children [1,3] and [2,5] (overlapping: union 4) and
  // [9,12] (clipped to [9,10]: 1); the grandchild [1.5,2] only reduces its
  // own parent's self time.
  std::vector<perfbench::Span> spans = {
      MakeSpan(0, 10, -1), MakeSpan(1, 3, 0), MakeSpan(2, 5, 0),
      MakeSpan(9, 12, 0), MakeSpan(1.5, 2, 1)};
  const std::vector<double> self = perfbench::SelfTimes(spans);
  EXPECT(Near(self[0], 10 - 4 - 1));
  EXPECT(Near(self[1], 2 - 0.5));
  EXPECT(Near(self[2], 3));
  EXPECT(Near(self[3], 3));
  EXPECT(Near(self[4], 0.5));

  // Self times of a sequential tree add up to the root's duration.
  perfbench::Tracer tracer(true);
  {
    perfbench::ScopedSpan root(&tracer, "request", 1);
    {
      perfbench::ScopedSpan a(&tracer, "a", 1);
      perfbench::ScopedSpan b(&tracer, "b", 1);
    }
    perfbench::ScopedSpan c(&tracer, "c", 1);
  }
  const auto& recorded = tracer.spans();
  EXPECT(recorded.size() == 4);
  EXPECT(recorded[1].parent == 0 && recorded[2].parent == 1 &&
         recorded[3].parent == 0);
  double sum = 0;
  for (double s : perfbench::SelfTimes(recorded)) sum += s;
  EXPECT(std::fabs(sum - (recorded[0].end_ms - recorded[0].start_ms)) < 1e-6);

  perfbench::Tracer off(false);
  EXPECT(off.Begin("x", 0) == -1);
  off.End(-1);
  EXPECT(off.spans().empty());
}

void TestOpenLoop() {
  perfbench::OpenLoopSchedule schedule(1000.0, 100.0);  // one per 10 ms
  EXPECT(Near(schedule.DueMs(0), 1000));
  EXPECT(Near(schedule.DueMs(5), 1050));
  // On time or early counts as zero lateness; a stall makes every
  // operation it delayed late by its own distance from its due time.
  EXPECT(Near(schedule.RecordStart(0, 999.0), 0));
  EXPECT(Near(schedule.RecordStart(1, 1010.0), 0));
  EXPECT(Near(schedule.RecordStart(2, 1045.0), 25));
  EXPECT(Near(schedule.RecordStart(3, 1046.0), 16));
  EXPECT(Near(schedule.RecordStart(4, 1047.0), 7));
  EXPECT(schedule.lateness_ms().size() == 5);
  EXPECT(Near(perfbench::Percentile(schedule.lateness_ms(), 1.0), 25));
}

}  // namespace

int main() {
  TestPercentile();
  TestTailRule();
  TestSegmentedRate();
  TestSelfTime();
  TestOpenLoop();
  if (g_failures != 0) {
    std::fprintf(stderr, "bench_core_test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("bench_core_test: all checks passed\n");
  return 0;
}
