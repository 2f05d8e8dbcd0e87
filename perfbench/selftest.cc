// Self-test of the benchmark's metric arithmetic (perfbench/harness.h) on
// synthetic samples. Exits non-zero on the first mismatch; run.py runs it
// before every benchmark run.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
    ++failures;
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

void TestPercentiles() {
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  // Nearest rank: p50 of 1..1000 is the 500th value, p99 the 990th, and
  // exactly ten samples (991..1000) lie beyond it.
  ExpectNear(perfbench::Percentile(ramp, 50.0), 500, "p50 of 1..1000");
  ExpectNear(perfbench::Percentile(ramp, 99.0), 990, "p99 of 1..1000");
  ExpectNear(perfbench::Percentile({7.0}, 99.0), 7, "p99 of one sample");
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  ExpectNear(perfbench::Percentile(shuffled, 50.0), 3, "p50 unsorted");
  Expect(perfbench::MinSamplesFor(99.0) == 1000, "p99 needs 1000 samples");
  Expect(perfbench::MinSamplesFor(50.0) == 20, "p50 needs 20 samples");
  ExpectNear(perfbench::Median({3, 1, 2}), 2, "odd median");
  ExpectNear(perfbench::Median({4, 1, 2, 3}), 2.5, "even median");

  perfbench::Samples samples;
  for (int i = 0; i < 999; ++i) samples.Add(1.0);
  Expect(!samples.p99_valid(), "999 samples cannot support p99");
  samples.Add(2.0);
  Expect(samples.p99_valid(), "1000 samples support p99");
  ExpectNear(samples.sum(), 1001, "sample sum");
}

void TestLatencyHistogram() {
  // Below 1024 ns every value has a bucket of its own, so percentiles are
  // exact: p50 of 1..1000 ns is the 500th sample, p99 the 990th.
  perfbench::LatencyHistogram ramp;
  for (int i = 1000; i >= 1; --i) ramp.AddNs(i);  // order does not matter
  ExpectNear(ramp.PercentileNs(50.0), 500, "p50 of 1..1000 ns");
  ExpectNear(ramp.PercentileNs(99.0), 990, "p99 of 1..1000 ns");
  Expect(ramp.samples() == 1000 && ramp.valid(), "1000 samples support p99");

  // Percentiles cover the whole run: a stall in 2% of the samples shows in
  // p99 wherever in the run it falls.
  perfbench::LatencyHistogram stalled;
  for (int i = 0; i < 4900; ++i) stalled.AddNs(1'000'000);   // 1 ms
  for (int i = 0; i < 200; ++i) stalled.AddNs(20'000'000);   // 20 ms
  for (int i = 0; i < 5000; ++i) stalled.AddNs(1'000'000);
  Expect(std::fabs(stalled.p99_ms() - 20.0) <= 20.0 / 2048,
         "p99 sees a 2% stall: got " + std::to_string(stalled.p99_ms()));
  Expect(std::fabs(stalled.p50_ms() - 1.0) <= 1.0 / 2048,
         "p50 stays at 1 ms: got " + std::to_string(stalled.p50_ms()));

  // Larger values land in buckets 1/1024 of their power of two wide; the
  // reported midpoint is within 1/2048 of the true nearest-rank value.
  std::vector<double> exact;
  perfbench::LatencyHistogram wide;
  std::uint64_t x = 12345;
  for (int i = 0; i < 20'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::int64_t ns = static_cast<std::int64_t>(x >> 38);  // < 2^26
    exact.push_back(static_cast<double>(ns));
    wide.AddNs(ns);
  }
  for (const double p : {50.0, 99.0}) {
    const double want = perfbench::Percentile(exact, p);
    Expect(std::fabs(wide.PercentileNs(p) - want) <= want / 2048,
           "bucketed p" + std::to_string(p) + " within resolution");
  }

  // Negative samples count as 0; huge ones are clamped, not lost.
  perfbench::LatencyHistogram edges;
  edges.AddNs(-5);
  edges.AddNs(std::int64_t{1} << 50);
  ExpectNear(edges.PercentileNs(50.0), 0, "negative sample reads 0");
  Expect(edges.PercentileNs(100.0) > 1e12, "huge sample clamped");
  Expect(edges.samples() == 2 && !edges.valid(), "sparse run flagged");
  ExpectNear(perfbench::LatencyHistogram().PercentileNs(99.0), 0,
             "empty histogram reads 0");
}

void TestResultLatency() {
  // Three windows of 1000 samples; window w holds 1..1000 ms scaled by
  // (w + 1), so its p99 is 990 * (w + 1) and its p50 500 * (w + 1).
  perfbench::ResultLatency latency(1000, 1000);
  for (int w = 0; w < 3; ++w) {
    for (std::int64_t i = 1; i <= 1000; ++i) {
      latency.AddNs(i * (w + 1) * 1'000'000);
    }
  }
  latency.Finish();
  Expect(latency.windows() == 3, "three windows");
  Expect(latency.valid(), "windows large enough");
  ExpectNear(latency.p99_ms(), 990 * 2, "median of window p99s");
  ExpectNear(latency.p50_ms(), 500 * 2, "median of window p50s");
  Expect(latency.samples() == 3000, "sample count");

  // A stall confined to one window moves that window only; the whole-run
  // percentile, printed beside the windowed one, shows it.
  perfbench::ResultLatency stall(1000, 1000);
  for (int i = 0; i < 3000; ++i) {
    stall.AddNs(i < 40 ? 50'000'000 : 1'000'000);
  }
  stall.Finish();
  ExpectNear(stall.p99_ms(), 1.0, "windowed p99 skips a one-window stall");
  Expect(std::fabs(stall.run().p99_ms() - 50.0) <= 50.0 / 2048,
         "run p99 shows it");

  // A trailing window too small for p99 folds into the one before it:
  // 1000 ones and 20 hundreds make one window whose p99 (rank 1010) is 100.
  perfbench::ResultLatency folded(1000, 1000);
  for (int i = 0; i < 1000; ++i) folded.AddNs(1'000'000);
  for (int i = 0; i < 20; ++i) folded.AddNs(100'000'000);
  folded.Finish();
  Expect(folded.windows() == 1, "short tail folds into one window");
  ExpectNear(folded.p99_ms(), 100.0, "folded window's p99 sees the tail");
  Expect(folded.valid(), "folded window is large enough");

  // A tail that is large enough stays a window of its own.
  perfbench::ResultLatency tail(2000, 1000);
  for (int i = 0; i < 3500; ++i) tail.AddNs(1'000'000);
  tail.Finish();
  Expect(tail.windows() == 2 && tail.valid(), "large tail is its own window");

  // A run with fewer samples than p99 needs is flagged.
  perfbench::ResultLatency sparse(1000, 1000);
  for (int i = 0; i < 10; ++i) sparse.AddNs(1'000'000);
  sparse.Finish();
  Expect(sparse.windows() == 1 && !sparse.valid(), "sparse run flagged");
}

void TestStretchLatency() {
  // Each stretch's samples are scaled by the speed measured after it: a
  // stretch run at half speed (scale 0.5) reads 2 ms -> 1 ms.
  perfbench::StretchLatency latency;
  for (int i = 0; i < 10; ++i) latency.AddNs(1'000'000);
  latency.CloseStretch(1.0);
  for (int i = 0; i < 10; ++i) latency.AddNs(2'000'000);
  latency.CloseStretch(0.5);
  Expect(latency.raw().samples() == 20 && latency.scaled().samples() == 20,
         "both histograms see every sample");
  Expect(std::fabs(latency.scaled().PercentileNs(100.0) - 1'000'000) <=
             1'000'000.0 / 2048,
         "slow stretch scaled to the nominal host");
  Expect(std::fabs(latency.raw().PercentileNs(100.0) - 2'000'000) <=
             2'000'000.0 / 2048,
         "raw keeps the measured value");
  latency.CloseStretch(3.0);  // nothing pending: no change
  Expect(latency.scaled().samples() == 20, "empty stretch adds nothing");
}

void TestReplaySchedule() {
  // Base pass: event times (reach) 0, 10, 10, 20; period 100.
  const perfbench::ReplaySchedule schedule({0, 10, 10, 20}, 100);
  Expect(schedule.FirstReaching(0) == 0, "bound 0 -> event 0");
  Expect(schedule.FirstReaching(5) == 1, "bound 5 -> first at 10");
  Expect(schedule.FirstReaching(10) == 1, "ties take the first event");
  Expect(schedule.FirstReaching(20) == 3, "bound 20 -> event 3");
  // Past the pass's last event: the first event of the next pass.
  Expect(schedule.FirstReaching(21) == 4, "gap -> next pass");
  Expect(schedule.FirstReaching(99) == 4, "end of gap -> next pass");
  Expect(schedule.FirstReaching(110) == 5, "pass 1 offset 10");
  Expect(schedule.FirstReaching(-5) == 0, "negative bound -> event 0");
  Expect(schedule.PassOf(-20) == 0, "slightly early rows belong to pass 0");
  Expect(schedule.PassOf(-30) == -1, "far early rows belong to no pass");
  Expect(schedule.PassOf(170) == 1, "rows start within pass 1");
  Expect(schedule.PassOf(180) == 2, "late rows go to the next pass");
}

void TestHostSpeed() {
  perfbench::HostSpeed none;
  ExpectNear(none.scale(), 1.0, "no samples: unscaled");
  perfbench::HostSpeed host;
  host.Add(perfbench::kNominalCalibrationRate * 0.5);
  host.Add(perfbench::kNominalCalibrationRate * 0.8);
  host.Add(perfbench::kNominalCalibrationRate * 2.0);
  ExpectNear(host.scale(), 0.8, "scale is the median over nominal");
  ExpectNear(host.last_scale(), 2.0, "last slice's scale");
  Expect(perfbench::CalibrationRate(1'000'000) > 0, "calibration runs");
}

void TestFormat() {
  Expect(perfbench::FormatNumber(0.1) == "0.1", "shortest form");
  Expect(perfbench::FormatNumber(1234.5678) == "1234.5678", "all digits");
  Expect(perfbench::FormatNumber(1.0 / 3.0) == "0.3333333333333333",
         "round-trip digits");
  Expect(perfbench::FormatNumber(NAN) == "0", "non-finite becomes 0");
}

}  // namespace

int main() {
  TestPercentiles();
  TestLatencyHistogram();
  TestResultLatency();
  TestStretchLatency();
  TestReplaySchedule();
  TestHostSpeed();
  TestFormat();
  if (failures > 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
