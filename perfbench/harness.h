#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Metric arithmetic of the benchmark driver, kept free of library types so
// that selftest.cc can check it on synthetic samples:
//
//  * percentiles by nearest rank, and the rule that a percentile is only
//    reported when at least ten samples lie beyond it;
//  * result latency percentiles over every sample of a run, from a
//    histogram of fixed size, scaled stretch by stretch to the nominal host
//    on the closed loops and also summarised over windows on the served
//    workloads;
//  * attribution of a result row to the input event that released it, for
//    an input stream replayed in passes;
//  * the host-speed calibration that time metrics are scaled by.

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Smallest sample count with at least ten samples above the nearest-rank
/// `p`-th percentile (1000 for p99, 20 for p50).
inline std::size_t MinSamplesFor(double p) {
  std::size_t n = 1;
  while (n - static_cast<std::size_t>(std::ceil(p / 100.0 *
                                                static_cast<double>(n))) <
         10) {
    ++n;
  }
  return n;
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the value
/// at rank ceil(p/100 * n).
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return PercentileSorted(samples, p);
}

/// Median as Python's statistics.median gives it (mean of the middle two
/// for an even count).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// A set of timing samples summarised by its median and its 99th
/// percentile; `p99_valid()` says whether the sample count supports p99.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Reserve(std::size_t n) { values_.reserve(n); }
  std::size_t count() const { return values_.size(); }
  double p50() const { return Percentile(values_, 50.0); }
  double p99() const { return Percentile(values_, 99.0); }
  bool p99_valid() const { return count() >= MinSamplesFor(99.0); }
  double sum() const {
    double s = 0;
    for (double v : values_) s += v;
    return s;
  }

 private:
  std::vector<double> values_;
};

/// Result latency of one run: nearest-rank percentiles over every sample
/// of the run, held in a log-linear histogram so that its memory stays
/// fixed (about 256 KB) however long the run is, and so does its share of
/// the run's peak RSS. Samples are whole nanoseconds; values below 1024 ns
/// have buckets of their own, and above that each power of two is split
/// into 1024 buckets, so a reported percentile (its bucket's midpoint) is
/// within 0.05% of the sample at that rank.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 10;
  static constexpr std::uint64_t kSubBuckets = std::uint64_t{1} << kSubBits;
  /// Samples are clamped to 2^40 ns (about 18 minutes).
  static constexpr int kMaxBits = 40;

  LatencyHistogram()
      : counts_(static_cast<std::size_t>(kMaxBits - kSubBits + 1) *
                kSubBuckets) {}

  void AddNs(std::int64_t ns) {
    const std::uint64_t v = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0)),
        (std::uint64_t{1} << kMaxBits) - 1);
    ++counts_[Index(v)];
    ++samples_;
  }

  std::size_t samples() const { return samples_; }
  /// True when at least ten samples lie beyond p99.
  bool valid() const { return samples_ >= MinSamplesFor(99.0); }
  double p50_ms() const { return PercentileNs(50.0) / 1e6; }
  double p99_ms() const { return PercentileNs(99.0) / 1e6; }

  /// Nearest-rank percentile: the midpoint of the bucket that holds the
  /// sample at rank ceil(p/100 * n); 0 without samples.
  double PercentileNs(double p) const {
    if (samples_ == 0) return 0.0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples_)));
    rank = std::clamp<std::uint64_t>(rank, 1, samples_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        const std::uint64_t low = Lower(i);
        const std::uint64_t width = Lower(i + 1) - low;
        return static_cast<double>(low) +
               static_cast<double>(width - 1) / 2.0;
      }
    }
    return 0.0;  // not reached
  }

 private:
  static std::size_t Index(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBits;
    return static_cast<std::size_t>(
        ((static_cast<std::uint64_t>(shift) + 1) << kSubBits) +
        ((v >> shift) - kSubBuckets));
  }
  /// Smallest value of bucket `i`.
  static std::uint64_t Lower(std::size_t i) {
    if (i < kSubBuckets) return i;
    const int shift = static_cast<int>(i >> kSubBits) - 1;
    return ((i & (kSubBuckets - 1)) + kSubBuckets) << shift;
  }

  std::vector<std::uint64_t> counts_;
  std::size_t samples_ = 0;
};

/// Result latency of a closed loop, whose host's speed drifts within a
/// run: the samples of one stretch (a pass or a round) wait for the
/// calibration slice taken after it, and are then added both as measured
/// and scaled by that slice's speed.
class StretchLatency {
 public:
  void AddNs(std::int64_t ns) { pending_.push_back(ns); }
  void CloseStretch(double scale) {
    for (const std::int64_t ns : pending_) {
      raw_.AddNs(ns);
      scaled_.AddNs(static_cast<std::int64_t>(
          std::llround(static_cast<double>(ns) * scale)));
    }
    pending_.clear();
  }
  const LatencyHistogram& raw() const { return raw_; }
  const LatencyHistogram& scaled() const { return scaled_; }

 private:
  std::vector<std::int64_t> pending_;
  LatencyHistogram raw_;
  LatencyHistogram scaled_;
};

/// Result latency of one run, summarised two ways:
///
///  * over windows: samples are grouped, in arrival order, into windows of
///    `window_samples`, and p50 and p99 are the medians over windows of
///    each window's own nearest-rank percentile. A stretch of host noise
///    moves only the windows it covers; a slowdown that hits at least half
///    of the windows moves the result. A trailing window smaller than
///    `min_samples` (too small for its p99) is folded into the one before.
///  * over the whole run (`run()`): nearest-rank percentiles over every
///    sample, which also show a tail confined to a few windows.
class ResultLatency {
 public:
  explicit ResultLatency(std::size_t window_samples = 10'000,
                         std::size_t min_samples = MinSamplesFor(99.0))
      : window_samples_(window_samples), min_samples_(min_samples) {
    open_.reserve(window_samples_);
  }

  void AddNs(std::int64_t ns) {
    run_.AddNs(ns);
    open_.push_back(static_cast<double>(ns) / 1e6);
    if (open_.size() == window_samples_) {
      Summarise(open_);
      open_.clear();
    }
  }

  /// Closes the trailing window; call once after the last AddNs.
  void Finish() {
    if (open_.empty()) return;
    if (open_.size() < min_samples_ && !last_.empty()) {
      // Replace the last window's summary by that of last + tail.
      p50s_.pop_back();
      p99s_.pop_back();
      open_.insert(open_.end(), last_.begin(), last_.end());
    }
    Summarise(open_);
    open_.clear();
  }

  std::size_t samples() const { return run_.samples(); }
  std::size_t windows() const { return p50s_.size(); }
  /// True when every window held enough samples for its p99.
  bool valid() const { return !p50s_.empty() && short_windows_ == 0; }
  double p50_ms() const { return Median(p50s_); }
  double p99_ms() const { return Median(p99s_); }
  const LatencyHistogram& run() const { return run_; }

 private:
  void Summarise(std::vector<double>& window) {
    last_ = window;
    std::sort(window.begin(), window.end());
    if (window.size() < min_samples_) ++short_windows_;
    p50s_.push_back(PercentileSorted(window, 50.0));
    p99s_.push_back(PercentileSorted(window, 99.0));
  }

  LatencyHistogram run_;
  std::size_t window_samples_;
  std::size_t min_samples_;
  std::vector<double> open_;
  std::vector<double> last_;  // last closed window, kept for folding
  std::vector<double> p50s_;
  std::vector<double> p99s_;
  std::size_t short_windows_ = 0;
};

/// An input stream replayed in passes: event i of pass k is base event i
/// with its time shifted by k * period. `reach` holds, per base event in
/// push order, the largest event time pushed so far (non-decreasing; equal
/// to the event times for an ordered feed). The period must exceed the base
/// pass's time span, so passes never overlap.
class ReplaySchedule {
 public:
  ReplaySchedule(std::vector<std::int64_t> reach, std::int64_t period)
      : reach_(std::move(reach)), period_(period) {}

  /// Global push index of the first event whose time reaches `bound`
  /// (time >= bound). Rows are attributed to this input; an index at or
  /// past the number of events pushed marks a row that only end-of-stream
  /// flushing released.
  std::uint64_t FirstReaching(std::int64_t bound) const {
    std::int64_t pass = bound >= 0 ? bound / period_ : 0;
    const std::int64_t offset = bound - pass * period_;
    auto it = std::lower_bound(reach_.begin(), reach_.end(), offset);
    if (it == reach_.end()) {
      ++pass;
      it = reach_.begin();
    }
    return static_cast<std::uint64_t>(pass) * reach_.size() +
           static_cast<std::uint64_t>(it - reach_.begin());
  }

  /// Pass a result row belongs to, judged by its start: rows of pass k
  /// start within a quarter period of [k * period, (k + 1) * period).
  std::int64_t PassOf(std::int64_t start) const {
    const std::int64_t shifted = start + period_ / 4;
    return shifted >= 0 ? shifted / period_ : -1;
  }

 private:
  std::vector<std::int64_t> reach_;
  std::int64_t period_;
};

/// Runs of a fixed calibration kernel per second over `slice_ns`. The
/// kernel shares no code with the library (hash map, deque and vector work
/// of the kind a stream engine does), so its speed moves only with the
/// host: this machine shares its cores and caches with other tenants, and
/// its speed drifts by tens of percent from minute to minute.
inline double CalibrationRate(std::int64_t slice_ns) {
  const std::int64_t start = NowNs();
  std::int64_t now = start;
  int runs = 0;
  double sink = 0;
  do {
    std::unordered_map<std::uint64_t, std::vector<double>> groups;
    groups.reserve(1024);
    std::deque<std::pair<std::uint64_t, double>> window;
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::vector<double>& group = groups[x % 1024];
      group.push_back(static_cast<double>(x & 0xffff));
      window.emplace_back(x, sink);
      if (window.size() > 256) {
        sink += window.front().second * 1e-9;
        window.pop_front();
      }
      if (group.size() > 16) {
        for (const double v : group) sink += v;
        group.clear();
      }
    }
    ++runs;
    now = NowNs();
  } while (now - start < slice_ns);
  // Keep `sink` observable so the kernel is not optimized away.
  if (sink < 0) return 0;
  return static_cast<double>(runs) / (static_cast<double>(now - start) / 1e9);
}

/// Calibration rate of a typical quiet run on the 4-core development host;
/// it only sets the scale of the normalized numbers.
inline constexpr double kNominalCalibrationRate = 1250.0;

/// Host speed over a run, from calibration slices taken between measured
/// stretches. A slice's scale is its rate over the nominal one: a rate
/// measured right before it divides by it, a duration multiplies by it, to
/// read as on the nominal host. `scale()`, the median over the run, is
/// printed as `host_speed`.
class HostSpeed {
 public:
  /// Times one calibration slice; returns its rate over the nominal one.
  double Sample(std::int64_t slice_ns = 5'000'000) {
    rates_.push_back(CalibrationRate(slice_ns));
    return last_scale();
  }
  /// The last slice's rate over the nominal one (1 before any slice).
  double last_scale() const {
    return rates_.empty() ? 1.0 : rates_.back() / kNominalCalibrationRate;
  }
  void Add(double rate) { rates_.push_back(rate); }
  std::size_t samples() const { return rates_.size(); }
  double scale() const {
    return rates_.empty() ? 1.0 : Median(rates_) / kNominalCalibrationRate;
  }

 private:
  std::vector<double> rates_;
};

/// Shortest decimal form that reads back as exactly `v`.
inline std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
