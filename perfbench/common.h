#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Inputs, reference results and output checks shared by the workloads.
//
// Every workload replays one generated ESPBench pass (60 s of event time,
// about 27k telemetry events, 12 machines, 30 production orders, two
// overload episodes) as often as its run needs: pass k is the base pass
// shifted by k * kPassPeriodMs. The period leaves a gap longer than any
// order's validity and any window, so passes never interact and every pass
// must reproduce the base pass's results exactly, shifted. That lets one
// reference evaluation of the base pass check every row of a run of any
// length.

#include <compare>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/report.h"
#include "src/common/status.h"
#include "src/core/element.h"
#include "src/core/graph.h"
#include "src/engine/engine.h"
#include "src/metadata/snapshot.h"
#include "src/relational/tuple.h"
#include "src/testing/conformance.h"
#include "src/workloads/espbench.h"

namespace perfbench {

using pipes::Timestamp;
using pipes::relational::Tuple;
using TupleElement = pipes::StreamElement<Tuple>;

inline constexpr Timestamp kPassDurationMs = 60'000;
inline constexpr Timestamp kPassPeriodMs = 2 * kPassDurationMs;

/// Generator settings for `seed`: disordered feed (40 ms slack, 1% late
/// stragglers) with two overload episodes, so every catalog query emits.
pipes::workloads::EspbenchOptions BenchOptions(std::uint64_t seed);

/// Seed of the ERP dimensions (machines, orders). They stay fixed while the
/// telemetry follows --seed: with only 30 orders, a seeded order table
/// would change the join output, and so the work per event, by tens of
/// percent from seed to seed.
inline constexpr std::uint64_t kDimensionSeed = 42;

/// The CQL face of one pass: reordered, start-ordered event rows and the
/// two dimensions, as the CQL workloads push them.
struct CqlData {
  std::vector<TupleElement> events;
  std::vector<TupleElement> machines;
  std::vector<TupleElement> orders;  // sorted by start
  /// Event start times (the schedule's reach; the rows are ordered).
  std::vector<std::int64_t> reach;
};
CqlData MakeCqlData(std::uint64_t seed);

/// Event time an input must reach before a result row can be emitted. A
/// filter or join row is released by the event at its `start`. A hopping
/// window (`[RANGE w SLIDE s]`) aligns validity to the slide grid: an event
/// at t is visible on [ceil(t/s)*s, ceil((t+w)/s)*s), so an aggregate row
/// [a, b) holds only events with t <= a and becomes final once an event
/// after a arrives. Its bound is therefore a + 1, which leaves the window
/// length out of the latency.
inline Timestamp EmissionBound(bool window_aggregate, Timestamp start) {
  return window_aggregate ? start + 1 : start;
}

/// One resident query: a catalog entry and whether it is a window
/// aggregate (see EmissionBound).
struct CqlQuery {
  std::string name;
  std::string text;
  bool window_aggregate = false;

  Timestamp EmissionBound(Timestamp start) const {
    return perfbench::EmissionBound(window_aggregate, start);
  }
};
/// The five ESPBench catalog queries the resident tenant registers.
std::vector<CqlQuery> ResidentQueries();
/// Window aggregates the churn tenant registers and cancels; they overlap
/// the resident window queries, so registration exercises sharing.
const std::vector<std::string>& ChurnQueries();
/// `cql::Compile` catalog over the three stream schemas.
pipes::cql::Catalog BenchCatalog();

/// One reference result row of a resident query over the base pass,
/// reduced to keys of its payload (see TextKey and ExactKey).
struct ReferenceRow {
  std::uint32_t query = 0;
  Timestamp start = 0;
  Timestamp end = 0;
  std::int64_t text_key = 0;
  std::int64_t exact_key = 0;
};

/// Reference results of the resident queries over the base pass of `seed`,
/// from the independent `testing::conformance::ReferenceEval`. The
/// evaluator materializes everything (about 140 MB here), so it runs in a
/// child process and leaves the benchmark's peak RSS alone. Call it while
/// the process has no other threads.
pipes::Result<std::vector<ReferenceRow>> ReferenceRows(std::uint64_t seed);

/// Key of a tuple's wire rendering (`Tuple::ToString`, what the server
/// sends; doubles print with six digits).
std::int64_t TextKey(const std::string& text);
/// Key of a tuple's exact values.
std::int64_t ExactKey(const Tuple& tuple);

/// Checks result rows pass by pass against the reference by snapshot
/// equivalence. Rows are bucketed by pass, shifted back to base-pass time,
/// and compared per query on payload keys: an element-for-element match of
/// the sorted (start, end, key) triples settles it, and anything else goes
/// to `conformance::SnapshotDiff`, which accepts a different segmentation
/// of the same temporal relation.
class PassChecker {
 public:
  enum class Keys { kText, kExact };

  PassChecker(const std::vector<ReferenceRow>& reference,
              std::size_t num_queries, Keys keys);

  /// A row with its full payload (Keys::kExact; keyed when checked).
  void Add(std::size_t query, TupleElement row);
  /// A row already reduced to its key.
  void AddKeyed(std::size_t query, Timestamp start, Timestamp end,
                std::int64_t key);

  /// Checks (and frees) every pass below `end_pass` not checked yet.
  void CheckPassesBefore(std::int64_t end_pass, RunReport& report);
  /// Checks all remaining passes; exactly `num_passes` passes were pushed,
  /// so rows bucketed outside [0, num_passes) are unexpected.
  void Finish(std::int64_t num_passes, RunReport& report);

 private:
  void CheckPass(std::int64_t pass, RunReport& report);

  struct KeyedRow {
    Timestamp start;
    Timestamp end;
    std::int64_t key;
    auto operator<=>(const KeyedRow&) const = default;
  };
  /// Rows of one query in one pass, shifted to base-pass time: keyed ones
  /// and, for Keys::kExact, full ones still to be keyed.
  struct PassRows {
    std::vector<KeyedRow> keyed;
    std::vector<TupleElement> full;
  };
  PassRows& RowsOf(std::size_t query, std::int64_t pass);

  Keys keys_;
  /// Reference tables of keys, rows sorted by (start, end, key), and the
  /// same rows as sorted triples.
  std::vector<pipes::testing::conformance::IntervalTable> reference_;
  std::vector<std::vector<KeyedRow>> reference_keys_;
  ReplaySchedule schedule_;
  /// actual_[query][pass]; a pass below checked_before_ counts as stray.
  std::vector<std::vector<PassRows>> actual_;
  std::int64_t checked_before_ = 0;
  std::uint64_t stray_rows_ = 0;
};

/// Pushes the replayed CQL stream through the engine's three writers:
/// order rows interleave with events by time, and each Heartbeat advances
/// both dimensions so joins can release. Optionally times every writer
/// call (the `engine.ingest` layer).
class Feeder {
 public:
  Feeder(const CqlData& data, pipes::engine::StreamWriter events,
         pipes::engine::StreamWriter machines,
         pipes::engine::StreamWriter orders);

  /// Machine master data; call after the queries are registered.
  pipes::Status PushMachines();
  /// Pushes global event `j` (the next one), preceded by due orders.
  pipes::Status PushEvent(std::uint64_t j);
  /// Advances both dimension streams to the last pushed event's time.
  pipes::Status Heartbeat();
  pipes::Status Close();

  void set_timing(Samples* ingest_us) { ingest_us_ = ingest_us; }
  std::uint64_t calls() const { return calls_; }

 private:
  template <typename Fn>
  pipes::Status Call(Fn&& fn);

  const CqlData& data_;
  pipes::engine::StreamWriter events_;
  pipes::engine::StreamWriter machines_;
  pipes::engine::StreamWriter orders_;
  Samples* ingest_us_ = nullptr;
  std::uint64_t calls_ = 0;
  std::int64_t pass_ = -1;
  std::size_t next_order_ = 0;
  Timestamp last_time_ = pipes::kMinTimestamp;
  Timestamp heartbeat_ = pipes::kMinTimestamp;
};

/// Adds `algebra.<kind>.*` from a snapshot of `graph`: elements in/out per
/// operator kind and, when `service_from_profile`, the scheduler profile's
/// service time, otherwise the sampled service-time histograms.
void AddOperatorMetrics(const pipes::QueryGraph& graph,
                        const pipes::metadata::MetricsSnapshot& snapshot,
                        bool service_from_profile, RunReport& report);
/// Summed state bytes of the join nodes in `snapshot`.
double JoinStateBytes(const pipes::QueryGraph& graph,
                      const pipes::metadata::MetricsSnapshot& snapshot);

/// `optimizer.*` sharing counters from the engine's plan manager.
void AddEngineStats(const pipes::engine::EngineStats& stats,
                    RunReport& report);
/// `cql.compile.p50_us`: `cql::Compile` of every churn text, 20 rounds.
void AddCompileMetric(RunReport& report);

/// Reports a closed loop's result latency: p50 and p99 scaled to the
/// nominal host stretch by stretch, with the measured ones as `*_raw`
/// info lines.
void ReportLatency(const StretchLatency& latency, RunReport& report);

/// Restricts the calling thread, and the threads it starts afterwards, to
/// `cpus`, on hosts with at least 4 CPUs (elsewhere it does nothing).
/// Pinned threads keep the same CPUs from run to run, which steadies
/// latency on a host that other tenants share.
void PinTo(std::initializer_list<int> cpus);

/// Process high-water resident set, in MB.
double PeakRssMb();

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 25;

/// Runs `setup` `repeats` times, tearing down all but the last, and
/// records the median duration as `setup_s`. Each set-up lasts only a few
/// milliseconds, so the host's speed is taken right before each one (a
/// 3 ms calibration slice, see HostSpeed) and each duration is scaled to
/// the nominal host by it; the median unscaled duration is kept as
/// `setup_s_raw`. A run starts on an idle CPU, so 200 ms of the
/// calibration kernel run first to bring it up to speed.
template <typename State, typename SetupFn>
std::unique_ptr<State> MedianSetup(int repeats, RunReport& report,
                                   SetupFn&& setup) {
  CalibrationRate(200'000'000);
  std::vector<double> seconds;
  std::vector<double> raw_seconds;
  std::unique_ptr<State> state;
  for (int i = 0; i < repeats; ++i) {
    state.reset();  // tear the previous set-up down first
    const double scale =
        CalibrationRate(3'000'000) / kNominalCalibrationRate;
    const std::int64_t t0 = NowNs();
    state = setup();
    const double s = static_cast<double>(NowNs() - t0) / 1e9;
    raw_seconds.push_back(s);
    seconds.push_back(s * scale);
  }
  report.Set("setup_s", Median(seconds), seconds.size());
  report.Info("setup_s_raw", Median(raw_seconds), "s", raw_seconds.size());
  return state;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
