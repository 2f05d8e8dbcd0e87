// typed_fragments: the typed data plane with no Engine, tuples, CQL or
// server.
//
// A batch job run in rounds: each round builds a fresh graph in which the
// disordered ESPBench feed (kPassesPerRound passes of it) goes through the
// reorder adapter into the three typed fragments (sustained threshold
// alert, over-capacity enrichment, order enrichment), and `PipeExecutor`
// drains it. Rounds repeat until the run time is used up; events_per_s is
// the median of the rounds' rates. A row's latency
// runs from the moment the source pulled the event that released it to the
// moment the row reached its sink. Counts are checked per pass against a
// direct loop over the delivered events, between rounds.
//
// Traced runs attach a `scheduler::Profiler` and time every executor step
// on odd rounds; even rounds (after the first) run untraced.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "src/algebra/reorder.h"
#include "src/core/columnar.h"
#include "src/core/sink.h"
#include "src/scheduler/executor.h"
#include "src/scheduler/profiler.h"
#include "src/scheduler/strategy.h"
#include "src/workloads/espbench_queries.h"

namespace perfbench {

namespace {

namespace wl = pipes::workloads;
using pipes::StreamElement;

constexpr std::uint64_t kPassesPerRound = 4;
constexpr double kAlertThresholdW = 1'300.0;
constexpr Timestamp kAlertMinDurationMs = 5'000;
constexpr std::uint64_t kJoinSampleEverySteps = 16384;

/// One pass of the typed feed.
struct TypedData {
  wl::EspbenchOptions options;
  std::vector<wl::MachineEvent> raw;  // arrival order, disordered
  std::vector<std::int64_t> reach;    // running max event time
  std::vector<wl::MachineInfo> machines;
  std::vector<wl::ProductionOrder> orders;
};

TypedData MakeTypedData(std::uint64_t seed) {
  TypedData data;
  data.options = BenchOptions(seed);
  wl::EspbenchGenerator generator(data.options);
  while (auto e = generator.Next()) data.raw.push_back(*e);
  data.machines = wl::GenerateMachines(BenchOptions(kDimensionSeed));
  data.orders = wl::GenerateOrders(BenchOptions(kDimensionSeed));
  Timestamp max_seen = pipes::kMinTimestamp;
  data.reach.reserve(data.raw.size());
  for (const wl::MachineEvent& e : data.raw) {
    max_seen = std::max(max_seen, e.timestamp);
    data.reach.push_back(max_seen);
  }
  return data;
}

/// Expected fragment row counts of one pass.
struct Expected {
  std::uint64_t over_capacity = 0;
  std::uint64_t order_matches = 0;
};

/// Direct loop over the events the reorder adapter delivers: the same
/// slack rule, then each fragment's predicate by hand. Runs once, outside
/// the timed set-up.
Expected ExpectedCounts(const TypedData& data) {
  Expected expected;
  std::map<std::int64_t, double> rated;
  for (const wl::MachineInfo& m : data.machines) rated[m.id] = m.rated_power_w;
  const wl::OrderValidity validity;
  const Timestamp slack = data.options.disorder_slack_ms;
  Timestamp max_seen = pipes::kMinTimestamp;
  for (const wl::MachineEvent& e : data.raw) {
    const Timestamp t = e.timestamp;
    const bool dropped =
        max_seen > pipes::kMinTimestamp && t < max_seen - slack;
    max_seen = std::max(max_seen, t);
    if (dropped) continue;
    if (e.power_w > rated[e.machine]) ++expected.over_capacity;
    for (const wl::ProductionOrder& o : data.orders) {
      const pipes::TimeInterval valid = validity(o);
      if (o.machine == e.machine && valid.start <= t && t < valid.end) {
        ++expected.order_matches;
      }
    }
  }
  return expected;
}

/// Sink that hands every element to `fn` with one receive time per
/// delivery.
template <typename T>
class TimedSink : public pipes::Sink<T> {
 public:
  using Fn = std::function<void(const StreamElement<T>&, std::int64_t)>;

  explicit TimedSink(Fn fn) : pipes::Sink<T>("timed-sink"), fn_(std::move(fn)) {}

  pipes::NodeDescriptor Describe() const override {
    pipes::NodeDescriptor d = pipes::Sink<T>::Describe();
    d.op = "timed-sink";
    d.has_batch_kernel = true;
    d.has_columnar_kernel = true;
    return d;
  }

 protected:
  void PortElement(int /*port_id*/, const StreamElement<T>& e) override {
    fn_(e, NowNs());
  }
  void PortBatch(int /*port_id*/,
                 std::span<const StreamElement<T>> batch) override {
    const std::int64_t now = NowNs();
    for (const StreamElement<T>& e : batch) fn_(e, now);
  }
  void PortRun(int /*port_id*/, const pipes::ColumnarRun<T>& run) override {
    const std::int64_t now = NowNs();
    for (std::size_t i = 0; i < run.size(); ++i) fn_(run.ElementAt(i), now);
  }

 private:
  Fn fn_;
};

struct Alarm {
  std::int64_t pass;
  std::int64_t machine;
  Timestamp start;
  Timestamp end;
};

/// One round: a graph over kPassesPerRound passes, ready to drain.
struct Round {
  const TypedData* data = nullptr;
  ReplaySchedule schedule{{0}, kPassPeriodMs};
  pipes::QueryGraph graph;
  pipes::scheduler::RoundRobinStrategy strategy;
  std::unique_ptr<pipes::scheduler::PipeExecutor> executor;
  std::uint64_t total = 0;
  std::uint64_t next = 0;
  std::vector<std::int64_t> pull_ns;
  std::vector<std::uint64_t> over_capacity;  // per pass
  std::vector<std::uint64_t> order_matches;  // per pass
  std::vector<Alarm> alarms;
  StretchLatency* latency = nullptr;
  std::uint64_t flush_rows = 0;

  void Deliver(Timestamp bound, std::int64_t now) {
    const std::uint64_t j = schedule.FirstReaching(bound);
    if (j < next) {
      latency->AddNs(now - pull_ns[j]);
    } else {
      ++flush_rows;
    }
  }
  std::size_t PassIndex(Timestamp start) const {
    return static_cast<std::size_t>(
        std::clamp<std::int64_t>(schedule.PassOf(start), 0,
                                 kPassesPerRound - 1));
  }
};

std::unique_ptr<Round> BuildRound(const TypedData& data,
                                  StretchLatency& latency) {
  auto round = std::make_unique<Round>();
  Round* r = round.get();
  r->data = &data;
  r->schedule = ReplaySchedule(data.reach, kPassPeriodMs);
  r->latency = &latency;
  r->total = kPassesPerRound * data.raw.size();
  r->pull_ns.assign(r->total, 0);
  r->over_capacity.assign(kPassesPerRound, 0);
  r->order_matches.assign(kPassesPerRound, 0);

  auto& source = r->graph.Add<pipes::algebra::ReorderingSource<wl::MachineEvent>>(
      [r]() -> std::optional<StreamElement<wl::MachineEvent>> {
        if (r->next == r->total) return std::nullopt;
        const std::size_t n = r->data->raw.size();
        wl::MachineEvent e = r->data->raw[r->next % n];
        e.timestamp += static_cast<Timestamp>(r->next / n) * kPassPeriodMs;
        r->pull_ns[r->next++] = NowNs();
        const Timestamp t = e.timestamp;
        return StreamElement<wl::MachineEvent>::Point(std::move(e), t);
      },
      data.options.disorder_slack_ms, "espbench-reorder");

  auto& alerts = wl::BuildPowerThresholdAlertQuery(
      r->graph, source, kAlertThresholdW, kAlertMinDurationMs);
  using AlarmT = wl::Sustained<std::int64_t>;
  auto& alert_sink = r->graph.Add<TimedSink<AlarmT>>(
      [r](const StreamElement<AlarmT>& e, std::int64_t now) {
        r->Deliver(EmissionBound(/*window_aggregate=*/true, e.start()), now);
        r->alarms.push_back({r->schedule.PassOf(e.start()), e.payload.key,
                             e.start(), e.end()});
      });
  alerts.AddSubscriber(alert_sink.input());

  auto& machines = wl::AddMachineDimensionSource(r->graph, data.machines);
  auto& over = wl::BuildOverCapacityQuery(r->graph, source, machines);
  auto& over_sink = r->graph.Add<TimedSink<wl::EventWithMachine>>(
      [r](const StreamElement<wl::EventWithMachine>& e, std::int64_t now) {
        r->Deliver(EmissionBound(/*window_aggregate=*/false, e.start()), now);
        ++r->over_capacity[r->PassIndex(e.start())];
      });
  over.AddSubscriber(over_sink.input());

  std::vector<wl::ProductionOrder> orders;
  for (std::uint64_t pass = 0; pass < kPassesPerRound; ++pass) {
    for (wl::ProductionOrder o : data.orders) {
      const Timestamp shift = static_cast<Timestamp>(pass) * kPassPeriodMs;
      o.start += shift;
      o.due += shift;
      orders.push_back(o);
    }
  }
  auto& order_source = wl::AddOrderDimensionSource(r->graph, orders);
  auto& joined = wl::BuildOrderEnrichmentJoin(r->graph, source, order_source);
  auto& join_sink = r->graph.Add<TimedSink<wl::EventWithOrder>>(
      [r](const StreamElement<wl::EventWithOrder>& e, std::int64_t now) {
        r->Deliver(EmissionBound(/*window_aggregate=*/false, e.start()), now);
        ++r->order_matches[r->PassIndex(e.start())];
      });
  joined.AddSubscriber(join_sink.input());

  r->executor = std::make_unique<pipes::scheduler::PipeExecutor>(
      r->graph, r->strategy);
  return round;
}

/// Checks one drained round against the per-pass expectations.
void CheckRound(const Round& r, const Expected& expected, RunReport& report) {
  const TypedData& data = *r.data;
  const auto check_count = [&report](const char* what, std::uint64_t pass,
                                     std::uint64_t got, std::uint64_t want) {
    report.attempted += want;
    if (got == want) return;
    report.Fail(got > want ? got - want : want - got,
                std::string(what) + " pass " + std::to_string(pass) + ": " +
                    std::to_string(got) + " rows, expected " +
                    std::to_string(want));
  };
  for (std::uint64_t pass = 0; pass < kPassesPerRound; ++pass) {
    check_count("over-capacity", pass, r.over_capacity[pass],
                expected.over_capacity);
    check_count("order-enrichment", pass, r.order_matches[pass],
                expected.order_matches);
    const Timestamp shift = static_cast<Timestamp>(pass) * kPassPeriodMs;
    for (const wl::OverloadEpisode& episode : data.options.overloads) {
      ++report.attempted;
      const bool raised = std::any_of(
          r.alarms.begin(), r.alarms.end(), [&](const Alarm& a) {
            return a.pass == static_cast<std::int64_t>(pass) &&
                   a.machine == episode.machine &&
                   a.start < episode.end + shift &&
                   a.end > episode.begin + shift;
          });
      if (!raised) {
        report.Fail(1, "no alarm for the overload of machine " +
                           std::to_string(episode.machine) + " in pass " +
                           std::to_string(pass));
      }
    }
  }
}

struct TypedState {
  TypedData data;
  std::unique_ptr<Round> first_round;
};

}  // namespace

RunReport RunTypedFragments(const RunConfig& config) {
  RunReport report;
  PinTo({0});  // one thread; keep it on one CPU
  StretchLatency latency;
  Samples generate_s;
  std::unique_ptr<TypedState> state =
      MedianSetup<TypedState>(kSetupRepeats, report, [&] {
        auto s = std::make_unique<TypedState>();
        const std::int64_t t0 = NowNs();
        s->data = MakeTypedData(config.seed);
        generate_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
        s->first_round = BuildRound(s->data, latency);
        return s;
      });
  report.Set("workloads.generate_s", generate_s.p50(), generate_s.count());
  const Expected expected = ExpectedCounts(state->data);
  report.parameters["passes_per_round"] = std::to_string(kPassesPerRound);
  report.parameters["pass_events"] = std::to_string(state->data.raw.size());

  const std::int64_t budget_ns = std::int64_t{config.seconds} * 1'000'000'000;
  std::int64_t measured_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t flush_rows = 0;
  std::int64_t untraced_ns = 0;
  std::uint64_t untraced_events = 0;
  std::int64_t traced_ns = 0;
  std::uint64_t traced_events = 0;
  std::int64_t step_ns = 0;
  std::uint64_t steps = 0;
  double join_state_peak = 0;
  std::vector<double> round_rates;
  std::vector<double> raw_round_rates;
  HostSpeed host;
  std::unique_ptr<Round> round = std::move(state->first_round);
  for (int index = 0; measured_ns < budget_ns; ++index) {
    if (round == nullptr) round = BuildRound(state->data, latency);
    const bool traced = config.trace && index % 2 == 1;
    pipes::scheduler::Profiler profiler;
    if (traced) round->executor->set_profiler(&profiler);

    const std::int64_t start = NowNs();
    if (traced) {
      for (;;) {
        const std::int64_t t0 = NowNs();
        const bool more = round->executor->Step();
        step_ns += NowNs() - t0;
        if (!more) break;
        if (++steps % kJoinSampleEverySteps == 0) {
          join_state_peak = std::max(
              join_state_peak,
              JoinStateBytes(round->graph,
                             pipes::metadata::CaptureSnapshot(round->graph)));
        }
      }
    } else {
      while (round->executor->Step()) {
      }
    }
    const std::int64_t round_ns = NowNs() - start;
    const double scale = host.Sample();
    latency.CloseStretch(scale);
    const double rate = static_cast<double>(round->total) /
                        (static_cast<double>(round_ns) / 1e9);
    raw_round_rates.push_back(rate);
    round_rates.push_back(rate / scale);
    measured_ns += round_ns;
    events += round->total;
    flush_rows += round->flush_rows;
    if (traced) {
      traced_ns += round_ns;
      traced_events += round->total;
      pipes::metadata::CaptureOptions options;
      options.profiler = &profiler;
      AddOperatorMetrics(round->graph,
                         pipes::metadata::CaptureSnapshot(round->graph, options),
                         /*service_from_profile=*/true, report);
      round->executor->set_profiler(nullptr);
    } else if (index > 0) {
      untraced_ns += round_ns;
      untraced_events += round->total;
    }
    CheckRound(*round, expected, report);
    round.reset();
  }
  report.Set("peak_rss_mb", PeakRssMb());

  report.Set("events_per_s", Median(round_rates), round_rates.size());
  report.Info("events_per_s_raw", Median(raw_round_rates), "1/s",
              raw_round_rates.size());
  report.Info("events_per_s_whole_run",
              static_cast<double>(events) /
                  (static_cast<double>(measured_ns) / 1e9),
              "1/s", events);
  ReportLatency(latency, report);
  report.Info("host_speed", host.scale(), "ratio", host.samples());
  report.Info("flush_rows", static_cast<double>(flush_rows), "count");

  if (config.trace) {
    report.Set("scheduler.executor.steps", static_cast<double>(steps));
    report.Set("scheduler.executor.busy_s", static_cast<double>(step_ns) / 1e9);
    report.Set("scheduler.executor.steps_per_event",
               static_cast<double>(steps) /
                   static_cast<double>(std::max<std::uint64_t>(1, traced_events)));
    report.Set("sweeparea.join.state_bytes_peak", join_state_peak);
    report.Set("ledger.unattributed_fraction",
               1.0 - static_cast<double>(step_ns) /
                         static_cast<double>(traced_ns));
    report.Set("trace.overhead_fraction",
               1.0 - (static_cast<double>(traced_events) /
                      static_cast<double>(traced_ns)) /
                         (static_cast<double>(untraced_events) /
                          static_cast<double>(untraced_ns)));
  }
  return report;
}

}  // namespace perfbench
