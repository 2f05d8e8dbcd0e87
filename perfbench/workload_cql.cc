// cql_throughput: the single-threaded CQL path with no server.
//
// The loop pushes a chunk of events through `StreamWriter`, pumps the
// engine until it is idle, and polls every query, then repeats, pass after
// pass, until the run time is used up (the last pass is completed);
// events_per_s is the median of the passes' rates. A row's
// latency runs from the start of the push of the chunk holding the event
// that released it to the poll that returned it. Completed passes are
// checked against the reference while the clock is paused.
//
// Traced runs time every StreamWriter, Pump and Poll call on odd passes
// only; even passes (after the first, which warms up) run untraced, and the
// gap between the two rates is the tracing overhead.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "src/core/metrics.h"
#include "src/workloads/espbench_cql.h"

namespace perfbench {

namespace {

using pipes::engine::Engine;
using pipes::engine::QueryHandle;

constexpr std::size_t kChunkEvents = 256;
constexpr std::uint64_t kPumpSteps = 1024;

struct CqlState {
  CqlData data;
  std::unique_ptr<Engine> engine;
  std::vector<QueryHandle> handles;
  std::unique_ptr<Feeder> feeder;
};

/// Layer timings of the traced passes.
struct Trace {
  Samples ingest_us;
  std::uint64_t pump_calls = 0;
  std::uint64_t pump_steps = 0;
  std::uint64_t pump_idle_calls = 0;
  std::int64_t pump_ns = 0;
  std::int64_t poll_ns = 0;
  std::uint64_t poll_rows = 0;
  std::int64_t wall_ns = 0;
  std::uint64_t events = 0;
  Samples snapshot_us;
  double join_state_peak = 0;
  double graph_nodes_peak = 0;
  double state_bytes_peak = 0;
};

}  // namespace

RunReport RunCqlThroughput(const RunConfig& config) {
  RunReport report;
  PinTo({0});  // one thread; keep it on one CPU
  const std::vector<CqlQuery> queries = ResidentQueries();
  auto reference = ReferenceRows(config.seed);
  Require(reference.status(), "reference evaluation");
  Samples generate_s;
  std::unique_ptr<CqlState> state =
      MedianSetup<CqlState>(kSetupRepeats, report, [&] {
        auto s = std::make_unique<CqlState>();
        const std::int64_t t0 = NowNs();
        s->data = MakeCqlData(config.seed);
        generate_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
        s->engine = std::make_unique<Engine>();
        auto events = s->engine->AddStream(
            "events", pipes::workloads::EspbenchEventSchema());
        auto machines = s->engine->AddStream(
            "machines", pipes::workloads::EspbenchMachineSchema());
        auto orders = s->engine->AddStream(
            "orders", pipes::workloads::EspbenchOrderSchema());
        Require(events.status(), "add events");
        Require(machines.status(), "add machines");
        Require(orders.status(), "add orders");
        for (const CqlQuery& q : queries) {
          auto handle = s->engine->Register(q.text);
          Require(handle.status(), "register " + q.name);
          s->handles.push_back(*handle);
        }
        s->feeder = std::make_unique<Feeder>(s->data, *events, *machines,
                                             *orders);
        Require(s->feeder->PushMachines(), "push machines");
        return s;
      });
  report.Set("workloads.generate_s", generate_s.p50(), generate_s.count());

  PassChecker checker(*reference, queries.size(), PassChecker::Keys::kExact);

  Engine& engine = *state->engine;
  Feeder& feeder = *state->feeder;
  const std::size_t pass_size = state->data.events.size();
  const ReplaySchedule schedule(state->data.reach, kPassPeriodMs);

  Trace trace;
  StretchLatency latency;
  std::vector<std::uint64_t> chunk_first;  // first global index per chunk
  std::vector<std::int64_t> chunk_start_ns;
  std::uint64_t flush_rows = 0;
  std::uint64_t pushed = 0;
  std::int64_t paused_ns = 0;
  std::int64_t untraced_ns = 0;
  std::uint64_t untraced_events = 0;
  std::int64_t last_result_ns = 0;
  std::vector<double> pass_rates;
  std::vector<double> raw_pass_rates;
  HostSpeed host;
  const std::int64_t budget_ns = std::int64_t{config.seconds} * 1'000'000'000;

  const auto pump_until_idle = [&](bool traced) {
    std::uint64_t steps = 0;
    do {
      const std::int64_t t0 = traced ? NowNs() : 0;
      steps = engine.Pump(kPumpSteps);
      if (traced) {
        trace.pump_ns += NowNs() - t0;
        ++trace.pump_calls;
        trace.pump_steps += steps;
        if (steps == 0) ++trace.pump_idle_calls;
      }
    } while (steps == kPumpSteps);
  };
  const auto poll_all = [&](bool traced) {
    for (std::size_t q = 0; q < state->handles.size(); ++q) {
      const std::int64_t t0 = NowNs();
      std::vector<TupleElement> rows = state->handles[q].Poll();
      const std::int64_t recv = NowNs();
      if (traced) {
        trace.poll_ns += recv - t0;
        trace.poll_rows += rows.size();
      }
      if (!rows.empty()) last_result_ns = recv;
      for (TupleElement& row : rows) {
        const std::uint64_t j = schedule.FirstReaching(
            queries[q].EmissionBound(row.start()));
        if (j < pushed) {
          const std::size_t c = static_cast<std::size_t>(
              std::upper_bound(chunk_first.begin(), chunk_first.end(), j) -
              chunk_first.begin() - 1);
          latency.AddNs(recv - chunk_start_ns[c]);
        } else {
          ++flush_rows;
        }
        checker.Add(q, std::move(row));
      }
    }
  };

  const std::int64_t first_push_ns = NowNs();
  std::int64_t pass = 0;
  for (;; ++pass) {
    const bool traced = config.trace && pass % 2 == 1;
    pipes::obs::SetMetricsEnabled(traced);
    feeder.set_timing(traced ? &trace.ingest_us : nullptr);
    const std::int64_t pass_start = NowNs();
    const std::uint64_t pass_end = static_cast<std::uint64_t>(pass + 1) *
                                   pass_size;
    while (pushed < pass_end) {
      const std::uint64_t chunk_end =
          std::min<std::uint64_t>(pushed + kChunkEvents, pass_end);
      chunk_first.push_back(pushed);
      chunk_start_ns.push_back(NowNs());
      for (; pushed < chunk_end; ++pushed) {
        const pipes::Status s = feeder.PushEvent(pushed);
        if (!s.ok()) report.Fail(1, "push: " + s.ToString());
      }
      const pipes::Status s = feeder.Heartbeat();
      if (!s.ok()) report.Fail(1, "heartbeat: " + s.ToString());
      pump_until_idle(traced);
      poll_all(traced);
    }
    const std::int64_t pass_ns = NowNs() - pass_start;
    const std::int64_t pause_start = NowNs();
    const double scale = host.Sample();
    latency.CloseStretch(scale);
    const double rate =
        static_cast<double>(pass_size) / (static_cast<double>(pass_ns) / 1e9);
    raw_pass_rates.push_back(rate);
    pass_rates.push_back(rate / scale);
    if (traced) {
      trace.wall_ns += pass_ns;
      trace.events += pass_size;
    } else if (pass > 0) {
      untraced_ns += pass_ns;
      untraced_events += pass_size;
    }
    if (pause_start - first_push_ns - paused_ns >= budget_ns) {
      paused_ns += NowNs() - pause_start;
      break;
    }
    if (traced) {
      const std::int64_t t0 = NowNs();
      const pipes::metadata::MetricsSnapshot snap = engine.Snapshot();
      trace.snapshot_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      trace.join_state_peak = std::max(
          trace.join_state_peak, JoinStateBytes(engine.graph(), snap));
      const pipes::engine::EngineStats stats = engine.stats();
      trace.graph_nodes_peak = std::max(
          trace.graph_nodes_peak, static_cast<double>(stats.graph_nodes));
      trace.state_bytes_peak = std::max(
          trace.state_bytes_peak, static_cast<double>(stats.state_bytes));
    }
    checker.CheckPassesBefore(pass, report);
    paused_ns += NowNs() - pause_start;
  }
  pipes::obs::SetMetricsEnabled(false);
  feeder.set_timing(nullptr);
  {
    const pipes::Status s = feeder.Close();
    if (!s.ok()) report.Fail(1, "close: " + s.ToString());
  }
  pump_until_idle(false);
  poll_all(false);
  latency.CloseStretch(host.last_scale());  // rows the close released
  const std::int64_t wall_ns = last_result_ns - first_push_ns - paused_ns;
  report.Set("peak_rss_mb", PeakRssMb());

  const std::int64_t num_passes = pass + 1;
  report.attempted += feeder.calls();
  checker.Finish(num_passes, report);

  report.Set("events_per_s", Median(pass_rates), pass_rates.size());
  report.Info("events_per_s_raw", Median(raw_pass_rates), "1/s",
              raw_pass_rates.size());
  report.Info("events_per_s_whole_run",
              static_cast<double>(pushed) /
                  (static_cast<double>(wall_ns) / 1e9),
              "1/s", pushed);
  ReportLatency(latency, report);
  report.Info("host_speed", host.scale(), "ratio", host.samples());
  report.Info("flush_rows", static_cast<double>(flush_rows), "count");
  report.Info("passes", static_cast<double>(num_passes), "count");
  report.parameters["chunk_events"] = std::to_string(kChunkEvents);
  report.parameters["pass_events"] = std::to_string(pass_size);

  if (config.trace) {
    report.Set("engine.ingest.calls",
               static_cast<double>(trace.ingest_us.count()));
    report.Set("engine.ingest.busy_s", trace.ingest_us.sum() / 1e6,
               trace.ingest_us.count());
    report.Set("engine.ingest.p50_us", trace.ingest_us.p50(),
               trace.ingest_us.count());
    report.Set("engine.ingest.p99_us", trace.ingest_us.p99(),
               trace.ingest_us.count());
    report.Set("engine.pump.calls", static_cast<double>(trace.pump_calls));
    report.Set("engine.pump.steps", static_cast<double>(trace.pump_steps));
    report.Set("engine.pump.busy_s", static_cast<double>(trace.pump_ns) / 1e9);
    report.Set("engine.pump.idle_calls",
               static_cast<double>(trace.pump_idle_calls));
    report.Set("engine.pump.steps_per_event",
               static_cast<double>(trace.pump_steps) /
                   static_cast<double>(std::max<std::uint64_t>(1, trace.events)));
    report.Set("engine.poll.busy_s", static_cast<double>(trace.poll_ns) / 1e9);
    report.Set("engine.poll.rows", static_cast<double>(trace.poll_rows));
    report.Set("engine.graph_nodes.peak", trace.graph_nodes_peak);
    report.Set("engine.state_bytes.peak", trace.state_bytes_peak);
    report.Set("sweeparea.join.state_bytes_peak", trace.join_state_peak);
    report.Set("metadata.snapshot.p50_us", trace.snapshot_us.p50(),
               trace.snapshot_us.count());
    const double attributed =
        trace.ingest_us.sum() * 1e3 + static_cast<double>(trace.pump_ns) +
        static_cast<double>(trace.poll_ns);
    report.Set("ledger.unattributed_fraction",
               1.0 - attributed / static_cast<double>(trace.wall_ns));
    const double traced_rate = static_cast<double>(trace.events) /
                               static_cast<double>(trace.wall_ns);
    const double untraced_rate = static_cast<double>(untraced_events) /
                                 static_cast<double>(untraced_ns);
    report.Set("trace.overhead_fraction", 1.0 - traced_rate / untraced_rate);

    AddEngineStats(engine.stats(), report);
    AddOperatorMetrics(engine.graph(), engine.Snapshot(),
                       /*service_from_profile=*/false, report);

    AddCompileMetric(report);
  }
  return report;
}

}  // namespace perfbench
