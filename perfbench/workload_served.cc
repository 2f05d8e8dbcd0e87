// served_latency and tenant_churn: the ESPBench stream served over TCP.
//
// An open loop: a generator thread waits until each event's scheduled
// send time (kEventRate per second) and pushes it through `StreamWriter`
// into the engine behind `PipesServer`, which pumps on its own thread. The
// resident tenant's client registers the five catalog queries, FETCHes
// them in rounds (waiting 200 us after a round that returned nothing) and
// asks for a tenant SNAPSHOT once a second, as `pipes_top --connect` does.
// A row's latency runs from the scheduled send time of the event that
// released it to the moment its FETCH reply arrived; p50 and p99 are
// medians over windows of rows (see ResultLatency), with the whole-run
// percentiles printed beside them.
//
// tenant_churn adds a second client on its own thread that registers a
// window aggregate and cancels the oldest of its live ones kChurnPairs
// times a second, on a fixed schedule.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/workloads.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/workloads/espbench_cql.h"

namespace perfbench {

namespace {

using pipes::engine::Engine;
using pipes::server::Client;
using pipes::server::PipesServer;

constexpr double kEventRate = 50'000;  // events per second, offered
constexpr double kChurnPairs = 200;    // register+cancel pairs per second
constexpr std::size_t kChurnLive = 4;  // churn queries alive at once
constexpr std::size_t kMinChurnPairs = 1000;
constexpr std::uint32_t kFetchMax = 4096;
constexpr std::int64_t kEmptyRoundWaitNs = 200'000;
constexpr std::int64_t kQuietNs = 200'000'000;  // drained after a quiet spell
constexpr std::int64_t kSnapshotEveryNs = 1'000'000'000;
constexpr std::int64_t kStatsEveryNs = 100'000'000;
constexpr double kLateMs = 1.0;
// A query's rows arrive in start order, so once a query has delivered a
// row of pass k + 1 it has delivered all of pass k. A pass is checked (and
// its rows freed) only once every resident query has delivered rows
// kCheckLagPasses passes further on, which leaves a pass of margin and
// follows the results, not the generator, when the server falls behind.
constexpr std::int64_t kCheckLagPasses = 2;
constexpr int kCalibrationSlices = 20;  // before and after the stream
// Thread placement (see PinTo): the server's threads (pump, accept,
// connections) share CPUs 2-3, the generator has CPU 0, the clients CPU 1.
// Left to the scheduler, which threads happened to share a CPU moved the
// median latency by a third from run to run.

struct ServedState {
  CqlData data;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<PipesServer> server;
  std::optional<Client> resident;
  std::optional<Client> churn;
  std::vector<std::uint64_t> query_ids;
  std::unique_ptr<Feeder> feeder;
};

Client Connect(int port, const std::string& tenant) {
  auto client = Client::Connect("127.0.0.1", port, tenant);
  Require(client.status(), "connect " + tenant);
  return std::move(*client);
}

/// Sleeps until `t`. The generator and the clients sleep rather than
/// spin: on the shared development host, spinning generator and client
/// left tenant_churn's windowed p99 less steady at no lower latency
/// (spread 0.22 against 0.065 and median 3.26 against 2.92 ms over
/// alternating runs of seeds 51-58).
void SleepUntilNs(std::int64_t t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(t)));
}

/// Results of the generator thread.
struct Generated {
  Samples lag_ms;
  std::uint64_t late = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
};

/// Results of the churn thread.
struct Churned {
  Samples register_ms;
  Samples cancel_ms;
  Samples lag_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
};

}  // namespace

RunReport RunServed(const RunConfig& config, bool churn) {
  RunReport report;
  const std::vector<CqlQuery> queries = ResidentQueries();
  auto reference = ReferenceRows(config.seed);  // before any thread starts
  Require(reference.status(), "reference evaluation");
  Samples generate_s;
  std::unique_ptr<ServedState> state =
      MedianSetup<ServedState>(kSetupRepeats, report, [&] {
        auto s = std::make_unique<ServedState>();
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
        s->server = std::make_unique<PipesServer>(*s->engine);
        PinTo({2, 3});  // inherited by the server's threads
        Require(s->server->Start(), "server start");
        PinTo({1});
        s->resident.emplace(Connect(s->server->port(), "resident"));
        if (churn) s->churn.emplace(Connect(s->server->port(), "churn"));
        for (const CqlQuery& q : queries) {
          auto registered = s->resident->Register(q.text);
          Require(registered.status(), "register " + q.name);
          s->query_ids.push_back(registered->query_id);
        }
        // The server pumps from Start on, so the dimensions are pushed only
        // now that the joins are registered; rows pushed earlier would
        // drain with no subscriber.
        s->feeder = std::make_unique<Feeder>(s->data, *events, *machines,
                                             *orders);
        Require(s->feeder->PushMachines(), "push machines");
        return s;
      });
  report.Set("workloads.generate_s", generate_s.p50(), generate_s.count());

  const std::size_t pass_size = state->data.events.size();
  const ReplaySchedule schedule(state->data.reach, kPassPeriodMs);
  const std::size_t churn_pairs =
      churn ? std::max<std::size_t>(
                  kMinChurnPairs,
                  static_cast<std::size_t>(kChurnPairs * config.seconds))
            : 0;
  const double stream_seconds =
      std::max<double>(config.seconds, churn_pairs / kChurnPairs);
  const std::int64_t num_passes = static_cast<std::int64_t>(std::ceil(
      kEventRate * stream_seconds / static_cast<double>(pass_size)));
  const std::uint64_t total =
      static_cast<std::uint64_t>(num_passes) * pass_size;
  report.parameters["offered_events_per_s"] = std::to_string(kEventRate);
  report.parameters["pass_events"] = std::to_string(pass_size);
  if (churn) {
    report.parameters["offered_churn_pairs_per_s"] =
        std::to_string(kChurnPairs);
  }

  HostSpeed host;
  for (int i = 0; i < kCalibrationSlices; ++i) host.Sample();
  const std::int64_t start_ns = NowNs() + 5'000'000;
  const auto scheduled_ns = [&](std::uint64_t j) {
    return start_ns + static_cast<std::int64_t>(static_cast<double>(j) *
                                                1e9 / kEventRate);
  };

  Samples ingest_us;
  Feeder& feeder = *state->feeder;
  if (config.trace) feeder.set_timing(&ingest_us);
  std::atomic<bool> generator_done{false};
  Generated generated;
  if (config.trace) {
    generated.lag_ms.Reserve(total);
    ingest_us.Reserve(total * 2);
  }
  std::jthread generator([&] {
    PinTo({0});
    const auto fail = [&](const pipes::Status& s) {
      if (generated.failed++ == 0) generated.first_failure = s.ToString();
    };
    std::uint64_t j = 0;
    while (j < total) {
      SleepUntilNs(scheduled_ns(j));
      const std::int64_t now = NowNs();
      for (; j < total && scheduled_ns(j) <= now; ++j) {
        const double lag_ms = static_cast<double>(now - scheduled_ns(j)) / 1e6;
        if (config.trace) generated.lag_ms.Add(lag_ms);
        if (lag_ms > kLateMs) ++generated.late;
        const pipes::Status s = feeder.PushEvent(j);
        if (!s.ok()) fail(s);
      }
      const pipes::Status s = feeder.Heartbeat();
      if (!s.ok()) fail(s);
    }
    const pipes::Status s = feeder.Close();
    if (!s.ok()) fail(s);
    generator_done.store(true);
  });

  Churned churned;
  std::jthread churner;
  if (churn) {
    churner = std::jthread([&] {
      Client& client = *state->churn;
      std::deque<std::uint64_t> live;
      const auto fail = [&](const pipes::Status& s) {
        if (churned.failed++ == 0) churned.first_failure = s.ToString();
      };
      const auto cancel_oldest = [&] {
        const std::int64_t t0 = NowNs();
        const pipes::Status s = client.Cancel(live.front());
        churned.cancel_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
        ++churned.attempted;
        if (!s.ok()) fail(s);
        live.pop_front();
      };
      const std::vector<std::string>& texts = ChurnQueries();
      for (std::size_t i = 0; i < churn_pairs; ++i) {
        const std::int64_t due = start_ns + static_cast<std::int64_t>(
                                                static_cast<double>(i) * 1e9 /
                                                kChurnPairs);
        SleepUntilNs(due);
        const std::int64_t t0 = NowNs();
        if (config.trace) {
          churned.lag_ms.Add(static_cast<double>(t0 - due) / 1e6);
        }
        auto registered = client.Register(texts[i % texts.size()]);
        churned.register_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
        ++churned.attempted;
        if (registered.ok()) {
          live.push_back(registered->query_id);
        } else {
          fail(registered.status());
        }
        if (live.size() > kChurnLive) cancel_oldest();
      }
      while (!live.empty()) cancel_oldest();
    });
  }

  // The resident tenant's client, on this thread.
  Client& client = *state->resident;
  ResultLatency latency;
  Samples fetch_us;
  Samples snapshot_ms;
  Samples engine_snapshot_us;
  std::uint64_t fetch_calls = 0;
  std::uint64_t empty_fetches = 0;
  std::uint64_t rows_fetched = 0;
  std::uint64_t flush_rows = 0;
  std::uint64_t early_rows = 0;
  double graph_nodes_peak = 0;
  double state_bytes_peak = 0;
  // Rows are checked against the reference pass by pass during the run,
  // so the benchmark holds only the last few passes' rows.
  PassChecker checker(*reference, queries.size(), PassChecker::Keys::kText);
  double check_max_ms = 0;
  std::int64_t last_result_ns = start_ns;
  std::int64_t next_snapshot_ns = start_ns + kSnapshotEveryNs;
  std::int64_t next_stats_ns = start_ns;
  std::int64_t quiet_since_ns = 0;
  std::int64_t checked_before = 0;
  std::vector<std::int64_t> last_pass(queries.size(), -1);  // per query
  for (;;) {
    bool any = false;
    for (std::size_t q = 0; q < state->query_ids.size(); ++q) {
      const std::int64_t t0 = NowNs();
      auto rows = client.Fetch(state->query_ids[q], kFetchMax);
      const std::int64_t recv = NowNs();
      if (config.trace) fetch_us.Add(static_cast<double>(recv - t0) / 1e3);
      ++fetch_calls;
      if (!rows.ok()) {
        report.Fail(1, "fetch: " + rows.status().ToString());
        continue;
      }
      if (rows->empty()) {
        ++empty_fetches;
        continue;
      }
      any = true;
      last_result_ns = recv;
      rows_fetched += rows->size();
      for (const Client::Row& row : *rows) {
        const std::uint64_t j = schedule.FirstReaching(
            queries[q].EmissionBound(row.start));
        if (j < total) {
          const std::int64_t lat = recv - scheduled_ns(j);
          if (lat < 0) ++early_rows;
          latency.AddNs(lat);
        } else {
          ++flush_rows;
        }
        checker.AddKeyed(q, row.start, row.end, TextKey(row.tuple));
        last_pass[q] = std::max(last_pass[q], schedule.PassOf(row.start));
      }
    }
    const std::int64_t now = NowNs();
    if (now >= next_snapshot_ns) {
      next_snapshot_ns += kSnapshotEveryNs;
      const std::int64_t t0 = NowNs();
      auto json = client.SnapshotJson();
      snapshot_ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
      if (!json.ok()) report.Fail(1, "snapshot: " + json.status().ToString());
      if (config.trace) {
        const std::int64_t s0 = NowNs();
        const pipes::metadata::MetricsSnapshot snap = state->engine->Snapshot();
        engine_snapshot_us.Add(static_cast<double>(NowNs() - s0) / 1e3);
      }
    }
    if (config.trace && now >= next_stats_ns) {
      next_stats_ns += kStatsEveryNs;
      const pipes::engine::EngineStats stats = state->engine->stats();
      graph_nodes_peak =
          std::max(graph_nodes_peak, static_cast<double>(stats.graph_nodes));
      state_bytes_peak =
          std::max(state_bytes_peak, static_cast<double>(stats.state_bytes));
    }
    if (any) {
      quiet_since_ns = 0;
      continue;
    }
    // After a round that returned nothing, check the passes that are
    // complete instead of idling.
    const std::int64_t complete =
        *std::min_element(last_pass.begin(), last_pass.end()) + 1 -
        kCheckLagPasses;
    if (complete > checked_before) {
      const std::int64_t t0 = NowNs();
      checker.CheckPassesBefore(complete, report);
      check_max_ms = std::max(check_max_ms,
                              static_cast<double>(NowNs() - t0) / 1e6);
      checked_before = complete;
      continue;
    }
    if (generator_done.load()) {
      if (quiet_since_ns == 0) {
        quiet_since_ns = now;
      } else if (now - quiet_since_ns >= kQuietNs) {
        break;
      }
    }
    SleepUntilNs(NowNs() + kEmptyRoundWaitNs);
  }
  generator.join();
  if (churner.joinable()) churner.join();
  report.Set("peak_rss_mb", PeakRssMb());

  // Operation outcomes.
  report.attempted += fetch_calls + snapshot_ms.count() + feeder.calls() +
                      churned.attempted;
  if (generated.failed > 0) {
    report.Fail(generated.failed, "push: " + generated.first_failure);
  }
  if (churned.failed > 0) {
    report.Fail(churned.failed, "churn: " + churned.first_failure);
  }
  if (early_rows > 0) {
    report.Warn(std::to_string(early_rows) +
                " rows arrived before their input was due");
  }
  const pipes::engine::EngineStats stats = state->engine->stats();
  state.reset();  // disconnect, stop the server, free the engine
  for (int i = 0; i < kCalibrationSlices; ++i) host.Sample();

  // The passes not checked during the run.
  checker.Finish(num_passes, report);

  const double wall_s = static_cast<double>(last_result_ns - start_ns) / 1e9;
  report.Set("events_per_s", static_cast<double>(total) / wall_s, total);
  latency.Finish();
  report.Set("result_latency_p50_ms", latency.p50_ms(), latency.samples());
  report.Set("result_latency_p99_ms", latency.p99_ms(), latency.samples());
  if (!latency.valid()) report.Warn("too few latency samples for p99");
  // The same samples over the whole run, which also show a tail confined
  // to a few windows.
  report.Info("result_latency_run_p50_ms", latency.run().p50_ms(), "ms",
              latency.samples());
  report.Info("result_latency_run_p99_ms", latency.run().p99_ms(), "ms",
              latency.samples());
  report.Info("latency_windows", static_cast<double>(latency.windows()),
              "count");
  report.Info("host_speed", host.scale(), "ratio", host.samples());
  report.Info("flush_rows", static_cast<double>(flush_rows), "count");
  report.Info("in_run_check_max_ms", check_max_ms, "ms");
  report.Info("passes", static_cast<double>(num_passes), "count");
  if (churn) {
    if (!churned.register_ms.p99_valid() || !churned.cancel_ms.p99_valid()) {
      report.Warn("too few register/cancel samples for p99");
    }
    report.Info("register_p50_ms", churned.register_ms.p50(), "ms",
                churned.register_ms.count());
    report.Info("register_p99_ms", churned.register_ms.p99(), "ms",
                churned.register_ms.count());
    report.Info("cancel_p50_ms", churned.cancel_ms.p50(), "ms",
                churned.cancel_ms.count());
    report.Info("cancel_p99_ms", churned.cancel_ms.p99(), "ms",
                churned.cancel_ms.count());
  }

  if (config.trace) {
    report.Set("engine.ingest.calls", static_cast<double>(ingest_us.count()));
    report.Set("engine.ingest.busy_s", ingest_us.sum() / 1e6,
               ingest_us.count());
    report.Set("engine.ingest.p50_us", ingest_us.p50(), ingest_us.count());
    report.Set("engine.ingest.p99_us", ingest_us.p99(), ingest_us.count());
    report.Set("engine.graph_nodes.peak", graph_nodes_peak);
    report.Set("engine.state_bytes.peak", state_bytes_peak);
    report.Set("server.fetch.calls", static_cast<double>(fetch_calls));
    report.Set("server.fetch.rtt_p50_us", fetch_us.p50(), fetch_us.count());
    report.Set("server.fetch.rtt_p99_us", fetch_us.p99(), fetch_us.count());
    report.Set("server.fetch.rows_per_call",
               static_cast<double>(rows_fetched) /
                   static_cast<double>(fetch_calls));
    report.Set("server.fetch.empty_ratio",
               static_cast<double>(empty_fetches) /
                   static_cast<double>(fetch_calls));
    report.Set("server.snapshot.rtt_ms", snapshot_ms.p50(),
               snapshot_ms.count());
    report.Set("metadata.snapshot.p50_us", engine_snapshot_us.p50(),
               engine_snapshot_us.count());
    report.Set("bench.generator.lag_p99_ms", generated.lag_ms.p99(),
               generated.lag_ms.count());
    report.Set("bench.generator.late_fraction",
               static_cast<double>(generated.late) /
                   static_cast<double>(total));
    if (churn) {
      report.Set("server.register.rtt_p50_ms", churned.register_ms.p50(),
                 churned.register_ms.count());
      report.Set("server.register.rtt_p99_ms", churned.register_ms.p99(),
                 churned.register_ms.count());
      report.Set("server.cancel.rtt_p50_ms", churned.cancel_ms.p50(),
                 churned.cancel_ms.count());
      report.Set("server.cancel.rtt_p99_ms", churned.cancel_ms.p99(),
                 churned.cancel_ms.count());
      report.Set("bench.churn.lag_p99_ms", churned.lag_ms.p99(),
                 churned.lag_ms.count());
    }
    AddEngineStats(stats, report);
    AddCompileMetric(report);
  }
  return report;
}

}  // namespace perfbench
