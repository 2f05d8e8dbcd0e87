#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// What one benchmark run reports. The metric tables below are the single
// list of names and units; BENCHMARK.json at the repository root repeats
// them (end_to_end = EndToEndSpecs, per_layer = PerLayerSpecs).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Reported by every workload's untraced run.
inline const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> kSpecs = {
      {"events_per_s", "1/s"},
      {"result_latency_p50_ms", "ms"},
      {"result_latency_p99_ms", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kSpecs;
}

/// Operator kinds the per-layer `algebra.<kind>.*` metrics group nodes by.
inline const std::vector<std::string>& OperatorKinds() {
  static const std::vector<std::string> kKinds = {
      "source", "filter", "map", "window", "aggregate", "join", "sustained",
      "sink"};
  return kKinds;
}

/// Reported by every workload's traced run; a layer the workload does not
/// cross reports 0.
inline const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> kSpecs = [] {
    std::vector<MetricSpec> specs = {
        {"engine.ingest.calls", "count"},
        {"engine.ingest.busy_s", "s"},
        {"engine.ingest.p50_us", "us"},
        {"engine.ingest.p99_us", "us"},
        {"engine.pump.calls", "count"},
        {"engine.pump.steps", "count"},
        {"engine.pump.busy_s", "s"},
        {"engine.pump.idle_calls", "count"},
        {"engine.pump.steps_per_event", "count"},
        {"engine.poll.busy_s", "s"},
        {"engine.poll.rows", "count"},
        {"engine.graph_nodes.peak", "count"},
        {"engine.state_bytes.peak", "bytes"},
        {"server.fetch.calls", "count"},
        {"server.fetch.rtt_p50_us", "us"},
        {"server.fetch.rtt_p99_us", "us"},
        {"server.fetch.rows_per_call", "count"},
        {"server.fetch.empty_ratio", "ratio"},
        {"server.snapshot.rtt_ms", "ms"},
        {"server.register.rtt_p50_ms", "ms"},
        {"server.register.rtt_p99_ms", "ms"},
        {"server.cancel.rtt_p50_ms", "ms"},
        {"server.cancel.rtt_p99_ms", "ms"},
        {"cql.compile.p50_us", "us"},
        {"optimizer.operators_created", "count"},
        {"optimizer.operators_reused", "count"},
        {"optimizer.reuse_ratio", "ratio"},
        {"scheduler.executor.steps", "count"},
        {"scheduler.executor.busy_s", "s"},
        {"scheduler.executor.steps_per_event", "count"},
        {"sweeparea.join.state_bytes_peak", "bytes"},
        {"metadata.snapshot.p50_us", "us"},
        {"workloads.generate_s", "s"},
        {"bench.generator.lag_p99_ms", "ms"},
        {"bench.generator.late_fraction", "ratio"},
        {"bench.churn.lag_p99_ms", "ms"},
        {"ledger.unattributed_fraction", "ratio"},
        {"trace.overhead_fraction", "ratio"},
    };
    for (const std::string& kind : OperatorKinds()) {
      specs.push_back({"algebra." + kind + ".elements_in", "count"});
      specs.push_back({"algebra." + kind + ".elements_out", "count"});
      specs.push_back({"algebra." + kind + ".service_s", "s"});
    }
    return specs;
  }();
  return kSpecs;
}

/// One measured value with the number of samples behind it (1 for a
/// single measurement or a count).
struct Measured {
  double value = 0.0;
  std::uint64_t samples = 0;
};

/// Everything a workload run produces. Workloads fill `metrics` by name
/// (end-to-end and per-layer names alike, plus informational ones printed
/// only in the human-readable report) and count operations.
struct RunReport {
  std::map<std::string, Measured> metrics;
  /// Printed-only metrics with their units (not in BENCHMARK.json).
  std::map<std::string, std::pair<Measured, std::string>> info;
  /// Workload parameters stamped on the result (offered rates, sizes).
  std::map<std::string, std::string> parameters;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure descriptions
  /// Conditions that leave outputs correct but a metric less trustworthy.
  std::vector<std::string> warnings;

  void Set(const std::string& name, double value, std::uint64_t samples = 1) {
    metrics[name] = Measured{value, samples};
  }
  void Info(const std::string& name, double value, const std::string& unit,
            std::uint64_t samples = 1) {
    info[name] = {Measured{value, samples}, unit};
  }
  void Fail(std::uint64_t count, const std::string& what) {
    failed += count;
    if (failures.size() < 8) failures.push_back(what);
  }
  void Warn(const std::string& what) { warnings.push_back(what); }
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
