#include "perfbench/common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <thread>
#include <utility>

#include "src/cql/analyzer.h"
#include "src/workloads/espbench_cql.h"

namespace perfbench {

namespace conformance = pipes::testing::conformance;
using pipes::Status;
using pipes::TimeInterval;
using pipes::relational::Value;

pipes::workloads::EspbenchOptions BenchOptions(std::uint64_t seed) {
  pipes::workloads::EspbenchOptions options;
  options.seed = seed;
  options.num_machines = 12;
  options.sensors_per_machine = 3;
  options.duration_ms = kPassDurationMs;
  options.mean_interarrival_ms = 2.0;
  options.disorder_slack_ms = 40;
  options.disorder_fraction = 0.25;
  options.late_fraction = 0.01;
  // Doubled power exceeds both the 1300 W alert threshold and every
  // machine's rated power (115-150% of base), so threshold-alert and
  // over-capacity emit rows; the defaults (no episodes) leave them empty.
  const std::int64_t first = static_cast<std::int64_t>(seed % 12);
  const std::int64_t second =
      (first + 1 + static_cast<std::int64_t>(seed / 12 % 11)) % 12;
  options.overloads = {{10'000, 25'000, first, 2.0},
                       {35'000, 50'000, second, 2.0}};
  return options;
}

CqlData MakeCqlData(std::uint64_t seed) {
  CqlData data;
  data.events = pipes::workloads::EspbenchEventRows(BenchOptions(seed));
  const pipes::workloads::EspbenchOptions dimensions =
      BenchOptions(kDimensionSeed);
  data.machines = pipes::workloads::EspbenchMachineRows(
      pipes::workloads::GenerateMachines(dimensions));
  data.orders = pipes::workloads::EspbenchOrderRows(
      pipes::workloads::GenerateOrders(dimensions));
  data.reach.reserve(data.events.size());
  for (const TupleElement& e : data.events) data.reach.push_back(e.start());
  return data;
}

std::vector<CqlQuery> ResidentQueries() {
  std::vector<CqlQuery> queries;
  for (const pipes::workloads::EspbenchCqlQuery& q :
       pipes::workloads::EspbenchCqlCatalog()) {
    queries.push_back(
        {q.name, q.text, q.text.find("[RANGE") != std::string::npos});
  }
  return queries;
}

const std::vector<std::string>& ChurnQueries() {
  static const std::vector<std::string> kQueries = {
      "SELECT machine, AVG(power) AS avg_power FROM events "
      "[RANGE 1000 MILLISECONDS SLIDE 500 MILLISECONDS] GROUP BY machine",
      "SELECT machine, MAX(power) AS max_power FROM events "
      "[RANGE 1000 MILLISECONDS SLIDE 500 MILLISECONDS] GROUP BY machine",
      "SELECT machine, COUNT(power) AS n FROM events "
      "[RANGE 500 MILLISECONDS SLIDE 500 MILLISECONDS] GROUP BY machine",
      "SELECT machine, AVG(temp) AS avg_temp FROM events "
      "[RANGE 2000 MILLISECONDS SLIDE 1000 MILLISECONDS] GROUP BY machine",
      "SELECT sensor, MIN(power) AS min_power FROM events "
      "[RANGE 1000 MILLISECONDS SLIDE 500 MILLISECONDS] GROUP BY sensor",
      "SELECT machine, SUM(power) AS total FROM events "
      "[RANGE 2000 MILLISECONDS SLIDE 1000 MILLISECONDS] GROUP BY machine",
  };
  return kQueries;
}

pipes::cql::Catalog BenchCatalog() {
  pipes::cql::Catalog catalog;
  PIPES_CHECK(catalog
                  .RegisterStream("events",
                                  pipes::workloads::EspbenchEventSchema())
                  .ok());
  PIPES_CHECK(catalog
                  .RegisterStream("machines",
                                  pipes::workloads::EspbenchMachineSchema())
                  .ok());
  PIPES_CHECK(catalog
                  .RegisterStream("orders",
                                  pipes::workloads::EspbenchOrderSchema())
                  .ok());
  return catalog;
}

namespace {

pipes::Result<std::vector<conformance::IntervalTable>> ReferenceTables(
    const CqlData& data) {
  conformance::Corpus corpus;
  corpus.streams = {
      {"events", pipes::workloads::EspbenchEventSchema(), data.events},
      {"machines", pipes::workloads::EspbenchMachineSchema(), data.machines},
      {"orders", pipes::workloads::EspbenchOrderSchema(), data.orders},
  };
  const pipes::cql::Catalog catalog = BenchCatalog();
  std::vector<conformance::IntervalTable> tables;
  for (const CqlQuery& q : ResidentQueries()) {
    PIPES_ASSIGN_OR_RETURN(pipes::cql::CompiledQuery compiled,
                           pipes::cql::Compile(q.text, catalog));
    PIPES_ASSIGN_OR_RETURN(conformance::IntervalTable table,
                           conformance::ReferenceEval(compiled.plan, corpus));
    tables.push_back(std::move(table));
  }
  return tables;
}

bool WriteAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Child side of ReferenceRows: evaluates and streams the rows to `fd`.
int WriteReferenceRows(std::uint64_t seed, int fd) {
  auto tables = ReferenceTables(MakeCqlData(seed));
  if (!tables.ok()) {
    std::fprintf(stderr, "reference evaluation failed: %s\n",
                 tables.status().ToString().c_str());
    return 1;
  }
  std::vector<ReferenceRow> rows;
  for (std::size_t q = 0; q < tables->size(); ++q) {
    for (const TupleElement& e : (*tables)[q].rows) {
      rows.push_back({static_cast<std::uint32_t>(q), e.start(), e.end(),
                      TextKey(e.payload.ToString()), ExactKey(e.payload)});
    }
  }
  return WriteAll(fd, reinterpret_cast<const char*>(rows.data()),
                  rows.size() * sizeof(ReferenceRow))
             ? 0
             : 1;
}

pipes::relational::Schema KeySchema() {
  return pipes::relational::Schema(
      {pipes::relational::Field{"key", pipes::relational::ValueType::kInt}});
}

TupleElement KeyRow(Timestamp start, Timestamp end, std::int64_t key) {
  return TupleElement(Tuple({Value(key)}), start, end);
}

}  // namespace

pipes::Result<std::vector<ReferenceRow>> ReferenceRows(std::uint64_t seed) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::Internal("pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::Internal("fork() failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    const int code = WriteReferenceRows(seed, fds[1]);
    ::close(fds[1]);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string bytes;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fds[0], buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      bytes.size() % sizeof(ReferenceRow) != 0) {
    return Status::Internal("reference evaluation process failed");
  }
  std::vector<ReferenceRow> rows(bytes.size() / sizeof(ReferenceRow));
  std::memcpy(rows.data(), bytes.data(), bytes.size());
  return rows;
}

std::int64_t TextKey(const std::string& text) {
  return static_cast<std::int64_t>(std::hash<std::string>{}(text));
}

std::int64_t ExactKey(const Tuple& tuple) {
  std::string bytes;
  for (const Value& v : tuple.values()) {
    bytes += static_cast<char>(v.type());
    switch (v.type()) {
      case pipes::relational::ValueType::kInt: {
        const std::int64_t i = v.AsInt();
        bytes.append(reinterpret_cast<const char*>(&i), sizeof(i));
        break;
      }
      case pipes::relational::ValueType::kDouble: {
        const double d = v.AsDouble();
        bytes.append(reinterpret_cast<const char*>(&d), sizeof(d));
        break;
      }
      case pipes::relational::ValueType::kBool:
        bytes += v.AsBool() ? '1' : '0';
        break;
      case pipes::relational::ValueType::kString:
        bytes += v.AsString();
        bytes += '\0';
        break;
      case pipes::relational::ValueType::kNull:
        break;
    }
  }
  return TextKey(bytes);
}

// --- PassChecker --------------------------------------------------------------

PassChecker::PassChecker(const std::vector<ReferenceRow>& reference,
                         std::size_t num_queries, Keys keys)
    : keys_(keys),
      reference_(num_queries),
      reference_keys_(num_queries),
      schedule_({0}, kPassPeriodMs),
      actual_(num_queries) {
  for (const ReferenceRow& row : reference) {
    reference_keys_.at(row.query).push_back(
        {row.start, row.end,
         keys == Keys::kText ? row.text_key : row.exact_key});
  }
  for (std::size_t q = 0; q < num_queries; ++q) {
    std::sort(reference_keys_[q].begin(), reference_keys_[q].end());
    reference_[q].schema = KeySchema();
    for (const KeyedRow& row : reference_keys_[q]) {
      reference_[q].rows.push_back(KeyRow(row.start, row.end, row.key));
    }
  }
}

PassChecker::PassRows& PassChecker::RowsOf(std::size_t query,
                                           std::int64_t pass) {
  std::vector<PassRows>& passes = actual_[query];
  if (passes.size() <= static_cast<std::size_t>(pass)) {
    passes.resize(static_cast<std::size_t>(pass) + 1);
  }
  return passes[static_cast<std::size_t>(pass)];
}

void PassChecker::Add(std::size_t query, TupleElement row) {
  const std::int64_t pass = schedule_.PassOf(row.start());
  if (pass < checked_before_) {
    ++stray_rows_;  // a row of a pass already checked, or before pass 0
    return;
  }
  const Timestamp shift = pass * kPassPeriodMs;
  row.interval = TimeInterval(row.start() - shift, row.end() - shift);
  RowsOf(query, pass).full.push_back(std::move(row));
}

void PassChecker::AddKeyed(std::size_t query, Timestamp start, Timestamp end,
                           std::int64_t key) {
  const std::int64_t pass = schedule_.PassOf(start);
  if (pass < checked_before_) {
    ++stray_rows_;
    return;
  }
  const Timestamp shift = pass * kPassPeriodMs;
  RowsOf(query, pass).keyed.push_back({start - shift, end - shift, key});
}

void PassChecker::CheckPass(std::int64_t pass, RunReport& report) {
  for (std::size_t q = 0; q < reference_.size(); ++q) {
    PassRows pass_rows;
    std::vector<PassRows>& passes = actual_[q];
    if (static_cast<std::size_t>(pass) < passes.size()) {
      std::swap(pass_rows, passes[static_cast<std::size_t>(pass)]);
    }
    for (const TupleElement& row : pass_rows.full) {
      pass_rows.keyed.push_back({row.start(), row.end(),
                            keys_ == Keys::kExact
                                ? ExactKey(row.payload)
                                : TextKey(row.payload.ToString())});
    }
    report.attempted += reference_keys_[q].size();
    std::sort(pass_rows.keyed.begin(), pass_rows.keyed.end());
    if (pass_rows.keyed == reference_keys_[q]) continue;
    conformance::IntervalTable actual;
    actual.schema = reference_[q].schema;
    for (const KeyedRow& row : pass_rows.keyed) {
      actual.rows.push_back(KeyRow(row.start, row.end, row.key));
    }
    const conformance::TableDiff diff =
        conformance::SnapshotDiff(reference_[q], actual);
    if (diff.equivalent) continue;
    // Count the rows the canonical forms do not share.
    const auto canonical = [](const conformance::IntervalTable& t) {
      std::vector<std::string> rows;
      for (const TupleElement& e :
           conformance::Canonicalize(t).rows) {
        rows.push_back(std::to_string(e.start()) + " " +
                       std::to_string(e.end()) + " " + e.payload.ToString());
      }
      std::sort(rows.begin(), rows.end());
      return rows;
    };
    const std::vector<std::string> want = canonical(reference_[q]);
    const std::vector<std::string> got = canonical(actual);
    std::vector<std::string> differ;
    std::set_symmetric_difference(want.begin(), want.end(), got.begin(),
                                  got.end(), std::back_inserter(differ));
    report.Fail(std::max<std::uint64_t>(1, differ.size()),
                "query " + std::to_string(q) + " pass " +
                    std::to_string(pass) + ": " + diff.message);
  }
}

void PassChecker::CheckPassesBefore(std::int64_t end_pass, RunReport& report) {
  for (; checked_before_ < end_pass; ++checked_before_) {
    CheckPass(checked_before_, report);
  }
}

void PassChecker::Finish(std::int64_t num_passes, RunReport& report) {
  CheckPassesBefore(num_passes, report);
  std::uint64_t stray = stray_rows_;
  for (std::vector<PassRows>& passes : actual_) {
    for (std::size_t p = static_cast<std::size_t>(num_passes);
         p < passes.size(); ++p) {
      stray += passes[p].keyed.size() + passes[p].full.size();
    }
    passes.clear();
  }
  if (stray > 0) {
    report.Fail(stray, std::to_string(stray) + " rows outside every pass");
  }
}

// --- Feeder -------------------------------------------------------------------

Feeder::Feeder(const CqlData& data, pipes::engine::StreamWriter events,
               pipes::engine::StreamWriter machines,
               pipes::engine::StreamWriter orders)
    : data_(data),
      events_(std::move(events)),
      machines_(std::move(machines)),
      orders_(std::move(orders)) {}

template <typename Fn>
Status Feeder::Call(Fn&& fn) {
  ++calls_;
  if (ingest_us_ == nullptr) return fn();
  const std::int64_t t0 = NowNs();
  Status status = fn();
  ingest_us_->Add(static_cast<double>(NowNs() - t0) / 1e3);
  return status;
}

Status Feeder::PushMachines() {
  for (const TupleElement& row : data_.machines) {
    PIPES_RETURN_IF_ERROR(Call([&] { return machines_.Push(row); }));
  }
  return Status::OK();
}

Status Feeder::PushEvent(std::uint64_t j) {
  const std::size_t n = data_.events.size();
  const std::int64_t pass = static_cast<std::int64_t>(j / n);
  const Timestamp shift = pass * kPassPeriodMs;
  if (pass != pass_) {
    // Orders of the previous pass that start after its last event.
    while (pass_ >= 0 && next_order_ < data_.orders.size()) {
      TupleElement order = data_.orders[next_order_++];
      const Timestamp old_shift = pass_ * kPassPeriodMs;
      order.interval = TimeInterval(order.start() + old_shift,
                                    order.end() + old_shift);
      PIPES_RETURN_IF_ERROR(Call([&] { return orders_.Push(order); }));
    }
    pass_ = pass;
    next_order_ = 0;
  }
  TupleElement event = data_.events[j % n];
  event.interval =
      TimeInterval(event.start() + shift, event.end() + shift);
  while (next_order_ < data_.orders.size() &&
         data_.orders[next_order_].start() + shift <= event.start()) {
    TupleElement order = data_.orders[next_order_++];
    order.interval =
        TimeInterval(order.start() + shift, order.end() + shift);
    PIPES_RETURN_IF_ERROR(Call([&] { return orders_.Push(order); }));
  }
  last_time_ = event.start();
  return Call([&] { return events_.Push(event); });
}

Status Feeder::Heartbeat() {
  if (last_time_ <= heartbeat_) return Status::OK();
  heartbeat_ = last_time_;
  PIPES_RETURN_IF_ERROR(Call([&] { return machines_.Heartbeat(heartbeat_); }));
  return Call([&] { return orders_.Heartbeat(heartbeat_); });
}

Status Feeder::Close() {
  PIPES_RETURN_IF_ERROR(Call([&] { return events_.Close(); }));
  PIPES_RETURN_IF_ERROR(Call([&] { return machines_.Close(); }));
  return Call([&] { return orders_.Close(); });
}

// --- Layer metrics ------------------------------------------------------------

namespace {

std::string OperatorKind(const std::string& op) {
  static const std::vector<std::pair<const char*, const char*>> kPatterns = {
      {"join", "join"},       {"aggregate", "aggregate"},
      {"window", "window"},   {"filter", "filter"},
      {"map", "map"},         {"sustained", "sustained"},
      {"sink", "sink"},       {"source", "source"},
      {"inlet", "source"},
  };
  for (const auto& [pattern, kind] : kPatterns) {
    if (op.find(pattern) != std::string::npos) return kind;
  }
  return "";
}

std::map<std::uint64_t, std::string> KindsById(const pipes::QueryGraph& graph) {
  std::map<std::uint64_t, std::string> kinds;
  for (const pipes::Node* node : graph.nodes()) {
    kinds[node->id()] = OperatorKind(node->Describe().op);
  }
  return kinds;
}

}  // namespace

void AddOperatorMetrics(const pipes::QueryGraph& graph,
                        const pipes::metadata::MetricsSnapshot& snapshot,
                        bool service_from_profile, RunReport& report) {
  const std::map<std::uint64_t, std::string> kinds = KindsById(graph);
  const auto add = [&report](const std::string& name, double v) {
    Measured& value = report.metrics[name];
    value.value += v;
    value.samples = 1;
  };
  for (const pipes::metadata::NodeSnapshot& node : snapshot.nodes) {
    auto it = kinds.find(node.id);
    if (it == kinds.end() || it->second.empty()) continue;
    const std::string prefix = "algebra." + it->second + ".";
    add(prefix + "elements_in", static_cast<double>(node.elements_in));
    add(prefix + "elements_out", static_cast<double>(node.elements_out));
    // Histograms sample one delivery in kLatencySamplePeriod.
    const double service_ns =
        service_from_profile
            ? static_cast<double>(node.sched_service_ns)
            : static_cast<double>(node.service.sum_ns) *
                  pipes::obs::kLatencySamplePeriod;
    add(prefix + "service_s", service_ns / 1e9);
  }
}

double JoinStateBytes(const pipes::QueryGraph& graph,
                      const pipes::metadata::MetricsSnapshot& snapshot) {
  const std::map<std::uint64_t, std::string> kinds = KindsById(graph);
  double bytes = 0;
  for (const pipes::metadata::NodeSnapshot& node : snapshot.nodes) {
    auto it = kinds.find(node.id);
    if (it != kinds.end() && it->second == "join") {
      bytes += static_cast<double>(node.memory_bytes);
    }
  }
  return bytes;
}

void AddEngineStats(const pipes::engine::EngineStats& stats,
                    RunReport& report) {
  const double created = static_cast<double>(stats.operators_created);
  const double reused = static_cast<double>(stats.operators_reused);
  report.Set("optimizer.operators_created", created);
  report.Set("optimizer.operators_reused", reused);
  report.Set("optimizer.reuse_ratio",
             created + reused > 0 ? reused / (created + reused) : 0.0);
}

void AddCompileMetric(RunReport& report) {
  const pipes::cql::Catalog catalog = BenchCatalog();
  Samples compile_us;
  for (int round = 0; round < 20; ++round) {
    for (const std::string& text : ChurnQueries()) {
      const std::int64_t t0 = NowNs();
      auto compiled = pipes::cql::Compile(text, catalog);
      compile_us.Add(static_cast<double>(NowNs() - t0) / 1e3);
      report.attempted += 1;
      if (!compiled.ok()) report.Fail(1, compiled.status().ToString());
    }
  }
  report.Set("cql.compile.p50_us", compile_us.p50(), compile_us.count());
}

void ReportLatency(const StretchLatency& latency, RunReport& report) {
  const LatencyHistogram& scaled = latency.scaled();
  const LatencyHistogram& raw = latency.raw();
  report.Set("result_latency_p50_ms", scaled.p50_ms(), scaled.samples());
  report.Set("result_latency_p99_ms", scaled.p99_ms(), scaled.samples());
  report.Info("result_latency_p50_ms_raw", raw.p50_ms(), "ms", raw.samples());
  report.Info("result_latency_p99_ms_raw", raw.p99_ms(), "ms", raw.samples());
  if (!scaled.valid()) report.Warn("too few latency samples for p99");
}

void PinTo(std::initializer_list<int> cpus) {
  if (std::thread::hardware_concurrency() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
