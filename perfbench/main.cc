// The PIPES benchmark driver: runs one workload and reports its metrics.
//
//   pipes_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--commit <id>]
//
// Workloads: served_latency, cql_throughput, typed_fragments, tenant_churn
// (see perfbench/README.md for why each exists). The report is a
// human-readable block (host fingerprint, every metric with its unit and
// sample count, failures) followed by one JSON line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// holding the end-to-end metrics, or with --trace 1 the per-layer ones.
// The exit code is 0 only when every output matched its reference.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "perfbench/harness.h"
#include "perfbench/report.h"
#include "perfbench/workloads.h"

namespace {

using perfbench::RunReport;

struct Args {
  std::string workload;
  perfbench::RunConfig config;
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: pipes_perfbench --workload "
               "<served_latency|cql_throughput|typed_fragments|tenant_churn> "
               "--seed <n> --seconds <s> --trace <0|1> [--commit <id>]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) Usage("bad argument " + key);
    values[key.substr(2)] = argv[i + 1];
  }
  try {
    for (const auto& [key, value] : values) {
      if (key == "workload") {
        args.workload = value;
      } else if (key == "seed") {
        args.config.seed = std::stoull(value);
      } else if (key == "seconds") {
        args.config.seconds = std::stoi(value);
      } else if (key == "trace") {
        args.config.trace = std::stoi(value) != 0;
      } else if (key == "commit") {
        args.commit = value;
      } else {
        Usage("unknown option --" + key);
      }
    }
  } catch (const std::exception&) {
    Usage("option values must be numbers");
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (args.config.seconds < 1) Usage("--seconds must be at least 1");
  return args;
}

/// Host and build fingerprint; compare results only across equal ones.
std::map<std::string, std::string> Fingerprint(const Args& args) {
  std::map<std::string, std::string> f;
  f["cores"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  f["l1d_bytes"] = std::to_string(sysconf(_SC_LEVEL1_DCACHE_SIZE));
  f["l2_bytes"] = std::to_string(sysconf(_SC_LEVEL2_CACHE_SIZE));
  f["l3_bytes"] = std::to_string(sysconf(_SC_LEVEL3_CACHE_SIZE));
#if defined(__clang__)
  f["compiler"] = "clang " __clang_version__;
#elif defined(__GNUC__)
  f["compiler"] = "gcc " __VERSION__;
#else
  f["compiler"] = "unknown";
#endif
  f["build_type"] = PERFBENCH_BUILD_TYPE;
  f["commit"] = args.commit;
  f["workload"] = args.workload;
  f["seed"] = std::to_string(args.config.seed);
  f["seconds"] = std::to_string(args.config.seconds);
  f["trace"] = args.config.trace ? "1" : "0";
  return f;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  RunReport report;
  try {
    if (args.workload == "cql_throughput") {
      report = perfbench::RunCqlThroughput(args.config);
    } else if (args.workload == "served_latency") {
      report = perfbench::RunServed(args.config, /*churn=*/false);
    } else if (args.workload == "tenant_churn") {
      report = perfbench::RunServed(args.config, /*churn=*/true);
    } else if (args.workload == "typed_fragments") {
      report = perfbench::RunTypedFragments(args.config);
    } else {
      Usage("unknown workload " + args.workload);
    }
  } catch (const perfbench::SetupError& e) {
    std::cerr << "setup failed: " << e.what() << "\n";
    return 3;
  }

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::ostringstream human;
  human << "== pipes perfbench ==\n";
  for (const auto& [key, value] : Fingerprint(args)) {
    human << "fingerprint " << key << " = " << value << "\n";
  }
  for (const auto& [key, value] : report.parameters) {
    human << "parameter " << key << " = " << value << "\n";
  }
  const auto& specs = args.config.trace ? perfbench::PerLayerSpecs()
                                        : perfbench::EndToEndSpecs();
  std::ostringstream metrics;
  bool first = true;
  for (const perfbench::MetricSpec& spec : specs) {
    const perfbench::Measured v = report.metrics.count(spec.name) > 0
                                   ? report.metrics.at(spec.name)
                                   : perfbench::Measured{};
    human << "metric " << spec.name << " = " << perfbench::FormatNumber(v.value)
          << " " << spec.unit << " (n=" << v.samples << ")\n";
    metrics << (first ? "" : ", ") << JsonString(spec.name) << ": {\"value\": "
            << perfbench::FormatNumber(v.value)
            << ", \"unit\": " << JsonString(spec.unit) << "}";
    first = false;
  }
  for (const auto& [name, entry] : report.info) {
    human << "info " << name << " = "
          << perfbench::FormatNumber(entry.first.value) << " " << entry.second
          << " (n=" << entry.first.samples << ")\n";
  }
  const double error_rate =
      report.attempted == 0 ? 1.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  human << "info error_rate = " << perfbench::FormatNumber(error_rate)
        << " ratio (n=" << report.attempted << ")\n";
  for (const std::string& failure : report.failures) {
    human << "failure: " << failure << "\n";
  }
  for (const std::string& warning : report.warnings) {
    human << "warning: " << warning << "\n";
  }
  std::cout << human.str();
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}
