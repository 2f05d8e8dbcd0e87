#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <stdexcept>
#include <string>

#include "perfbench/report.h"
#include "src/common/status.h"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Closed loop, one thread, no server: push a chunk, pump until idle, poll
/// every query.
RunReport RunCqlThroughput(const RunConfig& config);

/// Open loop through `PipesServer`: a sleeping generator thread pushes at a
/// fixed rate while one TCP client fetches the resident queries' results.
/// With `churn`, a second client registers and cancels window aggregates
/// at a fixed rate beside it.
RunReport RunServed(const RunConfig& config, bool churn);

/// Batch job: the disordered feed through the reorder adapter into the
/// three typed fragments, drained by `PipeExecutor`.
RunReport RunTypedFragments(const RunConfig& config);

/// Set-up that cannot proceed (the run then reports nothing).
class SetupError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws SetupError unless `status` is OK.
inline void Require(const pipes::Status& status, const std::string& what) {
  if (!status.ok()) throw SetupError(what + ": " + status.ToString());
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
