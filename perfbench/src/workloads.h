// The benchmark's named workloads and the two ways of running one: the
// untraced checked run that yields the end-to-end metrics, and the traced
// run that yields the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct RunRequest {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace_event JSON).
  std::string trace_out;
  /// Shrink every workload to a few dozen operations (self-test).
  bool tiny = false;
};

struct RunOutput {
  /// Every repetition passed its correctness gate and the simulator
  /// fingerprints of one seed agreed across repetitions.
  bool correct = true;
  uint64_t attempted = 0;  // operations attempted, all repetitions
  uint64_t failed = 0;     // operations of repetitions that failed the gate
  MetricTable metrics;
  std::vector<std::string> problems;  // why the gate failed, first few
};

const std::vector<std::string>& workload_names();

/// Run one workload. Throws std::invalid_argument on an unknown name.
RunOutput run_workload(const RunRequest& req);

/// Self-test of the inline protocol replay: a sequential write/read list
/// through InlineRegister must return the same read values and end with the
/// same object storage as a simulator run of the same list under the
/// round-robin scheduler. Returns an empty string on success.
std::string check_inline_replay();

}  // namespace perfbench
