// The measured run of one workload: set-up (repeated), the workload's
// own loop, the answer check against the single-thread in-memory facade,
// and, with tracing on, the traced replay. Prints one JSON object.

#ifndef PERFBENCH_RUN_H_
#define PERFBENCH_RUN_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 0;
  std::string snapshot;  // the fixture artifact
  std::string out_dir;   // where worker port files and spans go
  double seconds = 10.0;
  bool trace = false;
  std::string self_exe;  // this binary, re-executed as a shard worker
};

/// Returns the process exit code; the JSON result goes to stdout.
int RunWorkload(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_RUN_H_
