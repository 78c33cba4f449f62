// Snapshot load bench: cold offline build vs mmap-open of a persisted
// snapshot artifact, across graph sizes (DESIGN.md section 9).
//
// This is the restart-time artifact behind the serving story: a replica
// that boots by CloudWalker::Open() pays one integrity pass over the file
// instead of re-running the Monte-Carlo index build, so restarts take
// milliseconds-to-seconds where cold builds take minutes at production
// scale. The headline ratio (open speedup vs cold build, >= 10x) is
// CI-gated via BENCH_SNAPSHOT.json / tools/check_bench.py — and the same
// ratio is also measured inside bench_micro_engine (Table 4) against
// BENCH_ENGINE.json, so the gate holds wherever the perf-smoke job looks.
//
//   CW_BENCH_QUICK=1 ./bench_snapshot_load          # small sizes, CI
//   CW_BENCH_JSON=BENCH_SNAPSHOT.json ./bench_snapshot_load  # refresh

#include <algorithm>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/table.h"

using namespace cloudwalker;

int main() {
  bench::PrintHeader("bench_snapshot_load",
                     "snapshot restart time: cold index build vs "
                     "mmap-open of a snapshot artifact "
                     "(DESIGN.md section 9; not a paper artifact)");
  bench::JsonReporter report("bench_snapshot_load");
  const double scale = bench::BenchScale();
  const bool quick = scale <= 0.05;
  report.AddContext("scale", FormatDouble(scale, 3));

  // Sizes: enough spread to show the ratio growing with graph size while
  // staying benchable — the cold build is the expensive side by design.
  std::vector<NodeId> sizes = quick
                                  ? std::vector<NodeId>{30'000, 90'000}
                                  : std::vector<NodeId>{100'000, 400'000};
  IndexingOptions options;  // paper defaults: R=100, T=10, L=3
  ThreadPool pool;

  TablePrinter t({"|V|", "|E|", "cold build", "write", "mmap open",
                  "reopen", "speedup", "file"});
  double worst_speedup = -1.0;
  double largest_open_seconds = 0.0;
  double largest_build_seconds = 0.0;
  double largest_bytes_per_edge = 0.0;
  bool all_identical = true;
  for (const NodeId n : sizes) {
    auto r = bench::MeasureSnapshotLoad(n, 8ull * n, options, &pool,
                                        "bench-snapshot-load-tmp.cwk");
    CW_CHECK_OK(r.status());
    const double speedup = r->build_seconds / r->open_seconds;
    if (worst_speedup < 0.0 || speedup < worst_speedup) {
      worst_speedup = speedup;
    }
    largest_open_seconds = r->open_seconds;
    largest_build_seconds = r->build_seconds;
    largest_bytes_per_edge = static_cast<double>(r->file_bytes) /
                             static_cast<double>(r->edges);
    all_identical = all_identical && r->identical;
    t.AddRow({HumanCount(r->nodes), HumanCount(r->edges),
              HumanSeconds(r->build_seconds),
              HumanSeconds(r->write_seconds),
              HumanSeconds(r->open_seconds),
              HumanSeconds(r->reopen_seconds),
              FormatDouble(speedup, 1) + "x", HumanBytes(r->file_bytes)});
  }
  std::cout << "cold build vs mmap open (R=" << options.num_walkers
            << ", T=" << options.params.num_steps << ", L="
            << options.jacobi_iterations << ", "
            << pool.num_threads() << " threads):\n";
  t.RenderText(std::cout);
  std::cout << "worst-case open speedup: " << FormatDouble(worst_speedup, 1)
            << "x (target >= 10x) — "
            << (worst_speedup >= 10.0 ? "PASS" : "FAIL")
            << "; answers bit-identical after reopen: "
            << (all_identical ? "PASS" : "FAIL") << "\n";

  report.AddContextNumber("hardware_threads",
                          std::thread::hardware_concurrency());
  report.AddContextNumber("bench_threads", pool.num_threads());
  report.AddMetric({"snapshot_cold_build_seconds", largest_build_seconds,
                    "s", /*higher_is_better=*/false, false, -1.0});
  report.AddMetric({"snapshot_open_seconds", largest_open_seconds, "s",
                    /*higher_is_better=*/false, false, -1.0});
  report.AddMetric({"snapshot_open_speedup_vs_build", worst_speedup, "x",
                    true, /*gate=*/true, /*min=*/10.0});
  report.AddMetric({"snapshot_file_bytes_per_edge", largest_bytes_per_edge,
                    "B", /*higher_is_better=*/false, /*gate=*/true, -1.0});
  report.AddMetric({"snapshot_roundtrip_identical",
                    all_identical ? 1.0 : 0.0, "bool", true, /*gate=*/true,
                    /*min=*/1.0});

  const bool ok = report.FloorsPass();
  if (!report.WriteIfRequested()) return 1;
  std::cout << (ok ? "bench_snapshot_load: PASS\n"
                   : "bench_snapshot_load: FAIL (gated floor violated)\n");
  return ok ? 0 : 1;
}
