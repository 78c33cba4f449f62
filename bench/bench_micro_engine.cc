// Micro-benchmarks of the random-walk engine: the kernel whose throughput
// drives every CloudWalker phase (DESIGN.md section 8).
//
//   Table 1 — single-source walk-kernel throughput: the frozen pre-PR
//             scalar kernel vs the batched prefetching kernel over the
//             CSR. The batched/legacy speedup is the repo's tracked perf
//             number (gated >= 2x), and the bytes per edge of the arrays
//             the kernel walks are gated against growth.
//   Table 3 — false-sharing check: per-worker counters packed into one
//             cache line vs padded WalkWorkerState-style slots.
//
// Self-timed (no Google Benchmark dependency) so it runs everywhere,
// honors CW_BENCH_SCALE / CW_BENCH_QUICK, and emits machine-readable
// results via bench_json.h when CW_BENCH_JSON is set. Exit status enforces
// the determinism and >= 2x speedup gates.

#include <algorithm>
#include <atomic>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/timer.h"
#include "engine/walk.h"
#include "engine/walk_program.h"
#include "graph/generators.h"

using namespace cloudwalker;

namespace {

// The walk kernel exactly as shipped before the batched engine: one shared
// xoshiro stream per source, one StepReverse per walker per level, inv_r
// scatter-adds into a SparseAccumulator. Kept verbatim as the head-to-head
// reference; do not "improve" it.
WalkDistributions LegacyWalkDistributions(const Graph& graph, NodeId source,
                                          const WalkConfig& config,
                                          SparseAccumulator* scratch,
                                          WalkStats* stats) {
  WalkDistributions out;
  out.levels.resize(config.num_steps + 1);
  out.levels[0] = SparseVector::FromSorted({SparseEntry{source, 1.0}});

  Xoshiro256 rng = Xoshiro256::Derive(config.seed, source);
  std::vector<NodeId> positions(config.num_walkers, source);
  uint32_t alive = config.num_walkers;

  SparseAccumulator local_scratch(config.num_walkers * 2);
  SparseAccumulator& acc = scratch != nullptr ? *scratch : local_scratch;
  const double inv_r = 1.0 / static_cast<double>(config.num_walkers);

  for (uint32_t t = 1; t <= config.num_steps && alive > 0; ++t) {
    acc.Clear();
    for (NodeId& pos : positions) {
      if (pos == kInvalidNode) continue;
      pos = StepReverse(graph, pos, rng, config.dangling);
      if (stats != nullptr) ++stats->steps;
      if (pos == kInvalidNode) {
        --alive;
        continue;
      }
      acc.Add(pos, inv_r);
    }
    out.levels[t] = acc.ToSortedVector();
  }
  return out;
}

// Spreads measured sources over the whole graph so consecutive walks share
// no warm neighborhoods.
NodeId ScatterSource(uint64_t i, NodeId num_nodes) {
  return static_cast<NodeId>((i * 2654435761ULL) % num_nodes);
}

struct Throughput {
  double steps_per_sec = 0.0;
  uint64_t steps = 0;
};

// Runs `simulate(source, stats)` over scattered sources until `min_seconds`
// of wall clock, after one warmup call. Returns steps/second.
template <typename Fn>
Throughput MeasureWalkThroughput(NodeId num_nodes, double min_seconds,
                                 const Fn& simulate) {
  WalkStats warmup;
  simulate(ScatterSource(0, num_nodes), &warmup);
  Throughput result;
  WallTimer timer;
  uint64_t i = 1;
  do {
    WalkStats stats;
    simulate(ScatterSource(i++, num_nodes), &stats);
    result.steps += stats.steps;
  } while (timer.Seconds() < min_seconds);
  result.steps_per_sec = static_cast<double>(result.steps) / timer.Seconds();
  return result;
}

bool SameDistributions(const WalkDistributions& a,
                       const WalkDistributions& b) {
  if (a.num_levels() != b.num_levels()) return false;
  for (size_t t = 0; t < a.num_levels(); ++t) {
    if (a.levels[t].size() != b.levels[t].size()) return false;
    for (size_t k = 0; k < a.levels[t].size(); ++k) {
      if (!(a.levels[t][k] == b.levels[t][k])) return false;
    }
  }
  return true;
}

// Each worker bumps its own counter `rounds` times; returns increments/sec.
// `stride_bytes` is the distance between adjacent workers' counters.
double CounterThroughput(int threads, uint64_t rounds, size_t stride_bytes,
                         unsigned char* base) {
  std::vector<std::thread> workers;
  std::atomic<bool> go{false};
  WallTimer timer;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      auto* counter =
          reinterpret_cast<volatile uint64_t*>(base + w * stride_bytes);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < rounds; ++i) *counter = *counter + 1;
    });
  }
  timer.Restart();
  go.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  const double seconds = timer.Seconds();
  return static_cast<double>(rounds) * threads / seconds;
}

}  // namespace

int main() {
  bench::PrintHeader("bench_micro_engine",
                     "engine micro-kernels: batched walk vs the pre-PR "
                     "scalar kernel (DESIGN.md section 8; not a paper "
                     "artifact)");
  bench::JsonReporter report("bench_micro_engine");
  const double scale = bench::BenchScale();
  const bool quick = scale <= 0.05;
  const double min_seconds = quick ? 0.5 : 2.0;

  // A graph whose CSR exceeds last-level caches even in quick mode:
  // walk throughput here is memory-latency bound, which is exactly what the
  // batched prefetch pipeline attacks.
  const NodeId n = static_cast<NodeId>(
      std::max<uint64_t>(400'000, static_cast<uint64_t>(8'000'000 * scale)));
  const uint64_t m = 8ull * n;
  std::cerr << "[bench] generating R-MAT |V|=" << HumanCount(n)
            << " |E|=" << HumanCount(m) << "...\n";
  const Graph graph = GenerateRmat(n, m, /*seed=*/2015);

  WalkConfig cfg;
  cfg.num_steps = 10;
  cfg.num_walkers = 1000;  // the serving layer's R'
  cfg.seed = 2015;

  report.AddContextNumber("hardware_threads",
                          std::thread::hardware_concurrency());
  report.AddContextNumber("bench_threads", 1);  // single-threaded kernel
  report.AddContext("scale", FormatDouble(scale, 3));
  report.AddContextNumber("graph_nodes", graph.num_nodes());
  report.AddContextNumber("graph_edges", graph.num_edges());
  report.AddContextNumber("walkers", cfg.num_walkers);
  report.AddContextNumber("steps", cfg.num_steps);

  // The arrays a walk step reads: the in-CSR offsets and targets.
  const double walk_bytes_per_edge =
      static_cast<double>(graph.InOffsets().size_bytes() +
                          graph.InTargets().size_bytes()) /
      static_cast<double>(graph.num_edges());

  // --- Table 1: single-source walk-kernel throughput. --------------------
  SparseAccumulator legacy_scratch(cfg.num_walkers * 2);
  const Throughput legacy = MeasureWalkThroughput(
      n, min_seconds, [&](NodeId source, WalkStats* stats) {
        LegacyWalkDistributions(graph, source, cfg, &legacy_scratch, stats);
      });
  WalkScratch scratch(cfg.num_walkers);
  const Throughput batched = MeasureWalkThroughput(
      n, min_seconds, [&](NodeId source, WalkStats* stats) {
        SimulateWalkDistributions(graph, source, cfg, &scratch, nullptr,
                                  stats);
      });

  const double speedup = batched.steps_per_sec / legacy.steps_per_sec;
  {
    TablePrinter t({"kernel", "Msteps/s", "speedup vs legacy"});
    auto add = [&](const std::string& name, const Throughput& tp) {
      t.AddRow({name, FormatDouble(tp.steps_per_sec / 1e6, 2),
                FormatDouble(tp.steps_per_sec / legacy.steps_per_sec, 2) +
                    "x"});
    };
    add("legacy scalar (pre-PR)", legacy);
    add("batched, CSR prefetch", batched);
    std::cout << "Table 1 — single-source walk kernel (R'="
              << cfg.num_walkers << ", T=" << cfg.num_steps << "):\n";
    t.RenderText(std::cout);
    std::cout << "walked arrays: " << FormatDouble(walk_bytes_per_edge, 2)
              << " B/edge (in-CSR offsets + targets)\n";
    const bool speedup_ok = speedup >= 2.0;
    std::cout << "batched speedup vs pre-PR kernel: "
              << FormatDouble(speedup, 2) << "x (target >= 2x) — "
              << (speedup_ok ? "PASS" : "FAIL") << "\n\n";
  }
  report.AddMetric({"walk_legacy_msteps_per_sec", legacy.steps_per_sec / 1e6,
                    "Msteps/s", true, false, -1.0});
  report.AddMetric({"walk_batched_csr_msteps_per_sec",
                    batched.steps_per_sec / 1e6, "Msteps/s", true, false,
                    -1.0});
  report.AddMetric({"walk_batched_speedup_vs_legacy", speedup, "x", true,
                    /*gate=*/true, /*min=*/2.0});
  report.AddMetric({"walk_bytes_per_edge", walk_bytes_per_edge, "B",
                    /*higher_is_better=*/false, /*gate=*/true, -1.0});

  // --- Table 1b: walk-program throughput. --------------------------------
  // Every program rides the same batched kernel (DESIGN.md section 10), so
  // their throughputs are reported side by side: SimRank is the gated
  // reference; PPR pays one extra stop coin per step; node2vec pays the
  // second-order rejection loop (graph-dependent, up to max_trials row
  // probes per step). Tracked ungated — absolute Msteps/s is hardware- and
  // graph-bound — but present in every baseline so a program-specific
  // regression is visible in CI's report diff.
  {
    const Throughput ppr = MeasureWalkThroughput(
        n, min_seconds, [&](NodeId source, WalkStats* stats) {
          SimulatePprEndpoints(graph, source, cfg, PprParams{}, &scratch,
                               nullptr, stats);
        });
    Node2VecParams n2v_params;
    n2v_params.return_p = 0.5;
    n2v_params.in_out_q = 2.0;
    const Throughput n2v = MeasureWalkThroughput(
        n, min_seconds, [&](NodeId source, WalkStats* stats) {
          SimulateNode2VecVisits(graph, source, cfg, n2v_params, &scratch,
                                 nullptr, stats);
        });
    TablePrinter t({"program", "Msteps/s", "vs simrank"});
    auto add = [&](const std::string& name, const Throughput& tp) {
      t.AddRow({name, FormatDouble(tp.steps_per_sec / 1e6, 2),
                FormatDouble(
                    tp.steps_per_sec / batched.steps_per_sec, 2) +
                    "x"});
    };
    add("simrank endpoints", batched);
    add("ppr endpoints (alpha=0.85)", ppr);
    add("node2vec visits (p=0.5, q=2)", n2v);
    std::cout << "Table 1b — walk-program throughput on the shared kernel:\n";
    t.RenderText(std::cout);
    std::cout << "\n";
    report.AddMetric({"ppr_msteps_per_sec", ppr.steps_per_sec / 1e6,
                      "Msteps/s", true, false, -1.0});
    report.AddMetric({"n2v_msteps_per_sec", n2v.steps_per_sec / 1e6,
                      "Msteps/s", true, false, -1.0});
  }

  // --- Determinism spot-check (full coverage lives in tests/engine). -----
  bool determinism_ok = true;
  {
    WalkConfig narrow = cfg;
    narrow.batch_width = 1;
    WalkConfig wide = cfg;
    wide.batch_width = 64;
    for (uint64_t i = 0; i < 3; ++i) {
      const NodeId source = ScatterSource(i * 7 + 1, n);
      const WalkDistributions a =
          SimulateWalkDistributions(graph, source, narrow);
      const WalkDistributions b =
          SimulateWalkDistributions(graph, source, wide);
      determinism_ok = determinism_ok && SameDistributions(a, b);
    }
    std::cout << "determinism (W=1 vs W=64): "
              << (determinism_ok ? "PASS" : "FAIL") << "\n\n";
  }
  report.AddMetric({"walk_determinism_ok", determinism_ok ? 1.0 : 0.0, "bool",
                    true, /*gate=*/true, /*min=*/1.0});

  // --- Table 3: false-sharing check. -------------------------------------
  // Adjacent workers' counters packed into one cache line vs spread across
  // padded WalkWorkerState-style slots. The padded layout must never lose;
  // on multi-core hosts it wins big. Gated so a future layout change that
  // reintroduces sharing (dropping the alignas) shows up as a regression.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw >= 2) {
    double padded_over_packed = 1.0;
    const int threads = std::min(4, hw);
    const uint64_t rounds = quick ? 4'000'000 : 16'000'000;
    std::vector<unsigned char> storage(kCacheLineBytes * (threads + 1), 0);
    // Align the base so "packed" really is one line and "padded" really is
    // one line per worker.
    auto* base = storage.data();
    while (reinterpret_cast<uintptr_t>(base) % kCacheLineBytes != 0) ++base;
    const double packed =
        CounterThroughput(threads, rounds, sizeof(uint64_t), base);
    const double padded =
        CounterThroughput(threads, rounds, kCacheLineBytes, base);
    padded_over_packed = padded / packed;
    TablePrinter t({"layout", "Mincr/s"});
    t.AddRow({"packed (shared line)", FormatDouble(packed / 1e6, 1)});
    t.AddRow({"padded (64B stride)", FormatDouble(padded / 1e6, 1)});
    std::cout << "Table 3 — per-worker counter layout (" << threads
              << " threads):\n";
    t.RenderText(std::cout);
    std::cout << "padded/packed: " << FormatDouble(padded_over_packed, 2)
              << "x (must be >= 0.9) — "
              << (padded_over_packed >= 0.9 ? "PASS" : "FAIL") << "\n\n";
    report.AddMetric({"false_sharing_padded_over_packed", padded_over_packed,
                      "x", true, /*gate=*/true, /*min=*/0.9});
  } else {
    // No metric: a value never measured must not enter a baseline.
    std::cout << "Table 3 — skipped (single hardware thread; padded layout "
                 "trivially exempt from false sharing)\n\n";
  }

  // --- Table 4: snapshot cold build vs mmap open. ------------------------
  // The restart-time story (DESIGN.md section 9): a process opening a
  // persisted snapshot artifact must come up at least 10x
  // faster than one rebuilding the index from the raw graph. Run on its
  // own (smaller) graph so the offline build stays benchable; the ratio
  // is what's gated, and it only grows with graph size.
  {
    const NodeId sn = static_cast<NodeId>(
        std::max<uint64_t>(60'000, static_cast<uint64_t>(1'200'000 * scale)));
    ThreadPool snapshot_pool;
    IndexingOptions build_options;  // paper defaults: R=100, T=10, L=3
    auto snap = bench::MeasureSnapshotLoad(sn, 8ull * sn, build_options,
                                           &snapshot_pool,
                                           "bench-snapshot-tmp.cwk");
    CW_CHECK_OK(snap.status());
    const double open_speedup = snap->build_seconds / snap->open_seconds;
    const double file_bytes_per_edge =
        static_cast<double>(snap->file_bytes) /
        static_cast<double>(snap->edges);
    TablePrinter t({"phase", "seconds"});
    t.AddRow({"cold build (index)",
              FormatDouble(snap->build_seconds, 3)});
    t.AddRow({"write snapshot", FormatDouble(snap->write_seconds, 3)});
    t.AddRow({"mmap open + verify", FormatDouble(snap->open_seconds, 4)});
    t.AddRow({"reopen (page cache warm)",
              FormatDouble(snap->reopen_seconds, 4)});
    std::cout << "Table 4 — snapshot restart time (|V|="
              << HumanCount(snap->nodes) << ", |E|="
              << HumanCount(snap->edges) << ", "
              << HumanBytes(snap->file_bytes) << " artifact):\n";
    t.RenderText(std::cout);
    std::cout << "mmap-open speedup vs cold build: "
              << FormatDouble(open_speedup, 1) << "x (target >= 10x) — "
              << (open_speedup >= 10.0 ? "PASS" : "FAIL")
              << "; answers bit-identical: "
              << (snap->identical ? "PASS" : "FAIL") << "\n\n";
    report.AddMetric({"snapshot_cold_build_seconds", snap->build_seconds,
                      "s", /*higher_is_better=*/false, false, -1.0});
    report.AddMetric({"snapshot_open_seconds", snap->open_seconds, "s",
                      /*higher_is_better=*/false, false, -1.0});
    report.AddMetric({"snapshot_open_speedup_vs_build", open_speedup, "x",
                      true, /*gate=*/true, /*min=*/10.0});
    report.AddMetric({"snapshot_file_bytes_per_edge", file_bytes_per_edge,
                      "B", /*higher_is_better=*/false, false, -1.0});
    report.AddMetric({"snapshot_roundtrip_identical",
                      snap->identical ? 1.0 : 0.0, "bool", true,
                      /*gate=*/true, /*min=*/1.0});
  }

  const bool ok = report.FloorsPass();
  if (!report.WriteIfRequested()) return 1;
  std::cout << (ok ? "bench_micro_engine: PASS\n"
                   : "bench_micro_engine: FAIL (gated floor violated)\n");
  return ok ? 0 : 1;
}
