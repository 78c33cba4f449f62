// Thread-scaling bench: the multi-threaded walk executor and the SIMD
// aggregation kernels as CI-gated artifacts (DESIGN.md section 12).
//
// Four measurements over one graph:
//
//   1. Walk-phase throughput of ParallelWalkExecutor at 1/2/4/8 threads
//      vs the single-threaded kernel (SimRank + PPR workload, same shape
//      as bench_shard).
//   2. Serving QPS of QueryService with ServeOptions::walk_threads at
//      1 and 4 on a distinct-source top-k stream (context rows).
//   3. SIMD-vs-scalar speedup of the sorted-run aggregation kernel —
//      emitted (and gated, floor 1.3x) only on hosts where
//      simd::HaveAvx2() is true; the baseline marks it optional so
//      non-AVX2 hosts skip rather than fail the gate.
//   4. Bit-identity: executor answers at threads {2, 3, 8} byte-equal to
//      the single-threaded kernel across all three walk phases, and the
//      AVX2 aggregation element-equal to scalar. Gated at exactly 1.0.
//
// The parallel-efficiency denominator scales by min(4, hardware threads),
// exactly like bench_shard's, so the gate means the same thing on a
// 1-core CI box (where it reduces to pool-handoff overhead) and on a
// many-core host (where it measures real speedup).
//
//   CW_BENCH_QUICK=1 ./bench_scaling               # small sizes, CI
//   CW_BENCH_JSON=BENCH_SCALING.json ./bench_scaling  # refresh baseline

#include <algorithm>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/cloudwalker.h"
#include "engine/parallel_walk.h"
#include "engine/simd.h"
#include "engine/walk.h"
#include "engine/walk_backend.h"
#include "graph/generators.h"
#include "serve/query_service.h"

using namespace cloudwalker;

namespace {

struct BackendRun {
  double seconds = 0.0;
  uint64_t steps = 0;

  double StepsPerSecond() const {
    return seconds > 0.0 ? static_cast<double>(steps) / seconds : 0.0;
  }
};

// One pass of the walk workload: SimRank levels + PPR endpoints from
// `sources` fixed sources; throughput counts kernel steps, not requests.
BackendRun RunWorkload(const WalkBackend& backend, const Graph& graph,
                       uint32_t sources, const WalkConfig& config) {
  BackendRun run;
  WallTimer timer;
  for (uint32_t s = 0; s < sources; ++s) {
    const NodeId source = (s * 97u + 13u) % graph.num_nodes();
    WalkStats stats;
    (void)backend.SimRankLevels(source, config, &stats);
    run.steps += stats.steps;
    stats = WalkStats();
    (void)backend.PprEndpoints(source, config, PprParams{}, &stats);
    run.steps += stats.steps;
  }
  run.seconds = timer.Seconds();
  return run;
}

// Exact byte-equality of all three walk phases across two backends.
bool BitIdentical(const WalkBackend& a, const WalkBackend& b,
                  const Graph& graph, const WalkConfig& config) {
  for (const NodeId source :
       {NodeId{0}, NodeId{graph.num_nodes() / 2}, graph.num_nodes() - 1}) {
    const WalkDistributions da = a.SimRankLevels(source, config, nullptr);
    const WalkDistributions db = b.SimRankLevels(source, config, nullptr);
    if (da.num_levels() != db.num_levels()) return false;
    for (size_t t = 0; t < da.num_levels(); ++t) {
      if (da.levels[t].entries() != db.levels[t].entries()) return false;
    }
    const SparseVector pa =
        a.PprEndpoints(source, config, PprParams{}, nullptr);
    const SparseVector pb =
        b.PprEndpoints(source, config, PprParams{}, nullptr);
    if (pa.entries() != pb.entries()) return false;
    const Node2VecParams n2v{/*return_p=*/0.5, /*in_out_q=*/2.0};
    const WalkDistributions na =
        a.Node2VecLevels(source, config, n2v, nullptr);
    const WalkDistributions nb =
        b.Node2VecLevels(source, config, n2v, nullptr);
    if (na.num_levels() != nb.num_levels()) return false;
    for (size_t t = 0; t < na.num_levels(); ++t) {
      if (na.levels[t].entries() != nb.levels[t].entries()) return false;
    }
  }
  return true;
}

std::shared_ptr<const ParallelWalkExecutor> MakeExecutor(
    const Graph& graph, int threads) {
  ParallelWalkOptions options;
  options.num_threads = threads;
  // Small enough that the quick workload still splits across 8 workers;
  // the split is pure scheduling, so this cannot affect answers.
  options.min_walkers_per_range = 64;
  auto built = ParallelWalkExecutor::Build(graph, options);
  CW_CHECK_OK(built.status());
  return std::move(built).value();
}

// A sorted endpoint-style array with mixed run lengths (walkers pile up
// on hub nodes, so multiplicities > 1 dominate real level arrays).
std::vector<NodeId> MakeSortedRuns(uint32_t total) {
  std::vector<NodeId> sorted;
  sorted.reserve(total);
  std::mt19937 rng(123);
  NodeId id = 0;
  while (sorted.size() < total) {
    id += 1u + rng() % 3u;
    const uint32_t run = 1u + rng() % 16u;
    for (uint32_t k = 0; k < run && sorted.size() < total; ++k) {
      sorted.push_back(id);
    }
  }
  return sorted;
}

using AggregateFn = void (*)(const NodeId*, uint32_t, double,
                             std::vector<SparseEntry>*);

double TimeAggregate(AggregateFn fn, const std::vector<NodeId>& sorted,
                     int reps) {
  const double inv_r = 1.0 / 1000.0;
  std::vector<SparseEntry> entries;
  entries.reserve(sorted.size());
  const uint32_t n = static_cast<uint32_t>(sorted.size());
  fn(sorted.data(), n, inv_r, &entries);  // warm up
  WallTimer timer;
  for (int rep = 0; rep < reps; ++rep) {
    entries.clear();
    fn(sorted.data(), n, inv_r, &entries);
  }
  return timer.Seconds();
}

}  // namespace

int main() {
  bench::PrintHeader("bench_scaling",
                     "multi-threaded walk executor + SIMD aggregation: "
                     "thread-scaling matrix and bit-identity "
                     "(DESIGN.md section 12; not a paper artifact)");
  bench::JsonReporter report("bench_scaling");
  const double scale = bench::BenchScale();
  const bool quick = scale <= 0.05;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  report.AddContext("scale", FormatDouble(scale, 3));
  report.AddContextNumber("hardware_threads",
                          std::thread::hardware_concurrency());
  report.AddContextNumber("bench_threads", 8);  // widest executor measured
  report.AddContext("simd_level", simd::ActiveLevel());

  const NodeId nodes = quick ? 20'000 : 100'000;
  const Graph graph = GenerateRmat(nodes, 8ull * nodes, /*seed=*/11);
  const LocalWalkBackend local(graph);

  const uint32_t sources = quick ? 24 : 64;
  WalkConfig config;
  config.num_walkers = quick ? 1'000 : 4'000;
  config.seed = 97;

  // --- Walk throughput vs executor threads. ------------------------------
  (void)RunWorkload(local, graph, /*sources=*/4, config);  // warm up
  const BackendRun single = RunWorkload(local, graph, sources, config);
  TablePrinter t({"backend", "walk steps", "time", "steps/s", "vs single"});
  t.AddRow({"single-thread", HumanCount(single.steps),
            HumanSeconds(single.seconds),
            HumanCount(static_cast<uint64_t>(single.StepsPerSecond())),
            "1.00x"});
  double eff4 = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    const auto executor = MakeExecutor(graph, threads);
    const BackendRun run = RunWorkload(*executor, graph, sources, config);
    const double vs_single =
        run.StepsPerSecond() / single.StepsPerSecond();
    if (threads == 4) {
      eff4 = run.StepsPerSecond() /
             (std::min(4u, hw) * single.StepsPerSecond());
    }
    t.AddRow({std::to_string(threads) + " threads", HumanCount(run.steps),
              HumanSeconds(run.seconds),
              HumanCount(static_cast<uint64_t>(run.StepsPerSecond())),
              FormatDouble(vs_single, 2) + "x"});
    report.AddMetric({"scaling_threads_" + std::to_string(threads) +
                          "_steps_per_second",
                      run.StepsPerSecond(), "steps/s", true, false, -1.0});
  }
  std::cout << "walk-phase throughput (|V|=" << HumanCount(nodes)
            << ", R'=" << config.num_walkers << ", " << sources
            << " sources, SimRank + PPR):\n";
  t.RenderText(std::cout);
  std::cout << "parallel efficiency (4 threads / min(4, " << hw
            << ") cores): " << FormatDouble(eff4, 3) << " (floor 0.5)\n\n";

  // --- Bit-identity across thread counts. --------------------------------
  bool identical = true;
  for (const int threads : {2, 3, 8}) {
    const auto executor = MakeExecutor(graph, threads);
    identical = identical && BitIdentical(local, *executor, graph, config);
  }

  // --- SIMD aggregation: scalar vs AVX2. ---------------------------------
  double simd_ratio = 0.0;
  if (simd::HaveAvx2()) {
    const std::vector<NodeId> sorted =
        MakeSortedRuns(quick ? (1u << 20) : (1u << 22));
    std::vector<SparseEntry> scalar_entries, avx2_entries;
    simd::AggregateSortedRunsScalar(
        sorted.data(), static_cast<uint32_t>(sorted.size()), 1.0 / 1000.0,
        &scalar_entries);
    simd::AggregateSortedRunsAvx2(
        sorted.data(), static_cast<uint32_t>(sorted.size()), 1.0 / 1000.0,
        &avx2_entries);
    identical = identical && scalar_entries == avx2_entries;
    const int reps = quick ? 20 : 40;
    const double scalar_s =
        TimeAggregate(&simd::AggregateSortedRunsScalar, sorted, reps);
    const double avx2_s =
        TimeAggregate(&simd::AggregateSortedRunsAvx2, sorted, reps);
    simd_ratio = avx2_s > 0.0 ? scalar_s / avx2_s : 0.0;
    std::cout << "SIMD aggregation (" << HumanCount(sorted.size())
              << " sorted endpoints x" << reps << "): scalar "
              << HumanSeconds(scalar_s) << ", avx2 " << HumanSeconds(avx2_s)
              << ", speedup " << FormatDouble(simd_ratio, 2)
              << "x (floor 1.3x)\n";
  } else {
    std::cout << "SIMD aggregation: host has no AVX2; ratio gate skipped "
                 "(baseline marks the metric optional)\n";
  }
  std::cout << "bit-identical across thread counts and SIMD variants: "
            << (identical ? "PASS" : "FAIL") << "\n";

  // --- Serve QPS vs walk_threads (context rows). -------------------------
  ThreadPool build_pool;
  auto cw = CloudWalker::Build(&graph, bench::PaperIndexingOptions(),
                               &build_pool);
  CW_CHECK_OK(cw.status());
  QueryOptions q = bench::PaperQueryOptions();
  q.num_walkers = 1000;
  std::vector<QueryRequest> requests;
  const uint64_t num_requests = quick ? 40 : 160;
  for (uint64_t i = 0; i < num_requests; ++i) {
    // Distinct sources, so every request runs its walk phase.
    requests.push_back(QueryRequest::SourceTopK(
        (i * 131u + 7u) % graph.num_nodes(), 10));
  }
  for (const int walk_threads : {1, 4}) {
    ThreadPool serve_pool(1);  // isolate walk_threads from request fan-out
    ServeOptions options;
    options.query = q;
    options.walk_threads = walk_threads;
    QueryService service(&*cw, options, &serve_pool);
    service.ResetStats();
    service.ExecuteBatch(requests);
    const double qps = service.Stats().qps;
    std::cout << "serve QPS (walk_threads=" << walk_threads
              << ", 1 request worker): " << FormatDouble(qps, 1) << "\n";
    report.AddMetric({"serve_qps_walk_threads_" +
                          std::to_string(walk_threads),
                      qps, "qps", true, false, -1.0});
  }

  // --- Gated metrics. ----------------------------------------------------
  report.AddMetric({"scaling_single_thread_steps_per_second",
                    single.StepsPerSecond(), "steps/s", true, false, -1.0});
  // Host-core-count dependent (min(4, hw) denominator), so the baseline
  // carries the same loose tolerance as shard_parallel_efficiency_4; the
  // absolute 0.5 floor is the real gate.
  report.AddMetric({"scaling_parallel_efficiency_4", eff4, "ratio", true,
                    /*gate=*/true, /*min=*/0.5, /*max_regression=*/0.6});
  if (simd::HaveAvx2()) {
    bench::BenchMetric m{"scaling_simd_aggregation_ratio", simd_ratio, "x",
                         true, /*gate=*/true, /*min=*/1.3,
                         /*max_regression=*/0.6};
    m.optional = true;  // non-AVX2 hosts skip this gate
    report.AddMetric(m);
  }
  report.AddMetric({"scaling_bit_identical", identical ? 1.0 : 0.0, "bool",
                    true, /*gate=*/true, /*min=*/1.0});

  const bool ok = report.FloorsPass();
  if (!report.WriteIfRequested()) return 1;
  std::cout << (ok ? "bench_scaling: PASS\n"
                   : "bench_scaling: FAIL (gated floor violated)\n");
  return ok ? 0 : 1;
}
