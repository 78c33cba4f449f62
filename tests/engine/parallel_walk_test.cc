// Bit-identity of the multi-threaded walk executor (DESIGN.md section 12):
// for every walk program, every thread count and every batch width,
// ParallelWalkExecutor must reproduce the
// single-threaded kernel's results *exactly* — the counter RNG keys on
// global walker ids, never threads, and the merge concatenates raw
// endpoints before the single aggregation pass. Also covers the facade
// wrapper (CloudWalker::Parallelize across all six query kinds), the
// sharded engine's phase-A thread matrix, and Build() validation.

#include "engine/parallel_walk.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cloudwalker.h"
#include "core/request.h"
#include "engine/walk.h"
#include "engine/walk_program.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "shard/sharded_engine.h"
#include "shard/sharding.h"

namespace cloudwalker {
namespace {

constexpr int kThreadCounts[] = {1, 2, 3, 8};

WalkConfig TestConfig(uint32_t batch_width = 256) {
  WalkConfig cfg;
  cfg.num_steps = 6;
  cfg.num_walkers = 300;
  cfg.seed = 77;
  cfg.batch_width = batch_width;
  return cfg;
}

std::shared_ptr<const ParallelWalkExecutor> MakeExecutor(
    const Graph& graph, int threads, uint32_t min_walkers_per_range = 16) {
  ParallelWalkOptions opts;
  opts.num_threads = threads;
  // Small enough that test-sized batches genuinely split across workers
  // (the split is pure scheduling, so it cannot affect answers).
  opts.min_walkers_per_range = min_walkers_per_range;
  auto executor = ParallelWalkExecutor::Build(graph, opts);
  EXPECT_TRUE(executor.ok()) << executor.status().message();
  return std::move(executor).value();
}

void ExpectSameVector(const SparseVector& a, const SparseVector& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << what << " entry " << i;
  }
}

void ExpectSameDistributions(const WalkDistributions& a,
                             const WalkDistributions& b,
                             const std::string& what) {
  ASSERT_EQ(a.num_levels(), b.num_levels()) << what;
  for (size_t t = 0; t < a.num_levels(); ++t) {
    ExpectSameVector(a.levels[t], b.levels[t],
                     what + " level " + std::to_string(t));
  }
}

// The tentpole matrix: program x thread count x batch width, against the
// single-threaded kernel.

TEST(ParallelWalkTest, SimRankLevelsMatchSingleThreadAcrossMatrix) {
  const Graph g = GenerateRmat(400, 3200, /*seed=*/5);
  for (const uint32_t width : {1u, 32u, 256u}) {
    const WalkConfig cfg = TestConfig(width);
    for (const NodeId source : {0u, 17u, 399u}) {
      const WalkDistributions single =
          SimulateWalkDistributions(g, source, cfg);
      for (const int threads : kThreadCounts) {
        const auto executor = MakeExecutor(g, threads);
        ExpectSameDistributions(
            single, executor->SimRankLevels(source, cfg, nullptr),
            "source " + std::to_string(source) + " threads " +
                std::to_string(threads) + " width " + std::to_string(width));
      }
    }
  }
}

TEST(ParallelWalkTest, PprEndpointsMatchSingleThreadAcrossMatrix) {
  const Graph g = GenerateRmat(400, 3200, /*seed=*/5);
  const WalkConfig cfg = TestConfig();
  PprParams params;
  for (const double alpha : {0.5, 0.85}) {
    params.alpha = alpha;
    for (const NodeId source : {3u, 211u}) {
      const SparseVector single =
          SimulatePprEndpoints(g, source, cfg, params);
      for (const int threads : kThreadCounts) {
        const auto executor = MakeExecutor(g, threads);
        ExpectSameVector(
            single, executor->PprEndpoints(source, cfg, params, nullptr),
            "alpha " + std::to_string(alpha) + " source " +
                std::to_string(source) + " threads " +
                std::to_string(threads));
      }
    }
  }
}

TEST(ParallelWalkTest, Node2VecLevelsMatchSingleThreadAcrossMatrix) {
  const Graph g = GenerateRmat(300, 2400, /*seed=*/11);
  WalkConfig cfg = TestConfig();
  cfg.num_walkers = 200;
  Node2VecParams params;
  params.return_p = 0.5;
  params.in_out_q = 2.0;
  for (const NodeId source : {1u, 120u, 299u}) {
    const WalkDistributions single =
        SimulateNode2VecVisits(g, source, cfg, params);
    for (const int threads : kThreadCounts) {
      const auto executor = MakeExecutor(g, threads);
      ExpectSameDistributions(
          single, executor->Node2VecLevels(source, cfg, params, nullptr),
          "source " + std::to_string(source) + " threads " +
              std::to_string(threads));
    }
  }
}

TEST(ParallelWalkTest, WalkStatsAggregateAcrossRanges) {
  const Graph g = GenerateRmat(300, 2400, /*seed=*/8);
  const WalkConfig cfg = TestConfig();
  WalkStats single_stats;
  (void)SimulateWalkDistributions(g, 7, cfg, /*scratch=*/nullptr,
                                  /*owner=*/nullptr, &single_stats);
  const auto executor = MakeExecutor(g, 4);
  WalkStats parallel_stats;
  (void)executor->SimRankLevels(7, cfg, &parallel_stats);
  EXPECT_EQ(single_stats.steps, parallel_stats.steps);
}

TEST(ParallelWalkTest, TinyBatchesFallBackToTheSerialPath) {
  // 300 walkers with the default 256-walker range floor is a single range
  // at any thread count; the executor must run it inline and still match.
  const Graph g = GenerateRmat(200, 1600, /*seed=*/3);
  const WalkConfig cfg = TestConfig();
  const auto executor = MakeExecutor(g, 8, /*min_walkers_per_range=*/256);
  EXPECT_EQ(executor->num_threads(), 8);
  ExpectSameDistributions(SimulateWalkDistributions(g, 9, cfg),
                          executor->SimRankLevels(9, cfg, nullptr),
                          "serial fallback");
}

// All six query kinds through the facade wrapper: Parallelize() re-backs
// an engine with the executor, and Execute() answers must stay byte-equal
// for every kind at every thread count.
TEST(ParallelWalkTest, AllSixQueryKindsBitIdenticalThroughParallelize) {
  auto base = CloudWalker::Build(GenerateRmat(250, 2000, /*seed=*/17));
  ASSERT_TRUE(base.ok()) << base.status().message();

  QueryOptions q;
  q.num_walkers = 400;
  std::vector<QueryRequest> requests;
  for (const QueryKind kind : kAllQueryKinds) {
    QueryRequest r;
    switch (kind) {
      case QueryKind::kPair:
        r = QueryRequest::Pair(12, 34);
        break;
      case QueryKind::kSingleSource:
        r = QueryRequest::SingleSource(12);
        break;
      case QueryKind::kSourceTopK:
        r = QueryRequest::SourceTopK(12, 10);
        break;
      case QueryKind::kAllPairsTopK:
        r = QueryRequest::AllPairsTopK(5);
        break;
      case QueryKind::kPersonalizedPageRank:
        r = QueryRequest::PersonalizedPageRank(12, 10);
        break;
      case QueryKind::kNode2Vec:
        r = QueryRequest::Node2Vec(12, 10);
        break;
    }
    r.options = q;
    requests.push_back(r);
  }

  std::vector<QueryResponse> expected;
  for (const QueryRequest& r : requests) {
    expected.push_back((*base)->Execute(r));
    ASSERT_TRUE(expected.back().ok()) << expected.back().status.message();
  }

  for (const int threads : kThreadCounts) {
    ParallelWalkOptions opts;
    opts.num_threads = threads;
    opts.min_walkers_per_range = 16;
    auto parallel = CloudWalker::Parallelize(*base, opts);
    ASSERT_TRUE(parallel.ok()) << parallel.status().message();
    ASSERT_NE((*parallel)->walk_backend(), nullptr);
    for (size_t i = 0; i < requests.size(); ++i) {
      const QueryResponse got = (*parallel)->Execute(requests[i]);
      ASSERT_TRUE(got.ok()) << got.status.message();
      const QueryResponse& want = expected[i];
      const std::string what = "kind " +
                               std::string(QueryKindToString(want.kind)) +
                               " threads " + std::to_string(threads);
      switch (want.kind) {
        case QueryKind::kPair:
          EXPECT_EQ(want.score(), got.score()) << what;
          break;
        case QueryKind::kSingleSource:
          EXPECT_EQ(want.scores()->entries(), got.scores()->entries())
              << what;
          break;
        case QueryKind::kSourceTopK:
        case QueryKind::kPersonalizedPageRank:
        case QueryKind::kNode2Vec:
          EXPECT_EQ(*want.topk(), *got.topk()) << what;
          break;
        case QueryKind::kAllPairsTopK:
          EXPECT_EQ(*want.all_pairs(), *got.all_pairs()) << what;
          break;
      }
    }
  }
}

// The sharded engine's phase-A advance fans out over its own pool; the
// same thread matrix must stay bit-identical through ShardingOptions.
TEST(ParallelWalkTest, ShardedPhaseAThreadMatrixBitIdentical) {
  const Graph g = GenerateRmat(300, 2400, /*seed=*/8);
  const WalkConfig cfg = TestConfig();
  PprParams ppr;
  for (const NodeId source : {0u, 150u, 299u}) {
    const WalkDistributions single =
        SimulateWalkDistributions(g, source, cfg);
    const SparseVector single_ppr =
        SimulatePprEndpoints(g, source, cfg, ppr);
    for (const int threads : kThreadCounts) {
      ShardingOptions opts;
      opts.num_shards = 4;
      opts.num_threads = threads;
      auto engine = ShardedWalkEngine::Build(g, opts);
      ASSERT_TRUE(engine.ok()) << engine.status().message();
      const std::string what = "source " + std::to_string(source) +
                               " phase-A threads " + std::to_string(threads);
      ExpectSameDistributions(
          single, (*engine)->SimRankLevels(source, cfg, nullptr), what);
      ExpectSameVector(single_ppr,
                       (*engine)->PprEndpoints(source, cfg, ppr, nullptr),
                       what + " ppr");
    }
  }
}

TEST(ParallelWalkTest, BuildRejectsInvalidOptions) {
  const Graph g = GenerateCycle(8);
  ParallelWalkOptions opts;
  opts.num_threads = -1;
  EXPECT_FALSE(ParallelWalkExecutor::Build(g, opts).ok());
  opts.num_threads = 2;
  opts.min_walkers_per_range = 0;
  EXPECT_FALSE(ParallelWalkExecutor::Build(g, opts).ok());
}

TEST(ParallelWalkTest, ParallelizeRejectsNullBase) {
  EXPECT_FALSE(
      CloudWalker::Parallelize(nullptr, ParallelWalkOptions{}).ok());
}

}  // namespace
}  // namespace cloudwalker
