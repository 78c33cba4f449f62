#include "core/queries.h"

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/exact_simrank.h"
#include "core/indexer.h"
#include "graph/generators.h"

namespace cloudwalker {
namespace {

// Shared fixture: a small R-MAT graph with a well-converged index.
class QueriesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new Graph(GenerateRmat(120, 840, /*seed=*/3));
    IndexingOptions o;
    o.num_walkers = 1500;
    o.jacobi_iterations = 6;
    o.seed = 4;
    ThreadPool pool(8);
    auto idx = BuildDiagonalIndex(*graph_, o, &pool);
    ASSERT_TRUE(idx.ok());
    index_ = new DiagonalIndex(std::move(idx).value());
    auto exact = ExactSimRank::Compute(*graph_);
    ASSERT_TRUE(exact.ok());
    exact_ = new ExactSimRank(std::move(exact).value());
  }
  static void TearDownTestSuite() {
    delete graph_;
    delete index_;
    delete exact_;
    graph_ = nullptr;
    index_ = nullptr;
    exact_ = nullptr;
  }

  static QueryOptions BigQuery() {
    QueryOptions q;
    q.num_walkers = 20000;
    q.seed = 7;
    return q;
  }

  static Graph* graph_;
  static DiagonalIndex* index_;
  static ExactSimRank* exact_;
};

Graph* QueriesTest::graph_ = nullptr;
DiagonalIndex* QueriesTest::index_ = nullptr;
ExactSimRank* QueriesTest::exact_ = nullptr;

TEST_F(QueriesTest, SelfPairIsOne) {
  EXPECT_DOUBLE_EQ(SinglePairQuery(*graph_, *index_, 5, 5, BigQuery()), 1.0);
}

TEST_F(QueriesTest, RetiredWalkContextOverloadsForward) {
  // The context-taking overloads survive for source compatibility only:
  // the (empty) context is ignored and answers are bit-identical.
  const QueryOptions q = BigQuery();
  const WalkContext ctx;
  EXPECT_EQ(SinglePairQuery(*graph_, *index_, 3, 97, q),
            SinglePairQuery(*graph_, *index_, 3, 97, q, nullptr, nullptr,
                            &ctx, nullptr, nullptr));
  const SparseVector plain = SingleSourceQuery(*graph_, *index_, 12, q);
  const SparseVector with_ctx = SingleSourceQuery(
      *graph_, *index_, 12, q, nullptr, nullptr, &ctx, nullptr, nullptr);
  ASSERT_EQ(plain.size(), with_ctx.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], with_ctx[i]);
  }
  EXPECT_EQ(PersonalizedPageRankQuery(*graph_, *index_, 12, q).entries(),
            PersonalizedPageRankQuery(*graph_, *index_, 12, q, nullptr,
                                      nullptr, &ctx, nullptr, nullptr)
                .entries());
  EXPECT_EQ(Node2VecVisitQuery(*graph_, *index_, 12, q).entries(),
            Node2VecVisitQuery(*graph_, *index_, 12, q, nullptr, nullptr,
                               &ctx, nullptr, nullptr)
                .entries());
}

TEST_F(QueriesTest, PairIsExactlySymmetric) {
  const QueryOptions q = BigQuery();
  for (auto [i, j] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1}, {3, 97}, {40, 41}, {7, 119}}) {
    EXPECT_DOUBLE_EQ(SinglePairQuery(*graph_, *index_, i, j, q),
                     SinglePairQuery(*graph_, *index_, j, i, q));
  }
}

TEST_F(QueriesTest, PairDeterministicForSeed) {
  const QueryOptions q = BigQuery();
  EXPECT_DOUBLE_EQ(SinglePairQuery(*graph_, *index_, 2, 9, q),
                   SinglePairQuery(*graph_, *index_, 2, 9, q));
}

TEST_F(QueriesTest, PairMatchesExactSimRank) {
  const QueryOptions q = BigQuery();
  double max_err = 0.0;
  for (NodeId i = 0; i < 20; ++i) {
    for (NodeId j = i + 1; j < 20; ++j) {
      const double est = SinglePairQuery(*graph_, *index_, i, j, q);
      max_err = std::max(max_err,
                         std::fabs(est - exact_->Similarity(i, j)));
    }
  }
  EXPECT_LT(max_err, 0.06);
}

TEST_F(QueriesTest, PairStatsCountWalks) {
  QueryOptions q = BigQuery();
  q.num_walkers = 100;
  QueryStats stats;
  SinglePairQuery(*graph_, *index_, 0, 1, q, &stats);
  EXPECT_GT(stats.walk_steps, 0u);
  EXPECT_LE(stats.walk_steps,
            2ull * q.num_walkers * index_->params().num_steps);
}

TEST_F(QueriesTest, SingleSourceSelfEstimateNearOne) {
  // The diagonal estimate sums pushed mass landing exactly back on the
  // source; use the exact push so only walk noise and truncation remain.
  QueryOptions q = BigQuery();
  q.push = PushStrategy::kExact;
  const SparseVector s = SingleSourceQuery(*graph_, *index_, 11, q);
  EXPECT_NEAR(s.Get(11), 1.0, 0.1);
}

TEST_F(QueriesTest, SingleSourceExactPushMatchesExactSimRank) {
  QueryOptions q = BigQuery();
  q.push = PushStrategy::kExact;
  const NodeId src = 17;
  const SparseVector s = SingleSourceQuery(*graph_, *index_, src, q);
  double max_err = 0.0;
  for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
    if (v == src) continue;
    max_err =
        std::max(max_err, std::fabs(s.Get(v) - exact_->Similarity(src, v)));
  }
  EXPECT_LT(max_err, 0.06);
}

TEST_F(QueriesTest, SingleSourceSampledPushUnbiased) {
  // Average sampled-push estimates over independent seeds; the mean should
  // approach the exact-push estimate.
  QueryOptions exact_q = BigQuery();
  exact_q.push = PushStrategy::kExact;
  const NodeId src = 23;
  const SparseVector ref =
      SingleSourceQuery(*graph_, *index_, src, exact_q);

  // The sampled push is unbiased but heavy-tailed (importance weights
  // |Out(k)| / |In(v)| are unbounded), so assert on the mean absolute
  // deviation across all nodes, averaged over many independent seeds.
  std::vector<double> mean(graph_->num_nodes(), 0.0);
  const int reps = 48;
  for (int r = 0; r < reps; ++r) {
    QueryOptions q = BigQuery();
    q.num_walkers = 5000;
    q.push_fanout = 4;
    q.seed = 1000 + r;
    const SparseVector s = SingleSourceQuery(*graph_, *index_, src, q);
    for (const SparseEntry& e : s) mean[e.index] += e.value / reps;
  }
  double total_err = 0.0;
  for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
    total_err += std::fabs(mean[v] - ref.Get(v));
  }
  // Loose bound: a weighting bug (e.g. dropping the |Out(k)| factor)
  // produces errors an order of magnitude larger than residual MC noise.
  EXPECT_LT(total_err / graph_->num_nodes(), 0.06);
}

TEST_F(QueriesTest, SingleSourceAgreesWithSinglePair) {
  // MCSS and MCSP estimate the same quantity; with exact push and the same
  // walk seed the walk clouds coincide, so differences are push noise only.
  QueryOptions q = BigQuery();
  q.push = PushStrategy::kExact;
  const NodeId src = 31;
  const SparseVector ss = SingleSourceQuery(*graph_, *index_, src, q);
  for (NodeId v : {1u, 5u, 64u}) {
    const double sp = SinglePairQuery(*graph_, *index_, src, v, q);
    EXPECT_NEAR(ss.Get(v), sp, 0.05) << "node " << v;
  }
}

TEST_F(QueriesTest, LargerFanoutReducesSampledPushError) {
  QueryOptions exact_q = BigQuery();
  exact_q.push = PushStrategy::kExact;
  const NodeId src = 42;
  const SparseVector ref =
      SingleSourceQuery(*graph_, *index_, src, exact_q);

  auto mean_abs_err = [&](uint32_t fanout) {
    double total = 0.0;
    const int reps = 8;
    for (int r = 0; r < reps; ++r) {
      QueryOptions q = BigQuery();
      q.push_fanout = fanout;
      q.seed = 5000 + r;
      const SparseVector s = SingleSourceQuery(*graph_, *index_, src, q);
      double err = 0.0;
      for (NodeId v = 0; v < graph_->num_nodes(); ++v) {
        err += std::fabs(s.Get(v) - ref.Get(v));
      }
      total += err / graph_->num_nodes();
    }
    return total / reps;
  };
  EXPECT_LT(mean_abs_err(8), mean_abs_err(1));
}

TEST_F(QueriesTest, SingleSourceStats) {
  QueryStats stats;
  SingleSourceQuery(*graph_, *index_, 3, BigQuery(), &stats);
  EXPECT_GT(stats.walk_steps, 0u);
  EXPECT_GT(stats.push_ops, 0u);
  EXPECT_EQ(stats.walk_crossings, 0u);  // no owner fn
}

TEST_F(QueriesTest, CrossingsCountedWithOwner) {
  const NodeOwnerFn owner = [](NodeId v) { return static_cast<int>(v % 3); };
  QueryStats stats;
  SingleSourceQuery(*graph_, *index_, 3, BigQuery(), &stats, &owner);
  EXPECT_GT(stats.walk_crossings, 0u);
  EXPECT_GT(stats.push_crossings, 0u);
}

TEST(QueriesStandaloneTest, DisconnectedNodesHaveZeroSimilarity) {
  // Two disjoint cycles: similarity across components must be ~0.
  GraphBuilder b(8);
  for (NodeId v = 0; v < 4; ++v) b.AddEdge(v, (v + 1) % 4);
  for (NodeId v = 4; v < 8; ++v) b.AddEdge(v, 4 + ((v - 4 + 1) % 4));
  const Graph g = std::move(b.Build()).value();
  IndexingOptions o;
  o.num_walkers = 200;
  auto idx = BuildDiagonalIndex(g, o, nullptr);
  ASSERT_TRUE(idx.ok());
  QueryOptions q;
  q.num_walkers = 2000;
  EXPECT_DOUBLE_EQ(SinglePairQuery(g, *idx, 0, 5, q), 0.0);
  const SparseVector ss = SingleSourceQuery(g, *idx, 0, q);
  for (NodeId v = 4; v < 8; ++v) EXPECT_DOUBLE_EQ(ss.Get(v), 0.0);
}

TEST(QueriesStandaloneTest, StarLeavesAreMaximallySimilar) {
  // All leaves of an outward star share the hub as their only in-neighbor:
  // s(leaf_a, leaf_b) = c exactly.
  GraphBuilder b(6);
  for (NodeId v = 1; v < 6; ++v) b.AddEdge(0, v);  // hub -> leaves
  const Graph g = std::move(b.Build()).value();
  IndexingOptions o;
  o.num_walkers = 500;
  o.jacobi_iterations = 5;
  auto idx = BuildDiagonalIndex(g, o, nullptr);
  ASSERT_TRUE(idx.ok());
  QueryOptions q;
  q.num_walkers = 20000;
  const double s = SinglePairQuery(g, *idx, 1, 2, q);
  EXPECT_NEAR(s, 0.6, 0.02);
}

TEST_F(QueriesTest, PairedEstimatorSelfIsOne) {
  EXPECT_DOUBLE_EQ(
      SinglePairQueryPaired(*graph_, *index_, 4, 4, BigQuery()), 1.0);
}

TEST_F(QueriesTest, PairedEstimatorSymmetric) {
  const QueryOptions q = BigQuery();
  for (auto [i, j] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1}, {3, 97}, {40, 41}}) {
    EXPECT_DOUBLE_EQ(SinglePairQueryPaired(*graph_, *index_, i, j, q),
                     SinglePairQueryPaired(*graph_, *index_, j, i, q));
  }
}

TEST_F(QueriesTest, PairedEstimatorMatchesExactSimRank) {
  QueryOptions q = BigQuery();
  q.num_walkers = 50000;
  double max_err = 0.0;
  for (NodeId i = 0; i < 12; ++i) {
    for (NodeId j = i + 1; j < 12; ++j) {
      const double est = SinglePairQueryPaired(*graph_, *index_, i, j, q);
      max_err =
          std::max(max_err, std::fabs(est - exact_->Similarity(i, j)));
    }
  }
  EXPECT_LT(max_err, 0.08);
}

TEST_F(QueriesTest, PairedEstimatorCountsSteps) {
  QueryOptions q = BigQuery();
  q.num_walkers = 100;
  QueryStats stats;
  SinglePairQueryPaired(*graph_, *index_, 0, 1, q, &stats);
  EXPECT_GT(stats.walk_steps, 0u);
  EXPECT_LE(stats.walk_steps,
            2ull * q.num_walkers * index_->params().num_steps);
}

TEST_F(QueriesTest, EmpiricalEstimatorHasLowerVarianceThanPaired) {
  // DESIGN.md section 5.3: the distribution estimator intersects whole
  // walker clouds (R'^2 pairings) and should beat lockstep pairs at equal
  // walk cost. Compare sample variances across seeds.
  const NodeId i = 2, j = 9;
  double emp_sum = 0, emp_sq = 0, pair_sum = 0, pair_sq = 0;
  const int reps = 16;
  for (int r = 0; r < reps; ++r) {
    QueryOptions q;
    q.num_walkers = 500;
    q.seed = 40000 + r;
    const double e = SinglePairQuery(*graph_, *index_, i, j, q);
    const double p = SinglePairQueryPaired(*graph_, *index_, i, j, q);
    emp_sum += e;
    emp_sq += e * e;
    pair_sum += p;
    pair_sq += p * p;
  }
  const double emp_var = emp_sq / reps - (emp_sum / reps) * (emp_sum / reps);
  const double pair_var =
      pair_sq / reps - (pair_sum / reps) * (pair_sum / reps);
  EXPECT_LT(emp_var, pair_var);
}

TEST(TopKTest, OrdersByScoreThenId) {
  const SparseVector scores = SparseVector::FromSorted(
      {{0, 0.5}, {1, 0.9}, {2, 0.5}, {3, 0.1}, {4, 0.9}});
  const auto top = TopKFromSparse(scores, kInvalidNode, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].node, 1u);
  EXPECT_EQ(top[1].node, 4u);
  EXPECT_EQ(top[2].node, 0u);  // ties broken by id
}

TEST(TopKTest, ExcludesRequestedNode) {
  const SparseVector scores =
      SparseVector::FromSorted({{0, 1.0}, {1, 0.5}});
  const auto top = TopKFromSparse(scores, 0, 5);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].node, 1u);
}

TEST(TopKTest, KLargerThanEntries) {
  const SparseVector scores = SparseVector::FromSorted({{2, 0.3}});
  const auto top = TopKFromSparse(scores, kInvalidNode, 10);
  ASSERT_EQ(top.size(), 1u);
}

TEST(AllPairsTest, ReturnsTopKPerSource) {
  const Graph g = GenerateRmat(60, 400, 5);
  IndexingOptions o;
  o.num_walkers = 300;
  auto idx = BuildDiagonalIndex(g, o, nullptr);
  ASSERT_TRUE(idx.ok());
  QueryOptions q;
  q.num_walkers = 500;
  ThreadPool pool(4);
  uint64_t steps = 0;
  const auto all = AllPairsTopK(g, *idx, q, 5, &pool, &steps);
  ASSERT_EQ(all.size(), g.num_nodes());
  EXPECT_GT(steps, 0u);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    EXPECT_LE(all[s].size(), 5u);
    for (const ScoredNode& sn : all[s]) {
      EXPECT_NE(sn.node, s);  // self excluded
      EXPECT_LT(sn.node, g.num_nodes());
    }
    for (size_t i = 1; i < all[s].size(); ++i) {
      EXPECT_GE(all[s][i - 1].score, all[s][i].score);
    }
  }
}

}  // namespace
}  // namespace cloudwalker
