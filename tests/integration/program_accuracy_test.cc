// Statistical accuracy of the walk programs against dense references
// (DESIGN.md section 10): the Monte-Carlo PPR endpoint distribution must
// approach the truncated power-iteration formula, and the node2vec visit
// distributions must approach the closed-form second-order Markov chain
// built from the same 1/p : 1 : 1/q edge weights.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/walk.h"
#include "engine/walk_program.h"
#include "graph/generators.h"
#include "graph/graph.h"

namespace cloudwalker {
namespace {

std::vector<double> Dense(const SparseVector& v, NodeId num_nodes) {
  std::vector<double> out(num_nodes, 0.0);
  for (const SparseEntry& e : v) out[e.index] = e.value;
  return out;
}

double L1(const std::vector<double>& a, const std::vector<double>& b) {
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) total += std::fabs(a[i] - b[i]);
  return total;
}

TEST(PprAccuracyTest, MatchesTruncatedPowerIterationReference) {
  // Truncated PPR over the reverse kernel P:
  //   ppr_T = sum_{t<T} (1-alpha) alpha^t P^t e_s  +  alpha^T P^T e_s,
  // i.e. a walker survives each step with probability alpha and whoever
  // is still walking after T steps contributes its final position. The
  // exact levels P^t e_s come from the deterministic propagation used by
  // the LIN baseline, so the two references share no sampling code.
  const NodeId n = 64;
  const Graph g = GenerateRmat(n, 512, /*seed=*/11);
  WalkConfig cfg;
  cfg.num_steps = 8;
  cfg.num_walkers = 50000;
  cfg.seed = 19;
  PprParams params;
  params.alpha = 0.7;

  const WalkDistributions exact =
      ExactWalkDistributions(g, /*source=*/5, cfg.num_steps);
  std::vector<double> reference(n, 0.0);
  double survive = 1.0;  // alpha^t
  for (uint32_t t = 0; t < cfg.num_steps; ++t) {
    for (const SparseEntry& e : exact.levels[t]) {
      reference[e.index] += survive * (1.0 - params.alpha) * e.value;
    }
    survive *= params.alpha;
  }
  for (const SparseEntry& e : exact.levels[cfg.num_steps]) {
    reference[e.index] += survive * e.value;
  }

  const SparseVector endpoints =
      SimulatePprEndpoints(g, /*source=*/5, cfg, params);
  EXPECT_LT(L1(Dense(endpoints, n), reference), 0.05);
}

TEST(PprAccuracyTest, AlphaSweepStaysWithinTheBound) {
  const NodeId n = 48;
  const Graph g = GenerateRmat(n, 384, /*seed=*/23);
  WalkConfig cfg;
  cfg.num_steps = 6;
  cfg.num_walkers = 40000;
  cfg.seed = 7;
  const WalkDistributions exact =
      ExactWalkDistributions(g, /*source=*/2, cfg.num_steps);
  for (const double alpha : {0.15, 0.5, 0.85}) {
    std::vector<double> reference(n, 0.0);
    double survive = 1.0;
    for (uint32_t t = 0; t < cfg.num_steps; ++t) {
      for (const SparseEntry& e : exact.levels[t]) {
        reference[e.index] += survive * (1.0 - alpha) * e.value;
      }
      survive *= alpha;
    }
    for (const SparseEntry& e : exact.levels[cfg.num_steps]) {
      reference[e.index] += survive * e.value;
    }
    PprParams params;
    params.alpha = alpha;
    const SparseVector endpoints =
        SimulatePprEndpoints(g, /*source=*/2, cfg, params);
    EXPECT_LT(L1(Dense(endpoints, n), reference), 0.05) << "alpha " << alpha;
  }
}

// Exact level marginals of the second-order node2vec walk on the reverse
// kernel: the chain's state is the ordered pair (current, previous); the
// transition weight of candidate x from state (cur, prev) is 1/p when
// x == prev, 1 when x is an in-neighbor of prev, and 1/q otherwise —
// the same classification the rejection sampler implements.
std::vector<std::vector<double>> ExactNode2VecLevels(
    const Graph& g, NodeId source, uint32_t num_steps, double return_p,
    double in_out_q) {
  const NodeId n = g.num_nodes();
  std::vector<std::vector<double>> levels;
  levels.push_back(std::vector<double>(n, 0.0));
  levels[0][source] = 1.0;

  // pair[cur * n + prev] = P(walker at cur, came from prev).
  std::vector<double> pair(static_cast<size_t>(n) * n, 0.0);
  const auto in_s = g.InNeighbors(source);
  std::vector<double> level1(n, 0.0);
  for (const NodeId x : in_s) {
    pair[static_cast<size_t>(x) * n + source] += 1.0 / in_s.size();
    level1[x] += 1.0 / in_s.size();
  }
  levels.push_back(std::move(level1));

  for (uint32_t t = 2; t <= num_steps; ++t) {
    std::vector<double> next_pair(static_cast<size_t>(n) * n, 0.0);
    std::vector<double> level(n, 0.0);
    for (NodeId cur = 0; cur < n; ++cur) {
      for (NodeId prev = 0; prev < n; ++prev) {
        const double mass = pair[static_cast<size_t>(cur) * n + prev];
        if (mass == 0.0) continue;
        const auto candidates = g.InNeighbors(cur);
        if (candidates.empty()) continue;  // kDie: mass leaves the chain
        const auto in_prev = g.InNeighbors(prev);
        double z = 0.0;
        std::vector<double> w(candidates.size());
        for (size_t i = 0; i < candidates.size(); ++i) {
          const NodeId x = candidates[i];
          if (x == prev) {
            w[i] = 1.0 / return_p;
          } else if (std::binary_search(in_prev.begin(), in_prev.end(), x)) {
            w[i] = 1.0;
          } else {
            w[i] = 1.0 / in_out_q;
          }
          z += w[i];
        }
        for (size_t i = 0; i < candidates.size(); ++i) {
          const NodeId x = candidates[i];
          const double moved = mass * w[i] / z;
          next_pair[static_cast<size_t>(x) * n + cur] += moved;
          level[x] += moved;
        }
      }
    }
    pair = std::move(next_pair);
    levels.push_back(std::move(level));
  }
  return levels;
}

TEST(Node2VecAccuracyTest, MatchesClosedFormSecondOrderChain) {
  // A small dense-ish digraph with edges in both directions plus chords,
  // so all three weight classes (return / near / far) occur. p and q are
  // kept within 4x of each other: the rejection sampler then accepts with
  // probability >= 1/4 per trial and the 64-trial fallback is vanishingly
  // rare (< 1e-8), so the closed form is the true sampling distribution.
  const NodeId n = 12;
  GraphBuilder builder(n);
  for (NodeId v = 0; v < n; ++v) {
    builder.AddEdge(v, (v + 1) % n);
    builder.AddEdge((v + 1) % n, v);
    builder.AddEdge(v, (v + 4) % n);
    builder.AddEdge((v + 4) % n, v);
  }
  const Graph g = std::move(builder.Build()).value();
  WalkConfig cfg;
  cfg.num_steps = 5;
  cfg.num_walkers = 50000;
  cfg.seed = 3;
  Node2VecParams params;
  params.return_p = 0.5;
  params.in_out_q = 2.0;

  const auto exact = ExactNode2VecLevels(g, /*source=*/4, cfg.num_steps,
                                         params.return_p, params.in_out_q);
  const WalkDistributions empirical =
      SimulateNode2VecVisits(g, /*source=*/4, cfg, params);
  ASSERT_EQ(empirical.num_levels(), exact.size());
  for (size_t t = 0; t < exact.size(); ++t) {
    EXPECT_LT(L1(Dense(empirical.levels[t], n), exact[t]), 0.05)
        << "level " << t;
  }
}

TEST(Node2VecAccuracyTest, UnitParametersReduceToTheFirstOrderChain) {
  // With p == q == 1 the second-order weights are uniform, so the chain
  // degenerates to the plain reverse walk and the exact LIN propagation
  // is a valid reference for every level.
  const NodeId n = 32;
  const Graph g = GenerateRmat(n, 256, /*seed=*/31);
  WalkConfig cfg;
  cfg.num_steps = 5;
  cfg.num_walkers = 50000;
  cfg.seed = 13;
  const WalkDistributions exact =
      ExactWalkDistributions(g, /*source=*/1, cfg.num_steps);
  const WalkDistributions empirical =
      SimulateNode2VecVisits(g, /*source=*/1, cfg, Node2VecParams{});
  ASSERT_EQ(empirical.num_levels(), exact.num_levels());
  for (size_t t = 0; t < exact.num_levels(); ++t) {
    EXPECT_LT(L1(Dense(empirical.levels[t], n), Dense(exact.levels[t], n)),
              0.05)
        << "level " << t;
  }
}

}  // namespace
}  // namespace cloudwalker
