#include "core/queries.h"

#include <algorithm>
#include <atomic>
#include <span>

#include "common/logging.h"
#include "common/random.h"
#include "engine/walk.h"
#include "engine/walk_backend.h"
#include "engine/walk_program.h"

namespace cloudwalker {
namespace {

WalkConfig WalkConfigFromQuery(const DiagonalIndex& index,
                               const QueryOptions& options,
                               const CancelToken* cancel) {
  WalkConfig cfg;
  cfg.num_steps = index.params().num_steps;
  cfg.num_walkers = options.num_walkers;
  cfg.dangling = options.dangling;
  cfg.seed = options.seed;
  cfg.cancel = cancel;
  return cfg;
}

bool Stopped(const CancelToken* cancel) {
  return cancel != nullptr && cancel->ShouldStop();
}

/// One sampled forward-push step: an unbiased one-sample estimate of
/// z' = P^T z. Mass at node k moves to `fanout` sampled out-neighbors v,
/// reweighted by |Out(k)| / (fanout * |In(v)|).
void SampledPushStep(const Graph& graph, const SparseVector& z,
                     uint32_t fanout, Xoshiro256& rng, SparseAccumulator& out,
                     QueryStats* stats, const NodeOwnerFn* owner) {
  out.Clear();
  for (const SparseEntry& e : z) {
    const NodeId k = e.index;
    const uint32_t out_deg = graph.OutDegree(k);
    if (out_deg == 0) continue;  // k is in nobody's in-neighborhood
    const double scale =
        e.value * static_cast<double>(out_deg) / static_cast<double>(fanout);
    for (uint32_t f = 0; f < fanout; ++f) {
      const NodeId v = graph.OutNeighbor(k, rng.UniformInt32(out_deg));
      const uint32_t in_deg = graph.InDegree(v);
      CW_DCHECK(in_deg > 0);  // v has at least the edge k -> v
      out.Add(v, scale / static_cast<double>(in_deg));
      if (stats != nullptr) {
        ++stats->push_ops;
        if (owner != nullptr && (*owner)(k) != (*owner)(v)) {
          ++stats->push_crossings;
        }
      }
    }
  }
}

/// Exact forward-push step z' = P^T z with optional epsilon pruning.
void ExactPushStep(const Graph& graph, const SparseVector& z,
                   double prune_threshold, SparseAccumulator& out,
                   QueryStats* stats, const NodeOwnerFn* owner) {
  out.Clear();
  for (const SparseEntry& e : z) {
    if (prune_threshold > 0.0 && std::abs(e.value) < prune_threshold) {
      continue;
    }
    for (const NodeId v : graph.OutNeighbors(e.index)) {
      out.Add(v, e.value / static_cast<double>(graph.InDegree(v)));
      if (stats != nullptr) {
        ++stats->push_ops;
        if (owner != nullptr && (*owner)(e.index) != (*owner)(v)) {
          ++stats->push_crossings;
        }
      }
    }
  }
}

}  // namespace

double SinglePairQuery(const Graph& graph, const DiagonalIndex& index,
                       NodeId i, NodeId j, const QueryOptions& options,
                       QueryStats* stats, const NodeOwnerFn* owner,
                       const CancelToken* cancel, const WalkBackend* backend) {
  CW_CHECK_LT(i, graph.num_nodes());
  CW_CHECK_LT(j, graph.num_nodes());
  CW_CHECK_EQ(index.num_nodes(), graph.num_nodes());
  if (i == j) return 1.0;

  const LocalWalkBackend local(graph, owner);
  if (backend == nullptr) backend = &local;
  const WalkConfig cfg = WalkConfigFromQuery(index, options, cancel);
  WalkStats wi, wj;
  const WalkDistributions di = backend->SimRankLevels(i, cfg, &wi);
  if (Stopped(cancel)) return 0.0;  // caller discards (request.h contract)
  const WalkDistributions dj = backend->SimRankLevels(j, cfg, &wj);
  if (stats != nullptr) {
    stats->walk_steps += wi.steps + wj.steps;
    stats->walk_crossings += wi.partition_crossings + wj.partition_crossings;
  }

  // t = 0 contributes nothing for i != j (e_i and e_j are disjoint).
  double estimate = 0.0;
  double ct = 1.0;
  const std::span<const double> diag = index.diagonal();
  for (size_t t = 0; t < di.levels.size(); ++t) {
    if (t > 0) {
      estimate +=
          ct * SparseVector::DotWeighted(di.levels[t], dj.levels[t], diag);
    }
    ct *= index.params().decay;
  }
  return estimate;
}

double SinglePairQueryPaired(const Graph& graph, const DiagonalIndex& index,
                             NodeId i, NodeId j, const QueryOptions& options,
                             QueryStats* stats) {
  CW_CHECK_LT(i, graph.num_nodes());
  CW_CHECK_LT(j, graph.num_nodes());
  CW_CHECK_EQ(index.num_nodes(), graph.num_nodes());
  if (i == j) return 1.0;

  // Streams are keyed by the unordered pair so that swapping (i, j) swaps
  // the walker roles but reproduces the same trajectories.
  const NodeId lo = std::min(i, j), hi = std::max(i, j);
  const uint64_t pair_key =
      DeriveSeed(options.seed, (static_cast<uint64_t>(lo) << 32) | hi);
  const std::span<const double> diag = index.diagonal();
  const double c = index.params().decay;
  const uint32_t t_steps = index.params().num_steps;

  double sum = 0.0;
  uint64_t steps = 0;
  for (uint32_t r = 0; r < options.num_walkers; ++r) {
    Xoshiro256 rng_lo = Xoshiro256::Derive(pair_key, 2ull * r);
    Xoshiro256 rng_hi = Xoshiro256::Derive(pair_key, 2ull * r + 1);
    NodeId a = lo, b = hi;
    double ct = 1.0;
    for (uint32_t t = 1; t <= t_steps; ++t) {
      a = StepReverse(graph, a, rng_lo, options.dangling);
      b = StepReverse(graph, b, rng_hi, options.dangling);
      steps += 2;
      if (a == kInvalidNode || b == kInvalidNode) break;
      ct *= c;
      if (a == b) sum += ct * diag[a];
    }
  }
  if (stats != nullptr) stats->walk_steps += steps;
  return sum / static_cast<double>(options.num_walkers);
}

SparseVector SingleSourceQuery(const Graph& graph, const DiagonalIndex& index,
                               NodeId q, const QueryOptions& options,
                               QueryStats* stats, const NodeOwnerFn* owner,
                               const CancelToken* cancel,
                               const WalkBackend* backend) {
  CW_CHECK_LT(q, graph.num_nodes());
  CW_CHECK_EQ(index.num_nodes(), graph.num_nodes());

  const LocalWalkBackend local(graph, owner);
  if (backend == nullptr) backend = &local;
  const WalkConfig cfg = WalkConfigFromQuery(index, options, cancel);
  WalkStats wq;
  const WalkDistributions dists = backend->SimRankLevels(q, cfg, &wq);

  const std::span<const double> diag = index.diagonal();
  Xoshiro256 rng =
      Xoshiro256::Derive(DeriveSeed(options.seed, 0x4d435353u /*MCSS*/), q);

  SparseAccumulator result(options.num_walkers * 4);
  SparseAccumulator ping(options.num_walkers * 2);
  SparseAccumulator pong(options.num_walkers * 2);

  double ct = 1.0;
  for (size_t t = 0; t < dists.levels.size(); ++t) {
    if (Stopped(cancel)) break;  // caller discards the truncated vector
    // z_t = c^t * D * û_{q,t}, then pushed forward t steps through P^T.
    std::vector<SparseEntry> z_entries;
    z_entries.reserve(dists.levels[t].size());
    for (const SparseEntry& e : dists.levels[t]) {
      const double v = ct * diag[e.index] * e.value;
      if (v != 0.0) z_entries.push_back(SparseEntry{e.index, v});
    }
    SparseVector z = SparseVector::FromSorted(std::move(z_entries));
    for (size_t step = 0; step < t && !z.empty(); ++step) {
      SparseAccumulator& out = (step % 2 == 0) ? ping : pong;
      if (options.push == PushStrategy::kSampled) {
        SampledPushStep(graph, z, options.push_fanout, rng, out, stats,
                        owner);
      } else {
        ExactPushStep(graph, z, options.prune_threshold, out, stats, owner);
      }
      z = out.ToSortedVector();
    }
    for (const SparseEntry& e : z) result.Add(e.index, e.value);
    ct *= index.params().decay;
  }

  if (stats != nullptr) {
    stats->walk_steps += wq.steps;
    stats->walk_crossings += wq.partition_crossings;
  }
  return result.ToSortedVector();
}

SparseVector PersonalizedPageRankQuery(const Graph& graph,
                                       const DiagonalIndex& index, NodeId q,
                                       const QueryOptions& options,
                                       QueryStats* stats,
                                       const NodeOwnerFn* owner,
                                       const CancelToken* cancel,
                                       const WalkBackend* backend) {
  CW_CHECK_LT(q, graph.num_nodes());
  CW_CHECK_EQ(index.num_nodes(), graph.num_nodes());
  const LocalWalkBackend local(graph, owner);
  if (backend == nullptr) backend = &local;
  const WalkConfig cfg = WalkConfigFromQuery(index, options, cancel);
  PprParams params;
  params.alpha = options.ppr_alpha;
  WalkStats wq;
  SparseVector endpoints = backend->PprEndpoints(q, cfg, params, &wq);
  if (stats != nullptr) {
    stats->walk_steps += wq.steps;
    stats->walk_crossings += wq.partition_crossings;
  }
  if (Stopped(cancel)) return SparseVector();  // caller discards
  return endpoints;
}

SparseVector Node2VecVisitQuery(const Graph& graph, const DiagonalIndex& index,
                                NodeId q, const QueryOptions& options,
                                QueryStats* stats, const NodeOwnerFn* owner,
                                const CancelToken* cancel,
                                const WalkBackend* backend) {
  CW_CHECK_LT(q, graph.num_nodes());
  CW_CHECK_EQ(index.num_nodes(), graph.num_nodes());
  const LocalWalkBackend local(graph, owner);
  if (backend == nullptr) backend = &local;
  const WalkConfig cfg = WalkConfigFromQuery(index, options, cancel);
  Node2VecParams params;
  params.return_p = options.n2v_return_p;
  params.in_out_q = options.n2v_in_out_q;
  WalkStats wq;
  const WalkDistributions dists = backend->Node2VecLevels(q, cfg, params, &wq);
  if (stats != nullptr) {
    stats->walk_steps += wq.steps;
    stats->walk_crossings += wq.partition_crossings;
  }
  if (Stopped(cancel)) return SparseVector();  // caller discards

  // Average the per-level visit frequencies over steps 1..T (level 0 is
  // the source itself and would trivially dominate its own ranking).
  const uint32_t t_steps = cfg.num_steps;
  SparseAccumulator acc(options.num_walkers * 2);
  const double inv_t = 1.0 / static_cast<double>(t_steps);
  for (size_t t = 1; t < dists.levels.size(); ++t) {
    for (const SparseEntry& e : dists.levels[t]) {
      acc.Add(e.index, e.value * inv_t);
    }
  }
  return acc.ToSortedVector();
}

std::vector<ScoredNode> TopKFromSparse(const SparseVector& scores,
                                       NodeId exclude, size_t k) {
  std::vector<ScoredNode> all;
  all.reserve(scores.size());
  for (const SparseEntry& e : scores) {
    if (e.index == exclude) continue;
    all.push_back(ScoredNode{e.index, e.value});
  }
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + keep, all.end(),
                    [](const ScoredNode& a, const ScoredNode& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.node < b.node;
                    });
  all.resize(keep);
  return all;
}

std::vector<std::vector<ScoredNode>> AllPairsTopK(
    const Graph& graph, const DiagonalIndex& index,
    const QueryOptions& options, size_t k, ThreadPool* pool,
    uint64_t* total_walk_steps, const CancelToken* cancel,
    const WalkBackend* backend) {
  std::vector<std::vector<ScoredNode>> out(graph.num_nodes());
  std::atomic<uint64_t> steps{0};
  ParallelFor(pool, 0, graph.num_nodes(), /*grain=*/0,
              [&](uint64_t begin, uint64_t end) {
                uint64_t local_steps = 0;
                for (uint64_t q = begin; q < end; ++q) {
                  if (Stopped(cancel)) break;  // skip the remaining sources
                  QueryStats qs;
                  const SparseVector scores =
                      SingleSourceQuery(graph, index, static_cast<NodeId>(q),
                                        options, &qs, /*owner=*/nullptr,
                                        cancel, backend);
                  local_steps += qs.walk_steps;
                  out[q] = TopKFromSparse(scores, static_cast<NodeId>(q), k);
                }
                steps.fetch_add(local_steps, std::memory_order_relaxed);
              });
  if (total_walk_steps != nullptr) {
    *total_walk_steps += steps.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace cloudwalker
