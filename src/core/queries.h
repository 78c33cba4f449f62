// Online Monte-Carlo query kernels:
//   MCSP — single-pair  s(i, j), O(T R')
//   MCSS — single-source s(q, *), O(T^2 R') with the sampled push
//   MCAP — all-pairs via repeated MCSS, streamed as per-source top-k
//
// All kernels consume a DiagonalIndex built by core/indexer.h and estimate
//   s(i, j) = sum_{t=0..T} c^t (P^t e_i)^T D (P^t e_j).
// Raw estimates are returned unclamped (they can exceed [0, 1] slightly due
// to Monte-Carlo variance); the CloudWalker facade applies clamping.

#ifndef CLOUDWALKER_CORE_QUERIES_H_
#define CLOUDWALKER_CORE_QUERIES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "common/sparse.h"
#include "common/threading.h"
#include "core/diagonal.h"
#include "core/options.h"
#include "engine/walk.h"
#include "graph/graph.h"

namespace cloudwalker {

class WalkBackend;

/// Execution counters of one query. Crossing counters are only filled when
/// an owner function is supplied (simulated-cluster accounting).
struct QueryStats {
  uint64_t walk_steps = 0;            // reverse-walk steps
  uint64_t push_ops = 0;              // forward-push operations (MCSS only)
  uint64_t walk_crossings = 0;        // walk steps crossing partitions
  uint64_t push_crossings = 0;        // push ops crossing partitions
};

/// MCSP: single-pair SimRank estimate. Walker streams are derived per node,
/// so the result is exactly symmetric in (i, j). Returns 1 for i == j.
///
/// This is the empirical-distribution estimator: the two R'-walker clouds
/// are intersected level by level, giving R'^2 effective walker pairings
/// per level at O(T R') cost.
///
/// `cancel` (optional, here and in SingleSourceQuery / AllPairsTopK) is the cooperative stop signal
/// threaded into the walk engine's level loop and the push phases; a
/// stopped kernel returns early with a truncated (meaningless) value that
/// the caller must discard after observing cancel->ShouldStop().
///
/// `backend` (optional, every walk-running kernel) supplies the walk phase
/// (engine/walk_backend.h) — e.g. the in-process sharded BSP engine. Null
/// runs the single-node batched kernel over (graph, owner). The
/// combine phases are shared, so any backend that reproduces the
/// single-node walk distributions yields bit-identical query results.
double SinglePairQuery(const Graph& graph, const DiagonalIndex& index,
                       NodeId i, NodeId j, const QueryOptions& options,
                       QueryStats* stats = nullptr,
                       const NodeOwnerFn* owner = nullptr,
                       const CancelToken* cancel = nullptr,
                       const WalkBackend* backend = nullptr);

/// Classic paired-walker MCSP estimator (ablation; DESIGN.md section 5.3):
/// R' walker *pairs* advance in lockstep and the estimate is
/// (1/R') sum_r sum_t c^t x_{a_t^r} [a_t^r == b_t^r]. Unbiased for the same
/// quantity as SinglePairQuery but with only R' pairings per level, so its
/// variance is higher at equal walk cost. Exactly symmetric in (i, j).
double SinglePairQueryPaired(const Graph& graph, const DiagonalIndex& index,
                             NodeId i, NodeId j, const QueryOptions& options,
                             QueryStats* stats = nullptr);

/// MCSS: single-source SimRank estimates s(q, v) for all v, as a sparse
/// vector (absent nodes estimate to 0). The self-entry holds the diagonal
/// *estimate* (close to 1 when the index converged), not a hard-coded 1.
SparseVector SingleSourceQuery(const Graph& graph, const DiagonalIndex& index,
                               NodeId q, const QueryOptions& options,
                               QueryStats* stats = nullptr,
                               const NodeOwnerFn* owner = nullptr,
                               const CancelToken* cancel = nullptr,
                               const WalkBackend* backend = nullptr);

/// A node with its similarity score.
struct ScoredNode {
  NodeId node = kInvalidNode;
  double score = 0.0;

  bool operator==(const ScoredNode&) const = default;
};

/// Extracts the k highest-scoring entries of `scores` (excluding `exclude`,
/// pass kInvalidNode to keep all), sorted by descending score then ascending
/// node id.
std::vector<ScoredNode> TopKFromSparse(const SparseVector& scores,
                                       NodeId exclude, size_t k);

/// Personalized PageRank query kernel (QueryKind::kPersonalizedPageRank):
/// the empirical endpoint distribution of options.num_walkers teleport
/// walks from q (continuation probability options.ppr_alpha, truncated
/// after the index's T steps; engine/walk_program.h). Scores are endpoint
/// frequencies in [0, 1]. Uses the index only for T, keeping every query
/// kind's walk length governed by the same snapshot parameter.
SparseVector PersonalizedPageRankQuery(const Graph& graph,
                                       const DiagonalIndex& index, NodeId q,
                                       const QueryOptions& options,
                                       QueryStats* stats = nullptr,
                                       const NodeOwnerFn* owner = nullptr,
                                       const CancelToken* cancel = nullptr,
                                       const WalkBackend* backend = nullptr);

/// node2vec visit-frequency query kernel (QueryKind::kNode2Vec): runs
/// second-order biased walks from q (options.n2v_return_p /
/// options.n2v_in_out_q; engine/walk_program.h) and scores each node by
/// its average visit frequency over steps 1..T,
///   score(v) = (1/T) sum_{t=1..T} û_t(v),
/// a number in [0, 1] (1 = every walker sits on v at every step).
SparseVector Node2VecVisitQuery(const Graph& graph,
                                const DiagonalIndex& index, NodeId q,
                                const QueryOptions& options,
                                QueryStats* stats = nullptr,
                                const NodeOwnerFn* owner = nullptr,
                                const CancelToken* cancel = nullptr,
                                const WalkBackend* backend = nullptr);

/// MCAP: runs MCSS from every node (parallel across sources) and keeps the
/// top-k similar nodes per source. O(n T^2 R') — the n x n result is never
/// materialized. `total_walk_steps` (optional) accumulates walk counters.
std::vector<std::vector<ScoredNode>> AllPairsTopK(
    const Graph& graph, const DiagonalIndex& index,
    const QueryOptions& options, size_t k, ThreadPool* pool,
    uint64_t* total_walk_steps = nullptr,
    const CancelToken* cancel = nullptr,
    const WalkBackend* backend = nullptr);

// Source compatibility with the retired WalkContext (engine/walk.h): the
// pre-removal signatures of the four walk kernels, which took a context
// between `owner` and `cancel`. The context is ignored.
inline double SinglePairQuery(const Graph& graph, const DiagonalIndex& index,
                              NodeId i, NodeId j, const QueryOptions& options,
                              QueryStats* stats, const NodeOwnerFn* owner,
                              const WalkContext* /*ignored*/,
                              const CancelToken* cancel,
                              const WalkBackend* backend) {
  return SinglePairQuery(graph, index, i, j, options, stats, owner, cancel,
                         backend);
}
inline SparseVector SingleSourceQuery(
    const Graph& graph, const DiagonalIndex& index, NodeId q,
    const QueryOptions& options, QueryStats* stats, const NodeOwnerFn* owner,
    const WalkContext* /*ignored*/, const CancelToken* cancel,
    const WalkBackend* backend) {
  return SingleSourceQuery(graph, index, q, options, stats, owner, cancel,
                           backend);
}
inline SparseVector PersonalizedPageRankQuery(
    const Graph& graph, const DiagonalIndex& index, NodeId q,
    const QueryOptions& options, QueryStats* stats, const NodeOwnerFn* owner,
    const WalkContext* /*ignored*/, const CancelToken* cancel,
    const WalkBackend* backend) {
  return PersonalizedPageRankQuery(graph, index, q, options, stats, owner,
                                   cancel, backend);
}
inline SparseVector Node2VecVisitQuery(
    const Graph& graph, const DiagonalIndex& index, NodeId q,
    const QueryOptions& options, QueryStats* stats, const NodeOwnerFn* owner,
    const WalkContext* /*ignored*/, const CancelToken* cancel,
    const WalkBackend* backend) {
  return Node2VecVisitQuery(graph, index, q, options, stats, owner, cancel,
                            backend);
}

}  // namespace cloudwalker

#endif  // CLOUDWALKER_CORE_QUERIES_H_
