// Additional walk programs over the shared batched engine (DESIGN.md
// section 10): personalized PageRank teleport walks and second-order
// node2vec-style walks. SimRank — the first program — keeps its original
// entry points in engine/walk.h.
//
// Both programs run on the same kernel as SimRank (SoA cursors, blocked
// advance, CSR prefetch, radix aggregation) and inherit its determinism
// contract: every draw is a pure function of (config.seed, source, walker,
// step[, trial]), on per-program channels derived from the per-source key,
// so results are bit-identical across batch widths, thread counts, and
// backends — per program.
//
// Both walk the same reverse transition kernel P as SimRank (each move
// goes to a uniformly random *in-neighbor*), so they measure relevance in
// the graph whose arcs are the reversed input arcs. This is deliberate:
// one CSR, one snapshot, one cache serve all programs.

#ifndef CLOUDWALKER_ENGINE_WALK_PROGRAM_H_
#define CLOUDWALKER_ENGINE_WALK_PROGRAM_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/sparse.h"
#include "engine/walk.h"
#include "graph/graph.h"

namespace cloudwalker {

/// Channel tags for program-specific draw streams. A program needing a
/// draw beyond the canonical move stream derives its own channel key as
/// DeriveSeed(DeriveSeed(config.seed, source), channel) so no two
/// programs — and no two draw purposes within one step — ever consume the
/// same counter stream.
inline constexpr uint64_t kPprStopChannel = 0x7070722d73746f70ull;   // "ppr-stop"
inline constexpr uint64_t kNode2VecTrialChannel = 0x6e32762d7472ull;  // "n2v-tr"

/// Acceptance threshold against the low 32 bits of a counter draw:
/// accept iff (raw & 0xffffffff) < AcceptThreshold(prob). prob == 1 maps
/// to 2^32, which every 32-bit value is below — certain acceptance costs
/// no precision. Shared by every backend so rejection decisions are
/// bit-identical wherever the walker runs.
inline uint64_t AcceptThreshold(double prob) {
  return static_cast<uint64_t>(prob * 4294967296.0);
}

/// The unit-interval value of a 64-bit draw (the Xoshiro256::NextDouble
/// convention: top 53 bits).
inline double DrawToUnit(uint64_t raw) {
  return static_cast<double>(raw >> 11) * 0x1.0p-53;
}

/// True when `node` occurs in the in-row `row`. In-rows ascend by external
/// id: the id itself, or `external_ids[id]` on a locality-reordered graph
/// (WalkConfig::external_ids), so membership is one binary search either
/// way. Shared by every backend's node2vec step.
inline bool InRowContains(std::span<const NodeId> row, NodeId node,
                          std::span<const NodeId> external_ids) {
  if (external_ids.empty()) {
    return std::binary_search(row.begin(), row.end(), node);
  }
  return std::binary_search(row.begin(), row.end(), node,
                            [external_ids](NodeId a, NodeId b) {
                              return external_ids[a] < external_ids[b];
                            });
}

/// Sorts a bag of endpoint nodes and run-length encodes it into the
/// empirical distribution value(id) = multiplicity * inv_r — the same
/// aggregation the kernel's DrainLevel applies per level. Order
/// independent: any permutation of `nodes` (it is sorted in place)
/// produces the bit-identical SparseVector, which is what lets a sharded
/// backend concatenate per-shard endpoint lists and still match the
/// single-node kernel exactly. `id_bits` bounds the ids (radix digits).
SparseVector AggregateEndpointNodes(std::vector<NodeId>& nodes, double inv_r,
                                    uint32_t id_bits);

/// Personalized PageRank parameters.
struct PprParams {
  /// Continuation probability alpha in (0, 1): before every move the
  /// walker terminates with probability 1 - alpha and its current node
  /// becomes its endpoint.
  double alpha = 0.85;
};

/// Second-order node2vec-style walk parameters (Grover & Leskovec's
/// p / q biases, applied to the reverse transition kernel).
struct Node2VecParams {
  /// Return parameter p: revisiting the previous node is weighted 1/p.
  double return_p = 1.0;
  /// In-out parameter q: nodes at distance 2 from the previous node are
  /// weighted 1/q (distance-1 nodes keep weight 1).
  double in_out_q = 1.0;
  /// Rejection-sampling trial cap per (walker, step). When every trial
  /// rejects, the last candidate is accepted — a deterministic fallback
  /// that bounds per-step work; with the default cap the acceptance
  /// failure probability is astronomically small for any p, q within an
  /// order of magnitude of 1.
  uint32_t max_trials = 64;
};

/// Simulates `config.num_walkers` teleport walks from `source`
/// (termination probability 1 - alpha per step, truncated after
/// config.num_steps steps) and returns the empirical endpoint
/// distribution — the Monte-Carlo estimate of personalized PageRank on
/// the reverse transition kernel:
///   ppr_T(v) = sum_{t<T} (1-a) a^t (P^t e_s)(v) + a^T (P^T e_s)(v).
/// Under DanglingPolicy::kDie the distribution is sub-stochastic (mass at
/// walkers that die dangling is lost, exactly as in SimRank's levels).
/// `scratch`, `owner`, `stats` as in SimulateWalkDistributions.
SparseVector SimulatePprEndpoints(const Graph& graph, NodeId source,
                                  const WalkConfig& config,
                                  const PprParams& params,
                                  WalkScratch* scratch = nullptr,
                                  const NodeOwnerFn* owner = nullptr,
                                  WalkStats* stats = nullptr);

/// Simulates second-order node2vec-style walks from `source` and returns
/// the per-level empirical distributions (levels[0] = e_source), exactly
/// like SimulateWalkDistributions but with the biased transition
///   w(next) = 1/p if next == prev, 1 if next in In(prev), 1/q otherwise,
/// sampled by rejection against the uniform in-link row. The first step
/// (no previous node yet) is uniform. Visit scores for ranking are the
/// level average; see Node2VecVisitScores in core/queries.h.
WalkDistributions SimulateNode2VecVisits(const Graph& graph, NodeId source,
                                         const WalkConfig& config,
                                         const Node2VecParams& params,
                                         WalkScratch* scratch = nullptr,
                                         const NodeOwnerFn* owner = nullptr,
                                         WalkStats* stats = nullptr);

}  // namespace cloudwalker

#endif  // CLOUDWALKER_ENGINE_WALK_PROGRAM_H_
