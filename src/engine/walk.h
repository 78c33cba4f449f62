// The Monte-Carlo random-walk engine.
//
// SimRank's transition matrix P is the column-normalized adjacency matrix,
// so `P^t e_s` — the quantity every CloudWalker phase estimates — is the
// distribution of a t-step walk from s that moves to a uniformly random
// *in-neighbor* at each step. Walkers die at nodes with no in-neighbors
// (mass loss is part of the definition; see DanglingPolicy).
//
// The kernel advances all walkers of a source level-synchronously in blocks
// of `WalkConfig::batch_width`, picking each step straight from the CSR
// in-adjacency with software prefetch across the block (DESIGN.md
// section 8).
//
// SimRank's endpoint-per-level walk is the first *walk program* of the
// shared engine (DESIGN.md section 10): the per-step policy lives in a
// compile-time program (engine/walk_kernel.h), the cursors / prefetch /
// aggregation in the kernel. Further programs — personalized PageRank and
// second-order node2vec walks — are declared in engine/walk_program.h.
//
// Determinism: every draw is the stateless CounterRandom of
// (DeriveSeed(config.seed, source), walker, step), so results are
// bit-identical across thread counts and batch widths.

#ifndef CLOUDWALKER_ENGINE_WALK_H_
#define CLOUDWALKER_ENGINE_WALK_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/cancel.h"
#include "common/random.h"
#include "common/sparse.h"
#include "common/threading.h"
#include "graph/graph.h"

namespace cloudwalker {

/// The coherence granule the engine pads per-worker state to.
inline constexpr size_t kCacheLineBytes = 64;

/// Upper bound on WalkConfig::batch_width (sizes the kernel's stack-resident
/// cursor arrays).
inline constexpr uint32_t kMaxWalkBatchWidth = 256;

/// What a walker does at a node with no in-neighbors.
enum class DanglingPolicy {
  /// The walker terminates; the empirical distribution loses its mass.
  /// This is the faithful interpretation of P (columns of dangling nodes
  /// are all-zero) and the library default.
  kDie = 0,
  /// The walker stays put, as if every dangling node had a self loop.
  /// Provided for sensitivity experiments only.
  kSelfLoop = 1,
};

/// Parameters of a walk simulation.
struct WalkConfig {
  /// Walk length T (number of steps; level 0 is the source itself).
  uint32_t num_steps = 10;
  /// Number of independent walkers per source (R or R' in the paper).
  uint32_t num_walkers = 100;
  /// Behaviour at dangling nodes.
  DanglingPolicy dangling = DanglingPolicy::kDie;
  /// Master seed; per-source streams are derived from it.
  uint64_t seed = 1;
  /// Walkers advanced in lockstep per kernel block (clamped to
  /// [1, kMaxWalkBatchWidth]). Purely a scheduling knob: results are
  /// bit-identical for every width. The default keeps ~256 prefetches in
  /// flight per pass, enough to cover DRAM latency at every pass boundary.
  uint32_t batch_width = 256;
  /// Cooperative stop signal (borrowed, may be null). Polled between
  /// level-synchronous walk blocks; a stopped simulation returns early
  /// with the remaining levels empty, and the caller is expected to
  /// discard the truncated result (see common/cancel.h).
  const CancelToken* cancel = nullptr;
  /// Internal id -> external id of a locality-reordered graph (DESIGN.md
  /// section 14); empty (the default) when ids are not reordered. Walks
  /// key their per-source RNG on the source's external id, and such a
  /// graph stores every in-row in ascending external-id order, so the
  /// walk distributions — after id translation — are identical to the
  /// unreordered artifact's. Borrowed; must outlive the walk.
  std::span<const NodeId> external_ids = {};
};

/// The node a walk from `source` keys its RNG on: the source's external id
/// on a locality-reordered graph, the source itself otherwise.
inline NodeId RngNode(const WalkConfig& config, NodeId source) {
  return config.external_ids.empty() ? source : config.external_ids[source];
}

/// Maps the upper 32 bits of `raw` onto [0, degree) by multiply-shift: the
/// in-row slot of a uniform reverse step. Every backend picks
/// InNeighbor(v, PickSlot(raw, InDegree(v))), which is what makes their
/// draws — and answers — identical.
inline uint32_t PickSlot(uint64_t raw, uint32_t degree) {
  return static_cast<uint32_t>(((raw >> 32) * degree) >> 32);
}

/// Advances one walker one step along in-links. Returns kInvalidNode when
/// the walker dies (dangling node under kDie policy).
inline NodeId StepReverse(const Graph& graph, NodeId v, Xoshiro256& rng,
                          DanglingPolicy policy = DanglingPolicy::kDie) {
  const uint32_t deg = graph.InDegree(v);
  if (deg == 0) {
    return policy == DanglingPolicy::kSelfLoop ? v : kInvalidNode;
  }
  return graph.InNeighbor(v, rng.UniformInt32(deg));
}

/// Empirical walk distributions û_{s,t} for t = 0..T.
/// levels[t] sums to (surviving walkers at step t) / R, i.e. it estimates
/// the (possibly sub-stochastic) column `P^t e_s`.
struct WalkDistributions {
  std::vector<SparseVector> levels;

  /// Number of levels (T + 1).
  size_t num_levels() const { return levels.size(); }
};

/// Maps a node to the id of the simulated worker owning it. Used by the
/// cluster layer to count partition crossings without the engine depending
/// on cluster types.
using NodeOwnerFn = std::function<int(NodeId)>;

/// Execution counters of one walk simulation.
struct WalkStats {
  /// Walk steps actually taken (dead walkers stop contributing).
  uint64_t steps = 0;
  /// Steps whose endpoint is owned by a different worker than the start
  /// (only counted when an owner function is supplied).
  uint64_t partition_crossings = 0;
};

/// Retired: the prebuilt alias arena this type carried is gone — the kernel
/// picks straight from the CSR. The empty tag remains only so callers
/// written against CloudWalker::walk_context() and the context-taking
/// LocalWalkBackend / query-kernel overloads (the benchmark harness in
/// perfbench/ among them) still compile; every overload that takes one
/// ignores it. Delete it with those overloads once no caller is left.
struct WalkContext {};

/// Reusable per-worker scratch of the walk kernel: the struct-of-arrays
/// walker cursors and the per-level endpoint radix-sort buffers. Opaque —
/// create one per worker (never share concurrently) and pass it to repeated
/// simulations to avoid reallocation. Cache-line aligned so arrays of
/// per-worker scratches can never false-share.
class alignas(kCacheLineBytes) WalkScratch {
 public:
  /// `expected_walkers` presizes the buffers for that many walkers.
  explicit WalkScratch(uint32_t expected_walkers = 16);

 private:
  friend struct WalkKernel;  // the engine's internal implementation

  std::vector<NodeId> positions_;  // SoA cursor: walker -> current node
  std::vector<NodeId> previous_;   // walker -> previous node (second-order
                                   // programs only; empty otherwise)
  std::vector<NodeId> endpoints_;  // live endpoints of the current level
  std::vector<NodeId> sort_buffer_;  // radix ping-pong partner
};
static_assert(alignof(WalkScratch) >= kCacheLineBytes);
static_assert(sizeof(WalkScratch) % kCacheLineBytes == 0);

/// Per-worker state block for parallel walk drivers: one per worker or
/// chunk, never shared. Cache-line aligned (and sized to a whole number of
/// lines) so adjacent workers' counters never share a line.
struct alignas(kCacheLineBytes) WalkWorkerState {
  WalkScratch scratch;
  WalkStats stats;
};
static_assert(alignof(WalkWorkerState) >= kCacheLineBytes);
static_assert(sizeof(WalkWorkerState) % kCacheLineBytes == 0);

/// Simulates `config.num_walkers` reverse walks from `source` and returns
/// the empirical distribution at every step. `scratch` (optional) avoids
/// reallocation across calls on the same thread. `owner` (optional) enables
/// partition-crossing accounting into `stats`.
WalkDistributions SimulateWalkDistributions(const Graph& graph, NodeId source,
                                            const WalkConfig& config,
                                            WalkScratch* scratch = nullptr,
                                            const NodeOwnerFn* owner = nullptr,
                                            WalkStats* stats = nullptr);

/// Runs SimulateWalkDistributions for every source in [0, graph.num_nodes())
/// on `pool` (serial when null) and invokes `consume(source, dists)` once
/// per source. `consume` may run concurrently for different sources and must
/// be thread-safe across them.
void SimulateAllSources(
    const Graph& graph, const WalkConfig& config, ThreadPool* pool,
    const std::function<void(NodeId, const WalkDistributions&)>& consume);

/// Records the full trajectory of a single walker: positions[t] is the node
/// at step t (kInvalidNode after death). positions[0] == source.
std::vector<NodeId> SimulateTrajectory(const Graph& graph, NodeId source,
                                       uint32_t num_steps, Xoshiro256& rng,
                                       DanglingPolicy policy =
                                           DanglingPolicy::kDie);

/// Deterministic counterpart of SimulateWalkDistributions: computes the
/// exact distributions u_{s,t} = P^t e_s by sparse propagation along
/// in-links, optionally dropping entries below `prune_threshold` after each
/// step (the LIN baseline's practical variant). `edge_ops` (optional)
/// accumulates the number of edge traversals performed.
WalkDistributions ExactWalkDistributions(const Graph& graph, NodeId source,
                                         uint32_t num_steps,
                                         double prune_threshold = 0.0,
                                         uint64_t* edge_ops = nullptr);

}  // namespace cloudwalker

#endif  // CLOUDWALKER_ENGINE_WALK_H_
