// Locality-aware snapshot reordering (DESIGN.md section 14).
//
// The walker-block scheduler's hit rate is a function of how well the
// node numbering clusters the in-adjacency: walkers hop to in-neighbors,
// so a numbering that places nodes near their in-neighbors (and hubs near
// each other) packs each level's frontier into fewer blocks. This pass
// renumbers the graph at `index --snapshot-out` time and stores the
// permutation (internal id -> external id, the kPermutation section) in
// the snapshot; the CloudWalker facade translates external ids at the API
// boundary so callers never see internal ids.
//
// Bit-identity across reordering: the per-source RNG key derives from the
// *external* id, and every in-row of the reordered graph is stored in
// ascending *external*-id order — the order the unreordered artifact's
// rows have — so slot k of a row names the same neighbor in both, every
// walker makes the same sequence of draws and visits the same external
// nodes as on the unreordered artifact, and walk distributions are exactly
// identical after id translation (WalkConfig::external_ids carries the
// permutation to the kernels). Combines that sum those distributions in internal-id order
// (the pair dot product, the exact-push propagation) reassociate float
// sums only: equal to within rounding, exact for the endpoint top-k kinds.
// The one exception is the *sampled*-push single-source combine, whose
// backward propagation draws from one sequential RNG in internal-id
// iteration order — under a renumbering it redraws, so its answers are
// statistically equivalent (same unbiased estimator, fresh sample), not
// bit-identical. Use --exact-push where cross-artifact diffing matters.

#ifndef CLOUDWALKER_OOC_REORDER_H_
#define CLOUDWALKER_OOC_REORDER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/walk_backend.h"
#include "graph/graph.h"

namespace cloudwalker {

/// The node-numbering strategies of the reorder pass. Fixed underlying
/// type so the facade can forward-declare the enum.
enum class ReorderKind : uint32_t {
  kNone = 0,
  /// Hubs first: order by (in-degree descending, id ascending). The
  /// heavy rows every frontier keeps revisiting share the first blocks.
  kDegree = 1,
  /// In-adjacency BFS from the highest-in-degree node (deterministic
  /// restarts by the degree order): each block holds a neighborhood, so a
  /// walker's next hop tends to stay in the block it is already in.
  kBfs = 2,
};

/// Parses "none" / "degree" / "bfs" (the CLI --reorder values).
StatusOr<ReorderKind> ParseReorderKind(const std::string& name);

/// The visit order of the reorder pass: perm[new_internal_id] =
/// external_id. kNone returns the identity.
std::vector<NodeId> ComputeLocalityOrder(const Graph& graph,
                                         ReorderKind kind);

/// A graph renumbered for locality, with everything a snapshot write
/// needs, all in internal (reordered) id space.
struct ReorderedArtifact {
  /// The renumbered graph. Out-rows ascend by internal id; in-rows ascend
  /// by external id (see the bit-identity note above).
  Graph graph;
  /// diagonal[internal] = original diagonal[perm[internal]] — permuted
  /// exactly, never re-estimated.
  std::vector<double> diagonal;
  /// internal id -> external id.
  std::vector<NodeId> perm;
};

/// Renumbers `graph` by ComputeLocalityOrder(kind) and permutes `diagonal`
/// alongside. kNone is rejected (write an ordinary snapshot instead).
StatusOr<ReorderedArtifact> ReorderForLocality(
    const Graph& graph, std::span<const double> diagonal, ReorderKind kind);

/// Decorator that hands every walk the permutation: sets
/// WalkConfig::external_ids = perm before delegating, so the inner backend
/// keys its RNG on the source's external id and reads in-rows in their
/// external-id order. Borrows `perm` (the snapshot's kPermutation span —
/// the facade keeps the snapshot alive).
class ExternalKeyWalkBackend final : public WalkBackend {
 public:
  ExternalKeyWalkBackend(std::shared_ptr<const WalkBackend> inner,
                         std::span<const NodeId> perm)
      : inner_(std::move(inner)), perm_(perm) {}

  WalkDistributions SimRankLevels(NodeId source, const WalkConfig& config,
                                  WalkStats* stats) const override {
    return inner_->SimRankLevels(source, Keyed(config), stats);
  }
  SparseVector PprEndpoints(NodeId source, const WalkConfig& config,
                            const PprParams& params,
                            WalkStats* stats) const override {
    return inner_->PprEndpoints(source, Keyed(config), params, stats);
  }
  WalkDistributions Node2VecLevels(NodeId source, const WalkConfig& config,
                                   const Node2VecParams& params,
                                   WalkStats* stats) const override {
    return inner_->Node2VecLevels(source, Keyed(config), params, stats);
  }
  Status TakeError() const override { return inner_->TakeError(); }

 private:
  WalkConfig Keyed(const WalkConfig& config) const {
    WalkConfig keyed = config;
    keyed.external_ids = perm_;
    return keyed;
  }

  const std::shared_ptr<const WalkBackend> inner_;
  const std::span<const NodeId> perm_;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_OOC_REORDER_H_
