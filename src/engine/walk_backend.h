// WalkBackend — the seam between the query kernels and the machinery that
// actually advances walkers.
//
// Every query kind decomposes into a *walk phase* (simulate R' walkers from
// one source) and a *combine phase* (dot products, pushes, top-k) that only
// consumes the walk phase's aggregated output. The kernels in
// core/queries.cc run their walk phases through this interface, so swapping
// the backend — single-node batched kernel vs the in-process sharded BSP
// engine (DESIGN.md section 11) — changes *where* walkers run without
// touching a single combine line. Bit-identity between backends then
// reduces to one obligation: produce the same aggregated distributions,
// which the stateless counter RNG (every draw a pure function of
// (seed, source, walker, step[, trial])) plus the order-independent
// sort-and-RLE endpoint aggregation make provable by exact equality.
//
// Implementations must be immutable after construction and thread-safe:
// the serving layer calls one backend from many threads concurrently.

#ifndef CLOUDWALKER_ENGINE_WALK_BACKEND_H_
#define CLOUDWALKER_ENGINE_WALK_BACKEND_H_

#include "common/sparse.h"
#include "common/status.h"
#include "engine/walk.h"
#include "engine/walk_program.h"
#include "graph/graph.h"

namespace cloudwalker {

/// The walk phases of the six query kinds. `stats` (optional) accumulates
/// steps and partition crossings; cancellation rides in `config.cancel`
/// (a stopped walk returns a truncated result the caller must discard
/// after observing the token, exactly as in engine/walk.h).
class WalkBackend {
 public:
  virtual ~WalkBackend() = default;

  /// SimRank's endpoint-per-level walk: û_{source,t} for t = 0..T.
  virtual WalkDistributions SimRankLevels(NodeId source,
                                          const WalkConfig& config,
                                          WalkStats* stats) const = 0;

  /// Personalized PageRank teleport walk: the empirical terminal-endpoint
  /// distribution (engine/walk_program.h).
  virtual SparseVector PprEndpoints(NodeId source, const WalkConfig& config,
                                    const PprParams& params,
                                    WalkStats* stats) const = 0;

  /// Second-order node2vec walk: per-level visit distributions.
  virtual WalkDistributions Node2VecLevels(NodeId source,
                                           const WalkConfig& config,
                                           const Node2VecParams& params,
                                           WalkStats* stats) const = 0;

  /// Drains the first job-fatal backend error since the last drain (e.g. a
  /// remote worker unreachable past its retry budget). The walk methods
  /// return plain values, so a backend that can fail mid-job records the
  /// error here and returns a truncated result; the facade checks this
  /// beside its cancellation checks and surfaces the error instead of the
  /// partial answer — which is also what keeps partial answers out of the
  /// serving cache (QueryService only caches ok responses). In-process
  /// backends cannot fail: the default is always Ok.
  virtual Status TakeError() const { return Status::Ok(); }
};

/// The single-node backend: forwards to the batched walk kernel
/// (engine/walk.h, engine/walk_program.h) over one graph. Cheap to
/// construct — the query kernels stack-allocate one per call when no
/// explicit backend is supplied. Borrows everything.
class LocalWalkBackend final : public WalkBackend {
 public:
  explicit LocalWalkBackend(const Graph& graph,
                            const NodeOwnerFn* owner = nullptr)
      : graph_(&graph), owner_(owner) {}
  /// Source compatibility with the retired WalkContext (engine/walk.h):
  /// the context is ignored.
  LocalWalkBackend(const Graph& graph, const WalkContext* /*ignored*/,
                   const NodeOwnerFn* owner = nullptr)
      : LocalWalkBackend(graph, owner) {}

  WalkDistributions SimRankLevels(NodeId source, const WalkConfig& config,
                                  WalkStats* stats) const override {
    return SimulateWalkDistributions(*graph_, source, config,
                                     /*scratch=*/nullptr, owner_, stats);
  }

  SparseVector PprEndpoints(NodeId source, const WalkConfig& config,
                            const PprParams& params,
                            WalkStats* stats) const override {
    return SimulatePprEndpoints(*graph_, source, config, params,
                                /*scratch=*/nullptr, owner_, stats);
  }

  WalkDistributions Node2VecLevels(NodeId source, const WalkConfig& config,
                                   const Node2VecParams& params,
                                   WalkStats* stats) const override {
    return SimulateNode2VecVisits(*graph_, source, config, params,
                                  /*scratch=*/nullptr, owner_, stats);
  }

 private:
  const Graph* graph_;
  const NodeOwnerFn* owner_;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_ENGINE_WALK_BACKEND_H_
