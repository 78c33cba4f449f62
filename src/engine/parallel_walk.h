// ParallelWalkExecutor — the multi-threaded walk backend (DESIGN.md
// section 12).
//
// A walk batch of R walkers is an embarrassingly parallel job *except* for
// its aggregation: the stateless counter RNG keys every draw on
// (seed, source, walker, step), never on the executing thread, so any
// partition of the walker ids produces the same endpoint multisets. The
// executor splits [0, R) into contiguous ranges (at least
// `min_walkers_per_range` walkers each, at most one per worker thread),
// runs each range through the ordinary walk kernel with its own
// cache-line-padded WalkScratch and a `walker_offset` program, and merges
// by concatenating the ranges' *raw* endpoint lists before aggregating
// once with the shared sort-and-RLE pass. Summing per-range SparseVectors
// instead would reassociate doubles and break bit-identity — the merge
// must happen on node ids, not on aggregated values.
//
// The executor is a WalkBackend, so it slots behind CloudWalker /
// QueryService exactly like the sharded engine: the combine phases of the
// six query kinds never know walkers ran on more than one thread.
// Immutable and thread-safe after Build — concurrent queries share the
// worker pool (each ParallelFor call blocks only on its own chunks).

#ifndef CLOUDWALKER_ENGINE_PARALLEL_WALK_H_
#define CLOUDWALKER_ENGINE_PARALLEL_WALK_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/threading.h"
#include "engine/walk.h"
#include "engine/walk_backend.h"

namespace cloudwalker {

/// Tuning knobs of the parallel executor.
struct ParallelWalkOptions {
  /// Worker threads; 0 selects the hardware concurrency (at least 1).
  /// A resolved count of 1 runs every batch on the calling thread.
  int num_threads = 0;
  /// Minimum walkers per range: batches smaller than 2x this run serially
  /// (pool handoff would cost more than it buys). Must be >= 1.
  uint32_t min_walkers_per_range = 256;
};

/// Multi-threaded WalkBackend over one graph. Borrows `graph` (it must
/// outlive the executor); owns its thread pool. Results are bit-identical to LocalWalkBackend for every thread
/// count and every option setting.
class ParallelWalkExecutor final : public WalkBackend {
 public:
  static StatusOr<std::shared_ptr<const ParallelWalkExecutor>> Build(
      const Graph& graph, const ParallelWalkOptions& options = {});

  /// Resolved worker count (>= 1).
  int num_threads() const { return num_threads_; }

  WalkDistributions SimRankLevels(NodeId source, const WalkConfig& config,
                                  WalkStats* stats) const override;

  SparseVector PprEndpoints(NodeId source, const WalkConfig& config,
                            const PprParams& params,
                            WalkStats* stats) const override;

  WalkDistributions Node2VecLevels(NodeId source, const WalkConfig& config,
                                   const Node2VecParams& params,
                                   WalkStats* stats) const override;

 private:
  /// A contiguous walker-id range [begin, end) — one kernel run.
  struct WalkerRange {
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  ParallelWalkExecutor(const Graph& graph, const ParallelWalkOptions& options,
                       int num_threads);

  /// Partitions [0, num_walkers) into ranges honoring
  /// min_walkers_per_range; a single range means "run serially". The split
  /// is pure scheduling — results do not depend on it.
  std::vector<WalkerRange> SplitWalkers(uint32_t num_walkers) const;

  const Graph* graph_;
  ParallelWalkOptions options_;
  uint32_t id_bits_;
  int num_threads_;
  // Null when num_threads_ == 1. Mutable because enqueueing work is not
  // logically a mutation of the (immutable) executor.
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_ENGINE_PARALLEL_WALK_H_
