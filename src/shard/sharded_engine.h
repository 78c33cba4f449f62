// ShardedWalkEngine — real in-process multi-shard walk execution
// (DESIGN.md section 11).
//
// The engine implements WalkBackend over a ShardPlan: every walk job runs
// as a sequence of BSP supersteps. In superstep t, each shard worker
// advances the walkers resident at its owned nodes one level using only
// its own slice (local CSR rows, the stateless counter draws of
// the walker's stream); walkers whose next node is owned by another shard
// are batched into per-destination outboxes. At the level barrier the
// outboxes are exchanged — each destination drains every peer's outbox
// into its inbox — and the coordinator merges the shards' per-level
// endpoint lists with the same sort-and-RLE aggregation the single-node
// kernel applies. Because each walker's draws depend only on
// (seed, source, walker, step[, trial]) and the aggregation is
// walker-order independent, the merged output is bit-identical to the
// single-node engine at every shard count — the equality the shard test
// matrix (tests/shard/) asserts for all six query kinds.
//
// Thread-safety: the engine is immutable after Build (telemetry counters
// are relaxed atomics) and may serve any number of concurrent jobs; each
// job's state lives on the calling stack. With num_threads > 0 the
// supersteps of one job fan out over an engine-owned pool (safe for
// concurrent jobs — ParallelFor keeps per-call state).

#ifndef CLOUDWALKER_SHARD_SHARDED_ENGINE_H_
#define CLOUDWALKER_SHARD_SHARDED_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"
#include "common/threading.h"
#include "engine/walk_backend.h"
#include "shard/sharding.h"

namespace cloudwalker {

/// Cumulative exchange telemetry of one engine (all jobs since Build).
struct ShardExchangeStats {
  uint64_t supersteps = 0;         // level barriers executed
  uint64_t walkers_exchanged = 0;  // records that crossed a shard boundary
  uint64_t remote_row_fetches = 0;  // cross-shard adjacency reads (n2v)
};

/// The in-process sharded walk backend. Borrows `graph`, which must
/// outlive the engine; the CloudWalker::Shard factory pins it.
class ShardedWalkEngine final : public WalkBackend {
 public:
  /// Partitions `graph` per `options` and materializes the shard slices.
  static StatusOr<std::shared_ptr<const ShardedWalkEngine>> Build(
      const Graph& graph, const ShardingOptions& options);

  WalkDistributions SimRankLevels(NodeId source, const WalkConfig& config,
                                  WalkStats* stats) const override;
  SparseVector PprEndpoints(NodeId source, const WalkConfig& config,
                            const PprParams& params,
                            WalkStats* stats) const override;
  WalkDistributions Node2VecLevels(NodeId source, const WalkConfig& config,
                                   const Node2VecParams& params,
                                   WalkStats* stats) const override;

  const ShardPlan& plan() const { return plan_; }
  int num_shards() const { return plan_.num_shards(); }

  ShardExchangeStats exchange_stats() const {
    return ShardExchangeStats{
        supersteps_.load(std::memory_order_relaxed),
        exchanged_.load(std::memory_order_relaxed),
        remote_rows_.load(std::memory_order_relaxed)};
  }

 private:
  ShardedWalkEngine(const Graph& graph, ShardPlan plan, int num_threads);

  template <typename Policy>
  void RunSupersteps(NodeId source, const WalkConfig& config,
                     const Policy& policy, WalkStats* stats,
                     std::vector<SparseVector>* levels,
                     std::vector<NodeId>* terminals) const;

  const Graph* graph_;
  ShardPlan plan_;
  uint32_t id_bits_;
  // Engine-owned superstep pool (null = serial). Mutable: ParallelFor is
  // thread-safe, and the WalkBackend interface is const.
  mutable std::unique_ptr<ThreadPool> pool_;
  mutable std::atomic<uint64_t> supersteps_{0};
  mutable std::atomic<uint64_t> exchanged_{0};
  mutable std::atomic<uint64_t> remote_rows_{0};
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_SHARD_SHARDED_ENGINE_H_
