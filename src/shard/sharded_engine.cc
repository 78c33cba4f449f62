#include "shard/sharded_engine.h"

#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "engine/walk_kernel.h"
#include "shard/walk_policies.h"

namespace cloudwalker {
namespace {

// Row source over one shard's materialized slice (shard/walk_policies.h
// defines the contract). In(prev) fetches of nodes the shard does not own
// go through the plan's owning slice and are counted as remote row reads —
// the in-process stand-in for a cross-worker adjacency message.
struct SliceRowSource {
  const ShardPlan* plan = nullptr;
  const ShardSlice* slice = nullptr;
  int shard = 0;

  RowLocation Locate(NodeId v) const {
    const uint32_t row = plan->LocalRow(v);
    return RowLocation{slice->offsets[row], slice->RowDegree(row)};
  }
  NodeId Pick(const RowLocation& loc, uint64_t raw) const {
    return PickFromRow(slice->targets, loc, raw);
  }
  std::span<const NodeId> InRow(NodeId v, uint64_t* remote_rows) const {
    bool remote = false;
    const std::span<const NodeId> row = plan->InRow(v, shard, &remote);
    if (remote) ++*remote_rows;
    return row;
  }
};

}  // namespace

ShardedWalkEngine::ShardedWalkEngine(const Graph& graph, ShardPlan plan,
                                     int num_threads)
    : graph_(&graph),
      plan_(std::move(plan)),
      id_bits_(WalkKernel::IdBits(graph)),
      pool_(num_threads > 0 ? std::make_unique<ThreadPool>(num_threads)
                            : nullptr) {}

StatusOr<std::shared_ptr<const ShardedWalkEngine>> ShardedWalkEngine::Build(
    const Graph& graph, const ShardingOptions& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got " +
                                   std::to_string(options.num_shards));
  }
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("cannot shard an empty graph");
  }
  ShardPlan plan = ShardPlan::Build(graph, options);
  return std::shared_ptr<const ShardedWalkEngine>(new ShardedWalkEngine(
      graph, std::move(plan), options.num_threads));
}

template <typename Policy>
void ShardedWalkEngine::RunSupersteps(NodeId source, const WalkConfig& config,
                                      const Policy& policy, WalkStats* stats,
                                      std::vector<SparseVector>* levels,
                                      std::vector<NodeId>* terminals) const {
  CW_CHECK_LT(source, graph_->num_nodes());
  CW_CHECK_GT(config.num_walkers, 0u);
  const uint32_t r = config.num_walkers;
  const double inv_r = 1.0 / static_cast<double>(r);
  const bool self_loop = config.dangling == DanglingPolicy::kSelfLoop;
  const int num_shards = plan_.num_shards();

  if constexpr (Policy::kEmitsLevels) {
    levels->assign(config.num_steps + 1, SparseVector());
    (*levels)[0] = SparseVector::FromSorted({SparseEntry{source, 1.0}});
  }

  // Per-shard cursors. A shard worker writes only its own state during the
  // advance phase; the exchange phase gives each *destination* exclusive
  // access to the outboxes addressed to it. Cache-line aligned so adjacent
  // shards' counters never share a line.
  struct alignas(kCacheLineBytes) ShardState {
    std::vector<WalkerRec> inbox;   // residents entering this superstep
    std::vector<WalkerRec> keep;    // residents staying for the next one
    std::vector<std::vector<WalkerRec>> outbox;  // emigrants, per dest
    std::vector<NodeId> endpoints;  // this level's recorded endpoints
    std::vector<NodeId> terminals;  // retired walkers (kMayRetire)
    WalkStats stats;
    uint64_t dead = 0;         // deaths this level (retire / dangling)
    uint64_t remote_rows = 0;  // cross-shard adjacency reads
  };
  std::vector<ShardState> shards(static_cast<size_t>(num_shards));
  for (ShardState& st : shards) {
    st.outbox.resize(static_cast<size_t>(num_shards));
  }

  // Every walker starts at the source, resident on its owning shard.
  {
    ShardState& home = shards[static_cast<size_t>(plan_.Owner(source))];
    home.inbox.reserve(r);
    for (uint32_t w = 0; w < r; ++w) {
      home.inbox.push_back(WalkerRec{w, source, kInvalidNode});
    }
  }

  uint64_t alive = r;
  uint64_t supersteps = 0;
  uint64_t exchanged = 0;
  std::vector<NodeId> merged;  // coordinator's level merge buffer
  if constexpr (Policy::kEmitsLevels) merged.reserve(r);

  for (uint32_t t = 1; t <= config.num_steps && alive > 0; ++t) {
    // Cooperative stop, polled once per superstep like the single-node
    // kernel polls per level: a stopped job leaves the remaining levels
    // empty and the caller discards the truncated result wholesale.
    if (config.cancel != nullptr && config.cancel->ShouldStop()) break;

    // Phase A — advance. Each shard moves its residents one level using
    // only its slice (the shared AdvanceWalker step of
    // shard/walk_policies.h); emigrants batch into per-destination
    // outboxes.
    ParallelFor(
        pool_.get(), 0, static_cast<uint64_t>(num_shards), /*grain=*/1,
        [&](uint64_t begin, uint64_t end) {
          for (uint64_t si = begin; si < end; ++si) {
            ShardState& st = shards[si];
            const SliceRowSource rows{&plan_,
                                      &plan_.slice(static_cast<int>(si)),
                                      static_cast<int>(si)};
            st.endpoints.clear();
            st.keep.clear();
            for (WalkerRec& rec : st.inbox) {
              const NodeId v = rec.cur;
              const WalkerStepOutcome outcome = AdvanceWalker(
                  rows, policy, t, self_loop, rec, &st.remote_rows);
              if constexpr (Policy::kMayRetire) {
                if (outcome == WalkerStepOutcome::kRetired) {
                  st.terminals.push_back(v);
                  ++st.dead;
                  continue;
                }
              }
              ++st.stats.steps;
              if (outcome == WalkerStepOutcome::kDied) {
                ++st.dead;
                continue;
              }
              if constexpr (Policy::kEmitsLevels) {
                st.endpoints.push_back(rec.cur);
              }
              const int dest = plan_.Owner(rec.cur);
              if (dest == static_cast<int>(si)) {
                st.keep.push_back(rec);
              } else {
                ++st.stats.partition_crossings;
                st.outbox[static_cast<size_t>(dest)].push_back(rec);
              }
            }
            st.inbox.clear();
          }
        });

    // Coordinator — merge the level. Concatenating the shards' endpoint
    // lists yields the same multiset the single-node kernel drains, and
    // the shared sort-and-RLE aggregation is order independent, so the
    // level vector is bit-identical at every shard count.
    for (ShardState& st : shards) {
      alive -= st.dead;
      st.dead = 0;
    }
    if constexpr (Policy::kEmitsLevels) {
      merged.clear();
      for (const ShardState& st : shards) {
        merged.insert(merged.end(), st.endpoints.begin(),
                      st.endpoints.end());
      }
      (*levels)[t] = AggregateEndpointNodes(merged, inv_r, id_bits_);
    }

    for (const ShardState& st : shards) {
      for (const auto& box : st.outbox) exchanged += box.size();
    }

    // Phase B — exchange at the barrier: each destination drains every
    // peer's outbox addressed to it (plus its own kept residents) into
    // its next inbox. Disjoint writes per destination; the ParallelFor
    // barriers on both sides order phase A's writes before these reads.
    ParallelFor(
        pool_.get(), 0, static_cast<uint64_t>(num_shards), /*grain=*/1,
        [&](uint64_t begin, uint64_t end) {
          for (uint64_t di = begin; di < end; ++di) {
            ShardState& st = shards[di];
            std::swap(st.inbox, st.keep);
            for (int src = 0; src < num_shards; ++src) {
              std::vector<WalkerRec>& box =
                  shards[static_cast<size_t>(src)].outbox[di];
              st.inbox.insert(st.inbox.end(), box.begin(), box.end());
              box.clear();
            }
          }
        });
    ++supersteps;
  }

  // Epilogue: surviving walkers terminate where they stand (PPR), and the
  // per-shard counters fold into the job's stats and the engine telemetry.
  if (terminals != nullptr) {
    for (const ShardState& st : shards) {
      terminals->insert(terminals->end(), st.terminals.begin(),
                        st.terminals.end());
    }
    for (const ShardState& st : shards) {
      for (const WalkerRec& rec : st.inbox) terminals->push_back(rec.cur);
    }
  }
  uint64_t remote_rows = 0;
  if (stats != nullptr) {
    for (const ShardState& st : shards) {
      stats->steps += st.stats.steps;
      stats->partition_crossings += st.stats.partition_crossings;
    }
  }
  for (const ShardState& st : shards) remote_rows += st.remote_rows;
  supersteps_.fetch_add(supersteps, std::memory_order_relaxed);
  exchanged_.fetch_add(exchanged, std::memory_order_relaxed);
  remote_rows_.fetch_add(remote_rows, std::memory_order_relaxed);
}

WalkDistributions ShardedWalkEngine::SimRankLevels(NodeId source,
                                                   const WalkConfig& config,
                                                   WalkStats* stats) const {
  SimRankWalkPolicy policy;
  policy.Configure(config.seed, source);
  WalkDistributions out;
  RunSupersteps(source, config, policy, stats, &out.levels,
                /*terminals=*/nullptr);
  return out;
}

SparseVector ShardedWalkEngine::PprEndpoints(NodeId source,
                                             const WalkConfig& config,
                                             const PprParams& params,
                                             WalkStats* stats) const {
  PprWalkPolicy policy;
  policy.Configure(config.seed, source, params);
  std::vector<NodeId> terminals;
  terminals.reserve(config.num_walkers);
  RunSupersteps(source, config, policy, stats, /*levels=*/nullptr,
                &terminals);
  const double inv_r = 1.0 / static_cast<double>(config.num_walkers);
  return AggregateEndpointNodes(terminals, inv_r, id_bits_);
}

WalkDistributions ShardedWalkEngine::Node2VecLevels(
    NodeId source, const WalkConfig& config, const Node2VecParams& params,
    WalkStats* stats) const {
  Node2VecWalkPolicy policy;
  policy.Configure(config.seed, source, params);
  WalkDistributions out;
  RunSupersteps(source, config, policy, stats, &out.levels,
                /*terminals=*/nullptr);
  return out;
}

}  // namespace cloudwalker
