#include "shard/sharding.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace cloudwalker {
namespace {

// Nominal walker count used to convert a crossing *fraction* into exchange
// bytes for placement scoring (the paper's default R'). The score only
// ranks strategies, so any fixed reference load works; this one keeps the
// compute and exchange terms on comparable scales.
constexpr double kNominalWalkers = 10'000.0;

// Wire size of one exchanged walker record: walker id + current node +
// previous node (second-order programs ship all three).
constexpr double kRecordBytes = 12.0;

PartitionStrategy ToStrategy(ShardingOptions::Placement placement) {
  return placement == ShardingOptions::Placement::kRange
             ? PartitionStrategy::kRange
             : PartitionStrategy::kHash;
}

}  // namespace

PlacementScore ShardPlan::Score(const Graph& graph,
                                PartitionStrategy strategy, int num_shards,
                                const CostModel& model) {
  const Partitioner part(strategy, graph.num_nodes(), num_shards);
  std::vector<uint64_t> shard_edges(
      static_cast<size_t>(part.num_workers()), 0);
  PlacementScore score;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const int owner = part.Owner(v);
    shard_edges[static_cast<size_t>(owner)] += graph.InDegree(v);
    for (const NodeId u : graph.InNeighbors(v)) {
      if (part.Owner(u) != owner) ++score.crossing_edges;
    }
  }
  score.max_shard_edges =
      *std::max_element(shard_edges.begin(), shard_edges.end());

  // Per-superstep critical path: the busiest shard advances its resident
  // walkers (edge count proxies the resident load — hub-heavy shards read
  // bigger rows), then every crossing walker pays one exchange. The
  // latency term charges one message round per peer shard, as in the
  // simulated cluster's shuffle accounting.
  const double crossing_fraction =
      graph.num_edges() == 0
          ? 0.0
          : static_cast<double>(score.crossing_edges) /
                static_cast<double>(graph.num_edges());
  const double exchange_bytes =
      crossing_fraction * kNominalWalkers * kRecordBytes;
  score.superstep_seconds =
      static_cast<double>(score.max_shard_edges) *
          model.seconds_per_walk_step +
      model.network_latency_seconds * static_cast<double>(num_shards - 1) +
      exchange_bytes / model.network_bandwidth_bytes_per_sec;
  return score;
}

ShardPlan ShardPlan::Build(const Graph& graph,
                           const ShardingOptions& options) {
  CW_CHECK_GE(options.num_shards, 1);

  PlacementScore chosen_score, other_score;
  PartitionStrategy strategy;
  if (options.placement == ShardingOptions::Placement::kAuto) {
    const PlacementScore hash =
        Score(graph, PartitionStrategy::kHash, options.num_shards,
              options.cost_model);
    const PlacementScore range =
        Score(graph, PartitionStrategy::kRange, options.num_shards,
              options.cost_model);
    // Ties go to hash: it spreads hubs and contiguous id ranges evenly,
    // the safer default for the skewed graphs the walks concentrate on.
    if (range.superstep_seconds < hash.superstep_seconds) {
      strategy = PartitionStrategy::kRange;
      chosen_score = range;
      other_score = hash;
    } else {
      strategy = PartitionStrategy::kHash;
      chosen_score = hash;
      other_score = range;
    }
  } else {
    strategy = ToStrategy(options.placement);
    chosen_score =
        Score(graph, strategy, options.num_shards, options.cost_model);
    other_score = chosen_score;
  }

  Partitioner partitioner(strategy, graph.num_nodes(), options.num_shards);
  std::vector<ShardSlice> slices(
      static_cast<size_t>(partitioner.num_workers()));
  std::vector<uint32_t> local_row(graph.num_nodes(), 0);

  // First pass: assign rows (nodes ascend globally, so each slice's node
  // list is automatically ascending) and size the per-slice arrays.
  std::vector<uint64_t> slice_edges(slices.size(), 0);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    ShardSlice& s = slices[static_cast<size_t>(partitioner.Owner(v))];
    local_row[v] = static_cast<uint32_t>(s.nodes.size());
    s.nodes.push_back(v);
    slice_edges[static_cast<size_t>(partitioner.Owner(v))] +=
        graph.InDegree(v);
  }
  for (size_t i = 0; i < slices.size(); ++i) {
    ShardSlice& s = slices[i];
    s.offsets.reserve(s.nodes.size() + 1);
    s.offsets.push_back(0);
    s.targets.reserve(slice_edges[i]);
  }

  // Second pass: copy each owned node's in-row into its shard's slice. Targets stay global — the exchange, not the slice,
  // resolves ownership of the next node.
  for (size_t i = 0; i < slices.size(); ++i) {
    ShardSlice& s = slices[i];
    for (const NodeId v : s.nodes) {
      const auto row = graph.InNeighbors(v);
      s.targets.insert(s.targets.end(), row.begin(), row.end());
      s.offsets.push_back(s.targets.size());
    }
  }

  return ShardPlan(partitioner, std::move(slices), std::move(local_row),
                   chosen_score, other_score);
}

}  // namespace cloudwalker
