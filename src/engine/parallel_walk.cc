#include "engine/parallel_walk.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "engine/walk_kernel.h"
#include "engine/walk_programs_internal.h"

namespace cloudwalker {
namespace {

// Range programs: the ordinary walk programs, except levels leave as raw
// endpoint lists (the kernel's EmitRawLevel trait) so the executor can
// merge multisets across ranges and aggregate once. The inherited Begin
// tolerates out == nullptr for exactly this use.
struct RawSimRankProgram : internal::SimRankEndpointsProgram {
  std::vector<std::vector<NodeId>>* raw = nullptr;  // [t] -> endpoints
  void EmitRawLevel(uint32_t t, const NodeId* data, uint32_t n) {
    (*raw)[t].assign(data, data + n);
  }
};

struct RawNode2VecProgram : internal::Node2VecProgram {
  std::vector<std::vector<NodeId>>* raw = nullptr;  // [t] -> endpoints
  void EmitRawLevel(uint32_t t, const NodeId* data, uint32_t n) {
    (*raw)[t].assign(data, data + n);
  }
};

// Per-range result block, padded so neighboring ranges' stats counters
// never share a cache line with another worker's writes.
struct alignas(kCacheLineBytes) RangeResult {
  std::vector<std::vector<NodeId>> raw;  // [t] -> endpoints (level programs)
  std::vector<NodeId> terminals;         // retired walkers (PPR)
  WalkStats stats;
};

// First-touch warm-up, run by each range task on its worker thread before
// the kernel: pulls the source row's offsets and leading target lines into
// the worker's cache so the first blocks of every range don't all stall on
// the same cold lines.
void WarmRow(const Graph& graph, NodeId source) {
  const uint64_t* offsets = graph.InOffsets().data();
  PrefetchRead(&offsets[source]);
  const NodeId* row = graph.InTargets().data() + offsets[source];
  // The first 8 cache lines of the row, 16 targets per line.
  const uint32_t warm = std::min<uint32_t>(graph.InDegree(source), 128);
  for (uint32_t k = 0; k < warm; k += 16) PrefetchRead(row + k);
}

void AccumulateStats(const std::vector<RangeResult>& results,
                     WalkStats* stats) {
  if (stats == nullptr) return;
  for (const RangeResult& res : results) {
    stats->steps += res.stats.steps;
    stats->partition_crossings += res.stats.partition_crossings;
  }
}

}  // namespace

StatusOr<std::shared_ptr<const ParallelWalkExecutor>>
ParallelWalkExecutor::Build(const Graph& graph,
                            const ParallelWalkOptions& options) {
  if (options.num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 0 (0 = hardware concurrency), got " +
        std::to_string(options.num_threads));
  }
  if (options.min_walkers_per_range == 0) {
    return Status::InvalidArgument("min_walkers_per_range must be >= 1");
  }
  if (graph.num_nodes() == 0) {
    return Status::InvalidArgument("cannot parallelize an empty graph");
  }
  int threads = options.num_threads;
  if (threads == 0) {
    threads = std::max(1, static_cast<int>(
                              std::thread::hardware_concurrency()));
  }
  return std::shared_ptr<const ParallelWalkExecutor>(
      new ParallelWalkExecutor(graph, options, threads));
}

ParallelWalkExecutor::ParallelWalkExecutor(const Graph& graph,
                                           const ParallelWalkOptions& options,
                                           int num_threads)
    : graph_(&graph),
      options_(options),
      id_bits_(WalkKernel::IdBits(graph)),
      num_threads_(num_threads),
      pool_(num_threads > 1 ? std::make_unique<ThreadPool>(num_threads)
                            : nullptr) {}

std::vector<ParallelWalkExecutor::WalkerRange>
ParallelWalkExecutor::SplitWalkers(uint32_t num_walkers) const {
  const uint32_t by_floor =
      std::max<uint32_t>(1, num_walkers / options_.min_walkers_per_range);
  const uint32_t n =
      std::min(static_cast<uint32_t>(num_threads_), by_floor);
  std::vector<WalkerRange> ranges(n);
  const uint32_t base = num_walkers / n;
  const uint32_t rem = num_walkers % n;
  uint32_t begin = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t size = base + (i < rem ? 1 : 0);
    ranges[i] = WalkerRange{begin, begin + size};
    begin += size;
  }
  return ranges;
}

WalkDistributions ParallelWalkExecutor::SimRankLevels(
    NodeId source, const WalkConfig& config, WalkStats* stats) const {
  const std::vector<WalkerRange> ranges = SplitWalkers(config.num_walkers);
  if (ranges.size() <= 1) {
    return SimulateWalkDistributions(*graph_, source, config,
                                     /*scratch=*/nullptr, /*owner=*/nullptr,
                                     stats);
  }
  std::vector<RangeResult> results(ranges.size());
  ParallelFor(
      pool_.get(), 0, ranges.size(), /*grain=*/1,
      [&](uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; ++i) {
          RangeResult& res = results[i];
          res.raw.assign(config.num_steps + 1, {});
          WalkConfig sub = config;
          sub.num_walkers = ranges[i].end - ranges[i].begin;
          RawSimRankProgram program;
          program.walker_offset = ranges[i].begin;
          program.raw = &res.raw;
          WalkWorkerState state;
          WarmRow(*graph_, source);
          WalkKernel::Run(*graph_, source, sub, &state.scratch,
                          /*owner=*/nullptr, &res.stats, program);
        }
      });

  // Merge: concatenating the ranges' raw endpoint lists reproduces the
  // exact multiset the single-thread kernel drains per level, and the
  // shared sort-and-RLE aggregation is order independent — so the level
  // vectors are bit-identical at every thread count.
  WalkDistributions out;
  out.levels.assign(config.num_steps + 1, SparseVector());
  out.levels[0] = SparseVector::FromSorted({SparseEntry{source, 1.0}});
  const double inv_r = 1.0 / static_cast<double>(config.num_walkers);
  std::vector<NodeId> merged;
  merged.reserve(config.num_walkers);
  for (uint32_t t = 1; t <= config.num_steps; ++t) {
    merged.clear();
    for (const RangeResult& res : results) {
      merged.insert(merged.end(), res.raw[t].begin(), res.raw[t].end());
    }
    out.levels[t] = AggregateEndpointNodes(merged, inv_r, id_bits_);
  }
  AccumulateStats(results, stats);
  return out;
}

SparseVector ParallelWalkExecutor::PprEndpoints(NodeId source,
                                                const WalkConfig& config,
                                                const PprParams& params,
                                                WalkStats* stats) const {
  CW_CHECK_GT(params.alpha, 0.0);
  CW_CHECK_LT(params.alpha, 1.0);
  const std::vector<WalkerRange> ranges = SplitWalkers(config.num_walkers);
  if (ranges.size() <= 1) {
    return SimulatePprEndpoints(*graph_, source, config, params,
                                /*scratch=*/nullptr, /*owner=*/nullptr,
                                stats);
  }
  std::vector<RangeResult> results(ranges.size());
  ParallelFor(
      pool_.get(), 0, ranges.size(), /*grain=*/1,
      [&](uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; ++i) {
          RangeResult& res = results[i];
          WalkConfig sub = config;
          sub.num_walkers = ranges[i].end - ranges[i].begin;
          internal::PprEndpointsProgram program;
          program.alpha = params.alpha;
          program.walker_offset = ranges[i].begin;
          WalkWorkerState state;
          WarmRow(*graph_, source);
          WalkKernel::Run(*graph_, source, sub, &state.scratch,
                          /*owner=*/nullptr, &res.stats, program);
          res.terminals = std::move(program.terminals);
        }
      });

  std::vector<NodeId> merged;
  merged.reserve(config.num_walkers);
  for (const RangeResult& res : results) {
    merged.insert(merged.end(), res.terminals.begin(), res.terminals.end());
  }
  AccumulateStats(results, stats);
  const double inv_r = 1.0 / static_cast<double>(config.num_walkers);
  return AggregateEndpointNodes(merged, inv_r, id_bits_);
}

WalkDistributions ParallelWalkExecutor::Node2VecLevels(
    NodeId source, const WalkConfig& config, const Node2VecParams& params,
    WalkStats* stats) const {
  const std::vector<WalkerRange> ranges = SplitWalkers(config.num_walkers);
  if (ranges.size() <= 1) {
    return SimulateNode2VecVisits(*graph_, source, config, params,
                                  /*scratch=*/nullptr, /*owner=*/nullptr,
                                  stats);
  }
  std::vector<RangeResult> results(ranges.size());
  ParallelFor(
      pool_.get(), 0, ranges.size(), /*grain=*/1,
      [&](uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; ++i) {
          RangeResult& res = results[i];
          res.raw.assign(config.num_steps + 1, {});
          WalkConfig sub = config;
          sub.num_walkers = ranges[i].end - ranges[i].begin;
          RawNode2VecProgram program;
          program.graph = graph_;
          program.Configure(params);
          program.walker_offset = ranges[i].begin;
          program.raw = &res.raw;
          WalkWorkerState state;
          WarmRow(*graph_, source);
          WalkKernel::Run(*graph_, source, sub, &state.scratch,
                          /*owner=*/nullptr, &res.stats, program);
        }
      });

  WalkDistributions out;
  out.levels.assign(config.num_steps + 1, SparseVector());
  out.levels[0] = SparseVector::FromSorted({SparseEntry{source, 1.0}});
  const double inv_r = 1.0 / static_cast<double>(config.num_walkers);
  std::vector<NodeId> merged;
  merged.reserve(config.num_walkers);
  for (uint32_t t = 1; t <= config.num_steps; ++t) {
    merged.clear();
    for (const RangeResult& res : results) {
      merged.insert(merged.end(), res.raw[t].begin(), res.raw[t].end());
    }
    out.levels[t] = AggregateEndpointNodes(merged, inv_r, id_bits_);
  }
  AccumulateStats(results, stats);
  return out;
}

}  // namespace cloudwalker
