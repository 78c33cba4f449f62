#include "engine/walk_program.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "engine/simd.h"
#include "engine/walk_kernel.h"
#include "engine/walk_programs_internal.h"

namespace cloudwalker {

SparseVector AggregateEndpointNodes(std::vector<NodeId>& nodes, double inv_r,
                                    uint32_t id_bits) {
  if (nodes.empty()) return SparseVector();
  const uint32_t n = static_cast<uint32_t>(nodes.size());
  NodeId* data = nodes.data();
  std::vector<NodeId> tmp;
  if (n < WalkKernel::kSmallSortCutoff) {
    std::sort(data, data + n);
  } else {
    tmp.resize(n);
    data = WalkKernel::RadixSort(data, tmp.data(), n, id_bits);
  }
  std::vector<SparseEntry> entries;
  entries.reserve(std::min<uint32_t>(n, 256));
  simd::AggregateSortedRuns(data, n, inv_r, &entries);
  return SparseVector::FromSorted(std::move(entries));
}

SparseVector SimulatePprEndpoints(const Graph& graph, NodeId source,
                                  const WalkConfig& config,
                                  const PprParams& params,
                                  WalkScratch* scratch,
                                  const NodeOwnerFn* owner,
                                  WalkStats* stats) {
  CW_CHECK_GT(params.alpha, 0.0);
  CW_CHECK_LT(params.alpha, 1.0);
  internal::PprEndpointsProgram program;
  program.alpha = params.alpha;
  WalkKernel::Run(graph, source, config, scratch, owner, stats, program);
  const double inv_r = 1.0 / static_cast<double>(config.num_walkers);
  return AggregateEndpointNodes(program.terminals, inv_r,
                                WalkKernel::IdBits(graph));
}

WalkDistributions SimulateNode2VecVisits(const Graph& graph, NodeId source,
                                         const WalkConfig& config,
                                         const Node2VecParams& params,
                                         WalkScratch* scratch,
                                         const NodeOwnerFn* owner,
                                         WalkStats* stats) {
  WalkDistributions out;
  internal::Node2VecProgram program;
  program.graph = &graph;
  program.out = &out;
  program.Configure(params);
  WalkKernel::Run(graph, source, config, scratch, owner, stats, program);
  return out;
}

}  // namespace cloudwalker
