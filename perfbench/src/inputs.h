// Benchmark inputs: the fixture graph and the four request streams, made
// from the --seed on the command line by code that lives in this package
// only. Nothing here calls the library's generators or its workload
// module, so a library change cannot alter the traffic it is measured on;
// the one library step on the input path (GraphBuilder's CSR build) is
// covered by the pinned canary hashes in pins.json.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/request.h"
#include "graph/graph.h"

namespace perfbench {

using cloudwalker::Graph;
using cloudwalker::NodeId;
using cloudwalker::QueryKind;
using cloudwalker::QueryRequest;

/// splitmix64 finalizer over (a, b): the only randomness source of the
/// benchmark's inputs.
uint64_t Mix(uint64_t a, uint64_t b);

/// A stable 64-bit id for a name (FNV-1a), used to derive per-purpose seeds.
uint64_t NameHash(std::string_view name);

/// Fixture size: 200k nodes, 3M R-MAT draws (about 2.8M distinct edges).
inline constexpr NodeId kFixtureNodes = 200'000;
inline constexpr uint64_t kFixtureDraws = 3'000'000;

/// R-MAT graph (Graph500 quadrant weights 0.57/0.19/0.19/0.05) from `seed`,
/// built into CSR by the library's GraphBuilder (dedup, no self loops).
Graph MakeRmatGraph(NodeId nodes, uint64_t draws, uint64_t seed);

/// Order-sensitive hash of the graph's out-CSR.
uint64_t GraphHash(const Graph& graph);

/// How a stream picks its source nodes.
enum class SourceDist {
  kZipf,             // zipf(theta = 0.99) over a seeded permutation of ids
  kUniformDistinct,  // a seeded permutation consumed in order: no repeats
};

/// Traffic mix of one workload, as fractions that sum to 1 in tenths:
/// every block of ten consecutive requests holds exactly that mix, in a
/// seeded order.
struct StreamSpec {
  SourceDist sources = SourceDist::kUniformDistinct;
  double topk = 0.0;
  double pair = 0.0;
  double ppr = 0.0;
  double n2v = 0.0;
};

/// The stream spec of a workload name; false for an unknown name.
bool StreamSpecFor(std::string_view workload, StreamSpec* spec);

/// Top-k size of every top-k request.
inline constexpr uint32_t kTopK = 10;

/// The nodes a stream may query: those with at least one in-link. A node
/// without in-links is similar to nothing, and every walk from it ends at
/// once, so queries on it are degenerate.
std::vector<NodeId> QueryableNodes(const Graph& graph);

/// A deterministic, random-access request stream: At(i) depends only on
/// (spec, sources, seed, i). Distinct-source streams wrap after
/// sources.size() / 2 requests.
class RequestStream {
 public:
  RequestStream(const StreamSpec& spec, std::vector<NodeId> sources,
                uint64_t seed);

  QueryRequest At(uint64_t i) const;

  /// Requests before a distinct-source stream wraps (unbounded for zipf).
  uint64_t distinct_requests() const {
    return spec_.sources == SourceDist::kUniformDistinct
               ? perm_.size() / 2
               : std::numeric_limits<uint64_t>::max();
  }

  /// Hash of the first `count` requests.
  uint64_t Hash(uint64_t count) const;

 private:
  NodeId Source(uint64_t i, uint64_t salt) const;

  StreamSpec spec_;
  uint64_t seed_;
  std::vector<NodeId> perm_;  // the sources, in a seeded order
  std::vector<double> zipf_cdf_;  // empty for distinct-source streams
};

/// The stream seed of `workload` under the run seed.
uint64_t StreamSeed(uint64_t run_seed, std::string_view workload);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Hex form of a hash, as pins.json stores it.
std::string Hex(uint64_t value);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
