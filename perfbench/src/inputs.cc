#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/logging.h"

namespace perfbench {
namespace {

double Unit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

constexpr double kZipfTheta = 0.99;

}  // namespace

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t NameHash(std::string_view name) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

Graph MakeRmatGraph(NodeId nodes, uint64_t draws, uint64_t seed) {
  int levels = 0;
  while ((NodeId{1} << levels) < nodes) ++levels;
  cloudwalker::GraphBuilder builder(nodes);
  builder.Reserve(draws);
  const uint64_t stream = Mix(seed, NameHash("rmat"));
  uint64_t counter = 0;
  for (uint64_t e = 0; e < draws; ++e) {
    NodeId row = 0, col = 0;
    for (int lvl = 0; lvl < levels; ++lvl) {
      const double r = Unit(Mix(stream, counter++));
      row <<= 1;
      col <<= 1;
      if (r < 0.57) {
      } else if (r < 0.76) {
        col |= 1;
      } else if (r < 0.95) {
        row |= 1;
      } else {
        row |= 1;
        col |= 1;
      }
    }
    builder.AddEdge(row % nodes, col % nodes);
  }
  auto graph = builder.Build();
  CW_CHECK_OK(graph.status());
  return std::move(*graph);
}

uint64_t GraphHash(const Graph& graph) {
  uint64_t h = Mix(graph.num_nodes(), graph.num_edges());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    h = Mix(h, graph.OutDegree(v));
    for (const NodeId w : graph.OutNeighbors(v)) h = Mix(h, w);
  }
  return h;
}

bool StreamSpecFor(std::string_view workload, StreamSpec* spec) {
  if (workload == "serve_zipf") {
    *spec = {SourceDist::kZipf, 0.6, 0.2, 0.1, 0.1};
  } else if (workload == "batch_uniform") {
    *spec = {SourceDist::kUniformDistinct, 0.6, 0.2, 0.1, 0.1};
  } else if (workload == "ooc_paged") {
    // node2vec is left out: one out-of-core node2vec query at this size
    // takes seconds, which would starve the other kinds of samples.
    *spec = {SourceDist::kUniformDistinct, 0.5, 0.3, 0.2, 0.0};
  } else {
    return false;
  }
  return true;
}

std::vector<NodeId> QueryableNodes(const Graph& graph) {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (graph.InDegree(v) > 0) nodes.push_back(v);
  }
  return nodes;
}

RequestStream::RequestStream(const StreamSpec& spec,
                             std::vector<NodeId> sources, uint64_t seed)
    : spec_(spec), seed_(seed), perm_(std::move(sources)) {
  CW_CHECK_GT(perm_.size(), 2u);
  const uint64_t perm_seed = Mix(seed, NameHash("perm"));
  for (size_t v = perm_.size(); v > 1; --v) {
    std::swap(perm_[v - 1], perm_[Mix(perm_seed, v) % v]);
  }
  if (spec.sources == SourceDist::kZipf) {
    zipf_cdf_.resize(perm_.size());
    double sum = 0.0;
    for (size_t r = 0; r < perm_.size(); ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfTheta);
      zipf_cdf_[r] = sum;
    }
    for (double& c : zipf_cdf_) c /= sum;
  }
}

NodeId RequestStream::Source(uint64_t i, uint64_t salt) const {
  if (spec_.sources == SourceDist::kUniformDistinct) {
    return perm_[(2 * i + salt) % perm_.size()];
  }
  const double u = Unit(Mix(Mix(seed_, NameHash("zipf") + salt), i));
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  const size_t rank =
      std::min<size_t>(it - zipf_cdf_.begin(), zipf_cdf_.size() - 1);
  return perm_[rank];
}

QueryRequest RequestStream::At(uint64_t i) const {
  // The block's ten kinds in mix order, then a seeded shuffle of them.
  QueryKind block[10];
  size_t n = 0;
  const std::pair<QueryKind, double> mix[] = {
      {QueryKind::kSourceTopK, spec_.topk},
      {QueryKind::kPair, spec_.pair},
      {QueryKind::kPersonalizedPageRank, spec_.ppr},
      {QueryKind::kNode2Vec, spec_.n2v}};
  for (const auto& [kind, share] : mix) {
    for (long c = std::lround(share * 10); c > 0 && n < 10; --c) {
      block[n++] = kind;
    }
  }
  CW_CHECK_EQ(n, 10u);
  const uint64_t block_seed = Mix(Mix(seed_, NameHash("kind")), i / 10);
  for (size_t v = 10; v > 1; --v) {
    std::swap(block[v - 1], block[Mix(block_seed, v) % v]);
  }
  const QueryKind kind = block[i % 10];
  const NodeId a = Source(i, 0);
  switch (kind) {
    case QueryKind::kPair: {
      NodeId b = Source(i, 1);
      for (uint64_t salt = 2; b == a; ++salt) b = Source(i, salt);
      return QueryRequest::Pair(a, b);
    }
    case QueryKind::kPersonalizedPageRank:
      return QueryRequest::PersonalizedPageRank(a, kTopK);
    case QueryKind::kNode2Vec:
      return QueryRequest::Node2Vec(a, kTopK);
    default:
      return QueryRequest::SourceTopK(a, kTopK);
  }
}

uint64_t RequestStream::Hash(uint64_t count) const {
  uint64_t h = Mix(perm_.size(), count);
  for (uint64_t i = 0; i < count; ++i) {
    const QueryRequest r = At(i);
    h = Mix(h, static_cast<uint64_t>(r.kind));
    h = Mix(h, (static_cast<uint64_t>(r.a) << 32) | r.b);
    h = Mix(h, r.k);
  }
  return h;
}

uint64_t StreamSeed(uint64_t run_seed, std::string_view workload) {
  return Mix(run_seed, NameHash(workload));
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "serve_zipf", "batch_uniform", "ooc_paged"};
  return names;
}

std::string Hex(uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace perfbench
