// CloudWalker facade — the library's primary public API.
//
// Quickstart:
//
//   Graph graph = GenerateRmat(10'000, 150'000, /*seed=*/7);
//   ThreadPool pool;
//   auto cw = CloudWalker::Build(&graph, IndexingOptions{}, &pool);
//   CW_CHECK_OK(cw.status());
//   // Unified entry point: one typed request, one typed response.
//   QueryResponse r = cw->Execute(QueryRequest::Pair(12, 34));
//   double s = r.score();
//   auto similar =
//       cw->Execute(QueryRequest::SourceTopK(12, 10)).topk();
//   // Legacy blocking methods remain and answer bit-identically:
//   double s2 = cw->SinglePair(12, 34).value();  // == s
//
// Execute() covers every query kind (DESIGN.md section 6.1) — the four
// SimRank shapes plus the walk-program kinds kPersonalizedPageRank and
// kNode2Vec (DESIGN.md section 10) — honors
// per-request QueryOptions overrides and deadlines, and fills execution
// metadata (QueryStats, latency). The per-kind methods and Execute()
// funnel into the same internal helpers, so their answers are
// bit-identical by construction.
//
// The facade owns the DiagonalIndex but only observes the graph; the graph
// must outlive the CloudWalker instance.

#ifndef CLOUDWALKER_CORE_CLOUDWALKER_H_
#define CLOUDWALKER_CORE_CLOUDWALKER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/threading.h"
#include "core/diagonal.h"
#include "core/indexer.h"
#include "core/options.h"
#include "core/queries.h"
#include "core/request.h"
#include "graph/graph.h"

namespace cloudwalker {

class SnapshotView;
class WalkBackend;
class PagedSnapshot;
class OutOfCoreWalkBackend;
struct ShardingOptions;
struct ParallelWalkOptions;
struct RemoteBackendOptions;
struct OutOfCoreOptions;
struct SnapshotMetadata;
enum class ReorderKind : uint32_t;

/// An indexed graph ready to answer SimRank queries. Query methods are
/// const and thread-safe (independent RNG streams per call).
///
/// Lifecycle (DESIGN.md section 9): the expensive offline work — index
/// estimation — happens once, in Build(); the result can
/// be persisted with WriteSnapshot() and reopened near-instantly with
/// Open(), which mmaps the artifact and serves every flat array zero-copy.
/// The shared_ptr-returning factories own everything they need (graph,
/// index, backing mmap), which is what lets the serving layer
/// hot-swap whole engine versions by swapping one pointer.
class CloudWalker {
 public:
  /// Runs offline indexing on `graph` (threaded via `pool`, serial when
  /// null) and returns a query-ready instance. `graph` is borrowed.
  static StatusOr<CloudWalker> Build(const Graph* graph,
                                     const IndexingOptions& options = {},
                                     ThreadPool* pool = nullptr);

  /// Owning build: takes the graph by value (move it in) and returns a
  /// self-contained engine — the instance keeps the graph alive, so it can
  /// be published to a registry or handed across threads freely.
  static StatusOr<std::shared_ptr<const CloudWalker>> Build(
      Graph&& graph, const IndexingOptions& options = {},
      ThreadPool* pool = nullptr);

  /// Opens a snapshot artifact written by WriteSnapshot() (format 2, or
  /// an unreordered format-1 file). The CSR arrays and D-vector are
  /// consumed zero-copy out of the mapping (the returned instance pins
  /// it), so opening costs one integrity pass instead of an index rebuild
  /// — and answers are bit-identical to the instance that wrote the
  /// snapshot.
  static StatusOr<std::shared_ptr<const CloudWalker>> Open(
      const std::string& path);

  /// Out-of-core open (DESIGN.md section 14): like Open(), but only the
  /// per-node arrays become resident — the per-edge walk arrays stay on
  /// disk and page in through a block cache capped at
  /// options.budget_bytes, so an artifact larger than RAM still serves
  /// every query kind. Answers are bit-identical to Open() of the same
  /// file. Restrictions: such an instance cannot WriteSnapshot() (it
  /// cannot read back every edge at once by design) and cannot be
  /// re-backed by Shard() / Parallelize() / Distribute().
  static StatusOr<std::shared_ptr<const CloudWalker>> OutOfCore(
      const std::string& path);

  /// As above with explicit knobs.
  static StatusOr<std::shared_ptr<const CloudWalker>> OutOfCore(
      const std::string& path, const OutOfCoreOptions& options);

  /// Persists this instance as one self-contained snapshot artifact
  /// (graph + index + build metadata); reopen with Open().
  /// Snapshot-backed instances mirror their source's format extensions
  /// (block index, target block bytes, permutation), so open-then-rewrite
  /// of a format-2 file is byte-stable; a format-1 source is rewritten
  /// as format 2.
  Status WriteSnapshot(const std::string& path) const;

  /// Renumbers the graph for walk locality (ooc/reorder.h) and persists
  /// the reordered artifact with its permutation section; Open() and
  /// OutOfCore() translate external ids at the API boundary, so callers
  /// of the reopened snapshot see the original id space. kNone writes an
  /// ordinary snapshot. Fails on an out-of-core or already-reordered
  /// instance.
  Status WriteReorderedSnapshot(const std::string& path,
                                ReorderKind kind) const;

  /// Wraps a previously built (e.g. loaded) index for `graph`. Fails when
  /// the index and graph disagree on the node count.
  static StatusOr<CloudWalker> FromIndex(const Graph* graph,
                                         DiagonalIndex index);

  /// Owning FromIndex: the returned instance keeps `graph` alive. The
  /// incremental-maintenance path uses this to wrap a refreshed
  /// (graph, index) pair for publication without re-estimating rows.
  static StatusOr<std::shared_ptr<const CloudWalker>> FromIndex(
      Graph&& graph, DiagonalIndex index);

  /// Re-backs `base` with the in-process sharded BSP walk engine
  /// (shard/sharded_engine.h, DESIGN.md section 11): every walk phase of
  /// every query kind fans out across options.num_shards shard workers and
  /// merges at the level barriers. Results are bit-identical to `base` at
  /// every shard count, so a sharded instance can transparently replace
  /// the single-node one anywhere — including behind QueryService, which
  /// preserves cache keys, dedup, deadlines, and cancellation unchanged.
  /// The returned instance shares base's graph / index / snapshot
  /// (base itself may be released).
  static StatusOr<std::shared_ptr<const CloudWalker>> Shard(
      const std::shared_ptr<const CloudWalker>& base,
      const ShardingOptions& options);

  /// Re-backs `base` with the multi-threaded walk executor
  /// (engine/parallel_walk.h, DESIGN.md section 12): every walk phase
  /// partitions its walker batch across options.num_threads workers and
  /// merges raw endpoints before the single aggregation pass. Results are
  /// bit-identical to `base` at every thread count (the counter RNG keys
  /// on global walker ids, never threads), so a parallel instance can
  /// transparently replace the single-threaded one anywhere — including
  /// behind QueryService (ServeOptions::walk_threads wires this up). The
  /// returned instance shares base's graph / index / snapshot.
  static StatusOr<std::shared_ptr<const CloudWalker>> Parallelize(
      const std::shared_ptr<const CloudWalker>& base,
      const ParallelWalkOptions& options);

  /// Re-backs `base` with the socket-connected distributed walk backend
  /// (net/remote_backend.h, DESIGN.md section 13): every walk phase runs
  /// as BSP supersteps across the options.workers shard-worker processes,
  /// which must serve the *same snapshot artifact* — the handshake pins
  /// the snapshot fingerprint, so `base` must be snapshot-backed (Open());
  /// an in-memory build fails with kFailedPrecondition. Results are
  /// bit-identical to `base` at every worker count; a worker death
  /// mid-query is recovered by deterministic superstep replay, and a
  /// worker lost past the retry budget surfaces as kUnavailable (never a
  /// partial answer, never cached). The returned instance shares base's
  /// graph / index / snapshot.
  static StatusOr<std::shared_ptr<const CloudWalker>> Distribute(
      const std::shared_ptr<const CloudWalker>& base,
      const RemoteBackendOptions& options);

  /// The unified entry point: dispatches any QueryRequest kind, applying
  /// the request's per-request options (default QueryOptions{} otherwise)
  /// and arming its deadline on an internal CancelToken. `pool`
  /// parallelizes kAllPairsTopK only. `cancel` (borrowed, optional) takes
  /// precedence over the request's own deadline — the serving layer
  /// passes its admission-armed token here. A stopped request reports
  /// kDeadlineExceeded / kCancelled with an empty payload.
  QueryResponse Execute(const QueryRequest& request,
                        ThreadPool* pool = nullptr,
                        const CancelToken* cancel = nullptr) const;

  /// MCSP: SimRank estimate for (i, j), clamped to [0, 1]; exact 1 for
  /// i == j. Fails on out-of-range nodes or invalid options.
  StatusOr<double> SinglePair(NodeId i, NodeId j,
                              const QueryOptions& options = {}) const;

  /// MCSS: estimates s(q, v) for every v, returned sparse and clamped to
  /// [0, 1] with the self-similarity entry pinned to exactly 1.
  StatusOr<SparseVector> SingleSource(NodeId q,
                                      const QueryOptions& options = {}) const;

  /// The k nodes most similar to q (self excluded), by MCSS.
  StatusOr<std::vector<ScoredNode>> SingleSourceTopK(
      NodeId q, size_t k, const QueryOptions& options = {}) const;

  /// MCAP: per-source top-k over all sources (parallel via `pool`).
  StatusOr<std::vector<std::vector<ScoredNode>>> AllPairs(
      size_t k, const QueryOptions& options = {},
      ThreadPool* pool = nullptr) const;

  /// Personalized PageRank: the k nodes with the highest teleport-walk
  /// endpoint frequency around q (self excluded); options.ppr_alpha is the
  /// continuation probability. Walk-program kind — scores are frequencies,
  /// not SimRank values.
  StatusOr<std::vector<ScoredNode>> PersonalizedPageRankTopK(
      NodeId q, size_t k, const QueryOptions& options = {}) const;

  /// node2vec: the k nodes with the highest average visit frequency over
  /// second-order biased walks from q (self excluded);
  /// options.n2v_return_p / options.n2v_in_out_q are the p / q biases.
  StatusOr<std::vector<ScoredNode>> Node2VecTopK(
      NodeId q, size_t k, const QueryOptions& options = {}) const;

  /// The offline index.
  const DiagonalIndex& index() const { return index_; }

  /// Counters from the Build() indexing run (zeros for FromIndex; restored
  /// from the build metadata for Open()).
  const IndexingStats& indexing_stats() const { return stats_; }

  /// The options the index was built under (reconstructed from metadata
  /// for Open(); params only for FromIndex).
  const IndexingOptions& indexing_options() const {
    return indexing_options_;
  }

  /// The snapshot backing this instance, or null for in-memory builds
  /// (and for out-of-core opens, which expose paged_snapshot() instead).
  const std::shared_ptr<const SnapshotView>& snapshot() const {
    return snapshot_;
  }

  /// The out-of-core backend, or null unless this instance came from
  /// OutOfCore(). Exposes the paged snapshot and the cache counters.
  const std::shared_ptr<const OutOfCoreWalkBackend>& ooc_backend() const {
    return ooc_backend_;
  }

  /// The locality permutation (internal id -> external id) when this
  /// instance serves a reordered snapshot; empty otherwise. All public
  /// APIs speak external ids — this is observability only.
  std::span<const NodeId> permutation() const { return int_to_ext_; }

  /// The graph being queried.
  const Graph& graph() const { return *graph_; }

  /// Source compatibility with the retired WalkContext (engine/walk.h):
  /// an empty tag that every context-taking overload ignores.
  const WalkContext& walk_context() const {
    static constexpr WalkContext kRetired{};
    return kRetired;
  }

  /// The walk backend override installed by Shard(), or null when queries
  /// run the single-node batched kernel.
  const WalkBackend* walk_backend() const { return walk_backend_.get(); }

  /// Persists the index; reload with DiagonalIndex::Load + FromIndex.
  Status SaveIndex(const std::string& path) const { return index_.Save(path); }

 private:
  CloudWalker(const Graph* graph, DiagonalIndex index, IndexingStats stats,
              IndexingOptions options)
      : graph_(graph),
        index_(std::move(index)),
        stats_(std::move(stats)),
        indexing_options_(options) {}

  Status ValidateQuery(NodeId node, const QueryOptions& options) const;

  // Drains the walk backend's first job-fatal error (remote backends can
  // fail mid-job; see WalkBackend::TakeError). Ok for local backends.
  Status TakeBackendError() const;

  // The build-metadata block WriteSnapshot stamps (shared with
  // WriteReorderedSnapshot).
  SnapshotMetadata BuildSnapshotMetadata() const;

  // External/internal id translation of a reordered snapshot; both are
  // the identity when int_to_ext_ is empty. Every public API takes and
  // returns external ids; the kernels below run on internal ids.
  NodeId ToInternal(NodeId external) const {
    return ext_to_int_.empty() ? external : ext_to_int_[external];
  }
  NodeId ToExternal(NodeId internal) const {
    return int_to_ext_.empty() ? internal : int_to_ext_[internal];
  }
  // Re-indexes a kernel-produced sparse vector into external id space
  // (sorted; pass-through when not reordered). Helpers translate *before*
  // top-k extraction so score ties break on external ids.
  SparseVector TranslateSparse(SparseVector raw) const;

  // Installs the id-translation state for a reordered snapshot: borrows
  // `perm` (internal -> external; the instance must pin its owner),
  // builds the inverse, and re-keys every walk on external source ids by
  // wrapping `inner` in an ExternalKeyWalkBackend.
  void InstallPermutation(std::span<const NodeId> perm,
                          std::shared_ptr<const WalkBackend> inner);

  // The shared kernels behind both the per-kind methods and Execute().
  // All assume validated inputs; `stats` / `cancel` may be null. A stopped
  // run returns the token's error status instead of a value.
  StatusOr<double> PairScore(NodeId i, NodeId j, const QueryOptions& options,
                             QueryStats* stats,
                             const CancelToken* cancel) const;
  StatusOr<SparseVector> SourceVector(NodeId q, const QueryOptions& options,
                                      QueryStats* stats,
                                      const CancelToken* cancel) const;
  StatusOr<std::vector<ScoredNode>> SourceTopK(
      NodeId q, size_t k, const QueryOptions& options, QueryStats* stats,
      const CancelToken* cancel) const;
  StatusOr<std::vector<std::vector<ScoredNode>>> AllPairsInternal(
      size_t k, const QueryOptions& options, ThreadPool* pool,
      QueryStats* stats, const CancelToken* cancel) const;
  StatusOr<std::vector<ScoredNode>> PprTopK(NodeId q, size_t k,
                                            const QueryOptions& options,
                                            QueryStats* stats,
                                            const CancelToken* cancel) const;
  StatusOr<std::vector<ScoredNode>> N2vTopK(NodeId q, size_t k,
                                            const QueryOptions& options,
                                            QueryStats* stats,
                                            const CancelToken* cancel) const;

  const Graph* graph_;
  DiagonalIndex index_;
  IndexingStats stats_;
  IndexingOptions indexing_options_;
  // Walk backend override (Shard()); null runs the single-node kernel. The
  // backend borrows graph_, which this instance pins.
  std::shared_ptr<const WalkBackend> walk_backend_;
  // Ownership plumbing of the shared_ptr factories: the heap graph (owning
  // Build / FromIndex / Open) and the backing mapping (Open). Null when
  // the graph is merely borrowed. graph_ aliases owned_graph_ when set.
  std::shared_ptr<const Graph> owned_graph_;
  std::shared_ptr<const SnapshotView> snapshot_;
  // OutOfCore(): the demand-paged backend (also aliased — possibly through
  // an ExternalKeyWalkBackend wrapper — by walk_backend_). Pins the
  // PagedSnapshot the facade's graph / index spans alias.
  std::shared_ptr<const OutOfCoreWalkBackend> ooc_backend_;
  // Locality-reorder translation (empty unless the backing snapshot
  // carries a permutation). int_to_ext_ borrows the snapshot's
  // kPermutation span; ext_to_int_ is its materialized inverse.
  std::span<const NodeId> int_to_ext_;
  std::vector<NodeId> ext_to_int_;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_CORE_CLOUDWALKER_H_
