#include "core/cloudwalker.h"

#include <algorithm>

#include "common/timer.h"
#include "common/version.h"
#include "engine/parallel_walk.h"
#include "engine/walk_backend.h"
#include "net/remote_backend.h"
#include "ooc/ooc_backend.h"
#include "ooc/paged_snapshot.h"
#include "ooc/reorder.h"
#include "shard/sharded_engine.h"
#include "snapshot/snapshot.h"

namespace cloudwalker {
namespace {

double Clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

// Reconstructs the build-time knobs a snapshot's metadata block records
// (shared by the in-memory and out-of-core open paths).
IndexingOptions OptionsFromMetadata(const SimRankParams& params,
                                    const SnapshotMetadata& meta) {
  IndexingOptions options;
  options.params = params;
  options.num_walkers = meta.num_walkers;
  options.jacobi_iterations = meta.jacobi_iterations;
  options.seed = meta.seed;
  options.row_mode = static_cast<RowMode>(meta.row_mode);
  options.dangling = static_cast<DanglingPolicy>(meta.dangling);
  options.initial_diagonal = meta.initial_diagonal;
  return options;
}

IndexingStats StatsFromMetadata(const SnapshotMetadata& meta) {
  IndexingStats stats;
  stats.walk_steps = meta.walk_steps;
  stats.walk_seconds = meta.build_seconds;
  return stats;
}

}  // namespace

StatusOr<CloudWalker> CloudWalker::Build(const Graph* graph,
                                         const IndexingOptions& options,
                                         ThreadPool* pool) {
  if (graph == nullptr) {
    return Status::InvalidArgument("graph must not be null");
  }
  IndexingStats stats;
  CW_ASSIGN_OR_RETURN(DiagonalIndex index,
                      BuildDiagonalIndex(*graph, options, pool, &stats));
  return CloudWalker(graph, std::move(index), stats, options);
}

StatusOr<std::shared_ptr<const CloudWalker>> CloudWalker::Build(
    Graph&& graph, const IndexingOptions& options, ThreadPool* pool) {
  auto owned = std::make_shared<const Graph>(std::move(graph));
  CW_ASSIGN_OR_RETURN(CloudWalker built, Build(owned.get(), options, pool));
  built.owned_graph_ = std::move(owned);
  return std::shared_ptr<const CloudWalker>(
      new CloudWalker(std::move(built)));
}

StatusOr<CloudWalker> CloudWalker::FromIndex(const Graph* graph,
                                             DiagonalIndex index) {
  if (graph == nullptr) {
    return Status::InvalidArgument("graph must not be null");
  }
  if (index.num_nodes() != graph->num_nodes()) {
    return Status::FailedPrecondition(
        "index covers " + std::to_string(index.num_nodes()) +
        " nodes but the graph has " + std::to_string(graph->num_nodes()));
  }
  IndexingOptions options;
  options.params = index.params();
  return CloudWalker(graph, std::move(index), IndexingStats{}, options);
}

StatusOr<std::shared_ptr<const CloudWalker>> CloudWalker::FromIndex(
    Graph&& graph, DiagonalIndex index) {
  auto owned = std::make_shared<const Graph>(std::move(graph));
  CW_ASSIGN_OR_RETURN(CloudWalker built,
                      FromIndex(owned.get(), std::move(index)));
  built.owned_graph_ = std::move(owned);
  return std::shared_ptr<const CloudWalker>(
      new CloudWalker(std::move(built)));
}

StatusOr<std::shared_ptr<const CloudWalker>> CloudWalker::Shard(
    const std::shared_ptr<const CloudWalker>& base,
    const ShardingOptions& options) {
  if (base == nullptr) {
    return Status::InvalidArgument("base engine must not be null");
  }
  if (base->ooc_backend_ != nullptr) {
    return Status::FailedPrecondition(
        "Shard requires an in-memory graph: an out-of-core instance pages "
        "its edges through the walker-block scheduler instead");
  }
  if (!base->int_to_ext_.empty()) {
    return Status::FailedPrecondition(
        "Shard does not support locality-reordered snapshots: replacing "
        "the walk backend would drop the external-id RNG keying");
  }
  CW_ASSIGN_OR_RETURN(
      std::shared_ptr<const ShardedWalkEngine> engine,
      ShardedWalkEngine::Build(base->graph(), options));
  // The copy shares the graph / snapshot ownership with `base`, so
  // the borrowed pointers inside the engine stay pinned even after the
  // caller drops `base`. (A borrowed-graph base keeps its original
  // contract: the external graph must outlive the sharded instance too.)
  CloudWalker sharded(*base);
  sharded.walk_backend_ = std::move(engine);
  return std::shared_ptr<const CloudWalker>(new CloudWalker(std::move(sharded)));
}

StatusOr<std::shared_ptr<const CloudWalker>> CloudWalker::Parallelize(
    const std::shared_ptr<const CloudWalker>& base,
    const ParallelWalkOptions& options) {
  if (base == nullptr) {
    return Status::InvalidArgument("base engine must not be null");
  }
  if (base->ooc_backend_ != nullptr) {
    return Status::FailedPrecondition(
        "Parallelize requires an in-memory graph: an out-of-core instance "
        "pages its edges through the walker-block scheduler instead");
  }
  if (!base->int_to_ext_.empty()) {
    return Status::FailedPrecondition(
        "Parallelize does not support locality-reordered snapshots: "
        "replacing the walk backend would drop the external-id RNG keying");
  }
  CW_ASSIGN_OR_RETURN(
      std::shared_ptr<const ParallelWalkExecutor> executor,
      ParallelWalkExecutor::Build(base->graph(), options));
  // Same ownership story as Shard(): the copy pins base's graph / snapshot
  // for the executor's borrowed pointers.
  CloudWalker parallel(*base);
  parallel.walk_backend_ = std::move(executor);
  return std::shared_ptr<const CloudWalker>(
      new CloudWalker(std::move(parallel)));
}

StatusOr<std::shared_ptr<const CloudWalker>> CloudWalker::Distribute(
    const std::shared_ptr<const CloudWalker>& base,
    const RemoteBackendOptions& options) {
  if (base == nullptr) {
    return Status::InvalidArgument("base engine must not be null");
  }
  if (base->snapshot_ == nullptr) {
    return Status::FailedPrecondition(
        "Distribute requires a snapshot-backed engine (CloudWalker::Open): "
        "the handshake pins the snapshot fingerprint so coordinator and "
        "workers provably serve the same artifact");
  }
  if (!base->int_to_ext_.empty()) {
    return Status::FailedPrecondition(
        "Distribute does not support locality-reordered snapshots: the "
        "wire protocol does not carry the external-id RNG keying");
  }
  CW_ASSIGN_OR_RETURN(
      std::shared_ptr<const RemoteWalkBackend> backend,
      RemoteWalkBackend::Connect(base->graph(),
                                 base->snapshot_->fingerprint(), options));
  // Same ownership story as Shard(): the copy pins base's graph / snapshot
  // for the backend's borrowed pointers.
  CloudWalker distributed(*base);
  distributed.walk_backend_ = std::move(backend);
  return std::shared_ptr<const CloudWalker>(
      new CloudWalker(std::move(distributed)));
}

StatusOr<std::shared_ptr<const CloudWalker>> CloudWalker::Open(
    const std::string& path) {
  CW_ASSIGN_OR_RETURN(std::shared_ptr<const SnapshotView> view,
                      SnapshotView::Open(path));
  // Every flat array below aliases the mapping; the instance pins `view`
  // (and the view-backed Graph) for as long as any query can touch them.
  auto graph = std::make_shared<const Graph>(Graph::FromCsrViews(
      view->num_nodes(), view->out_offsets(), view->out_targets(),
      view->in_offsets(), view->in_targets()));
  DiagonalIndex index =
      DiagonalIndex::FromView(view->params(), view->diagonal());

  const SnapshotMetadata& meta = view->metadata();
  CloudWalker opened(graph.get(), std::move(index),
                     StatsFromMetadata(meta),
                     OptionsFromMetadata(view->params(), meta));
  opened.owned_graph_ = std::move(graph);
  if (!view->permutation().empty()) {
    // Locality-reordered artifact: queries run on internal ids behind an
    // external-id translation layer, and every walk re-keys its RNG on
    // the source's external id so answers match the unreordered artifact.
    opened.InstallPermutation(
        view->permutation(),
        std::make_shared<const LocalWalkBackend>(*opened.graph_));
  }
  opened.snapshot_ = std::move(view);
  return std::shared_ptr<const CloudWalker>(
      new CloudWalker(std::move(opened)));
}

StatusOr<std::shared_ptr<const CloudWalker>> CloudWalker::OutOfCore(
    const std::string& path) {
  return OutOfCore(path, OutOfCoreOptions{});
}

StatusOr<std::shared_ptr<const CloudWalker>> CloudWalker::OutOfCore(
    const std::string& path, const OutOfCoreOptions& ooc_options) {
  CW_ASSIGN_OR_RETURN(std::shared_ptr<const PagedSnapshot> paged,
                      PagedSnapshot::Open(path));
  CW_ASSIGN_OR_RETURN(
      std::shared_ptr<const OutOfCoreWalkBackend> backend,
      OutOfCoreWalkBackend::Create(paged, ooc_options));
  // The facade graph exposes only the resident per-node arrays; the
  // in-targets span is deliberately empty. That is safe because every
  // walk routes through the out-of-core backend and the combine phases
  // read only the out-CSR and the diagonal — nothing on a query path
  // touches in-neighbors through this graph.
  auto graph = std::make_shared<const Graph>(Graph::FromCsrViews(
      paged->num_nodes(), paged->out_offsets(), paged->out_targets(),
      paged->in_offsets(), std::span<const NodeId>{}));
  DiagonalIndex index =
      DiagonalIndex::FromView(paged->params(), paged->diagonal());

  const SnapshotMetadata& meta = paged->metadata();
  CloudWalker opened(graph.get(), std::move(index),
                     StatsFromMetadata(meta),
                     OptionsFromMetadata(paged->params(), meta));
  opened.owned_graph_ = std::move(graph);
  opened.ooc_backend_ = backend;
  opened.walk_backend_ = backend;
  if (!paged->permutation().empty()) {
    opened.InstallPermutation(paged->permutation(), std::move(backend));
  }
  return std::shared_ptr<const CloudWalker>(
      new CloudWalker(std::move(opened)));
}

void CloudWalker::InstallPermutation(
    std::span<const NodeId> perm,
    std::shared_ptr<const WalkBackend> inner) {
  int_to_ext_ = perm;
  ext_to_int_.resize(perm.size());
  for (NodeId u = 0; u < perm.size(); ++u) ext_to_int_[perm[u]] = u;
  walk_backend_ =
      std::make_shared<const ExternalKeyWalkBackend>(std::move(inner),
                                                     int_to_ext_);
}

SparseVector CloudWalker::TranslateSparse(SparseVector raw) const {
  if (int_to_ext_.empty()) return raw;
  std::vector<SparseEntry> entries;
  entries.reserve(raw.size());
  for (const SparseEntry& e : raw) {
    entries.push_back(SparseEntry{int_to_ext_[e.index], e.value});
  }
  std::sort(entries.begin(), entries.end(),
            [](const SparseEntry& a, const SparseEntry& b) {
              return a.index < b.index;
            });
  return SparseVector::FromSorted(std::move(entries));
}

SnapshotMetadata CloudWalker::BuildSnapshotMetadata() const {
  SnapshotMetadata meta;
  meta.num_walkers = indexing_options_.num_walkers;
  meta.jacobi_iterations = indexing_options_.jacobi_iterations;
  meta.seed = indexing_options_.seed;
  meta.row_mode = static_cast<uint32_t>(indexing_options_.row_mode);
  meta.dangling = static_cast<uint32_t>(indexing_options_.dangling);
  meta.initial_diagonal = indexing_options_.initial_diagonal;
  meta.query_options_fingerprint = QueryOptionsFingerprint(QueryOptions{});
  meta.walk_steps = stats_.walk_steps;
  meta.build_seconds = stats_.walk_seconds + stats_.solve_seconds;
  meta.builder = std::string(kCloudWalkerBuilderTag);
  return meta;
}

Status CloudWalker::WriteSnapshot(const std::string& path) const {
  if (ooc_backend_ != nullptr) {
    return Status::FailedPrecondition(
        "an out-of-core instance pages its per-edge arrays from disk and "
        "cannot rewrite a snapshot; copy the artifact file instead");
  }
  SnapshotWriteOptions write_options;
  if (snapshot_ != nullptr) {
    // Mirror the source artifact's format extensions so open-then-rewrite
    // stays byte-stable for old (no block index) and new formats alike.
    write_options.write_block_index = snapshot_->has_block_index();
    write_options.block_bytes = snapshot_->block_target_bytes();
    write_options.permutation = snapshot_->permutation();
  }
  return SnapshotWriter::Write(path, *graph_, index_, BuildSnapshotMetadata(),
                               write_options);
}

Status CloudWalker::WriteReorderedSnapshot(const std::string& path,
                                           ReorderKind kind) const {
  if (kind == ReorderKind::kNone) return WriteSnapshot(path);
  if (ooc_backend_ != nullptr) {
    return Status::FailedPrecondition(
        "an out-of-core instance cannot reorder: the pass rewrites every "
        "per-edge array, which is exactly what it does not hold");
  }
  if (!int_to_ext_.empty()) {
    return Status::FailedPrecondition(
        "this instance already serves a locality-reordered snapshot; "
        "reordering again would compose permutations");
  }
  CW_ASSIGN_OR_RETURN(
      ReorderedArtifact artifact,
      ReorderForLocality(*graph_, index_.diagonal(), kind));
  const DiagonalIndex permuted =
      DiagonalIndex::FromView(index_.params(), artifact.diagonal);
  SnapshotWriteOptions write_options;
  write_options.permutation = artifact.perm;
  return SnapshotWriter::Write(path, artifact.graph, permuted,
                               BuildSnapshotMetadata(), write_options);
}

Status CloudWalker::TakeBackendError() const {
  return walk_backend_ != nullptr ? walk_backend_->TakeError()
                                  : Status::Ok();
}

Status CloudWalker::ValidateQuery(NodeId node,
                                  const QueryOptions& options) const {
  CW_RETURN_IF_ERROR(ValidateQueryOptions(options));
  if (node >= graph_->num_nodes()) {
    return Status::OutOfRange("node " + std::to_string(node) +
                              " out of range (graph has " +
                              std::to_string(graph_->num_nodes()) + " nodes)");
  }
  return Status::Ok();
}

StatusOr<double> CloudWalker::PairScore(NodeId i, NodeId j,
                                        const QueryOptions& options,
                                        QueryStats* stats,
                                        const CancelToken* cancel) const {
  const double raw = SinglePairQuery(*graph_, index_, ToInternal(i),
                                     ToInternal(j), options, stats,
                                     /*owner=*/nullptr, cancel,
                                     walk_backend_.get());
  // Drain the backend error even when cancelled, so a stale failure never
  // leaks into the next query; cancellation takes reporting precedence.
  const Status backend = TakeBackendError();
  if (cancel != nullptr && cancel->ShouldStop()) return cancel->ToStatus();
  if (!backend.ok()) return backend;
  return Clamp01(raw);
}

StatusOr<SparseVector> CloudWalker::SourceVector(
    NodeId q, const QueryOptions& options, QueryStats* stats,
    const CancelToken* cancel) const {
  SparseVector internal =
      SingleSourceQuery(*graph_, index_, ToInternal(q), options, stats,
                        /*owner=*/nullptr, cancel, walk_backend_.get());
  const Status backend = TakeBackendError();
  if (cancel != nullptr && cancel->ShouldStop()) return cancel->ToStatus();
  if (!backend.ok()) return backend;
  const SparseVector raw = TranslateSparse(std::move(internal));
  std::vector<SparseEntry> entries;
  entries.reserve(raw.size() + 1);
  bool saw_self = false;
  for (const SparseEntry& e : raw) {
    if (e.index == q) {
      entries.push_back(SparseEntry{q, 1.0});
      saw_self = true;
    } else {
      entries.push_back(SparseEntry{e.index, Clamp01(e.value)});
    }
  }
  SparseVector out = SparseVector::FromSorted(std::move(entries));
  if (!saw_self) {
    out = SparseVector::Axpy(out, 1.0,
                             SparseVector::FromSorted({SparseEntry{q, 1.0}}));
  }
  return out;
}

StatusOr<std::vector<ScoredNode>> CloudWalker::SourceTopK(
    NodeId q, size_t k, const QueryOptions& options, QueryStats* stats,
    const CancelToken* cancel) const {
  SparseVector internal =
      SingleSourceQuery(*graph_, index_, ToInternal(q), options, stats,
                        /*owner=*/nullptr, cancel, walk_backend_.get());
  const Status backend = TakeBackendError();
  if (cancel != nullptr && cancel->ShouldStop()) return cancel->ToStatus();
  if (!backend.ok()) return backend;
  const SparseVector raw = TranslateSparse(std::move(internal));
  std::vector<ScoredNode> top = TopKFromSparse(raw, /*exclude=*/q, k);
  for (ScoredNode& s : top) s.score = Clamp01(s.score);
  return top;
}

StatusOr<std::vector<std::vector<ScoredNode>>> CloudWalker::AllPairsInternal(
    size_t k, const QueryOptions& options, ThreadPool* pool,
    QueryStats* stats, const CancelToken* cancel) const {
  uint64_t walk_steps = 0;
  auto result = AllPairsTopK(*graph_, index_, options, k, pool, &walk_steps,
                             cancel, walk_backend_.get());
  const Status backend = TakeBackendError();
  if (cancel != nullptr && cancel->ShouldStop()) return cancel->ToStatus();
  if (!backend.ok()) return backend;
  if (stats != nullptr) stats->walk_steps += walk_steps;
  for (auto& per_source : result) {
    for (ScoredNode& s : per_source) s.score = Clamp01(s.score);
  }
  if (!int_to_ext_.empty()) {
    // Re-index sources and scored nodes into external id space, restoring
    // the (score desc, id asc) contract on the translated ids. Score ties
    // at the k boundary were decided on internal ids inside the kernel.
    std::vector<std::vector<ScoredNode>> external(result.size());
    for (size_t u = 0; u < result.size(); ++u) {
      std::vector<ScoredNode>& list = result[u];
      for (ScoredNode& s : list) s.node = int_to_ext_[s.node];
      std::sort(list.begin(), list.end(),
                [](const ScoredNode& a, const ScoredNode& b) {
                  return a.score != b.score ? a.score > b.score
                                            : a.node < b.node;
                });
      external[int_to_ext_[u]] = std::move(list);
    }
    result = std::move(external);
  }
  return result;
}

StatusOr<std::vector<ScoredNode>> CloudWalker::PprTopK(
    NodeId q, size_t k, const QueryOptions& options, QueryStats* stats,
    const CancelToken* cancel) const {
  SparseVector endpoints =
      PersonalizedPageRankQuery(*graph_, index_, ToInternal(q), options,
                                stats, /*owner=*/nullptr, cancel,
                                walk_backend_.get());
  const Status backend = TakeBackendError();
  if (cancel != nullptr && cancel->ShouldStop()) return cancel->ToStatus();
  if (!backend.ok()) return backend;
  // Endpoint frequencies are already in [0, 1]; no clamping needed.
  return TopKFromSparse(TranslateSparse(std::move(endpoints)),
                        /*exclude=*/q, k);
}

StatusOr<std::vector<ScoredNode>> CloudWalker::N2vTopK(
    NodeId q, size_t k, const QueryOptions& options, QueryStats* stats,
    const CancelToken* cancel) const {
  SparseVector visits =
      Node2VecVisitQuery(*graph_, index_, ToInternal(q), options, stats,
                         /*owner=*/nullptr, cancel, walk_backend_.get());
  const Status backend = TakeBackendError();
  if (cancel != nullptr && cancel->ShouldStop()) return cancel->ToStatus();
  if (!backend.ok()) return backend;
  return TopKFromSparse(TranslateSparse(std::move(visits)),
                        /*exclude=*/q, k);
}

QueryResponse CloudWalker::Execute(const QueryRequest& request,
                                   ThreadPool* pool,
                                   const CancelToken* cancel) const {
  WallTimer timer;
  QueryResponse response;
  response.kind = request.kind;
  const QueryOptions base;  // the facade's defaults (paper parameters)
  const QueryOptions& options = request.EffectiveOptions(base);

  // A local token carries the request's own deadline when the caller did
  // not supply one (the serving layer arms its token at admission).
  CancelToken local;
  if (cancel == nullptr && request.timeout_seconds > 0.0) {
    local.SetDeadline(request.timeout_seconds);
    cancel = &local;
  }

  response.status = ValidateQueryRequest(request, graph_->num_nodes(), base);
  if (response.status.ok() && cancel != nullptr && cancel->ShouldStop()) {
    response.status = cancel->ToStatus();  // expired before any work
  }
  if (response.status.ok()) {
    switch (request.kind) {
      case QueryKind::kPair: {
        auto score = PairScore(request.a, request.b, options,
                               &response.stats, cancel);
        if (score.ok()) {
          response.payload = *score;
        } else {
          response.status = score.status();
        }
        break;
      }
      case QueryKind::kSingleSource: {
        auto scores =
            SourceVector(request.a, options, &response.stats, cancel);
        if (scores.ok()) {
          response.payload = std::make_shared<const SparseVector>(
              std::move(scores).value());
        } else {
          response.status = scores.status();
        }
        break;
      }
      case QueryKind::kSourceTopK: {
        auto top = SourceTopK(request.a, request.k, options, &response.stats,
                              cancel);
        if (top.ok()) {
          response.payload =
              std::make_shared<const TopKResult>(std::move(top).value());
        } else {
          response.status = top.status();
        }
        break;
      }
      case QueryKind::kAllPairsTopK: {
        auto all = AllPairsInternal(request.k, options, pool,
                                    &response.stats, cancel);
        if (all.ok()) {
          response.payload =
              std::make_shared<const AllPairsResult>(std::move(all).value());
        } else {
          response.status = all.status();
        }
        break;
      }
      case QueryKind::kPersonalizedPageRank: {
        auto top = PprTopK(request.a, request.k, options, &response.stats,
                           cancel);
        if (top.ok()) {
          response.payload =
              std::make_shared<const TopKResult>(std::move(top).value());
        } else {
          response.status = top.status();
        }
        break;
      }
      case QueryKind::kNode2Vec: {
        auto top = N2vTopK(request.a, request.k, options, &response.stats,
                           cancel);
        if (top.ok()) {
          response.payload =
              std::make_shared<const TopKResult>(std::move(top).value());
        } else {
          response.status = top.status();
        }
        break;
      }
    }
  }
  response.latency_seconds = timer.Seconds();
  return response;
}

StatusOr<double> CloudWalker::SinglePair(NodeId i, NodeId j,
                                         const QueryOptions& options) const {
  CW_RETURN_IF_ERROR(ValidateQuery(i, options));
  CW_RETURN_IF_ERROR(ValidateQuery(j, options));
  return PairScore(i, j, options, /*stats=*/nullptr, /*cancel=*/nullptr);
}

StatusOr<SparseVector> CloudWalker::SingleSource(
    NodeId q, const QueryOptions& options) const {
  CW_RETURN_IF_ERROR(ValidateQuery(q, options));
  return SourceVector(q, options, /*stats=*/nullptr, /*cancel=*/nullptr);
}

StatusOr<std::vector<ScoredNode>> CloudWalker::SingleSourceTopK(
    NodeId q, size_t k, const QueryOptions& options) const {
  CW_RETURN_IF_ERROR(ValidateQuery(q, options));
  return SourceTopK(q, k, options, /*stats=*/nullptr, /*cancel=*/nullptr);
}

StatusOr<std::vector<std::vector<ScoredNode>>> CloudWalker::AllPairs(
    size_t k, const QueryOptions& options, ThreadPool* pool) const {
  CW_RETURN_IF_ERROR(ValidateQueryOptions(options));
  return AllPairsInternal(k, options, pool, /*stats=*/nullptr,
                          /*cancel=*/nullptr);
}

StatusOr<std::vector<ScoredNode>> CloudWalker::PersonalizedPageRankTopK(
    NodeId q, size_t k, const QueryOptions& options) const {
  CW_RETURN_IF_ERROR(ValidateQuery(q, options));
  return PprTopK(q, k, options, /*stats=*/nullptr, /*cancel=*/nullptr);
}

StatusOr<std::vector<ScoredNode>> CloudWalker::Node2VecTopK(
    NodeId q, size_t k, const QueryOptions& options) const {
  CW_RETURN_IF_ERROR(ValidateQuery(q, options));
  return N2vTopK(q, k, options, /*stats=*/nullptr, /*cancel=*/nullptr);
}

}  // namespace cloudwalker
