// QueryService — the concurrent query-serving layer (DESIGN.md section 6).
//
// A QueryService serves unified typed QueryRequests (core/request.h) on a
// ThreadPool through an asynchronous, future-based core, over *versioned,
// hot-swappable* engine snapshots (DESIGN.md section 9):
//
//   auto cw = CloudWalker::Open("web.cwk");  // or Build(std::move(graph))
//   ThreadPool pool;
//   QueryService service(*cw, ServeOptions{}, &pool);
//   QueryFuture f = service.Submit(          // async: admit + enqueue
//       QueryRequest::SourceTopK(42, 10).WithTimeout(0.050));
//   QueryResponse r = f.Wait();              // block for this answer
//   auto batch = service.ExecuteBatch(requests);   // many, parallel
//   ServeStats s = service.Stats();                // p50/p95/p99, QPS
//   ...
//   auto v2 = CloudWalker::Open("web-v2.cwk");
//   service.Publish(*v2);      // atomic swap; zero dropped requests
//
// Hot swap: every request *pins* the current snapshot entry at admission
// (one shared_ptr copy — RCU by refcount). A Publish() mid-stream routes
// new admissions to the new version while in-flight walks finish on the
// version they pinned; the last pin out the door releases the old engine
// (and unmaps its snapshot). The result cache and in-flight dedup are
// keyed by the pinned entry's *epoch*, so a swap can never serve one
// version's scores for another and two versions never dedup together.
//
// Submit() performs *admission*: the request's effective options are
// validated once (ValidateQueryOptions — same function, same messages as
// the facade and the CLI), its deadline is armed on the future's
// CancelToken, and the bounded in-flight queue is charged. A full queue
// rejects immediately with kResourceExhausted instead of buffering
// without bound; an armed deadline is checked at admission, when a worker
// picks the request up, and cooperatively between walk blocks inside the
// kernel, so an abandoned request stops consuming CPU. QueryFuture::
// Cancel() requests the same cooperative stop explicitly. Stopped
// requests complete with kDeadlineExceeded / kCancelled and never poison
// the cache (only OK answers are inserted).
//
// Three mechanisms make it serve-fast without touching the kernels:
//   1. a sharded LRU cache over per-source top-k answers (kSourceTopK,
//      kPersonalizedPageRank, kNode2Vec — every kind whose answer is a
//      (source, k) top-k list), keyed by (snapshot epoch, kind, interned
//      options id, source, k) so neither per-request option overrides nor
//      engine versions nor query kinds can ever share an entry,
//   2. in-flight deduplication: concurrent identical top-k requests are
//      computed once and fanned out to every waiter,
//   3. wait-free latency/throughput accounting (ServeStats); latencies
//      are measured from admission for every requester, dedup waiters
//      included.
// Kernel runs themselves go through the wrapped CloudWalker's walk
// backend, by default the batched prefetching walk kernel (DESIGN.md
// section 8) — cache misses pay the fast kernel, not the scalar one.
//
// Determinism contract: a request's answer depends only on (effective
// options, request fields), both folded into the cache key — so every
// response is bit-identical to the equivalent direct CloudWalker call,
// regardless of thread count, cache state, or request interleaving.
//
// Legacy blocking API: Execute / Pair / SourceTopK / ExecuteBatch are
// thin shims over Submit(...).Wait() (with backpressure instead of
// rejection, so a replayed batch always completes), preserved for callers
// that predate the async core.

#ifndef CLOUDWALKER_SERVE_QUERY_SERVICE_H_
#define CLOUDWALKER_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/threading.h"
#include "common/timer.h"
#include "core/cloudwalker.h"
#include "core/request.h"
#include "serve/lru_cache.h"
#include "serve/snapshot_registry.h"
#include "serve/stats.h"

namespace cloudwalker {

/// Waitable handle to one submitted request, backed by shared completion
/// state. Copyable (copies share the same underlying request); a
/// default-constructed future is invalid. The future stays usable after
/// the service that issued it is destroyed (the service drains first).
class QueryFuture {
 public:
  QueryFuture() = default;

  /// False only for default-constructed futures.
  bool valid() const { return state_ != nullptr; }

  /// True once the response has been published.
  bool done() const;

  /// Blocks until the response is published, then returns it (repeatable;
  /// every call returns the same answer).
  QueryResponse Wait() const;

  /// Waits up to `seconds`; true when the response became available.
  bool WaitFor(double seconds) const;

  /// Requests cooperative cancellation: a queued request completes with
  /// kCancelled without running a kernel, a running one stops at its next
  /// checkpoint. A request that already completed is unaffected.
  void Cancel() const;

 private:
  friend class QueryService;

  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    QueryResponse response;
    CancelToken cancel;  // armed with the deadline at admission
    WallTimer admitted;  // latency is measured from admission for everyone
  };

  explicit QueryFuture(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Waits for every future and returns the responses aligned by index.
/// Invalid futures yield a default response with an Internal status.
std::vector<QueryResponse> WhenAll(const std::vector<QueryFuture>& futures);

/// Serving-layer configuration. `query` holds the default QueryOptions;
/// requests may override them per call — the override is folded into the
/// result-cache key, so heterogeneous options keep the one-answer-per-key
/// contract (by design: one (key) = one reproducible answer).
struct ServeOptions {
  /// Max resident entries in the top-k result cache; 0 disables caching.
  size_t cache_capacity = 1 << 14;
  /// Lock shards in the cache (clamped to [1, cache_capacity]).
  int cache_shards = 8;
  /// Compute concurrent identical top-k requests once, fanning the
  /// answer out to every waiter.
  bool dedup_in_flight = true;
  /// Admission control: max requests admitted but not yet completed.
  /// Submit() rejects with kResourceExhausted beyond this; the blocking
  /// shims apply backpressure instead. 0 = unbounded.
  size_t max_queue_depth = 4096;
  /// Walk-phase threads per query (engine/parallel_walk.h, DESIGN.md
  /// section 12): > 1 re-backs every published engine that has no walk
  /// backend of its own with a CloudWalker::Parallelize wrapper of that
  /// many threads — bit-identical answers, so cache keys and dedup are
  /// unaffected. 0 or 1 serves walks single-threaded; engines already
  /// carrying a backend (e.g. sharded ones) pass through untouched.
  int walk_threads = 0;
  /// Out-of-core budget in MiB for the snapshot (re)opens the serving
  /// front end performs (the CLI serve command and its SIGHUP reload
  /// path): > 0 opens snapshots with CloudWalker::OutOfCore under this
  /// block-cache budget instead of the mmap-resident Open(), so a server
  /// can host an artifact larger than RAM (DESIGN.md section 14). The
  /// service itself serves whichever engine is published; the knob lives
  /// here so reloads reproduce the startup engine shape. Exclusive with
  /// walk_threads (an out-of-core engine carries its own backend).
  uint64_t ooc_budget_mb = 0;
  /// Default query options; per-request overrides take precedence.
  QueryOptions query;
};

/// Thread-safe serving facade over versioned immutable CloudWalker
/// snapshots. All methods may be called from any thread.
class QueryService {
 public:
  /// Serves `cloudwalker` as version 1 of the internal registry. `pool`
  /// (borrowed, may be null for synchronous execution) runs submitted
  /// requests; with a null pool, Submit() executes inline before
  /// returning an already-completed future.
  QueryService(std::shared_ptr<const CloudWalker> cloudwalker,
               const ServeOptions& options = {}, ThreadPool* pool = nullptr);

  /// Legacy borrowing constructor: `cloudwalker` must outlive the service
  /// (and stays version 1 unless a successor is published).
  QueryService(const CloudWalker* cloudwalker,
               const ServeOptions& options = {}, ThreadPool* pool = nullptr);

  /// Atomically publishes `walker` as the new current version (label =
  /// previous max + 1) and returns its epoch. In-flight requests finish on
  /// the version they pinned at admission; every request admitted after
  /// this returns executes — and caches — under the new version. The old
  /// version stays resident in the registry (for Retire() or rollback
  /// re-publication) but receives no new traffic.
  StatusOr<uint64_t> Publish(std::shared_ptr<const CloudWalker> walker);

  /// The engine versions behind this service: Publish(version, ...) /
  /// Retire(version) here for explicit version management.
  SnapshotRegistry& registry() { return registry_; }

  /// The entry new admissions are currently routed to (never null).
  std::shared_ptr<const SnapshotRegistry::Entry> CurrentSnapshot() const {
    return registry_.Current();
  }

  /// Blocks until every admitted request has completed.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits `request` and returns its future. Admission validates the
  /// effective options, arms the deadline, and charges the bounded
  /// queue; a rejected or invalid request returns an already-completed
  /// future carrying the error. A top-k request whose answer is already
  /// resident is served inline on the calling thread — a cache hit needs
  /// no queue slot and no worker, so warm traffic never touches the
  /// admission lock.
  QueryFuture Submit(const QueryRequest& request);

  /// Blocking shim: Submit + Wait, with backpressure (waits for queue
  /// space instead of rejecting).
  QueryResponse Execute(const QueryRequest& request);

  /// Legacy blocking shims over Execute().
  QueryResponse Pair(NodeId i, NodeId j);
  QueryResponse SourceTopK(NodeId source, uint32_t k);

  /// Executes a mixed batch on the pool (one request per work unit, so
  /// identical concurrent sources can dedup); responses align with
  /// `requests` by index. Applies backpressure, never rejects. Serial
  /// when the pool is null.
  std::vector<QueryResponse> ExecuteBatch(
      const std::vector<QueryRequest>& requests);

  /// Aggregate metrics since construction / the last ResetStats().
  ServeStats Stats() const;

  /// Zeroes counters, the latency histogram, and the QPS window (cached
  /// results stay resident).
  void ResetStats();

  /// The effective serving configuration.
  const ServeOptions& options() const { return options_; }

 private:
  using State = QueryFuture::State;
  using Snapshot = SnapshotRegistry::Entry;
  using SnapshotPtr = std::shared_ptr<const Snapshot>;

  // Shared completion state for one in-flight top-k computation.
  struct InFlight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status;
    TopKPtr result;
  };

  // InternOptions returns this once kMaxInternedOptions distinct option
  // sets exist; such requests still answer correctly, just uncached and
  // undeduped (no id means no exact key).
  static constexpr uint32_t kUncachedOptionsId = 0xffffffffu;
  // Bound on distinct interned option sets (memory and scan cap; real
  // traffic uses a handful).
  static constexpr size_t kMaxInternedOptions = 4096;

  // Admission: pin the current snapshot, validate, arm deadline, serve
  // resident cache hits inline, charge the queue, dispatch.
  QueryFuture SubmitInternal(const QueryRequest& request, bool block_on_full);

  // Executes one admitted request on the current thread, against the
  // snapshot it pinned at admission.
  void RunTask(const std::shared_ptr<State>& state,
               const QueryRequest& request, const SnapshotPtr& snapshot);

  // Computes (or joins) a top-k answer via cache + dedup, keyed under the
  // pinned snapshot's epoch.
  void AnswerTopK(const QueryRequest& request, const SnapshotPtr& snapshot,
                  const CancelToken* cancel, QueryResponse* response);

  // Stamps admission-based latency, bumps counters, publishes the
  // response, and wakes waiters.
  void Publish(const std::shared_ptr<State>& state, QueryResponse response);

  // Maps an options set to its stable small id, packed into cache/dedup
  // keys. Lock-free for the service defaults (id 0); overrides take
  // intern_mu_ and an O(1) hash lookup. Returns kUncachedOptionsId once
  // the table is full.
  uint32_t InternOptions(const QueryOptions& options);

  // Versioned engines; admissions pin registry_.Current() by shared_ptr.
  SnapshotRegistry registry_;
  ServeOptions options_;
  ThreadPool* pool_;
  std::unique_ptr<ShardedLruCache> cache_;  // null when caching is off

  // Admission bookkeeping: requests admitted but not yet published.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  size_t in_flight_ = 0;

  // Interned per-request option overrides: one entry per distinct option
  // set ever submitted (capped at kMaxInternedOptions), plus a hash
  // index so lookups stay O(1) as the table grows.
  mutable std::mutex intern_mu_;
  std::vector<QueryOptions> interned_options_;
  std::unordered_map<uint64_t, std::vector<uint32_t>> intern_index_;

  std::mutex inflight_mu_;
  std::unordered_map<CacheKey, std::shared_ptr<InFlight>, CacheKeyHash>
      inflight_;

  LatencyHistogram latencies_;
  mutable std::mutex stats_mu_;  // guards window_ and cache_baseline_
  WallTimer window_;             // QPS window start
  std::atomic<uint64_t> pair_queries_{0};
  std::atomic<uint64_t> source_queries_{0};
  std::atomic<uint64_t> topk_queries_{0};
  std::atomic<uint64_t> all_pairs_queries_{0};
  std::atomic<uint64_t> ppr_queries_{0};
  std::atomic<uint64_t> n2v_queries_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> computed_{0};
  std::atomic<uint64_t> dedup_shared_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> cancelled_{0};
  ShardedLruCache::Counters cache_baseline_;  // counters at last ResetStats
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_SERVE_QUERY_SERVICE_H_
