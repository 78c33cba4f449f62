#include "run.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "core/cloudwalker.h"
#include "engine/parallel_walk.h"
#include "engine/walk_backend.h"
#include "inputs.h"
#include "net/remote_backend.h"
#include "ooc/ooc_backend.h"
#include "report.h"
#include "serve/query_service.h"
#include "trace.h"

namespace perfbench {

using namespace cloudwalker;

namespace {

// Paper query parameters (R' = 1000; c, T come from the index).
constexpr uint32_t kQueryWalkers = 1000;
// ooc_paged block budget: an absolute size, about half of the fixture's
// paged arrays, so shrinking them shows up as a higher hit rate.
constexpr uint64_t kOocBudgetBytes = 16ull << 20;
// Shard-worker processes of batch_uniform's net probe.
constexpr int kNetWorkers = 3;
// Set-up is repeated and its median reported.
constexpr int kSetupRepeats = 5;

// serve_zipf's open loop: a fixed ladder of offered rates (requests/s), a
// p99 latency limit, and the rung the search of the ladder starts from.
constexpr double kSloSeconds = 0.020;
constexpr double kLadder[] = {100,  120,  140,  170,  200,  240,  280,
                              340,  400,  480,  560,  670,  800,  950,
                              1130, 1350, 1600, 1900, 2260, 2690, 3200,
                              3800, 4500, 5400, 6400};
constexpr int kReferenceRung = 4;  // 200 requests/s
constexpr uint64_t kWarmupRequests = 1000;
// A rung whose generator sent late by more than half the SLO at p99 is
// invalid: the generator, not the service, set its latency.
constexpr double kMaxLagSeconds = kSloSeconds / 2;

// Answer check: every `stride`-th request of the measured stream, at most
// kMaxChecked of them.
constexpr size_t kMaxChecked = 64;
// Peak RSS is read when this many requests have been answered (or at the
// end of a loop that answers fewer), so a faster program, which answers
// more requests in the same time, is not charged for the extra work.
constexpr uint64_t kRssRequests = 2000;

// Requests replayed by the traced run, per workload.
uint64_t ReplayCount(const std::string& workload) {
  return workload == "ooc_paged" ? 6 : 60;
}

uint64_t CheckStride(const std::string& workload) {
  if (workload == "ooc_paged") return 2;
  if (workload == "serve_zipf") return 32;
  return 8;
}

QueryOptions PaperQueryOptions() {
  QueryOptions options;
  options.num_walkers = kQueryWalkers;
  return options;
}

int Nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

const char* KindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPair:
      return "pair";
    case QueryKind::kSourceTopK:
      return "topk";
    case QueryKind::kPersonalizedPageRank:
      return "ppr";
    case QueryKind::kNode2Vec:
      return "n2v";
    default:
      return "other";
  }
}

std::string Describe(uint64_t index, const QueryRequest& r) {
  return "request #" + std::to_string(index) + " " + KindName(r.kind) +
         "(" + std::to_string(r.a) +
         (r.kind == QueryKind::kPair ? "," + std::to_string(r.b) : "") + ")";
}

// ---------------------------------------------------------------------
// Shard worker processes (batch_uniform's net probe).

struct WorkerProcess {
  pid_t pid = -1;
  uint16_t port = 0;
};

StatusOr<WorkerProcess> StartWorker(const RunArgs& args, int shard) {
  const std::string port_file =
      args.out_dir + "/worker" + std::to_string(shard) + ".port";
  std::remove(port_file.c_str());
  // Everything the child needs is built before fork: it may only exec.
  const std::string snapshot_flag = "--snapshot=" + args.snapshot;
  const std::string port_flag = "--port-file=" + port_file;
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    // The worker dies with the run, even if the run is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    execl(args.self_exe.c_str(), args.self_exe.c_str(), "worker",
          snapshot_flag.c_str(), port_flag.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  WorkerProcess worker;
  worker.pid = pid;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port) {
      worker.port = static_cast<uint16_t>(port);
      return worker;
    }
    if (waitpid(pid, nullptr, WNOHANG) == pid) {
      return Status::Unavailable("shard worker exited during start-up");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
  return Status::Unavailable("shard worker did not publish its port");
}

void StopWorker(const WorkerProcess& worker) {
  kill(worker.pid, SIGTERM);
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(3);
  while (Clock::now() < deadline) {
    if (waitpid(worker.pid, nullptr, WNOHANG) == worker.pid) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  kill(worker.pid, SIGKILL);
  waitpid(worker.pid, nullptr, 0);
}

bool WorkerAlive(const WorkerProcess& worker) {
  return waitpid(worker.pid, nullptr, WNOHANG) == 0;
}

// Worker processes plus the engine distributed over them; stops the
// workers when destroyed.
class Cluster {
 public:
  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() {
    engine.reset();
    for (const WorkerProcess& w : workers) StopWorker(w);
  }

  const RemoteWalkBackend& remote() const {
    return *dynamic_cast<const RemoteWalkBackend*>(engine->walk_backend());
  }

  // Ping over the connections plus a liveness check of every process.
  Status Health() const {
    for (const WorkerProcess& w : workers) {
      if (!WorkerAlive(w)) {
        return Status::Unavailable("shard worker " + std::to_string(w.pid) +
                                   " exited");
      }
    }
    return remote().Ping();
  }

  std::vector<WorkerProcess> workers;
  std::shared_ptr<const CloudWalker> engine;
  double connect_s = 0.0;
};

StatusOr<std::unique_ptr<Cluster>> StartCluster(
    const RunArgs& args, const std::shared_ptr<const CloudWalker>& base) {
  auto cluster = std::make_unique<Cluster>();
  RemoteBackendOptions options;
  for (int shard = 0; shard < kNetWorkers; ++shard) {
    auto worker = StartWorker(args, shard);
    if (!worker.ok()) return worker.status();
    cluster->workers.push_back(*worker);
    options.workers.push_back(RemoteWorkerAddress{"127.0.0.1", worker->port});
  }
  const Clock::time_point start = Clock::now();
  auto engine = CloudWalker::Distribute(base, options);
  if (!engine.ok()) return engine.status();
  cluster->engine = *engine;
  cluster->connect_s = SecondsBetween(start, Clock::now());
  const Status health = cluster->Health();
  if (!health.ok()) return health;
  return cluster;
}

// ---------------------------------------------------------------------
// One served engine, as the workload configures it.

struct Served {
  std::shared_ptr<const CloudWalker> engine;
  std::unique_ptr<ThreadPool> pool;  // declared before service: outlives it
  std::unique_ptr<QueryService> service;
  ServeOptions serve_options;
  double open_s = 0.0;
  double setup_s = 0.0;
};

StatusOr<std::unique_ptr<Served>> SetUp(const RunArgs& args) {
  const std::string& w = args.workload;
  const int helpers = std::max(1, Nproc() - 1);
  auto served = std::make_unique<Served>();
  const Clock::time_point start = Clock::now();
  if (w == "ooc_paged") {
    OutOfCoreOptions options;
    options.budget_bytes = kOocBudgetBytes;
    auto engine = CloudWalker::OutOfCore(args.snapshot, options);
    if (!engine.ok()) return engine.status();
    served->engine = *engine;
  } else {
    auto engine = CloudWalker::Open(args.snapshot);
    if (!engine.ok()) return engine.status();
    served->engine = *engine;
  }
  served->open_s = SecondsBetween(start, Clock::now());

  ServeOptions& so = served->serve_options;
  so.query = PaperQueryOptions();
  if (w == "ooc_paged") {
    so.cache_capacity = 0;
    served->pool = std::make_unique<ThreadPool>(helpers);
  }
  served->service = std::make_unique<QueryService>(served->engine, so,
                                                   served->pool.get());
  served->setup_s = SecondsBetween(start, Clock::now());
  return served;
}

// ---------------------------------------------------------------------
// The workload loops.

struct Sample {
  uint64_t index = 0;
  double latency_s = 0.0;  // what the client sees
  double served_s = 0.0;   // the service's own admission-to-answer time
  double end_s = 0.0;      // completion, in seconds since the loop began
  bool ok = false;
  bool computed = false;   // ran a kernel (no cache hit, no dedup)
  uint64_t walk_steps = 0;
};

struct LoopResult {
  std::vector<Sample> samples;
  std::vector<double> lag_s;  // generator lateness / client think gaps
  std::map<uint64_t, QueryResponse> checked;
  double elapsed_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double peak_rss_mb = 0.0;
  std::vector<std::string> errors;
  ServeStats serve_stats;
  // serve_zipf only.
  double max_qps_at_slo = 0.0;  // interpolated to the SLO crossing
  double highest_passing_rung = 0.0;
  uint64_t invalid_rungs = 0;
  std::string ladder;  // "rate:p99:verdict ..." for the report
};

// Collects every answered request of a loop: its sample, the failures,
// and the fixed sample of answers kept for the check.
class Recorder {
 public:
  Recorder(LoopResult* out, uint64_t stride) : out_(out), stride_(stride) {}

  // Counts and may check every answer; only timed ones are latency samples.
  void Add(uint64_t index, const QueryRequest& request,
           const QueryResponse& response, double latency_s, double end_s,
           bool timed = true) {
    std::lock_guard<std::mutex> lock(mu_);
    if (timed) {
      Sample s;
      s.index = index;
      s.latency_s = response.ok() ? latency_s
                                  : std::numeric_limits<double>::infinity();
      s.served_s = response.latency_seconds;
      s.end_s = end_s;
      s.ok = response.ok();
      s.computed = !response.cache_hit && !response.deduped;
      s.walk_steps = response.stats.walk_steps;
      out_->samples.push_back(s);
    }
    if (++out_->attempted == kRssRequests) out_->peak_rss_mb = PeakRssMb();
    if (!response.ok()) {
      ++out_->failed;
      if (out_->errors.size() < 8) {
        out_->errors.push_back(Describe(index, request) + ": " +
                               response.status.ToString());
      }
    } else if (index % stride_ == 0 && out_->checked.size() < kMaxChecked) {
      out_->checked.emplace(index, response);
    }
  }

  void Lag(double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    out_->lag_s.push_back(seconds);
  }

 private:
  std::mutex mu_;
  LoopResult* out_;
  uint64_t stride_;
};

// Closed loop: `clients` threads, each sending its next request (from
// stream index `first` on) when the previous one completes, until
// `seconds` have passed or the stream's distinct sources run out.
void ClosedLoop(Served& served, const RequestStream& stream, uint64_t first,
                int clients, double seconds, Recorder* recorder,
                LoopResult* out) {
  std::atomic<uint64_t> next{first};
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto client = [&]() {
    Clock::time_point prev_end = Clock::now();
    while (Clock::now() < stop) {
      const uint64_t i = next.fetch_add(1);
      if (i >= stream.distinct_requests()) break;
      const QueryRequest request = stream.At(i);
      const Clock::time_point t0 = Clock::now();
      const QueryResponse response =
          served.pool ? served.service->Submit(request).Wait()
                      : served.service->Execute(request);
      const Clock::time_point t1 = Clock::now();
      recorder->Lag(SecondsBetween(prev_end, t0));
      recorder->Add(i, request, response, SecondsBetween(t0, t1),
                    SecondsBetween(start, t1));
      prev_end = t1;
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(client);
  client();
  for (std::thread& t : threads) t.join();
  for (const Sample& s : out->samples) {
    out->elapsed_s = std::max(out->elapsed_s, s.end_s);
  }
}

struct RungResult {
  double rate = 0.0;
  double p99_s = 0.0;
  bool valid = true;
  bool pass = false;
};

// One open-loop rung: Poisson arrivals at `rate` for `seconds` into
// `service`, starting at stream index `first`, every request timed from
// when it was due. Its answers are counted and checked but are not latency
// samples of the loop.
RungResult RunRung(QueryService& service, const RequestStream& stream,
                   uint64_t first, double rate, double seconds,
                   uint64_t arrival_seed, Recorder* recorder,
                   LoopResult* out, std::vector<double>* lags_out) {
  struct Pending {
    uint64_t index;
    QueryRequest request;
    double due_s;   // since the rung began
    double late_s;  // how late the generator sent it
    QueryFuture future;
  };
  std::vector<Pending> pending;
  pending.reserve(static_cast<size_t>(rate * seconds * 1.3) + 16);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  double t = 0.0;
  std::vector<double> lags;
  while (true) {
    const double u =
        static_cast<double>(Mix(arrival_seed, first + pending.size()) >> 11) *
        0x1.0p-53;
    t += -std::log1p(-u) / rate;
    if (t >= seconds) break;
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(t));
    // Sleep to just before the due time, then spin: a sleeping thread's
    // wake-up alone can be late by more than a millisecond.
    std::this_thread::sleep_until(due - std::chrono::microseconds(300));
    while (Clock::now() < due) {
    }
    const uint64_t i = first + pending.size();
    const QueryRequest request = stream.At(i);
    const double late = SecondsBetween(due, Clock::now());
    lags.push_back(late);
    pending.push_back(Pending{i, request, t, late, service.Submit(request)});
  }
  size_t backlog = 0;
  for (const Pending& p : pending) backlog += p.future.done() ? 0 : 1;

  RungResult rung;
  rung.rate = rate;
  std::vector<double> latencies;
  bool failed = false;
  for (const Pending& p : pending) {
    const QueryResponse response = p.future.Wait();
    const double latency = p.late_s + response.latency_seconds;
    recorder->Add(p.index, p.request, response, latency, p.due_s + latency,
                  /*timed=*/false);
    failed = failed || !response.ok();
    latencies.push_back(response.ok()
                            ? latency
                            : std::numeric_limits<double>::infinity());
  }
  rung.p99_s = Quantile(latencies, 0.99);
  rung.valid = Quantile(lags, 0.99) <= kMaxLagSeconds;
  // A growing backlog: more requests outstanding at the end of the rung
  // than the SLO lets the offered rate keep in the system.
  const bool backlog_ok =
      static_cast<double>(backlog) <= rate * kSloSeconds + 4.0;
  rung.pass = rung.valid && !failed && backlog_ok && rung.p99_s <= kSloSeconds;
  if (lags_out != nullptr) *lags_out = lags;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s%.0f:%.2fms:%s",
                out->ladder.empty() ? "" : " ", rate, rung.p99_s * 1e3,
                !rung.valid ? "invalid" : (rung.pass ? "pass" : "fail"));
  out->ladder += buf;
  out->invalid_rungs += rung.valid ? 0 : 1;
  return rung;
}

double RungSeconds(double rate) {
  return std::clamp(1200.0 / rate, 0.75, 1.5);
}

// serve_zipf: a closed loop of one client on the pool-less service, whose
// cache the stream's first kWarmupRequests requests warmed, gives the
// latency and throughput; then a search of the ladder of open-loop rates
// finds the highest rate that meets the SLO, starting at the reference
// rung and going up (or down, if it misses). Each rung runs on a fresh
// service over a pool of nproc - 1 threads, warmed the same way, so rungs
// differ only in rate, whatever order the search visits them in.
void ServeZipfLoop(Served& served, const RequestStream& stream,
                   uint64_t arrival_seed, double seconds, Recorder* recorder,
                   LoopResult* out) {
  std::vector<QueryRequest> warmup;
  for (uint64_t i = 0; i < kWarmupRequests; ++i) warmup.push_back(stream.At(i));
  served.service->ExecuteBatch(warmup);
  served.service->ResetStats();
  ClosedLoop(served, stream, kWarmupRequests, 1, seconds, recorder, out);
  out->serve_stats = served.service->Stats();

  ThreadPool pool(std::max(1, Nproc() - 1));
  auto rung_at = [&](int rung, std::vector<double>* lags) {
    QueryService service(served.engine, served.serve_options, &pool);
    service.ExecuteBatch(warmup);
    return RunRung(service, stream, kWarmupRequests, kLadder[rung],
                   RungSeconds(kLadder[rung]), arrival_seed, recorder, out,
                   lags);
  };
  // loadgen.lag_ms_p99 is the reference rung's lateness, not client gaps.
  const RungResult ref = rung_at(kReferenceRung, &out->lag_s);

  // Binary search of the ladder for the highest passing rung, assuming
  // p99 grows with the offered rate: lo passes (or is -1), hi fails (or is
  // one past the top).
  std::map<int, RungResult> measured{{kReferenceRung, ref}};
  int lo = ref.pass ? kReferenceRung : -1;
  int hi = ref.pass ? static_cast<int>(std::size(kLadder)) : kReferenceRung;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    const RungResult rung = rung_at(mid, nullptr);
    measured[mid] = rung;
    (rung.pass ? lo : hi) = mid;
  }
  if (lo >= 0) {
    const RungResult& last_pass = measured[lo];
    out->highest_passing_rung = last_pass.rate;
    out->max_qps_at_slo = last_pass.rate;
    // Refine between the last passing and first failing rung by
    // log-interpolating p99 to the SLO, so the figure is continuous.
    const auto fail = measured.find(hi);
    if (fail != measured.end() && fail->second.valid &&
        std::isfinite(fail->second.p99_s) &&
        fail->second.p99_s > last_pass.p99_s && last_pass.p99_s > 0.0) {
      const RungResult& first_fail = fail->second;
      const double f =
          std::clamp(std::log(kSloSeconds / last_pass.p99_s) /
                         std::log(first_fail.p99_s / last_pass.p99_s),
                     0.0, 1.0);
      out->max_qps_at_slo =
          last_pass.rate * std::pow(first_fail.rate / last_pass.rate, f);
    }
  }
}

// The end-to-end figures are medians over up to kMaxWindows equal windows
// of the closed loop (by completion time) that hold at least
// kMinWindowSamples answers each, so that a burst of outside load on the
// host moves them less than it moves whole-loop figures, and each window's
// p99 still has ten samples beyond it. A loop with fewer samples is one
// window.
constexpr size_t kMaxWindows = 5;
constexpr size_t kMinWindowSamples = 1000;

struct WindowedFigures {
  double qps = 0.0;  // completed OK requests per second
  double p50_s = 0.0;
  double tail_s = 0.0;
};

WindowedFigures Windowed(const std::vector<Sample>& samples, double elapsed_s,
                         double tail_q) {
  WindowedFigures out;
  if (samples.empty() || elapsed_s <= 0.0) return out;
  const size_t windows = std::clamp<size_t>(
      samples.size() / kMinWindowSamples, 1, kMaxWindows);
  const double width = elapsed_s / static_cast<double>(windows);
  std::vector<std::vector<double>> latencies(windows);
  std::vector<double> ok(windows);
  for (const Sample& s : samples) {
    const size_t k = std::min(windows - 1, static_cast<size_t>(s.end_s / width));
    latencies[k].push_back(s.latency_s);
    ok[k] += s.ok ? 1.0 : 0.0;
  }
  std::vector<double> qps, p50, tail;
  for (size_t k = 0; k < windows; ++k) {
    qps.push_back(ok[k] / width);
    p50.push_back(Quantile(latencies[k], 0.5));
    tail.push_back(Quantile(latencies[k], tail_q));
  }
  out.qps = Median(qps);
  out.p50_s = Median(p50);
  out.tail_s = Median(tail);
  return out;
}

// ---------------------------------------------------------------------
// The traced replay.

// The replayed requests: the first ReplayCount() of the measured stream
// plus the first request of any kind of the mix they lack, so every kind
// is traced.
std::vector<uint64_t> ReplayIndices(const std::string& workload,
                                    const RequestStream& stream,
                                    const StreamSpec& spec, uint64_t begin) {
  std::vector<uint64_t> indices;
  std::map<QueryKind, bool> seen;
  for (uint64_t i = begin; i < begin + ReplayCount(workload); ++i) {
    indices.push_back(i);
    seen[stream.At(i).kind] = true;
  }
  const std::pair<QueryKind, double> mix[] = {
      {QueryKind::kSourceTopK, spec.topk},
      {QueryKind::kPair, spec.pair},
      {QueryKind::kPersonalizedPageRank, spec.ppr},
      {QueryKind::kNode2Vec, spec.n2v}};
  for (const auto& [kind, share] : mix) {
    if (share <= 0.0 || seen[kind]) continue;
    uint64_t i = begin + ReplayCount(workload);
    while (stream.At(i).kind != kind) ++i;
    indices.push_back(i);
  }
  return indices;
}

// Everything the traced replay needs from the run.
struct ReplayInput {
  const RunArgs* args;
  Served* served;
  // The single-thread in-memory facade.
  std::shared_ptr<const CloudWalker> reference;
  const RequestStream* stream;
  std::vector<uint64_t> indices;
  const LoopResult* loop;
};

// Replays `in.indices` one at a time: through a fresh service of the
// workload's shape (serve.*), the plain facade (core.execute), the kernels
// with a timed walk backend (core.query / core.kernel / <layer>.walk /
// core.topk), and the same walk phases on a single-thread local backend
// (ref.local_walk) and on a ParallelWalkExecutor of nproc - 1 threads
// (engine.parallel_walk), both over the in-memory reference. Returns the
// number of replayed answers that disagree.
uint64_t TracedReplay(const ReplayInput& in, SpanRecorder* spans,
                      JsonOut* json, std::vector<std::string>* errors) {
  const std::string& w = in.args->workload;
  const QueryOptions options = PaperQueryOptions();
  QueryService replay_service(in.served->engine, in.served->serve_options,
                              in.served->pool.get());
  const std::shared_ptr<const CloudWalker> facade =
      replay_service.CurrentSnapshot()->walker;
  const LoopResult& loop = *in.loop;
  const LocalWalkBackend facade_local(facade->graph(), &facade->walk_context());
  const WalkBackend& inner = facade->walk_backend() != nullptr
                                 ? *facade->walk_backend()
                                 : facade_local;
  const std::string walk_name = w == "ooc_paged" ? "ooc.walk" : "engine.walk";
  TimedWalkBackend timed(inner, spans, walk_name);
  const LocalWalkBackend reference_local(in.reference->graph(),
                                         &in.reference->walk_context());
  const uint32_t num_steps = in.reference->index().params().num_steps;
  ParallelWalkOptions parallel_options;
  parallel_options.num_threads = std::max(1, Nproc() - 1);
  auto parallel = CloudWalker::Parallelize(in.reference, parallel_options);
  CW_CHECK_OK(parallel.status());
  const WalkBackend& parallel_walks = *(*parallel)->walk_backend();

  std::map<uint64_t, const Sample*> loop_by_index;
  for (const Sample& s : loop.samples) loop_by_index[s.index] = &s;
  uint64_t topk_push_ops = 0, topk_count = 0, local_steps = 0, mismatches = 0;
  for (size_t r = 0; r < in.indices.size(); ++r) {
    const uint64_t i = in.indices[r];
    const QueryRequest request = in.stream->At(i);
    const int64_t serve_span = spans->Begin("serve.request", i);
    const int64_t admit_span = spans->Begin("serve.admit", i);
    const QueryFuture future = replay_service.Submit(request);
    spans->End(admit_span);
    const QueryResponse via_service = future.Wait();
    spans->End(serve_span);

    QueryResponse via_facade;
    KernelAnswer via_kernels;
    auto plain = [&]() {
      const int64_t id = spans->Begin("core.execute", i);
      via_facade = facade->Execute(request.WithOptions(options));
      spans->End(id);
    };
    auto traced = [&]() {
      timed.set_request(i);
      via_kernels = ReplayKernels(*facade, timed, request, options, spans, i);
    };
    // Alternate the order so cache warmth favours neither side.
    if (r % 2 == 0) {
      plain();
      traced();
    } else {
      traced();
      plain();
    }
    if (!SameAnswer(via_facade, via_kernels) ||
        !SameAnswer(via_service, via_facade)) {
      ++mismatches;
      errors->push_back("traced replay disagrees with Execute: " +
                        Describe(i, request));
    }
    if (request.kind == QueryKind::kSourceTopK) {
      topk_push_ops += via_kernels.stats.push_ops;
      ++topk_count;
    }
    const int64_t local_span = spans->Begin("ref.local_walk", i);
    local_steps += RunWalkPhases(reference_local, request, options, num_steps);
    spans->End(local_span);
    const int64_t parallel_span = spans->Begin("engine.parallel_walk", i);
    RunWalkPhases(parallel_walks, request, options, num_steps);
    spans->End(parallel_span);
  }

  // Per-request sums by span name, then the derived figures.
  struct PerRequest {
    std::string kind;
    double admit = 0, execute = 0, query = 0, kernel = 0, walk = 0,
           topk = 0, local = 0, parallel = 0;
  };
  std::map<uint64_t, PerRequest> per;
  const std::vector<Span>& all = spans->spans();
  const std::vector<double> self = spans->SelfSeconds();
  double self_core = 0.0, self_walk = 0.0;
  for (size_t id = 0; id < all.size(); ++id) {
    const Span& s = all[id];
    PerRequest& p = per[s.request];
    p.kind = KindName(in.stream->At(s.request).kind);
    const double d = spans->Seconds(id);
    if (s.name == "serve.admit") p.admit += d;
    if (s.name == "core.execute") p.execute += d;
    if (s.name == "core.query") p.query += d;
    if (s.name == "core.kernel") p.kernel += d;
    if (s.name == "core.topk") p.topk += d;
    if (s.name == "ref.local_walk") p.local += d;
    if (s.name == "engine.parallel_walk") p.parallel += d;
    if (s.name == walk_name) {
      p.walk += d;
      self_walk += self[id];
    }
    if (s.name == "core.query" || s.name == "core.kernel" ||
        s.name == "core.topk") {
      self_core += self[id];
    }
  }
  std::map<std::string, std::vector<double>> execute_by_kind;
  std::map<std::string, double> walk_by_kind, query_by_kind, topk_by_kind;
  std::vector<double> admit, walk_per_req, overhead;
  double sum_execute = 0, sum_query = 0, sum_covered = 0, sum_walk = 0,
         sum_local = 0, sum_parallel = 0, sum_topk_kinds = 0, sum_topk = 0;
  for (const auto& [index, p] : per) {
    execute_by_kind[p.kind].push_back(p.execute);
    walk_by_kind[p.kind] += p.walk;
    query_by_kind[p.kind] += p.query;
    topk_by_kind[p.kind] += p.topk;
    admit.push_back(p.admit);
    walk_per_req.push_back(p.walk);
    sum_execute += p.execute;
    sum_query += p.query;
    sum_covered += p.kernel + p.topk;
    sum_walk += p.walk;
    sum_local += p.local;
    sum_parallel += p.parallel;
    if (p.kind != "pair") {
      sum_topk_kinds += p.query;
      sum_topk += p.topk;
    }
    const auto it = loop_by_index.find(index);
    if (it != loop_by_index.end() && it->second->ok && it->second->computed) {
      overhead.push_back(it->second->served_s - p.execute);
    }
  }
  for (const char* kind : {"pair", "topk", "ppr", "n2v"}) {
    if (execute_by_kind.count(kind) == 0) continue;
    json->Num(std::string("core.execute_ms_p50.") + kind,
              Median(execute_by_kind[kind]) * 1e3);
    json->Num(std::string("engine.walk_share.") + kind,
              Ratio(walk_by_kind[kind], query_by_kind[kind]));
  }
  const double n = static_cast<double>(in.indices.size());
  json->Num("core.combine_share.topk",
            Ratio(query_by_kind["topk"] - walk_by_kind["topk"] -
                      topk_by_kind["topk"],
                  query_by_kind["topk"]));
  json->Num("core.push_ops_per_topk",
            Ratio(static_cast<double>(topk_push_ops), topk_count));
  json->Num("core.topk_share", Ratio(sum_topk, sum_topk_kinds));
  json->Num("engine.walk_ms_p50", Median(walk_per_req) * 1e3);
  json->Num("engine.walk_msteps_per_s",
            Ratio(static_cast<double>(local_steps), sum_local) / 1e6);
  json->Num("engine.parallel_efficiency",
            Ratio(sum_local, parallel_options.num_threads * sum_parallel));
  json->Num("ooc.walk_share",
            w == "ooc_paged" ? Ratio(sum_walk, sum_query) : 0.0);
  json->Num("serve.admit_us_p50", Median(admit) * 1e6);
  json->Num("serve.overhead_ms_p99", Quantile(overhead, 0.99) * 1e3);
  json->Num("trace.coverage", Ratio(sum_covered, sum_execute));
  json->Num("trace.overhead_frac", Ratio(sum_query - sum_execute, sum_execute));
  json->Num("trace.self_ms_per_req.core", Ratio(self_core, n) * 1e3);
  json->Num("trace.self_ms_per_req.walk", Ratio(self_walk, n) * 1e3);
  return mismatches;
}

// batch_uniform's net probe: the replayed requests again, through the
// same snapshot distributed over kNetWorkers shard-worker processes on
// loopback (net.execute), with their walk phases alone timed on the
// remote backend (net.walk). Returns the number of answers that differ
// from the single-thread facade, or an error when a worker fails.
StatusOr<uint64_t> NetProbe(const ReplayInput& in, SpanRecorder* spans,
                            JsonOut* json, std::vector<std::string>* errors) {
  const Clock::time_point start = Clock::now();
  auto cluster = StartCluster(*in.args, in.served->engine);
  if (!cluster.ok()) return cluster.status();
  json->Num("net.start_s", SecondsBetween(start, Clock::now()));
  json->Num("net.connect_s", (*cluster)->connect_s);
  const RemoteWalkBackend& remote = (*cluster)->remote();
  const QueryOptions options = PaperQueryOptions();
  const uint32_t num_steps = in.reference->index().params().num_steps;
  const RemoteExchangeStats before = remote.exchange_stats();
  uint64_t mismatches = 0;
  std::vector<double> walk_ms;
  for (const uint64_t i : in.indices) {
    const QueryRequest request = in.stream->At(i).WithOptions(options);
    const int64_t id = spans->Begin("net.execute", i);
    const QueryResponse answer = (*cluster)->engine->Execute(request);
    spans->End(id);
    if (!SameAnswer(answer, in.reference->Execute(request))) {
      ++mismatches;
      errors->push_back("net answer differs from the single-node facade: " +
                        Describe(i, request));
    }
    const int64_t walk = spans->Begin("net.walk", i);
    RunWalkPhases(remote, request, options, num_steps);
    spans->End(walk);
    walk_ms.push_back(spans->Seconds(walk) * 1e3);
  }
  const Status health = (*cluster)->Health();
  if (!health.ok()) return health;
  const RemoteExchangeStats after = remote.exchange_stats();
  // Both passes (Execute and the bare walk phases) exchange supersteps.
  const double requests = 2.0 * static_cast<double>(in.indices.size());
  json->Num("net.walk_ms_p50", Median(walk_ms));
  json->Num("net.supersteps_per_req",
            Ratio(after.supersteps - before.supersteps, requests));
  json->Num("net.bytes_per_req",
            Ratio(after.bytes_sent + after.bytes_received - before.bytes_sent -
                      before.bytes_received,
                  requests));
  json->Num("net.replays", static_cast<double>(after.replays - before.replays));
  json->Num("net.reconnects",
            static_cast<double>(after.reconnects - before.reconnects));
  return mismatches;
}

}  // namespace

int RunWorkload(const RunArgs& args) {
  signal(SIGPIPE, SIG_IGN);
  JsonOut json;
  StreamSpec spec;
  if (!StreamSpecFor(args.workload, &spec)) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  const std::string& w = args.workload;

  // Set-up, repeated: each repetition opens the artifact and builds the
  // service from scratch; the last one serves the workload.
  std::vector<double> setup_s, open_s;
  std::unique_ptr<Served> served;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    served.reset();
    auto s = SetUp(args);
    if (!s.ok()) {
      std::cerr << "set-up failed: " << s.status().ToString() << "\n";
      return 1;
    }
    served = std::move(*s);
    setup_s.push_back(served->setup_s);
    open_s.push_back(served->open_s);
  }

  const RequestStream stream(spec, QueryableNodes(served->engine->graph()),
                             StreamSeed(args.seed, w));
  LoopResult loop;
  Recorder recorder(&loop, CheckStride(w));
  const uint64_t measured_begin = w == "serve_zipf" ? kWarmupRequests : 0;

  const OutOfCoreWalkBackend* ooc = served->engine->ooc_backend().get();
  const BlockCacheCounters ooc_before =
      ooc != nullptr ? ooc->cache_counters() : BlockCacheCounters{};
  if (w == "serve_zipf") {
    ServeZipfLoop(*served, stream, Mix(args.seed, NameHash("arrivals")),
                  args.seconds, &recorder, &loop);
  } else {
    served->service->ResetStats();
    const int clients = w == "ooc_paged" ? std::max(1, Nproc() - 1) : 1;
    ClosedLoop(*served, stream, 0, clients, args.seconds, &recorder, &loop);
    loop.serve_stats = served->service->Stats();
  }
  if (loop.peak_rss_mb == 0.0) loop.peak_rss_mb = PeakRssMb();

  // Answer check: the fixed sample against the single-thread in-memory
  // facade, bit for bit.
  const QueryOptions options = PaperQueryOptions();
  auto reference = CloudWalker::Open(args.snapshot);
  if (!reference.ok()) {
    std::cerr << "reference open failed: " << reference.status().ToString()
              << "\n";
    return 1;
  }
  uint64_t mismatches = 0;
  for (const auto& [index, response] : loop.checked) {
    const QueryRequest request = stream.At(index);
    if (!SameAnswer(response,
                    (*reference)->Execute(request.WithOptions(options)))) {
      ++mismatches;
      loop.errors.push_back("wrong answer: " + Describe(index, request));
    }
  }
  loop.failed += mismatches;

  // End-to-end figures.
  uint64_t steps = 0;
  for (const Sample& s : loop.samples) steps += s.walk_steps;
  const double tail_q = w == "ooc_paged" ? 0.90 : 0.99;
  const WindowedFigures figures =
      Windowed(loop.samples, loop.elapsed_s, tail_q);
  json.Num("setup_s", Median(setup_s));
  json.Num("qps", figures.qps);
  json.Num("p50_ms", figures.p50_s * 1e3);
  json.Num("tail_ms", figures.tail_s * 1e3);
  json.Num("peak_rss_mb", loop.peak_rss_mb);
  json.Num("samples", static_cast<double>(loop.samples.size()));
  json.Num("attempted", static_cast<double>(loop.attempted));
  json.Num("checked", static_cast<double>(loop.checked.size()));
  json.Num("mismatches", static_cast<double>(mismatches));
  json.Num("loop_s", loop.elapsed_s);
  if (w == "serve_zipf") {
    json.Num("max_qps_at_slo", loop.max_qps_at_slo);
    json.Num("max_qps_at_slo.rung", loop.highest_passing_rung);
    json.Num("reference_rate", kLadder[kReferenceRung]);
    json.Num("loadgen.invalid_rungs", static_cast<double>(loop.invalid_rungs));
    json.Str("ladder", loop.ladder);
  }
  json.Num("pool_threads", served->pool ? served->pool->num_threads() : 0);
  json.Num("walk_threads", served->serve_options.walk_threads);
  json.Num("query_walkers", kQueryWalkers);
  json.Num("ooc_budget_bytes", ooc != nullptr ? kOocBudgetBytes : 0);
  json.Str("stream_hash", Hex(stream.Hash(4096)));

  // Per-layer counters of the loop, read from the library's own stats.
  const ServeStats& ss = loop.serve_stats;
  const double served_reqs = static_cast<double>(ss.total_queries());
  json.Num("serve.hit_rate", ss.CacheHitRate());
  json.Num("serve.dedup_frac", Ratio(ss.dedup_shared, served_reqs));
  json.Num("serve.kernel_runs_per_req", Ratio(ss.computed, served_reqs));
  json.Num("serve.evictions_per_req", Ratio(ss.cache_evictions, served_reqs));
  json.Num("loadgen.lag_ms_p99", Quantile(loop.lag_s, 0.99) * 1e3);
  json.Num("snapshot.open_s", Median(open_s));

  const double done = static_cast<double>(loop.samples.size());
  BlockCacheCounters paged{};
  if (ooc != nullptr) {
    const BlockCacheCounters after = ooc->cache_counters();
    paged.hits = after.hits - ooc_before.hits;
    paged.misses = after.misses - ooc_before.misses;
    paged.evictions = after.evictions - ooc_before.evictions;
    paged.bytes_read = after.bytes_read - ooc_before.bytes_read;
    paged.peak_bytes_resident = after.peak_bytes_resident;
  }
  json.Num("ooc.hit_rate", Ratio(paged.hits, paged.hits + paged.misses));
  json.Num("ooc.misses_per_req", Ratio(paged.misses, done));
  json.Num("ooc.evictions_per_req", Ratio(paged.evictions, done));
  json.Num("ooc.bytes_read_per_step", Ratio(paged.bytes_read, steps));
  json.Num("ooc.peak_resident_mb", paged.peak_bytes_resident / 1048576.0);

  if (args.trace) {
    const ReplayInput in{&args,
                         served.get(),
                         *reference,
                         &stream,
                         ReplayIndices(w, stream, spec, measured_begin),
                         &loop};
    SpanRecorder spans;
    uint64_t trace_mismatches = TracedReplay(in, &spans, &json, &loop.errors);
    if (w == "batch_uniform") {
      auto net = NetProbe(in, &spans, &json, &loop.errors);
      if (!net.ok()) {
        std::cerr << "net probe failed: " << net.status().ToString() << "\n";
        return 1;
      }
      trace_mismatches += *net;
    } else {
      for (const char* name : {"net.supersteps_per_req", "net.bytes_per_req",
                               "net.replays", "net.reconnects"}) {
        json.Num(name, 0.0);
      }
    }
    loop.failed += trace_mismatches;
    json.Num("trace.mismatches", static_cast<double>(trace_mismatches));
    json.Num("trace.requests", static_cast<double>(in.indices.size()));
    const std::string span_path = args.out_dir + "/spans.jsonl";
    if (!spans.Write(span_path)) {
      loop.errors.push_back("cannot write " + span_path);
    }
    json.Str("spans", span_path);
  }
  json.Num("failed", static_cast<double>(loop.failed));

  for (const std::string& e : loop.errors) json.Error(e);
  std::cout << json.Render() << std::endl;
  return 0;
}

}  // namespace perfbench
