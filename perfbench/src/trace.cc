#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/queries.h"

namespace perfbench {

using namespace cloudwalker;

namespace {

double Clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

WalkConfig ConfigFor(const QueryOptions& options, uint32_t num_steps) {
  WalkConfig cfg;
  cfg.num_steps = num_steps;
  cfg.num_walkers = options.num_walkers;
  cfg.dangling = options.dangling;
  cfg.seed = options.seed;
  return cfg;
}

// RAII span: ends when it leaves scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name,
             uint64_t request)
      : recorder_(recorder), id_(recorder->Begin(name, request)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

}  // namespace

int64_t SpanRecorder::Begin(const std::string& name, uint64_t request) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int64_t id) {
  spans_[id].end = Clock::now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> SpanRecorder::SelfSeconds() const {
  // Children of one parent never overlap (single-threaded, stack-nested),
  // so the covered part is the sum of their durations.
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = Seconds(i);
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) self[spans_[i].parent] -= Seconds(i);
  }
  for (double& s : self) s = std::max(s, 0.0);
  return self;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %lld, \"request\": %llu}\n",
                 i, s.name.c_str(), SecondsBetween(origin, s.start) * 1e6,
                 SecondsBetween(origin, s.end) * 1e6,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

WalkDistributions TimedWalkBackend::SimRankLevels(NodeId source,
                                                  const WalkConfig& config,
                                                  WalkStats* stats) const {
  ScopedSpan span(recorder_, name_, request_);
  return inner_.SimRankLevels(source, config, stats);
}

SparseVector TimedWalkBackend::PprEndpoints(NodeId source,
                                            const WalkConfig& config,
                                            const PprParams& params,
                                            WalkStats* stats) const {
  ScopedSpan span(recorder_, name_, request_);
  return inner_.PprEndpoints(source, config, params, stats);
}

WalkDistributions TimedWalkBackend::Node2VecLevels(
    NodeId source, const WalkConfig& config, const Node2VecParams& params,
    WalkStats* stats) const {
  ScopedSpan span(recorder_, name_, request_);
  return inner_.Node2VecLevels(source, config, params, stats);
}

KernelAnswer ReplayKernels(const CloudWalker& cw, const WalkBackend& backend,
                           const QueryRequest& request,
                           const QueryOptions& options,
                           SpanRecorder* recorder, uint64_t request_id) {
  KernelAnswer answer;
  const Graph& graph = cw.graph();
  const DiagonalIndex& index = cw.index();
  const WalkContext* context = &cw.walk_context();
  ScopedSpan root(recorder, "core.query", request_id);
  SparseVector scores;
  {
    ScopedSpan kernel(recorder, "core.kernel", request_id);
    switch (request.kind) {
      case QueryKind::kPair:
        answer.score = SinglePairQuery(graph, index, request.a, request.b,
                                       options, &answer.stats, nullptr,
                                       context, nullptr, &backend);
        break;
      case QueryKind::kSourceTopK:
        scores = SingleSourceQuery(graph, index, request.a, options,
                                   &answer.stats, nullptr, context, nullptr,
                                   &backend);
        break;
      case QueryKind::kPersonalizedPageRank:
        scores = PersonalizedPageRankQuery(graph, index, request.a, options,
                                           &answer.stats, nullptr, context,
                                           nullptr, &backend);
        break;
      case QueryKind::kNode2Vec:
        scores = Node2VecVisitQuery(graph, index, request.a, options,
                                    &answer.stats, nullptr, context, nullptr,
                                    &backend);
        break;
      default:
        answer.status = Status::Unimplemented("kind not in any workload");
        return answer;
    }
  }
  answer.status = backend.TakeError();
  if (!answer.status.ok()) return answer;
  if (request.kind == QueryKind::kPair) {
    answer.score = Clamp01(answer.score);
    return answer;
  }
  {
    ScopedSpan topk(recorder, "core.topk", request_id);
    answer.topk = TopKFromSparse(scores, request.a, request.k);
  }
  if (request.kind == QueryKind::kSourceTopK) {
    for (ScoredNode& s : answer.topk) s.score = Clamp01(s.score);
  }
  return answer;
}

bool SameAnswer(const QueryResponse& response, const KernelAnswer& answer) {
  if (!response.ok() || !answer.status.ok()) return false;
  if (response.kind == QueryKind::kPair) {
    return response.score() == answer.score;
  }
  return response.topk() != nullptr && *response.topk() == answer.topk;
}

bool SameAnswer(const QueryResponse& a, const QueryResponse& b) {
  if (!a.ok() || !b.ok() || a.kind != b.kind) return false;
  if (a.kind == QueryKind::kPair) return a.score() == b.score();
  return a.topk() != nullptr && b.topk() != nullptr && *a.topk() == *b.topk();
}

uint64_t RunWalkPhases(const WalkBackend& backend, const QueryRequest& request,
                       const QueryOptions& options, uint32_t num_steps) {
  const WalkConfig cfg = ConfigFor(options, num_steps);
  WalkStats stats;
  switch (request.kind) {
    case QueryKind::kPair:
      backend.SimRankLevels(request.a, cfg, &stats);
      backend.SimRankLevels(request.b, cfg, &stats);
      break;
    case QueryKind::kSourceTopK:
      backend.SimRankLevels(request.a, cfg, &stats);
      break;
    case QueryKind::kPersonalizedPageRank: {
      PprParams params;
      params.alpha = options.ppr_alpha;
      backend.PprEndpoints(request.a, cfg, params, &stats);
      break;
    }
    case QueryKind::kNode2Vec: {
      Node2VecParams params;
      params.return_p = options.n2v_return_p;
      params.in_out_q = options.n2v_in_out_q;
      backend.Node2VecLevels(request.a, cfg, params, &stats);
      break;
    }
    default:
      break;
  }
  return stats.steps;
}

}  // namespace perfbench
