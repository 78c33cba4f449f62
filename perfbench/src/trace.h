// Benchmark-side tracing: spans recorded around calls into the library's
// public functions (the program itself carries no tracing). A span is
// (name, start, end, parent, request id); spans stay in memory and are
// written out once, when the traced replay ends. The layer of a span is
// its name up to the first '.'.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/cloudwalker.h"
#include "engine/walk_backend.h"
#include "report.h"

namespace perfbench {

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int64_t parent = -1;  // index into the recorder's spans, -1 for a root
  uint64_t request = 0;
};

/// Single-threaded span recorder: Begin/End nest like a call stack.
class SpanRecorder {
 public:
  int64_t Begin(const std::string& name, uint64_t request);
  void End(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  double Seconds(int64_t id) const {
    return SecondsBetween(spans_[id].start, spans_[id].end);
  }

  /// Self time of every span: its duration minus the part of it that its
  /// direct children cover.
  std::vector<double> SelfSeconds() const;

  /// Writes one JSON object per span (times in microseconds from the
  /// first span). Returns false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// WalkBackend decorator: forwards every walk phase to `inner` inside a
/// span named `span_name`, so a kernel's walk phase is timed apart from
/// its combine.
class TimedWalkBackend final : public cloudwalker::WalkBackend {
 public:
  TimedWalkBackend(const cloudwalker::WalkBackend& inner,
                   SpanRecorder* recorder, std::string span_name)
      : inner_(inner), recorder_(recorder), name_(std::move(span_name)) {}

  void set_request(uint64_t request) { request_ = request; }

  cloudwalker::WalkDistributions SimRankLevels(
      cloudwalker::NodeId source, const cloudwalker::WalkConfig& config,
      cloudwalker::WalkStats* stats) const override;
  cloudwalker::SparseVector PprEndpoints(
      cloudwalker::NodeId source, const cloudwalker::WalkConfig& config,
      const cloudwalker::PprParams& params,
      cloudwalker::WalkStats* stats) const override;
  cloudwalker::WalkDistributions Node2VecLevels(
      cloudwalker::NodeId source, const cloudwalker::WalkConfig& config,
      const cloudwalker::Node2VecParams& params,
      cloudwalker::WalkStats* stats) const override;
  cloudwalker::Status TakeError() const override { return inner_.TakeError(); }

 private:
  const cloudwalker::WalkBackend& inner_;
  SpanRecorder* recorder_;
  std::string name_;
  uint64_t request_ = 0;
};

/// One request answered by calling the core/queries.h kernel and
/// TopKFromSparse directly, with the facade's post-processing (SimRank
/// scores clamped to [0, 1]) applied, so the answer must equal
/// CloudWalker::Execute's bit for bit.
struct KernelAnswer {
  cloudwalker::Status status;
  double score = 0.0;
  std::vector<cloudwalker::ScoredNode> topk;
  cloudwalker::QueryStats stats;
};

/// Runs `request` through the kernels of `cw` with `backend` as the walk
/// phase, recording a "core.query" root span with "core.kernel" and
/// "core.topk" children.
KernelAnswer ReplayKernels(const cloudwalker::CloudWalker& cw,
                           const cloudwalker::WalkBackend& backend,
                           const cloudwalker::QueryRequest& request,
                           const cloudwalker::QueryOptions& options,
                           SpanRecorder* recorder, uint64_t request_id);

/// Bit-for-bit equality of an Execute response and a kernel replay or of
/// two responses.
bool SameAnswer(const cloudwalker::QueryResponse& response,
                const KernelAnswer& answer);
bool SameAnswer(const cloudwalker::QueryResponse& a,
                const cloudwalker::QueryResponse& b);

/// The walk phases of `request` run on `backend` outside any kernel (the
/// single-thread reference the parallel efficiency divides by). Returns
/// the walk steps taken.
uint64_t RunWalkPhases(const cloudwalker::WalkBackend& backend,
                       const cloudwalker::QueryRequest& request,
                       const cloudwalker::QueryOptions& options,
                       uint32_t num_steps);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
