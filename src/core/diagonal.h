// DiagonalIndex: the offline artifact of CloudWalker — diag(D) of the
// SimRank linearization S = sum_t c^t (P^T)^t D P^t, together with the
// SimRank parameters it was estimated under. Persistable.

#ifndef CLOUDWALKER_CORE_DIAGONAL_H_
#define CLOUDWALKER_CORE_DIAGONAL_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/options.h"
#include "graph/graph.h"

namespace cloudwalker {

/// Immutable diag(D) estimate for one graph + parameter set. Span-backed
/// like Graph: a built index owns its vector, FromView wraps
/// an external array (an mmapped snapshot, DESIGN.md section 9) zero-copy.
/// Copies materialize into owned storage; moves preserve the mode.
class DiagonalIndex {
 public:
  /// An empty index (num_nodes() == 0).
  DiagonalIndex() { diagonal_v_ = diagonal_; }

  /// Wraps an estimated diagonal. `diagonal[k]` is D_kk.
  DiagonalIndex(SimRankParams params, std::vector<double> diagonal)
      : params_(params), diagonal_(std::move(diagonal)) {
    diagonal_v_ = diagonal_;
  }

  DiagonalIndex(const DiagonalIndex& other) { CopyFrom(other); }
  DiagonalIndex& operator=(const DiagonalIndex& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  // Vector moves keep the heap buffer in place, so the span stays valid.
  DiagonalIndex(DiagonalIndex&&) noexcept = default;
  DiagonalIndex& operator=(DiagonalIndex&&) noexcept = default;

  /// Wraps an externally owned diagonal without copying; the array must
  /// outlive the index and every move of it.
  static DiagonalIndex FromView(SimRankParams params,
                                std::span<const double> diagonal) {
    DiagonalIndex index;
    index.params_ = params;
    index.diagonal_v_ = diagonal;
    return index;
  }

  /// False when the diagonal aliases external memory (FromView).
  bool owns_storage() const { return diagonal_v_.data() == diagonal_.data(); }

  /// SimRank parameters (c, T) the diagonal was estimated for.
  const SimRankParams& params() const { return params_; }

  /// Number of nodes covered.
  NodeId num_nodes() const { return static_cast<NodeId>(diagonal_v_.size()); }

  /// D_kk (unchecked).
  double operator[](NodeId k) const { return diagonal_v_[k]; }

  /// The full diagonal.
  std::span<const double> diagonal() const { return diagonal_v_; }

  /// Writes the index to `path` (binary, versioned).
  Status Save(const std::string& path) const;

  /// Reads an index written by Save.
  static StatusOr<DiagonalIndex> Load(const std::string& path);

 private:
  void CopyFrom(const DiagonalIndex& other) {
    params_ = other.params_;
    diagonal_.assign(other.diagonal_v_.begin(), other.diagonal_v_.end());
    diagonal_v_ = diagonal_;
  }

  SimRankParams params_;
  std::vector<double> diagonal_;        // owned backing (empty in view mode)
  std::span<const double> diagonal_v_;  // what the accessors read
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_CORE_DIAGONAL_H_
