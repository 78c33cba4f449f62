// Offline indexing: Monte-Carlo estimation of the rows of
//   A[k][j] = sum_{t=0..T} c^t (P^t e_k)[j]^2
// followed by a parallel Jacobi solve of A x = 1 for x = diag(D).

#ifndef CLOUDWALKER_CORE_INDEXER_H_
#define CLOUDWALKER_CORE_INDEXER_H_

#include <cstdint>
#include <vector>

#include "common/sparse.h"
#include "common/threading.h"
#include "core/diagonal.h"
#include "core/options.h"
#include "engine/walk.h"
#include "graph/graph.h"

namespace cloudwalker {

/// Execution counters of one indexing run.
struct IndexingStats {
  uint64_t walk_steps = 0;        // Monte-Carlo steps taken
  uint64_t row_nonzeros = 0;      // total nnz across estimated rows
  double walk_seconds = 0.0;      // wall time of the walk/row phase
  double solve_seconds = 0.0;     // wall time of the Jacobi phase
  /// max_k |(A x)_k - 1| after each iteration
  /// (filled only when options.track_residuals).
  std::vector<double> residuals;
};

/// Folds walk distributions into the sparse row
/// a_k[j] = sum_t c^t û_{k,t}[j]^2. Exposed for the distributed engines,
/// which need custom walk accounting.
SparseVector RowFromWalkDistributions(const WalkDistributions& dists,
                                      double decay,
                                      SparseAccumulator* scratch_row =
                                          nullptr);

/// Estimates the sparse row a_k for one node with R walkers. Row entries:
/// a_k[j] = sum_t c^t û_{k,t}[j]^2, at most R(T+1)+1 non-zeros.
/// `scratch_*` (optional) avoid per-call allocation; `steps` (optional)
/// accumulates the number of walk steps taken.
SparseVector BuildIndexRow(const Graph& graph, NodeId k,
                           const IndexingOptions& options,
                           WalkScratch* scratch_walk = nullptr,
                           SparseAccumulator* scratch_row = nullptr,
                           uint64_t* steps = nullptr);

/// All rows of A, estimated in parallel. rows[k] is BuildIndexRow(k).
struct IndexRows {
  std::vector<SparseVector> rows;
  uint64_t total_walk_steps = 0;
};
IndexRows BuildIndexRows(const Graph& graph, const IndexingOptions& options,
                         ThreadPool* pool);

/// One Jacobi sweep x_new[k] = (1 - sum_{j != k} a_kj x[j]) / a_kk over
/// materialized rows, parallel over rows. Rows with a_kk == 0 (impossible
/// for well-formed rows, which always contain the t=0 self term) keep their
/// previous value.
std::vector<double> JacobiSweep(const std::vector<SparseVector>& rows,
                                const std::vector<double>& x,
                                ThreadPool* pool);

/// Residual max_k |(A x)_k - 1| over materialized rows.
double JacobiResidual(const std::vector<SparseVector>& rows,
                      const std::vector<double>& x, ThreadPool* pool);

/// Full offline indexing pipeline: walks -> rows -> L Jacobi iterations.
/// Honors options.row_mode (materialize vs regenerate-with-same-seed).
/// `stats` (optional) receives execution counters.
StatusOr<DiagonalIndex> BuildDiagonalIndex(const Graph& graph,
                                           const IndexingOptions& options,
                                           ThreadPool* pool,
                                           IndexingStats* stats = nullptr);

}  // namespace cloudwalker

#endif  // CLOUDWALKER_CORE_INDEXER_H_
