// Walker's alias method: O(1) sampling from an arbitrary discrete
// distribution after O(n) preprocessing, for ad-hoc weighted sampling.
// The walk engine needs no alias tables: a reverse walk step is uniform
// over In(v) and picks straight from the CSR (engine/walk_kernel.h,
// DESIGN.md section 8).

#ifndef CLOUDWALKER_ENGINE_ALIAS_H_
#define CLOUDWALKER_ENGINE_ALIAS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace cloudwalker {

/// Immutable alias table over outcomes [0, n).
class AliasTable {
 public:
  /// Builds from non-negative weights (not necessarily normalized).
  /// Fails if the weights are empty, contain a negative value, or sum to 0.
  static StatusOr<AliasTable> Build(const std::vector<double>& weights);

  /// Number of outcomes.
  size_t size() const { return prob_.size(); }

  /// Draws one outcome with probability weight[i] / sum(weights).
  uint32_t Sample(Xoshiro256& rng) const {
    const uint32_t slot = static_cast<uint32_t>(rng.UniformInt(prob_.size()));
    return rng.NextDouble() < prob_[slot] ? slot : alias_[slot];
  }

 private:
  AliasTable() = default;
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_ENGINE_ALIAS_H_
