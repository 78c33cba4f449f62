#include "engine/alias.h"

#include <vector>

namespace cloudwalker {

StatusOr<AliasTable> AliasTable::Build(const std::vector<double>& weights) {
  if (weights.empty()) {
    return Status::InvalidArgument("alias table needs at least one weight");
  }
  double sum = 0.0;
  for (double w : weights) {
    if (w < 0.0) {
      return Status::InvalidArgument("alias table weight is negative");
    }
    sum += w;
  }
  if (sum <= 0.0) {
    return Status::InvalidArgument("alias table weights sum to zero");
  }

  const size_t n = weights.size();
  AliasTable table;
  table.prob_.assign(n, 0.0);
  table.alias_.assign(n, 0);

  // Scaled probabilities; partition into under- and over-full slots.
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) scaled[i] = weights[i] * n / sum;
  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    table.prob_[s] = scaled[s];
    table.alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Residual slots get probability 1 (floating-point leftovers).
  for (uint32_t s : small) table.prob_[s] = 1.0;
  for (uint32_t l : large) table.prob_[l] = 1.0;
  return table;
}

}  // namespace cloudwalker
