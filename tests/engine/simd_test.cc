// Element-for-element equality of the SIMD kernel (DESIGN.md section 12):
// the AVX2 variant of sorted-run aggregation must produce exactly the same
// output as the scalar reference — every id, every multiplicity, every
// double bit pattern — across run-length edge cases and every
// remainder-lane count. On hosts without AVX2 the Avx2 entry point is the
// scalar code, so the suite still runs (vacuously for the vector lanes)
// everywhere.

#include "engine/simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace cloudwalker {
namespace {

void ExpectSameEntries(const std::vector<SparseEntry>& scalar,
                       const std::vector<SparseEntry>& avx2,
                       const std::string& what) {
  ASSERT_EQ(scalar.size(), avx2.size()) << what;
  for (size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_EQ(scalar[i].index, avx2[i].index) << what << " entry " << i;
    // Exact double equality: both variants compute value as
    // multiplicity * inv_r with the same operations.
    EXPECT_EQ(scalar[i].value, avx2[i].value) << what << " entry " << i;
  }
}

void CheckAggregate(const std::vector<NodeId>& sorted, double inv_r,
                    const std::string& what) {
  std::vector<SparseEntry> scalar, avx2;
  simd::AggregateSortedRunsScalar(sorted.data(),
                                  static_cast<uint32_t>(sorted.size()),
                                  inv_r, &scalar);
  simd::AggregateSortedRunsAvx2(sorted.data(),
                                static_cast<uint32_t>(sorted.size()), inv_r,
                                &avx2);
  ExpectSameEntries(scalar, avx2, what);
  // The dispatched entry point is one of the two variants.
  std::vector<SparseEntry> dispatched;
  simd::AggregateSortedRuns(sorted.data(),
                            static_cast<uint32_t>(sorted.size()), inv_r,
                            &dispatched);
  ExpectSameEntries(scalar, dispatched, what + " (dispatched)");
}

TEST(SimdTest, ActiveLevelNamesAVariant) {
  const std::string level = simd::ActiveLevel();
  EXPECT_TRUE(level == "avx2" || level == "scalar") << level;
  EXPECT_EQ(level == "avx2", simd::HaveAvx2());
}

TEST(SimdTest, AggregateEveryLengthIncludingRemainderLanes) {
  // Lengths 0..40 cover every remainder-lane count of the 8-wide kernel
  // several times over, plus the sub-vector lengths that never enter the
  // vector loop at all.
  std::mt19937 rng(7);
  for (uint32_t n = 0; n <= 40; ++n) {
    std::vector<NodeId> sorted;
    NodeId id = 5;
    while (sorted.size() < n) {
      id += rng() % 3;  // duplicate runs (step 0) and gaps alike
      sorted.push_back(id);
    }
    CheckAggregate(sorted, 1.0 / 300.0, "n=" + std::to_string(n));
  }
}

TEST(SimdTest, AggregateRunBoundaryEdgeCases) {
  const double inv_r = 1.0 / 1000.0;
  // All-equal: one run spanning the whole array (no boundary in any lane).
  CheckAggregate(std::vector<NodeId>(37, 42), inv_r, "all equal");
  // All-distinct: a boundary in every lane.
  std::vector<NodeId> distinct(37);
  for (uint32_t i = 0; i < distinct.size(); ++i) distinct[i] = 3 * i;
  CheckAggregate(distinct, inv_r, "all distinct");
  // Runs that straddle vector-block boundaries (length 7, 8, 9 runs).
  std::vector<NodeId> straddle;
  for (NodeId id = 0; id < 12; ++id) {
    for (uint32_t k = 0; k < 7 + id % 3; ++k) straddle.push_back(id * 100);
  }
  CheckAggregate(straddle, inv_r, "straddling runs");
  // Empty input: no entries, no crash.
  CheckAggregate({}, inv_r, "empty");
}

TEST(SimdTest, AggregateLargeRandomSweep) {
  std::mt19937 rng(123);
  for (int trial = 0; trial < 8; ++trial) {
    const uint32_t n = 1000 + rng() % 1000;
    std::vector<NodeId> sorted;
    sorted.reserve(n);
    NodeId id = 0;
    while (sorted.size() < n) {
      id += 1 + rng() % 4;
      const uint32_t run = 1 + rng() % 12;
      for (uint32_t k = 0; k < run && sorted.size() < n; ++k) {
        sorted.push_back(id);
      }
    }
    CheckAggregate(sorted, 1.0 / static_cast<double>(n),
                   "trial " + std::to_string(trial));
  }
}

}  // namespace
}  // namespace cloudwalker
