#include "engine/alias.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.h"
#include "graph/graph.h"

namespace cloudwalker {
namespace {

TEST(AliasTableTest, EmptyWeightsFail) {
  auto t = AliasTable::Build({});
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(AliasTableTest, NegativeWeightFails) {
  auto t = AliasTable::Build({1.0, -0.5});
  EXPECT_FALSE(t.ok());
}

TEST(AliasTableTest, AllZeroWeightsFail) {
  auto t = AliasTable::Build({0.0, 0.0});
  EXPECT_FALSE(t.ok());
}

TEST(AliasTableTest, SingleOutcome) {
  auto t = AliasTable::Build({3.0});
  ASSERT_TRUE(t.ok());
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(t->Sample(rng), 0u);
}

TEST(AliasTableTest, UniformWeights) {
  auto t = AliasTable::Build({1.0, 1.0, 1.0, 1.0});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->size(), 4u);
  Xoshiro256 rng(2);
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[t->Sample(rng)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.25, 0.01);
  }
}

TEST(AliasTableTest, SkewedWeights) {
  auto t = AliasTable::Build({8.0, 1.0, 1.0});
  ASSERT_TRUE(t.ok());
  Xoshiro256 rng(3);
  std::vector<int> counts(3, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[t->Sample(rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.8, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.1, 0.01);
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  auto t = AliasTable::Build({1.0, 0.0, 1.0});
  ASSERT_TRUE(t.ok());
  Xoshiro256 rng(4);
  for (int i = 0; i < 50000; ++i) {
    EXPECT_NE(t->Sample(rng), 1u);
  }
}

TEST(AliasTableTest, UnnormalizedWeightsEquivalent) {
  // {2, 6} and {0.25, 0.75} describe the same distribution.
  auto t = AliasTable::Build({2.0, 6.0});
  ASSERT_TRUE(t.ok());
  Xoshiro256 rng(5);
  int ones = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) ones += (t->Sample(rng) == 1);
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

TEST(AliasTableTest, LargeTableFrequencies) {
  std::vector<double> weights(1000);
  double sum = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = static_cast<double>(i % 7) + 0.5;
    sum += weights[i];
  }
  auto t = AliasTable::Build(weights);
  ASSERT_TRUE(t.ok());
  Xoshiro256 rng(6);
  std::vector<int> counts(weights.size(), 0);
  const int n = 2000000;
  for (int i = 0; i < n; ++i) ++counts[t->Sample(rng)];
  // Spot-check a few outcomes.
  for (size_t i : {0u, 123u, 999u}) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, weights[i] / sum, 0.002);
  }
}

}  // namespace
}  // namespace cloudwalker
