// Determinism contract of the batched walk kernel (DESIGN.md section 8):
// bit-identical distributions across batch widths, thread counts, and
// scratch reuse, and equal to a one-walker-at-a-time reference.

#include "engine/walk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "graph/generators.h"

namespace cloudwalker {
namespace {

void ExpectSameDistributions(const WalkDistributions& a,
                             const WalkDistributions& b,
                             const std::string& what) {
  ASSERT_EQ(a.num_levels(), b.num_levels()) << what;
  for (size_t t = 0; t < a.num_levels(); ++t) {
    ASSERT_EQ(a.levels[t].size(), b.levels[t].size())
        << what << " level " << t;
    for (size_t k = 0; k < a.levels[t].size(); ++k) {
      EXPECT_EQ(a.levels[t][k], b.levels[t][k])
          << what << " level " << t << " entry " << k;
    }
  }
}

WalkConfig TestConfig(uint32_t batch_width = 256) {
  WalkConfig cfg;
  cfg.num_steps = 6;
  cfg.num_walkers = 300;
  cfg.seed = 77;
  cfg.batch_width = batch_width;
  return cfg;
}

// The walk contract restated one walker and one step at a time, with no
// blocking or prefetch: the move draw is CounterRandom(DeriveSeed(seed,
// source), walker << 32 | step) and lands on slot PickSlot(draw, degree)
// of the in-row; a level's value at v is (walkers at v) / R.
WalkDistributions ReferenceWalk(const Graph& g, NodeId source,
                                const WalkConfig& cfg) {
  WalkDistributions out;
  out.levels.assign(cfg.num_steps + 1, SparseVector());
  out.levels[0] = SparseVector::FromSorted({SparseEntry{source, 1.0}});
  const uint64_t key = DeriveSeed(cfg.seed, source);
  const double inv_r = 1.0 / cfg.num_walkers;
  std::vector<NodeId> pos(cfg.num_walkers, source);
  for (uint32_t t = 1; t <= cfg.num_steps; ++t) {
    std::vector<NodeId> live;
    for (uint32_t w = 0; w < cfg.num_walkers; ++w) {
      if (pos[w] == kInvalidNode) continue;
      const uint32_t deg = g.InDegree(pos[w]);
      if (deg == 0) {
        pos[w] = kInvalidNode;
        continue;
      }
      const uint64_t raw =
          CounterRandom(key, (static_cast<uint64_t>(w) << 32) | t);
      pos[w] = g.InNeighbor(pos[w], PickSlot(raw, deg));
      live.push_back(pos[w]);
    }
    std::sort(live.begin(), live.end());
    std::vector<SparseEntry> entries;
    for (size_t i = 0; i < live.size();) {
      size_t j = i;
      while (j < live.size() && live[j] == live[i]) ++j;
      entries.push_back(
          SparseEntry{live[i], static_cast<double>(j - i) * inv_r});
      i = j;
    }
    out.levels[t] = SparseVector::FromSorted(std::move(entries));
  }
  return out;
}

TEST(BatchedWalkTest, PrefetchPipelineMatchesPerWalkerReference) {
  const Graph g = GenerateRmat(512, 4096, /*seed=*/3);
  for (const uint32_t width : {1u, 7u, 256u}) {
    const WalkConfig cfg = TestConfig(width);
    for (NodeId source : {0u, 17u, 300u, 511u}) {
      ExpectSameDistributions(SimulateWalkDistributions(g, source, cfg),
                              ReferenceWalk(g, source, cfg),
                              "source " + std::to_string(source) + " W=" +
                                  std::to_string(width));
    }
  }
}

TEST(BatchedWalkTest, PickSlotCoversEveryInRowSlot) {
  // The upper 32 bits of a draw map monotonically onto [0, degree): the
  // extremes land on the first and last slot, nothing lands past it.
  for (const uint32_t deg : {1u, 2u, 3u, 1000u, 0xffffffffu}) {
    EXPECT_EQ(PickSlot(0, deg), 0u);
    EXPECT_EQ(PickSlot(~uint64_t{0}, deg), deg - 1);
    EXPECT_LT(PickSlot(uint64_t{0x8000'0000} << 32, deg), deg);
  }
  EXPECT_EQ(PickSlot(uint64_t{0x8000'0000} << 32, 2), 1u);
}

TEST(BatchedWalkTest, BitIdenticalAcrossBatchWidths) {
  const Graph g = GenerateRmat(1024, 8192, /*seed=*/4);
  const WalkDistributions narrow =
      SimulateWalkDistributions(g, 42, TestConfig(/*batch_width=*/1));
  for (uint32_t width : {3u, 64u, 256u, 100000u /* clamped */}) {
    const WalkDistributions wide =
        SimulateWalkDistributions(g, 42, TestConfig(width));
    ExpectSameDistributions(narrow, wide, "W=" + std::to_string(width));
  }
}

TEST(BatchedWalkTest, BitIdenticalAcrossThreadCounts) {
  const Graph g = GenerateRmat(256, 2048, /*seed=*/5);
  const WalkConfig cfg = TestConfig();

  std::vector<WalkDistributions> serial(g.num_nodes());
  SimulateAllSources(g, cfg, /*pool=*/nullptr,
                     [&](NodeId s, const WalkDistributions& d) {
                       serial[s] = d;
                     });
  ThreadPool pool(4);
  std::vector<WalkDistributions> parallel(g.num_nodes());
  SimulateAllSources(g, cfg, &pool,
                     [&](NodeId s, const WalkDistributions& d) {
                       parallel[s] = d;
                     });
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ExpectSameDistributions(serial[v], parallel[v],
                            "source " + std::to_string(v));
  }
}

TEST(BatchedWalkTest, ScratchReuseDoesNotChangeResults) {
  const Graph g = GenerateRmat(512, 4096, /*seed=*/6);
  const WalkConfig cfg = TestConfig();
  WalkScratch scratch(cfg.num_walkers);
  for (NodeId source : {9u, 10u, 11u}) {
    const WalkDistributions reused =
        SimulateWalkDistributions(g, source, cfg, &scratch);
    const WalkDistributions fresh =
        SimulateWalkDistributions(g, source, cfg);
    ExpectSameDistributions(reused, fresh,
                            "source " + std::to_string(source));
  }
}

TEST(BatchedWalkTest, MassConservedOnDanglingFreeGraph) {
  const Graph g = GenerateErdosRenyi(200, 4000, /*seed=*/7);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_GT(g.InDegree(v), 0u) << "need no dangling nodes";
  }
  const WalkDistributions d = SimulateWalkDistributions(g, 0, TestConfig());
  for (size_t t = 0; t < d.num_levels(); ++t) {
    EXPECT_NEAR(d.levels[t].Sum(), 1.0, 1e-9) << "level " << t;
  }
}

TEST(BatchedWalkTest, DanglingPolicies) {
  const Graph g = GeneratePath(4);  // node 0 has no in-neighbors
  WalkConfig cfg = TestConfig();
  cfg.num_steps = 5;

  const WalkDistributions die = SimulateWalkDistributions(g, 3, cfg);
  EXPECT_DOUBLE_EQ(die.levels[3].Sum(), 1.0);
  EXPECT_EQ(die.levels[3][0].index, 0u);
  EXPECT_DOUBLE_EQ(die.levels[4].Sum(), 0.0);

  cfg.dangling = DanglingPolicy::kSelfLoop;
  const WalkDistributions park = SimulateWalkDistributions(g, 3, cfg);
  EXPECT_NEAR(park.levels[5].Sum(), 1.0, 1e-9);
  EXPECT_EQ(park.levels[5][0].index, 0u);
}

TEST(BatchedWalkTest, StatsCountStepsAndCrossings) {
  const Graph g = GenerateCycle(6);
  WalkConfig cfg;
  cfg.num_steps = 4;
  cfg.num_walkers = 10;
  const NodeOwnerFn owner = [](NodeId v) { return static_cast<int>(v % 2); };

  WalkStats stats;
  SimulateWalkDistributions(g, 0, cfg, nullptr, &owner, &stats);
  EXPECT_EQ(stats.steps, 40u);  // no deaths on a cycle
  // Every cycle step flips node parity, so every step crosses.
  EXPECT_EQ(stats.partition_crossings, 40u);
}

TEST(BatchedWalkTest, WorkerStateIsPaddedToCacheLines) {
  // The false-sharing fix: per-worker kernel state occupies whole cache
  // lines, so arrays of worker states can never share one.
  static_assert(alignof(WalkScratch) >= kCacheLineBytes);
  static_assert(sizeof(WalkScratch) % kCacheLineBytes == 0);
  static_assert(alignof(WalkWorkerState) >= kCacheLineBytes);
  static_assert(sizeof(WalkWorkerState) % kCacheLineBytes == 0);
  std::vector<WalkWorkerState> states(3);
  for (const WalkWorkerState& s : states) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(&s) % kCacheLineBytes, 0u);
  }
}

}  // namespace
}  // namespace cloudwalker
