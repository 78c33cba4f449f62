// Block layout pass (ooc/block_layout.h): tiling invariants, the
// encode/decode round trip with its structural validation, decoding of the
// version-1 layout, and FindBlock.

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "ooc/block_layout.h"

namespace cloudwalker {
namespace {

// The in-adjacency arrays, the inputs the snapshot writer hands the
// layout pass.
struct PagedArrays {
  std::vector<uint64_t> in_offsets;
  std::vector<NodeId> in_targets;
};

PagedArrays ArraysOf(const Graph& graph) {
  PagedArrays a;
  a.in_offsets.assign(graph.InOffsets().begin(), graph.InOffsets().end());
  a.in_targets.assign(graph.InTargets().begin(), graph.InTargets().end());
  return a;
}

void ExpectTiles(const std::vector<BlockExtent>& blocks, uint64_t num_nodes,
                 uint64_t num_edges) {
  ASSERT_FALSE(blocks.empty());
  EXPECT_EQ(blocks.front().node_begin, 0u);
  EXPECT_EQ(blocks.back().node_end, num_nodes);
  EXPECT_EQ(blocks.front().edge_begin, 0u);
  EXPECT_EQ(blocks.back().edge_end, num_edges);
  for (size_t b = 1; b < blocks.size(); ++b) {
    EXPECT_EQ(blocks[b].node_begin, blocks[b - 1].node_end) << "block " << b;
    EXPECT_EQ(blocks[b].edge_begin, blocks[b - 1].edge_end) << "block " << b;
  }
  for (const BlockExtent& e : blocks) {
    EXPECT_GT(e.node_end, e.node_begin);  // never an empty node range
  }
}

TEST(BlockLayoutTest, TilesNodesAndEdgesContiguously) {
  const Graph graph = GenerateRmat(500, 4000, /*seed=*/5);
  const PagedArrays a = ArraysOf(graph);
  for (const uint64_t target : {uint64_t{1}, uint64_t{512}, uint64_t{4096},
                                uint64_t{1} << 30}) {
    const std::vector<BlockExtent> blocks =
        BuildBlockLayout(a.in_offsets, a.in_targets, target);
    ExpectTiles(blocks, graph.num_nodes(), graph.num_edges());
    // Every block beyond a single node respects the byte target: removing
    // its last node would leave it under target (greedy cut).
    for (const BlockExtent& e : blocks) {
      if (e.node_end - e.node_begin > 1) {
        const uint64_t without_last =
            (a.in_offsets[e.node_end - 1] - e.edge_begin) * kPagedBytesPerEdge;
        EXPECT_LT(without_last, target);
      }
    }
  }
}

TEST(BlockLayoutTest, OversizedRowGetsItsOwnBlock) {
  // A hub whose single row exceeds the target must still land in exactly
  // one block (blocks cut at node boundaries; rows never straddle).
  GraphBuilder builder(64);
  for (NodeId u = 1; u < 64; ++u) builder.AddEdge(u, 0);  // hub in-degree 63
  builder.AddEdge(0, 1);
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());
  const PagedArrays a = ArraysOf(*graph);
  const std::vector<BlockExtent> blocks =
      BuildBlockLayout(a.in_offsets, a.in_targets,
                       /*target_block_bytes=*/2 * kPagedBytesPerEdge);
  ExpectTiles(blocks, graph->num_nodes(), graph->num_edges());
  const uint32_t hub_block = FindBlock(blocks, 0);
  EXPECT_EQ(blocks[hub_block].node_begin, 0u);
  EXPECT_EQ(blocks[hub_block].node_end, 1u);
  EXPECT_EQ(blocks[hub_block].num_edges(), 63u);
}

TEST(BlockLayoutTest, EmptyGraphHasNoBlocks) {
  const std::vector<uint64_t> offsets{0};
  const std::vector<BlockExtent> blocks =
      BuildBlockLayout(offsets, {}, kDefaultBlockBytes);
  EXPECT_TRUE(blocks.empty());
}

TEST(BlockLayoutTest, EncodeDecodeRoundTrips) {
  const Graph graph = GenerateRmat(300, 2500, /*seed=*/9);
  const PagedArrays a = ArraysOf(graph);
  const std::vector<BlockExtent> blocks =
      BuildBlockLayout(a.in_offsets, a.in_targets, /*target=*/1024);
  const std::string bytes = EncodeBlockIndex(blocks, 1024);

  std::vector<BlockExtent> decoded;
  uint64_t target = 0;
  uint32_t version = 0;
  const Status s = DecodeBlockIndex(bytes, graph.num_nodes(),
                                    graph.num_edges(), &decoded, &target,
                                    &version);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(target, 1024u);
  EXPECT_EQ(version, 2u);
  EXPECT_EQ(decoded, blocks);  // CRCs ride along verbatim
}

TEST(BlockLayoutTest, DecodesVersionOneIgnoringTheArenaCrc) {
  // A version-1 block index (written beside format 1's alias arena):
  // 40-byte extents carrying a second CRC, for the retired arena slice.
  const Graph graph = GenerateRmat(300, 2500, /*seed=*/9);
  const PagedArrays a = ArraysOf(graph);
  const std::vector<BlockExtent> blocks =
      BuildBlockLayout(a.in_offsets, a.in_targets, /*target=*/1024);
  BinaryWriter w;
  w.Write<uint32_t>(1);
  w.Write<uint64_t>(3072);
  w.Write<uint64_t>(blocks.size());
  for (const BlockExtent& b : blocks) {
    w.Write(b.node_begin);
    w.Write(b.node_end);
    w.Write(b.edge_begin);
    w.Write(b.edge_end);
    w.Write(b.crc_in_targets);
    w.Write<uint32_t>(0xdeadbeef);  // arena slice CRC: never checked
  }
  std::vector<BlockExtent> decoded;
  uint64_t target = 0;
  uint32_t version = 0;
  const Status s = DecodeBlockIndex(w.buffer(), graph.num_nodes(),
                                    graph.num_edges(), &decoded, &target,
                                    &version);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(target, 3072u);
  EXPECT_EQ(decoded, blocks);

  // Any other version is refused.
  std::string bad = w.buffer();
  bad[0] = 3;
  EXPECT_FALSE(DecodeBlockIndex(bad, graph.num_nodes(), graph.num_edges(),
                                &decoded, &target)
                   .ok());
}

TEST(BlockLayoutTest, DecodeRejectsStructuralDamage) {
  const Graph graph = GenerateRmat(100, 800, /*seed=*/2);
  const PagedArrays a = ArraysOf(graph);
  const std::vector<BlockExtent> blocks =
      BuildBlockLayout(a.in_offsets, a.in_targets, /*target=*/512);
  const std::string bytes = EncodeBlockIndex(blocks, 512);
  std::vector<BlockExtent> decoded;
  uint64_t target = 0;

  // Trailing garbage.
  EXPECT_FALSE(DecodeBlockIndex(bytes + "x", graph.num_nodes(),
                                graph.num_edges(), &decoded, &target)
                   .ok());
  // Truncation.
  EXPECT_FALSE(DecodeBlockIndex(bytes.substr(0, bytes.size() - 1),
                                graph.num_nodes(), graph.num_edges(),
                                &decoded, &target)
                   .ok());
  // Wrong node count: the tiling no longer covers [0, n).
  EXPECT_FALSE(DecodeBlockIndex(bytes, graph.num_nodes() + 1,
                                graph.num_edges(), &decoded, &target)
                   .ok());
  // Wrong edge count.
  EXPECT_FALSE(DecodeBlockIndex(bytes, graph.num_nodes(),
                                graph.num_edges() + 1, &decoded, &target)
                   .ok());
  // Empty payload is only valid for an empty graph.
  EXPECT_FALSE(DecodeBlockIndex(std::string(), graph.num_nodes(),
                                graph.num_edges(), &decoded, &target)
                   .ok());
}

TEST(BlockLayoutTest, FindBlockLocatesEveryNode) {
  const Graph graph = GenerateRmat(700, 6000, /*seed=*/13);
  const PagedArrays a = ArraysOf(graph);
  const std::vector<BlockExtent> blocks =
      BuildBlockLayout(a.in_offsets, a.in_targets, /*target=*/2048);
  ASSERT_GT(blocks.size(), 3u) << "target too large to exercise the search";
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const uint32_t b = FindBlock(blocks, v);
    ASSERT_LT(b, blocks.size());
    EXPECT_GE(v, blocks[b].node_begin);
    EXPECT_LT(v, blocks[b].node_end);
  }
}

}  // namespace
}  // namespace cloudwalker
