#include "ooc/block_layout.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/serialize.h"

namespace cloudwalker {
namespace {

constexpr uint32_t kBlockIndexVersion = 2;

// Version 1 extent record, written verbatim: the four bounds, the
// in_targets CRC and the CRC of the retired arena slice (ignored).
struct BlockExtentV1 {
  uint64_t node_begin;
  uint64_t node_end;
  uint64_t edge_begin;
  uint64_t edge_end;
  uint32_t crc_in_targets;
  uint32_t crc_arena_slots;
};
static_assert(sizeof(BlockExtentV1) == 40, "v1 extents are 40 bytes");

// Version 2 extent record: the bounds and the in_targets CRC, written
// field by field (36 bytes, no padding).
constexpr uint64_t kExtentV2Bytes = 4 * sizeof(uint64_t) + sizeof(uint32_t);

}  // namespace

std::vector<BlockExtent> BuildBlockLayout(std::span<const uint64_t> in_offsets,
                                          std::span<const NodeId> in_targets,
                                          uint64_t target_block_bytes) {
  std::vector<BlockExtent> blocks;
  if (in_offsets.size() < 2) return blocks;  // zero-node graph: no blocks
  const uint64_t n = in_offsets.size() - 1;
  const uint64_t target = std::max<uint64_t>(target_block_bytes, 1);

  uint64_t node = 0;
  while (node < n) {
    BlockExtent b;
    b.node_begin = node;
    b.edge_begin = in_offsets[node];
    // Greedy cut: extend until the paged payload reaches the target. The
    // first node is always taken, so a single hub row larger than the
    // target becomes its own (oversized) block rather than an infinite
    // loop — the cache budget must simply admit the largest block.
    do {
      ++node;
    } while (node < n &&
             (in_offsets[node + 1] - b.edge_begin) * kPagedBytesPerEdge <=
                 target);
    b.node_end = node;
    b.edge_end = in_offsets[node];
    b.crc_in_targets = Crc32(in_targets.data() + b.edge_begin,
                             b.num_edges() * sizeof(NodeId));
    blocks.push_back(b);
  }
  return blocks;
}

std::string EncodeBlockIndex(const std::vector<BlockExtent>& blocks,
                             uint64_t target_block_bytes) {
  BinaryWriter w;
  w.Write(kBlockIndexVersion);
  w.Write(target_block_bytes);
  w.Write<uint64_t>(blocks.size());
  for (const BlockExtent& b : blocks) {
    w.Write(b.node_begin);
    w.Write(b.node_end);
    w.Write(b.edge_begin);
    w.Write(b.edge_end);
    w.Write(b.crc_in_targets);
  }
  return w.buffer();
}

Status DecodeBlockIndex(const std::string& bytes, uint64_t num_nodes,
                        uint64_t num_edges, std::vector<BlockExtent>* blocks,
                        uint64_t* target_block_bytes, uint32_t* version) {
  BinaryReader r(bytes);
  uint32_t v = 0;
  CW_RETURN_IF_ERROR(r.Read(&v));
  if (v != 1 && v != kBlockIndexVersion) {
    return Status::InvalidArgument("unsupported block index version " +
                                   std::to_string(v));
  }
  if (version != nullptr) *version = v;
  CW_RETURN_IF_ERROR(r.Read(target_block_bytes));
  blocks->clear();
  if (v == 1) {
    std::vector<BlockExtentV1> v1;
    CW_RETURN_IF_ERROR(r.ReadVector(&v1));
    for (const BlockExtentV1& e : v1) {
      blocks->push_back(BlockExtent{e.node_begin, e.node_end, e.edge_begin,
                                    e.edge_end, e.crc_in_targets});
    }
  } else {
    uint64_t count = 0;
    CW_RETURN_IF_ERROR(r.Read(&count));
    if (count > (bytes.size() - r.position()) / kExtentV2Bytes) {
      return Status::OutOfRange("block index: truncated extent list");
    }
    blocks->resize(count);
    for (BlockExtent& b : *blocks) {
      CW_RETURN_IF_ERROR(r.Read(&b.node_begin));
      CW_RETURN_IF_ERROR(r.Read(&b.node_end));
      CW_RETURN_IF_ERROR(r.Read(&b.edge_begin));
      CW_RETURN_IF_ERROR(r.Read(&b.edge_end));
      CW_RETURN_IF_ERROR(r.Read(&b.crc_in_targets));
    }
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after block index");
  }
  if (blocks->empty() != (num_nodes == 0)) {
    return Status::InvalidArgument("block count disagrees with node count");
  }
  // The blocks must tile the node and edge spaces contiguously — the
  // scheduler binary-searches node_begin and the cache preads
  // [edge_begin, edge_end), so a gap or overlap here would misroute
  // walkers or read the wrong bytes.
  uint64_t node_cursor = 0, edge_cursor = 0;
  for (const BlockExtent& b : *blocks) {
    if (b.node_begin != node_cursor || b.edge_begin != edge_cursor ||
        b.node_end <= b.node_begin || b.edge_end < b.edge_begin) {
      return Status::InvalidArgument("block index does not tile the graph");
    }
    node_cursor = b.node_end;
    edge_cursor = b.edge_end;
  }
  if (node_cursor != num_nodes || edge_cursor != num_edges) {
    return Status::InvalidArgument(
        "block index does not cover all nodes/edges");
  }
  return Status::Ok();
}

uint32_t FindBlock(std::span<const BlockExtent> blocks, NodeId node) {
  // Last block with node_begin <= node.
  uint32_t lo = 0, hi = static_cast<uint32_t>(blocks.size());
  while (hi - lo > 1) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (blocks[mid].node_begin <= node) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace cloudwalker
