// PagedSnapshot — the out-of-core view of a snapshot artifact (DESIGN.md
// section 14).
//
// Where SnapshotView maps the whole file and hands out spans, PagedSnapshot
// keeps resident the per-node arrays (CSR offsets, diagonal, metadata,
// block index, permutation) and the out-targets the combine phases read,
// and leaves the per-edge walk array — kInTargets, 4 bytes per in-edge —
// on disk. The block cache preads node-range blocks of it on demand
// (ooc/block_cache.h); pread rather than mmap, so an
// address-space cap (setrlimit(RLIMIT_AS)) genuinely bounds the process
// and the cache's byte budget is the real residency ceiling.
//
// Integrity: the header + directory CRC is verified, every *resident*
// section is CRC-checked as it loads, and the paged section is covered at
// block granularity by the per-block CRCs in the block index, verified on
// every page-in. The retired alias sections of a format-1 file are never
// read. (The whole-file padding sweep is SnapshotView's job;
// a paged open never reads the bytes between sections.)
//
// Old-format artifacts (no kBlockIndex section) fall back to whole-file
// residency: in_targets is loaded, CRC-checked, and a block layout is
// synthesized in memory, so the same scheduler serves them — with every
// block permanently resident and the cache reporting that.

#ifndef CLOUDWALKER_OOC_PAGED_SNAPSHOT_H_
#define CLOUDWALKER_OOC_PAGED_SNAPSHOT_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/options.h"
#include "graph/graph.h"
#include "ooc/block_layout.h"
#include "snapshot/snapshot.h"

namespace cloudwalker {

/// An out-of-core-opened snapshot: resident per-node arrays plus on-demand
/// access to the paged per-edge arrays. Immutable and thread-safe
/// (ReadBlock uses pread on a shared descriptor). Share via shared_ptr;
/// the block cache and the facade both pin it.
class PagedSnapshot {
 public:
  /// Opens `path`, validates the header/directory and every resident
  /// section, and decodes (or, for old-format files, synthesizes) the
  /// block layout.
  static StatusOr<std::shared_ptr<const PagedSnapshot>> Open(
      const std::string& path);

  ~PagedSnapshot();
  PagedSnapshot(const PagedSnapshot&) = delete;
  PagedSnapshot& operator=(const PagedSnapshot&) = delete;

  NodeId num_nodes() const { return num_nodes_; }
  uint64_t num_edges() const { return num_edges_; }
  const SimRankParams& params() const { return params_; }
  const SnapshotMetadata& metadata() const { return metadata_; }

  /// Same artifact identity as SnapshotView::fingerprint() — derived from
  /// the header + directory CRC and the file size, so an out-of-core open
  /// and an mmap open of the same file agree.
  uint64_t fingerprint() const { return fingerprint_; }
  uint64_t file_bytes() const { return file_bytes_; }

  // Resident per-node arrays (alive as long as this instance).
  std::span<const uint64_t> out_offsets() const { return out_offsets_; }
  std::span<const NodeId> out_targets() const { return out_targets_; }
  std::span<const uint64_t> in_offsets() const { return in_offsets_; }
  std::span<const double> diagonal() const { return diagonal_; }
  std::span<const NodeId> permutation() const { return permutation_; }

  /// The block layout the scheduler buckets walkers by. Decoded from the
  /// kBlockIndex section, or synthesized for old-format files.
  std::span<const BlockExtent> blocks() const { return blocks_; }
  uint64_t block_target_bytes() const { return block_target_bytes_; }

  /// True when the artifact carried a kBlockIndex section (the genuinely
  /// paged mode). False means the whole-file fallback is active.
  bool has_block_index() const { return from_block_index_; }

  /// True when in_targets is fully resident (the old-format fallback, or a
  /// platform without pread). ReadBlock is never needed —
  /// resident_in_targets() serves directly.
  bool all_resident() const {
    return !resident_in_targets_.empty() || num_edges_ == 0;
  }
  std::span<const NodeId> resident_in_targets() const {
    return resident_in_targets_;
  }

  /// Total bytes of the demand-paged section — the denominator of the
  /// "budget capped at <= 50% of the paged bytes" acceptance metric.
  uint64_t paged_bytes() const { return num_edges_ * kPagedBytesPerEdge; }

  /// Largest single block's payload — the minimum viable cache budget.
  uint64_t max_block_bytes() const { return max_block_bytes_; }

  /// Reads block `b`'s slice of kInTargets into the caller's buffer
  /// (sized blocks()[b].num_edges()), verifying the per-block CRC and that
  /// every id is in range. Thread-safe.
  Status ReadBlock(uint32_t b, NodeId* targets_out) const;

 private:
  PagedSnapshot() = default;
  Status Load(const std::string& path);

  std::string path_;
  int fd_ = -1;
  NodeId num_nodes_ = 0;
  uint64_t num_edges_ = 0;
  uint64_t fingerprint_ = 0;
  uint64_t file_bytes_ = 0;
  SimRankParams params_;
  SnapshotMetadata metadata_;

  std::vector<uint64_t> out_offsets_;
  std::vector<NodeId> out_targets_;
  std::vector<uint64_t> in_offsets_;
  std::vector<double> diagonal_;
  std::vector<NodeId> permutation_;

  std::vector<BlockExtent> blocks_;
  uint64_t block_target_bytes_ = 0;
  uint64_t max_block_bytes_ = 0;
  bool from_block_index_ = false;
  // File offset of the paged section's payload (paged mode).
  uint64_t in_targets_offset_ = 0;
  // Whole-file fallback storage (old-format artifacts).
  std::vector<NodeId> resident_in_targets_;
};

}  // namespace cloudwalker

#endif  // CLOUDWALKER_OOC_PAGED_SNAPSHOT_H_
