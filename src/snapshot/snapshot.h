// cloudwalker-snap — the persistent, mmap-loadable engine snapshot
// (DESIGN.md section 9), format version 2.
//
// A snapshot freezes everything a query-ready CloudWalker needs — the CSR
// graph (both adjacency directions: walks follow in-links, the MCSS push
// follows out-links), the diag(D) index, and build metadata — into one
// flat file whose payload arrays are 64-byte aligned and individually
// CRC-32 stamped. SnapshotView::Open mmaps the file and hands out spans
// into the mapping; Graph::FromCsrViews and DiagonalIndex::FromView wrap
// those spans zero-copy, so opening costs one integrity pass instead of an
// index rebuild, and answers are bit-identical to an in-memory build.
//
// Byte layout (all integers little-endian; the header stamps the byte
// order and a foreign-endian file is rejected rather than byte-swapped):
//
//   [0, 64)    header
//     0   8   magic "CWSNAP1\0"
//     8   4   format version (2; format 1 is still read)
//     12  4   endianness stamp 0x01020304
//     16  4   section count
//     20  4   CRC-32 of header (with this field zeroed) + directory
//     24  8   total file size in bytes
//     32  8   num_nodes
//     40  8   num_edges
//     48  16  reserved (zero)
//   [64, 64 + 32 * sections)   directory, one 32-byte entry per section
//     0   4   section id (SnapshotSection)
//     4   4   element size in bytes
//     8   8   payload offset from file start (64-byte aligned)
//     16  8   payload length in bytes (multiple of element size)
//     24  4   CRC-32 of the payload
//     28  4   reserved (zero)
//   payload sections, in directory order, zero-padded to 64-byte
//   alignment
//
// Format 1 also carried a flattened alias arena (section 5, a copy of the
// in-offsets, and section 6, 8 bytes per edge). Its uniform rows only
// repeated the CSR targets, so format 2 drops both; their ids are retired
// and never reused. A format-1 file still opens: sections 5 and 6 get the
// generic CRC check every section gets and are never mapped. A format-2
// file fails on a format-1 reader as "unsupported snapshot version 2".
//
// Corruption never reaches the kernels: wrong magic / version / byte
// order fail with kInvalidArgument, any mismatch between the directory,
// the checksums, and the bytes on disk fails with kDataLoss, and the
// structural invariants the zero-copy views rely on (monotone offsets,
// in-range targets) are verified before a span is ever handed out.

#ifndef CLOUDWALKER_SNAPSHOT_SNAPSHOT_H_
#define CLOUDWALKER_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/diagonal.h"
#include "core/options.h"
#include "graph/graph.h"
#include "ooc/block_layout.h"

namespace cloudwalker {

/// The format version SnapshotWriter writes. Readers accept it and
/// format 1 (see the header comment).
inline constexpr uint32_t kSnapshotFormatVersion = 2;

/// Payload section ids. Sections 1-4, 7 and 8 are required; 9 and 10 are
/// optional extensions: a reader that predates them validates them
/// generically (bounds, element sizing, CRC — every unknown id gets the
/// always-checked group) and otherwise ignores them, and a reader that
/// knows them treats their absence as "old-format snapshot" and falls
/// back accordingly (DESIGN.md section 14). Ids 5 and 6 held format 1's
/// alias arena; they are retired and never reused.
enum class SnapshotSection : uint32_t {
  kOutOffsets = 1,    // uint64[num_nodes + 1]
  kOutTargets = 2,    // NodeId[num_edges]
  kInOffsets = 3,     // uint64[num_nodes + 1]
  kInTargets = 4,     // NodeId[num_edges]
  kDiagonal = 7,      // double[num_nodes]
  kMeta = 8,          // BinaryWriter-encoded SnapshotMetadata
  kBlockIndex = 9,    // EncodeBlockIndex bytes (ooc/block_layout.h)
  kPermutation = 10,  // NodeId[num_nodes]: internal id -> external id
};

/// The error both readers return for a locality-reordered format-1 file:
/// its in-rows ascend by internal id and the walk order lived in the
/// retired arena, so it cannot answer like its unreordered original.
/// Re-writing it (`index --reorder`) produces a readable format-2 file.
Status Format1ReorderedError(const std::string& path);

/// Bitmask over the payload groups of a snapshot, for partition-aware
/// opens: a shard worker that only ever advances walkers along in-links
/// loads kSnapshotIn and skips the integrity pass (CRC + structural sweep)
/// over the out-CSR and diagonal sections it never touches. The header, directory, and metadata are always validated, and
/// the directory CRC still covers every section checksum, so a masked open
/// loses no tamper evidence for the bytes it actually reads. Spans of
/// unselected groups come back empty.
enum SnapshotSections : uint32_t {
  kSnapshotOut = 1u << 0,       // kOutOffsets + kOutTargets
  kSnapshotIn = 1u << 1,        // kInOffsets + kInTargets
  kSnapshotDiagonal = 1u << 2,  // kDiagonal
  kSnapshotAll = 0x7u,
};

/// Build provenance stamped into every snapshot: the indexing knobs the
/// D-vector was estimated under, the default-QueryOptions fingerprint the
/// build was validated against, and execution counters.
struct SnapshotMetadata {
  /// Indexing fingerprint (params live in the DiagonalIndex itself).
  uint32_t num_walkers = 0;
  uint32_t jacobi_iterations = 0;
  uint64_t seed = 0;
  uint32_t row_mode = 0;
  uint32_t dangling = 0;
  double initial_diagonal = 0.0;
  /// QueryOptionsFingerprint of the defaults (core/options.h).
  uint64_t query_options_fingerprint = 0;
  /// Offline-build counters (core/indexer.h).
  uint64_t walk_steps = 0;
  double build_seconds = 0.0;
  /// Free-form builder tag, e.g. "cloudwalker-0.1.0".
  std::string builder;
};

/// Writer knobs for the optional format extensions.
struct SnapshotWriteOptions {
  /// Write the kBlockIndex section (the out-of-core block layout;
  /// DESIGN.md section 14). Off reproduces the pre-extension format
  /// exactly — the compatibility tests use this to author "old" snapshots
  /// with the current writer.
  bool write_block_index = true;
  /// Target paged payload bytes per block; 0 selects kDefaultBlockBytes
  /// (ooc/block_layout.h).
  uint64_t block_bytes = 0;
  /// When non-empty: the locality reorder permutation, internal id ->
  /// external id, written as the kPermutation section. Must be a bijection
  /// over [0, num_nodes). The graph/index passed to Write are already in
  /// internal (reordered) id space, with in-rows in ascending external-id
  /// order; the permutation is what lets the API boundary translate back
  /// (DESIGN.md section 14).
  std::span<const NodeId> permutation = {};
};

/// Writes one format-2 snapshot file. The index must cover the graph's
/// nodes.
class SnapshotWriter {
 public:
  static Status Write(const std::string& path, const Graph& graph,
                      const DiagonalIndex& index,
                      const SnapshotMetadata& metadata);

  /// As above with explicit extension knobs.
  static Status Write(const std::string& path, const Graph& graph,
                      const DiagonalIndex& index,
                      const SnapshotMetadata& metadata,
                      const SnapshotWriteOptions& options);
};

/// An open snapshot: the validated mmap plus typed spans into it. Share
/// via shared_ptr — every consumer of the spans (Graph views, the
/// CloudWalker facade) must keep the view alive, which is exactly what
/// CloudWalker::Open arranges.
class SnapshotView {
 public:
  /// Opens, maps, and fully validates `path` (header, directory, per-
  /// section CRC, structural invariants). On platforms without mmap the
  /// file is read into a heap buffer instead — same API, same spans.
  static StatusOr<std::shared_ptr<const SnapshotView>> Open(
      const std::string& path);

  /// Partition-aware open: validates and exposes only the payload groups
  /// in `sections` (a SnapshotSections mask; the header, directory, and
  /// metadata are always checked). The net shard worker uses this to mmap
  /// just the in-CSR it walks against.
  static StatusOr<std::shared_ptr<const SnapshotView>> Open(
      const std::string& path, uint32_t sections);

  ~SnapshotView();
  SnapshotView(const SnapshotView&) = delete;
  SnapshotView& operator=(const SnapshotView&) = delete;

  NodeId num_nodes() const { return num_nodes_; }
  uint64_t num_edges() const { return num_edges_; }

  std::span<const uint64_t> out_offsets() const { return out_offsets_; }
  std::span<const NodeId> out_targets() const { return out_targets_; }
  std::span<const uint64_t> in_offsets() const { return in_offsets_; }
  std::span<const NodeId> in_targets() const { return in_targets_; }
  std::span<const double> diagonal() const { return diagonal_; }

  /// SimRank parameters of the embedded D-vector.
  const SimRankParams& params() const { return params_; }
  const SnapshotMetadata& metadata() const { return metadata_; }

  /// Total bytes of the underlying file.
  uint64_t file_bytes() const { return size_; }

  /// 64-bit identity of the artifact, derived from the header + directory
  /// CRC (which covers every section checksum) and the file size — any
  /// byte-level change to the snapshot changes it. Independent of the
  /// section mask the view was opened with; the net handshake pins it so a
  /// coordinator and its workers provably serve the same artifact.
  uint64_t fingerprint() const { return fingerprint_; }

  /// The SnapshotSections mask this view was opened with.
  uint32_t sections() const { return sections_; }

  /// True when the spans alias an mmap (false on the heap fallback).
  bool mmapped() const { return mmapped_; }

  /// True when the snapshot carries the kBlockIndex section. Old-format
  /// artifacts return false; the out-of-core layer falls back to
  /// whole-file residency for them (DESIGN.md section 14).
  bool has_block_index() const { return !blocks_.empty(); }

  /// The decoded block layout (empty without a kBlockIndex section).
  std::span<const BlockExtent> blocks() const { return blocks_; }

  /// The target paged bytes per block the layout was cut at (0 without a
  /// kBlockIndex section). Carried so open-then-rewrite reproduces the
  /// identical layout.
  uint64_t block_target_bytes() const { return block_target_bytes_; }

  /// The locality reorder permutation, internal id -> external id (empty
  /// when the snapshot was written without reordering). Validated as a
  /// bijection at open.
  std::span<const NodeId> permutation() const { return permutation_; }

 private:
  SnapshotView() = default;

  Status Validate(const std::string& path, uint32_t sections);

  const char* data_ = nullptr;
  uint64_t size_ = 0;
  uint64_t fingerprint_ = 0;
  uint32_t sections_ = kSnapshotAll;
  bool mmapped_ = false;
  std::string heap_buffer_;  // backing store on the no-mmap fallback

  NodeId num_nodes_ = 0;
  uint64_t num_edges_ = 0;
  SimRankParams params_;
  SnapshotMetadata metadata_;

  std::span<const uint64_t> out_offsets_;
  std::span<const NodeId> out_targets_;
  std::span<const uint64_t> in_offsets_;
  std::span<const NodeId> in_targets_;
  std::span<const double> diagonal_;
  std::span<const NodeId> permutation_;
  std::vector<BlockExtent> blocks_;
  uint64_t block_target_bytes_ = 0;
};

/// One row of a snapshot's section directory, as InspectSnapshot reports
/// it (the `snapshot-info` CLI subcommand renders these).
struct SnapshotSectionInfo {
  uint32_t id = 0;
  std::string name;        // "out_offsets", ..., "unknown"
  uint32_t elem_size = 0;  // element size in bytes
  uint64_t offset = 0;     // payload offset from file start
  uint64_t length = 0;     // payload length in bytes
  uint32_t crc = 0;        // stored CRC-32
  bool crc_ok = false;     // stored CRC matches the payload bytes
  bool retired = false;    // format 1's alias arena: ignored by readers
};

/// A snapshot's directory, decoded for inspection. Unlike SnapshotView::
/// Open this is diagnostic-grade: CRC mismatches and malformed sections
/// are *reported* (crc_ok = false, sections possibly flagged) instead of
/// failing the call, so an operator can inspect a damaged artifact. Only
/// an unreadable file, a foreign magic/endianness, or a directory that
/// does not fit the file fails.
struct SnapshotInfo {
  uint32_t format_version = 0;
  uint32_t block_index_version = 0;  // 0 without a decodable block index
  uint32_t num_sections = 0;
  uint64_t file_bytes = 0;
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
  bool header_crc_ok = false;  // header + directory checksum
  bool has_block_index = false;
  bool has_permutation = false;
  uint64_t block_count = 0;  // decoded from kBlockIndex when present
  std::vector<SnapshotSectionInfo> sections;
};

/// Reads and decodes `path`'s header and section directory (see
/// SnapshotInfo).
StatusOr<SnapshotInfo> InspectSnapshot(const std::string& path);

/// Test hook: when set, every madvise the snapshot layer issues reports
/// failure. Open and Write must still succeed — the hints are
/// best-effort — which is exactly what the hook lets a test assert.
void SetSnapshotMadviseFailForTest(bool fail);

}  // namespace cloudwalker

#endif  // CLOUDWALKER_SNAPSHOT_SNAPSHOT_H_
