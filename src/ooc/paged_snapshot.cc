#include "ooc/paged_snapshot.h"

#include <algorithm>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/crc32.h"
#include "common/random.h"
#include "common/serialize.h"

#if defined(__unix__) || defined(__APPLE__)
#define CW_OOC_HAS_PREAD 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace cloudwalker {
namespace {

// Layout constants mirrored from snapshot/snapshot.cc — the byte layout is
// frozen by DESIGN.md section 9, and the snapshot tests' flipped-byte
// sweeps exercise both readers against the same files.
constexpr char kMagic[8] = {'C', 'W', 'S', 'N', 'A', 'P', '1', '\0'};
constexpr uint32_t kEndianStamp = 0x01020304u;
constexpr uint64_t kHeaderBytes = 64;
constexpr uint64_t kDirEntryBytes = 32;
constexpr uint64_t kSectionAlign = 64;
constexpr uint32_t kNumRequiredSections = 6;
constexpr uint32_t kNumKnownSections = 10;

struct DirEntry {
  uint32_t id = 0;
  uint32_t elem_size = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(DirEntry) == kDirEntryBytes);

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::DataLoss("snapshot " + path + ": " + what);
}

Status DecodeMetadata(const std::string& bytes, SimRankParams* params,
                      SnapshotMetadata* m) {
  BinaryReader r(bytes);
  CW_RETURN_IF_ERROR(r.Read(&params->decay));
  CW_RETURN_IF_ERROR(r.Read(&params->num_steps));
  CW_RETURN_IF_ERROR(r.Read(&m->num_walkers));
  CW_RETURN_IF_ERROR(r.Read(&m->jacobi_iterations));
  CW_RETURN_IF_ERROR(r.Read(&m->seed));
  CW_RETURN_IF_ERROR(r.Read(&m->row_mode));
  CW_RETURN_IF_ERROR(r.Read(&m->dangling));
  CW_RETURN_IF_ERROR(r.Read(&m->initial_diagonal));
  CW_RETURN_IF_ERROR(r.Read(&m->query_options_fingerprint));
  CW_RETURN_IF_ERROR(r.Read(&m->walk_steps));
  CW_RETURN_IF_ERROR(r.Read(&m->build_seconds));
  CW_RETURN_IF_ERROR(r.ReadString(&m->builder));
  return Status::Ok();
}

}  // namespace

PagedSnapshot::~PagedSnapshot() {
#if CW_OOC_HAS_PREAD
  if (fd_ >= 0) ::close(fd_);
#endif
}

StatusOr<std::shared_ptr<const PagedSnapshot>> PagedSnapshot::Open(
    const std::string& path) {
  std::shared_ptr<PagedSnapshot> snap(new PagedSnapshot());
  CW_RETURN_IF_ERROR(snap->Load(path));
  return std::shared_ptr<const PagedSnapshot>(std::move(snap));
}

Status PagedSnapshot::Load(const std::string& path) {
  path_ = path;
  // A reader over [0, file size): pread on POSIX so only the requested
  // ranges ever touch memory; a whole-file heap buffer elsewhere (no paging
  // to win there anyway — such platforms run all-resident).
  std::string heap;
#if CW_OOC_HAS_PREAD
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    return Status::IoError("cannot open snapshot: " + path);
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IoError("cannot stat snapshot: " + path);
  }
  file_bytes_ = static_cast<uint64_t>(st.st_size);
  const auto read_range = [this, &path](uint64_t off, uint64_t len,
                                        void* dst) -> Status {
    char* out = static_cast<char*>(dst);
    while (len > 0) {
      const ssize_t got = ::pread(fd_, out, static_cast<size_t>(len),
                                  static_cast<off_t>(off));
      if (got <= 0) {
        return Status::IoError("short read from snapshot: " + path);
      }
      out += got;
      off += static_cast<uint64_t>(got);
      len -= static_cast<uint64_t>(got);
    }
    return Status::Ok();
  };
#else
  CW_RETURN_IF_ERROR(BinaryReader::LoadFile(path, &heap));
  file_bytes_ = heap.size();
  const auto read_range = [&heap](uint64_t off, uint64_t len,
                                  void* dst) -> Status {
    std::memcpy(dst, heap.data() + off, static_cast<size_t>(len));
    return Status::Ok();
  };
#endif

  if (file_bytes_ < kHeaderBytes) {
    return Corrupt(path, "truncated header (" + std::to_string(file_bytes_) +
                             " bytes, need " + std::to_string(kHeaderBytes) +
                             ")");
  }
  char header[kHeaderBytes];
  CW_RETURN_IF_ERROR(read_range(0, kHeaderBytes, header));
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a cloudwalker snapshot: " + path);
  }
  uint32_t version = 0, endian = 0, num_sections = 0, dir_crc = 0;
  uint64_t file_size = 0, n64 = 0, m64 = 0;
  std::memcpy(&version, header + 8, 4);
  std::memcpy(&endian, header + 12, 4);
  std::memcpy(&num_sections, header + 16, 4);
  std::memcpy(&dir_crc, header + 20, 4);
  std::memcpy(&file_size, header + 24, 8);
  std::memcpy(&n64, header + 32, 8);
  std::memcpy(&m64, header + 40, 8);
  if (version != 1 && version != kSnapshotFormatVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version) + " in " + path);
  }
  if (endian != kEndianStamp) {
    return Status::InvalidArgument(
        "snapshot " + path +
        " was written on a machine with a different byte order");
  }
  if (num_sections < kNumRequiredSections || num_sections > 64) {
    return Corrupt(
        path, "implausible section count " + std::to_string(num_sections));
  }
  const uint64_t dir_bytes = uint64_t{num_sections} * kDirEntryBytes;
  if (kHeaderBytes + dir_bytes > file_bytes_) {
    return Corrupt(path, "truncated directory");
  }
  std::vector<char> dir(dir_bytes);
  CW_RETURN_IF_ERROR(read_range(kHeaderBytes, dir_bytes, dir.data()));
  {
    char header_copy[kHeaderBytes];
    std::memcpy(header_copy, header, kHeaderBytes);
    std::memset(header_copy + 20, 0, 4);
    const uint32_t actual =
        Crc32(dir.data(), dir_bytes, Crc32(header_copy, kHeaderBytes));
    if (actual != dir_crc) {
      return Corrupt(path, "header/directory checksum mismatch");
    }
    // Identical derivation to SnapshotView::fingerprint(): the two open
    // paths must agree on the artifact's identity.
    fingerprint_ = DeriveSeed(actual, file_bytes_);
  }
  if (file_size != file_bytes_) {
    return Corrupt(path, "file is " + std::to_string(file_bytes_) +
                             " bytes but the header records " +
                             std::to_string(file_size));
  }
  if (n64 >= kInvalidNode) {
    return Corrupt(path, "node count exceeds the 32-bit id space");
  }
  const uint64_t n = n64;
  const uint64_t m = m64;

  DirEntry entries[64];
  const DirEntry* found[kNumKnownSections] = {};
  for (uint32_t i = 0; i < num_sections; ++i) {
    std::memcpy(&entries[i], dir.data() + i * kDirEntryBytes, kDirEntryBytes);
    const DirEntry& e = entries[i];
    if (e.offset % kSectionAlign != 0 || e.offset > file_bytes_ ||
        e.length > file_bytes_ - e.offset) {
      return Corrupt(path, "section " + std::to_string(e.id) +
                               " lies outside the file");
    }
    if (e.elem_size == 0 || e.length % e.elem_size != 0) {
      return Corrupt(path, "section " + std::to_string(e.id) +
                               " has a malformed element size");
    }
    if (e.id >= 1 && e.id <= kNumKnownSections && found[e.id - 1] == nullptr) {
      found[e.id - 1] = &entries[i];
    }
  }
  const auto entry = [&found](SnapshotSection id) {
    return found[static_cast<uint32_t>(id) - 1];
  };
  struct Expected {
    SnapshotSection id;
    uint32_t elem_size;
    uint64_t count;  // meta is free-length (count ignored)
  };
  const Expected expect[kNumRequiredSections] = {
      {SnapshotSection::kOutOffsets, sizeof(uint64_t), n + 1},
      {SnapshotSection::kOutTargets, sizeof(NodeId), m},
      {SnapshotSection::kInOffsets, sizeof(uint64_t), n + 1},
      {SnapshotSection::kInTargets, sizeof(NodeId), m},
      {SnapshotSection::kDiagonal, sizeof(double), n},
      {SnapshotSection::kMeta, 1, 0},
  };
  for (const Expected& x : expect) {
    const DirEntry* e = entry(x.id);
    if (e == nullptr) {
      return Corrupt(path,
                     "missing section " +
                         std::to_string(static_cast<uint32_t>(x.id)));
    }
    if (e->elem_size != x.elem_size ||
        (x.id != SnapshotSection::kMeta &&
         e->length != x.count * x.elem_size)) {
      return Corrupt(path, "section " +
                               std::to_string(static_cast<uint32_t>(x.id)) +
                               " disagrees with the header's node/edge "
                               "counts");
    }
  }

  // Load + CRC-check one resident section into a typed vector.
  const auto load_section = [&](const DirEntry* e, auto* vec) -> Status {
    using T = typename std::remove_reference_t<decltype(*vec)>::value_type;
    vec->resize(e->length / sizeof(T));
    CW_RETURN_IF_ERROR(read_range(e->offset, e->length, vec->data()));
    if (Crc32(vec->data(), e->length) != e->crc) {
      return Corrupt(path, "checksum mismatch in section " +
                               std::to_string(e->id));
    }
    return Status::Ok();
  };
  CW_RETURN_IF_ERROR(
      load_section(entry(SnapshotSection::kOutOffsets), &out_offsets_));
  CW_RETURN_IF_ERROR(
      load_section(entry(SnapshotSection::kOutTargets), &out_targets_));
  CW_RETURN_IF_ERROR(
      load_section(entry(SnapshotSection::kInOffsets), &in_offsets_));
  CW_RETURN_IF_ERROR(
      load_section(entry(SnapshotSection::kDiagonal), &diagonal_));

  // The same structural invariants SnapshotView::Validate enforces for the
  // arrays this open keeps resident; the paged arrays get their bounds
  // checks per block at page-in (ReadBlock).
  const auto offsets_ok = [&](const std::vector<uint64_t>& off) {
    if (off.front() != 0 || off.back() != m) return false;
    for (uint64_t v = 0; v < n; ++v) {
      if (off[v] > off[v + 1]) return false;
    }
    return true;
  };
  if (!offsets_ok(out_offsets_) || !offsets_ok(in_offsets_)) {
    return Corrupt(path, "CSR offsets are not monotone over [0, num_edges]");
  }
  for (const NodeId t : out_targets_) {
    if (t >= n) return Corrupt(path, "edge target out of node range");
  }

  {
    const DirEntry* e_meta = entry(SnapshotSection::kMeta);
    std::string meta_bytes(e_meta->length, '\0');
    CW_RETURN_IF_ERROR(
        read_range(e_meta->offset, e_meta->length, meta_bytes.data()));
    if (Crc32(meta_bytes.data(), meta_bytes.size()) != e_meta->crc) {
      return Corrupt(path, "checksum mismatch in section meta");
    }
    const Status meta_ok = DecodeMetadata(meta_bytes, &params_, &metadata_);
    if (!meta_ok.ok()) {
      return Corrupt(path,
                     "undecodable metadata (" + meta_ok.ToString() + ")");
    }
    if (!params_.Validate().ok()) {
      return Corrupt(path, "metadata carries invalid SimRank parameters");
    }
  }

  if (const DirEntry* e_perm = entry(SnapshotSection::kPermutation)) {
    if (version == 1) {
      return Format1ReorderedError(path);
    }
    if (e_perm->elem_size != sizeof(NodeId) ||
        e_perm->length != n * sizeof(NodeId)) {
      return Corrupt(path, "permutation disagrees with the node count");
    }
    CW_RETURN_IF_ERROR(load_section(e_perm, &permutation_));
    std::vector<uint8_t> seen(n, 0);
    for (const NodeId ext : permutation_) {
      if (ext >= n || seen[ext]) {
        return Corrupt(path, "permutation is not a bijection");
      }
      seen[ext] = 1;
    }
  }

  const DirEntry* e_in_tgt = entry(SnapshotSection::kInTargets);
  const DirEntry* e_blocks = entry(SnapshotSection::kBlockIndex);
#if !CW_OOC_HAS_PREAD
  e_blocks = nullptr;  // no pread: run every artifact all-resident
#endif
  if (e_blocks != nullptr) {
    if (e_blocks->elem_size != 1) {
      return Corrupt(path, "block index has a malformed element size");
    }
    std::string block_bytes(e_blocks->length, '\0');
    CW_RETURN_IF_ERROR(
        read_range(e_blocks->offset, e_blocks->length, block_bytes.data()));
    if (Crc32(block_bytes.data(), block_bytes.size()) != e_blocks->crc) {
      return Corrupt(path, "checksum mismatch in section block_index");
    }
    const Status decoded =
        DecodeBlockIndex(block_bytes, n, m, &blocks_, &block_target_bytes_);
    if (!decoded.ok()) {
      return Corrupt(path,
                     "undecodable block index (" + decoded.ToString() + ")");
    }
    for (const BlockExtent& b : blocks_) {
      if (in_offsets_[b.node_begin] != b.edge_begin ||
          in_offsets_[b.node_end] != b.edge_end) {
        return Corrupt(path, "block index disagrees with the in-CSR");
      }
    }
    from_block_index_ = true;
    in_targets_offset_ = e_in_tgt->offset;
  } else {
    // Old-format artifact (or no pread): whole-file fallback. Load
    // in_targets resident with the full checks a mapped open would apply,
    // and synthesize the block layout so the scheduler and cache run the
    // identical single code path — just with a 100% hit rate.
    CW_RETURN_IF_ERROR(load_section(e_in_tgt, &resident_in_targets_));
    for (const NodeId t : resident_in_targets_) {
      if (t >= n) return Corrupt(path, "edge target out of node range");
    }
    block_target_bytes_ = kDefaultBlockBytes;
    blocks_ = BuildBlockLayout(in_offsets_, resident_in_targets_,
                               block_target_bytes_);
  }
  for (const BlockExtent& b : blocks_) {
    max_block_bytes_ =
        std::max(max_block_bytes_, b.num_edges() * kPagedBytesPerEdge);
  }

  num_nodes_ = static_cast<NodeId>(n);
  num_edges_ = m;
  return Status::Ok();
}

Status PagedSnapshot::ReadBlock(uint32_t b, NodeId* targets_out) const {
  if (b >= blocks_.size()) {
    return Status::Internal("block id " + std::to_string(b) +
                            " out of range");
  }
  const BlockExtent& ext = blocks_[b];
  const uint64_t edges = ext.num_edges();
  if (!from_block_index_) {
    std::memcpy(targets_out, resident_in_targets_.data() + ext.edge_begin,
                edges * sizeof(NodeId));
    return Status::Ok();
  }
#if CW_OOC_HAS_PREAD
  const auto read_range = [this](uint64_t off, uint64_t len,
                                 void* dst) -> Status {
    char* out = static_cast<char*>(dst);
    while (len > 0) {
      const ssize_t got = ::pread(fd_, out, static_cast<size_t>(len),
                                  static_cast<off_t>(off));
      if (got <= 0) {
        return Status::IoError("short read from snapshot: " + path_);
      }
      out += got;
      off += static_cast<uint64_t>(got);
      len -= static_cast<uint64_t>(got);
    }
    return Status::Ok();
  };
  CW_RETURN_IF_ERROR(
      read_range(in_targets_offset_ + ext.edge_begin * sizeof(NodeId),
                 edges * sizeof(NodeId), targets_out));
  if (Crc32(targets_out, edges * sizeof(NodeId)) != ext.crc_in_targets) {
    return Corrupt(path_, "checksum mismatch in block " + std::to_string(b) +
                              " of in_targets");
  }
  // The walk kernels index with these ids unchecked — the same guarantee
  // SnapshotView's whole-file sweep gives, applied per page-in.
  for (uint64_t i = 0; i < edges; ++i) {
    if (targets_out[i] >= num_nodes_) {
      return Corrupt(path_, "id out of node range in block " +
                                std::to_string(b));
    }
  }
  return Status::Ok();
#else
  return Status::Internal("paged reads unavailable on this platform");
#endif
}

}  // namespace cloudwalker
