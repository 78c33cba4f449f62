#include "snapshot/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "common/serialize.h"

#if defined(__unix__) || defined(__APPLE__)
#define CW_SNAPSHOT_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace cloudwalker {
namespace {

constexpr char kMagic[8] = {'C', 'W', 'S', 'N', 'A', 'P', '1', '\0'};
constexpr uint32_t kEndianStamp = 0x01020304u;
constexpr uint64_t kHeaderBytes = 64;
constexpr uint64_t kDirEntryBytes = 32;
constexpr uint64_t kSectionAlign = 64;
constexpr uint32_t kNumSections = 6;  // required sections, ids 1-4, 7, 8
constexpr uint32_t kNumKnownSections = 10;  // + optional block index, perm

struct DirEntry {
  uint32_t id = 0;
  uint32_t elem_size = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(DirEntry) == kDirEntryBytes);

// Ids 5 and 6: format 1's alias arena, retired (never reused, never
// mapped).
bool IsRetiredSection(uint32_t id) { return id == 5 || id == 6; }

const char* SectionName(uint32_t id) {
  if (id == 5) return "arena_offsets";
  if (id == 6) return "arena_slots";
  switch (static_cast<SnapshotSection>(id)) {
    case SnapshotSection::kOutOffsets:
      return "out_offsets";
    case SnapshotSection::kOutTargets:
      return "out_targets";
    case SnapshotSection::kInOffsets:
      return "in_offsets";
    case SnapshotSection::kInTargets:
      return "in_targets";
    case SnapshotSection::kDiagonal:
      return "diagonal";
    case SnapshotSection::kMeta:
      return "meta";
    case SnapshotSection::kBlockIndex:
      return "block_index";
    case SnapshotSection::kPermutation:
      return "permutation";
  }
  return "unknown";
}

void PadTo(BinaryWriter* w, uint64_t alignment) {
  static const char kZeros[kSectionAlign] = {};
  const uint64_t rem = w->buffer().size() % alignment;
  if (rem != 0) w->WriteBytes(kZeros, alignment - rem);
}

std::string EncodeMetadata(const SimRankParams& params,
                           const SnapshotMetadata& m) {
  BinaryWriter w;
  w.Write(params.decay);
  w.Write(params.num_steps);
  w.Write(m.num_walkers);
  w.Write(m.jacobi_iterations);
  w.Write(m.seed);
  w.Write(m.row_mode);
  w.Write(m.dangling);
  w.Write(m.initial_diagonal);
  w.Write(m.query_options_fingerprint);
  w.Write(m.walk_steps);
  w.Write(m.build_seconds);
  w.WriteString(m.builder);
  return w.buffer();
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

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::DataLoss("snapshot " + path + ": " + what);
}

// The SnapshotSections group a payload section belongs to. 0 means the
// section (metadata, extensions, retired and unknown ids) is validated
// under every mask.
uint32_t SectionGroup(uint32_t id) {
  switch (static_cast<SnapshotSection>(id)) {
    case SnapshotSection::kOutOffsets:
    case SnapshotSection::kOutTargets:
      return kSnapshotOut;
    case SnapshotSection::kInOffsets:
    case SnapshotSection::kInTargets:
      return kSnapshotIn;
    case SnapshotSection::kDiagonal:
      return kSnapshotDiagonal;
    case SnapshotSection::kMeta:
    case SnapshotSection::kBlockIndex:
    case SnapshotSection::kPermutation:
      return 0;
  }
  return 0;
}

#if CW_SNAPSHOT_HAS_MMAP
bool g_madvise_fail_for_test = false;

// Best-effort paging hint over [offset, offset + length) of the mapping at
// `base`. The start rounds down to a page boundary (madvise requires it;
// advice is per-page anyway). A failed hint is never fatal — the test hook
// forces failure to prove callers treat it that way.
bool MadviseRange(const char* base, uint64_t offset, uint64_t length,
                  int advice) {
  if (length == 0) return true;
  if (g_madvise_fail_for_test) return false;
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t begin = offset / page * page;
  return ::madvise(const_cast<char*>(base) + begin,
                   static_cast<size_t>(offset - begin + length), advice) == 0;
}
#endif

// Writer read-back: stream the just-written .tmp off disk again (hinted
// MADV_SEQUENTIAL — it is a single front-to-back pass) and check every
// byte round-tripped before the rename publishes the artifact. Catches
// torn writes that hid behind page-cache buffering until fclose.
Status VerifyWrittenFile(const std::string& tmp, uint64_t expect_size,
                         uint32_t expect_crc) {
  uint32_t actual = 0;
  uint64_t size = 0;
#if CW_SNAPSHOT_HAS_MMAP
  const int fd = ::open(tmp.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot reopen for verification: " + tmp);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat: " + tmp);
  }
  size = static_cast<uint64_t>(st.st_size);
  if (size > 0) {
    void* base = ::mmap(nullptr, static_cast<size_t>(size), PROT_READ,
                        MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
      return Status::IoError("mmap failed on: " + tmp);
    }
    MadviseRange(static_cast<const char*>(base), 0, size, MADV_SEQUENTIAL);
    actual = Crc32(base, size);
    ::munmap(base, static_cast<size_t>(size));
  } else {
    ::close(fd);
  }
#else
  std::string buffer;
  CW_RETURN_IF_ERROR(BinaryReader::LoadFile(tmp, &buffer));
  size = buffer.size();
  actual = Crc32(buffer.data(), buffer.size());
#endif
  if (size != expect_size || actual != expect_crc) {
    return Status::IoError("read-back verification failed for " + tmp);
  }
  return Status::Ok();
}

}  // namespace

Status Format1ReorderedError(const std::string& path) {
  return Status::InvalidArgument(
      "snapshot " + path +
      " is a locality-reordered format-1 file; its walk order lived in the "
      "retired alias arena — re-write it with this version");
}

Status SnapshotWriter::Write(const std::string& path, const Graph& graph,
                             const DiagonalIndex& index,
                             const SnapshotMetadata& metadata) {
  return Write(path, graph, index, metadata, SnapshotWriteOptions{});
}

Status SnapshotWriter::Write(const std::string& path, const Graph& graph,
                             const DiagonalIndex& index,
                             const SnapshotMetadata& metadata,
                             const SnapshotWriteOptions& options) {
  const uint64_t n = graph.num_nodes();
  const uint64_t m = graph.num_edges();
  if (index.num_nodes() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "snapshot: index covers " + std::to_string(index.num_nodes()) +
        " nodes but the graph has " + std::to_string(n));
  }
  CW_RETURN_IF_ERROR(index.params().Validate());
  if (!options.permutation.empty()) {
    if (options.permutation.size() != n) {
      return Status::InvalidArgument(
          "snapshot: permutation has " +
          std::to_string(options.permutation.size()) + " entries for " +
          std::to_string(n) + " nodes");
    }
    std::vector<uint8_t> seen(n, 0);
    for (const NodeId ext : options.permutation) {
      if (ext >= n || seen[ext]) {
        return Status::InvalidArgument(
            "snapshot: permutation is not a bijection over the node ids");
      }
      seen[ext] = 1;
    }
  }

  const std::string meta_bytes = EncodeMetadata(index.params(), metadata);

  struct Payload {
    SnapshotSection id;
    uint32_t elem_size;
    const void* data;
    uint64_t length;
  };
  std::vector<Payload> payloads = {
      {SnapshotSection::kOutOffsets, sizeof(uint64_t),
       graph.OutOffsets().data(), (n + 1) * sizeof(uint64_t)},
      {SnapshotSection::kOutTargets, sizeof(NodeId),
       graph.OutTargets().data(), m * sizeof(NodeId)},
      {SnapshotSection::kInOffsets, sizeof(uint64_t),
       graph.InOffsets().data(), (n + 1) * sizeof(uint64_t)},
      {SnapshotSection::kInTargets, sizeof(NodeId), graph.InTargets().data(),
       m * sizeof(NodeId)},
      {SnapshotSection::kDiagonal, sizeof(double), index.diagonal().data(),
       n * sizeof(double)},
      {SnapshotSection::kMeta, 1, meta_bytes.data(), meta_bytes.size()},
  };
  std::string block_index_bytes;
  if (options.write_block_index) {
    const uint64_t target =
        options.block_bytes != 0 ? options.block_bytes : kDefaultBlockBytes;
    block_index_bytes = EncodeBlockIndex(
        BuildBlockLayout(graph.InOffsets(), graph.InTargets(), target),
        target);
    payloads.push_back({SnapshotSection::kBlockIndex, 1,
                        block_index_bytes.data(), block_index_bytes.size()});
  }
  if (!options.permutation.empty()) {
    payloads.push_back({SnapshotSection::kPermutation, sizeof(NodeId),
                        options.permutation.data(), n * sizeof(NodeId)});
  }
  const uint32_t num_sections = static_cast<uint32_t>(payloads.size());

  // Lay out the payloads after the header + directory, 64-byte aligned.
  uint64_t cursor = kHeaderBytes + uint64_t{num_sections} * kDirEntryBytes;
  BinaryWriter dir;
  for (const Payload& p : payloads) {
    cursor = (cursor + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
    DirEntry e;
    e.id = static_cast<uint32_t>(p.id);
    e.elem_size = p.elem_size;
    e.offset = cursor;
    e.length = p.length;
    e.crc = Crc32(p.data, p.length);
    dir.Write(e);
    cursor += p.length;
  }
  const uint64_t file_size = cursor;

  // The header CRC covers the whole header (with the CRC field itself
  // zeroed) plus the directory, so any stray flip in either is caught.
  BinaryWriter header;
  header.WriteBytes(kMagic, sizeof(kMagic));
  header.Write(kSnapshotFormatVersion);
  header.Write(kEndianStamp);
  header.Write(num_sections);
  header.Write<uint32_t>(0);  // CRC placeholder
  header.Write(file_size);
  header.Write(n);
  header.Write(m);
  PadTo(&header, kHeaderBytes);
  const uint32_t header_crc =
      Crc32(dir.buffer().data(), dir.buffer().size(),
            Crc32(header.buffer().data(), header.buffer().size()));
  std::string header_bytes = header.buffer();
  std::memcpy(header_bytes.data() + 20, &header_crc, sizeof(header_crc));

  // Stream straight to disk — the payload arrays are already contiguous
  // spans, so only the ~320-byte header + directory is ever buffered and
  // persisting a multi-GB engine never doubles resident memory. Write to
  // .tmp then rename so the published path is always a complete artifact:
  // a crash mid-write leaves only the .tmp (removed on every error path
  // below), and replacing a file a live server has mmapped swaps the
  // directory entry while the old inode stays intact under the existing
  // mapping (the SIGHUP reload flow).
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for writing: " + tmp);
  }
  // `disk_crc` accumulates over every byte in file order; the read-back
  // pass below re-derives it from the .tmp to prove the write stuck.
  uint32_t disk_crc = 0;
  const auto put = [f, &disk_crc](const void* data, uint64_t size) {
    if (size == 0) return true;
    disk_crc = Crc32(data, size, disk_crc);
    return std::fwrite(data, 1, size, f) == size;
  };
  static const char kPadZeros[kSectionAlign] = {};
  uint64_t written = header_bytes.size() + dir.buffer().size();
  bool ok = put(header_bytes.data(), header_bytes.size()) &&
            put(dir.buffer().data(), dir.buffer().size());
  for (const Payload& p : payloads) {
    if (!ok) break;
    const uint64_t rem = written % kSectionAlign;
    const uint64_t pad = rem == 0 ? 0 : kSectionAlign - rem;
    ok = put(kPadZeros, pad) && put(p.data, p.length);
    written += pad + p.length;
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError("short write to " + tmp);
  }
  const Status readback = VerifyWrittenFile(tmp, file_size, disk_crc);
  if (!readback.ok()) {
    std::remove(tmp.c_str());
    return readback;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

SnapshotView::~SnapshotView() {
#if CW_SNAPSHOT_HAS_MMAP
  if (mmapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), static_cast<size_t>(size_));
  }
#endif
}

StatusOr<std::shared_ptr<const SnapshotView>> SnapshotView::Open(
    const std::string& path) {
  return Open(path, kSnapshotAll);
}

StatusOr<std::shared_ptr<const SnapshotView>> SnapshotView::Open(
    const std::string& path, uint32_t sections) {
  // shared_ptr (not make_shared): the constructor is private, and the
  // destructor must run even when validation fails below.
  std::shared_ptr<SnapshotView> view(new SnapshotView());
#if CW_SNAPSHOT_HAS_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open snapshot: " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat snapshot: " + path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size > 0) {
    void* base = ::mmap(nullptr, static_cast<size_t>(size), PROT_READ,
                        MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
      return Status::IoError("mmap failed on snapshot: " + path);
    }
    view->data_ = static_cast<const char*>(base);
    view->mmapped_ = true;
    // Validation is one front-to-back integrity pass; hint it. Validate
    // re-hints the randomly-accessed sections MADV_RANDOM once it's done.
    MadviseRange(view->data_, 0, size, MADV_SEQUENTIAL);
  } else {
    ::close(fd);
  }
  view->size_ = size;
#else
  CW_RETURN_IF_ERROR(BinaryReader::LoadFile(path, &view->heap_buffer_));
  view->data_ = view->heap_buffer_.data();
  view->size_ = view->heap_buffer_.size();
#endif
  CW_RETURN_IF_ERROR(view->Validate(path, sections & kSnapshotAll));
  return std::shared_ptr<const SnapshotView>(std::move(view));
}

Status SnapshotView::Validate(const std::string& path, uint32_t sections) {
  sections_ = sections;
  const auto selected = [sections](uint32_t id) {
    const uint32_t group = SectionGroup(id);
    return group == 0 || (sections & group) != 0;
  };
  if (size_ < kHeaderBytes) {
    return Corrupt(path, "truncated header (" + std::to_string(size_) +
                             " bytes, need " + std::to_string(kHeaderBytes) +
                             ")");
  }
  if (reinterpret_cast<uintptr_t>(data_) % alignof(uint64_t) != 0) {
    return Status::Internal("snapshot buffer is not 8-byte aligned");
  }
  if (std::memcmp(data_, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a cloudwalker snapshot: " + path);
  }
  uint32_t version = 0, endian = 0, num_sections = 0, dir_crc = 0;
  uint64_t file_size = 0, n64 = 0, m64 = 0;
  std::memcpy(&version, data_ + 8, 4);
  std::memcpy(&endian, data_ + 12, 4);
  std::memcpy(&num_sections, data_ + 16, 4);
  std::memcpy(&dir_crc, data_ + 20, 4);
  std::memcpy(&file_size, data_ + 24, 8);
  std::memcpy(&n64, data_ + 32, 8);
  std::memcpy(&m64, data_ + 40, 8);
  if (version != 1 && version != kSnapshotFormatVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(version) + " in " + path);
  }
  if (endian != kEndianStamp) {
    return Status::InvalidArgument(
        "snapshot " + path +
        " was written on a machine with a different byte order");
  }
  if (num_sections < kNumSections || num_sections > 64) {
    return Corrupt(
        path, "implausible section count " + std::to_string(num_sections));
  }
  const uint64_t dir_bytes = uint64_t{num_sections} * kDirEntryBytes;
  if (kHeaderBytes + dir_bytes > size_) {
    return Corrupt(path, "truncated directory");
  }
  {
    char header_copy[kHeaderBytes];
    std::memcpy(header_copy, data_, kHeaderBytes);
    std::memset(header_copy + 20, 0, 4);  // the CRC field covers itself as 0
    const uint32_t actual =
        Crc32(data_ + kHeaderBytes, dir_bytes,
              Crc32(header_copy, kHeaderBytes));
    if (actual != dir_crc) {
      return Corrupt(path, "header/directory checksum mismatch");
    }
    // The artifact's identity: the verified header+directory CRC already
    // covers every section checksum, so any byte-level change anywhere in
    // the file moves it. Mixed with the size for a full 64-bit tag.
    fingerprint_ = DeriveSeed(actual, size_);
  }
  if (file_size != size_) {
    return Corrupt(path, "file is " + std::to_string(size_) +
                             " bytes but the header records " +
                             std::to_string(file_size));
  }
  if (n64 >= kInvalidNode) {
    return Corrupt(path, "node count exceeds the 32-bit id space");
  }
  const uint64_t n = n64;
  const uint64_t m = m64;

  // Walk the directory: bounds, alignment, element sizing, payload CRC.
  const DirEntry* entries =
      reinterpret_cast<const DirEntry*>(data_ + kHeaderBytes);
  const DirEntry* found[kNumKnownSections] = {};
  for (uint32_t i = 0; i < num_sections; ++i) {
    const DirEntry& e = entries[i];
    if (e.offset % kSectionAlign != 0 || e.offset > size_ ||
        e.length > size_ - e.offset) {
      return Corrupt(path, std::string("section ") + SectionName(e.id) +
                               " lies outside the file");
    }
    if (e.elem_size == 0 || e.length % e.elem_size != 0) {
      return Corrupt(path, std::string("section ") + SectionName(e.id) +
                               " has a malformed element size");
    }
    // The payload CRC pass is the expensive part of Open; a masked open
    // skips it for the sections it will never read (their checksums stay
    // pinned by the verified directory CRC above).
    if (selected(e.id) && Crc32(data_ + e.offset, e.length) != e.crc) {
      return Corrupt(path, std::string("checksum mismatch in section ") +
                               SectionName(e.id));
    }
    const uint32_t id = e.id;
    if (id >= 1 && id <= kNumKnownSections && found[id - 1] == nullptr) {
      found[id - 1] = &e;
    }
  }
  // Tamper-evidence for the bytes no section CRC covers: sections must not
  // overlap, and every gap (alignment padding) must be zero, so a single
  // flipped byte anywhere in the file is detectable.
  {
    std::vector<std::pair<uint64_t, uint64_t>> extents;
    extents.reserve(num_sections + 1);
    extents.emplace_back(0, kHeaderBytes + dir_bytes);
    for (uint32_t i = 0; i < num_sections; ++i) {
      extents.emplace_back(entries[i].offset,
                           entries[i].offset + entries[i].length);
    }
    std::sort(extents.begin(), extents.end());
    uint64_t cursor = 0;
    for (const auto& [begin, end] : extents) {
      if (begin < cursor) {
        return Corrupt(path, "overlapping sections");
      }
      for (uint64_t b = cursor; b < begin; ++b) {
        if (data_[b] != 0) {
          return Corrupt(path, "nonzero padding between sections");
        }
      }
      cursor = end;
    }
    for (uint64_t b = cursor; b < size_; ++b) {
      if (data_[b] != 0) {
        return Corrupt(path, "nonzero trailing bytes");
      }
    }
  }

  struct Expected {
    SnapshotSection id;
    uint32_t elem_size;
    uint64_t count;  // expected element count; meta is free-length
  };
  const Expected expect[kNumSections] = {
      {SnapshotSection::kOutOffsets, sizeof(uint64_t), n + 1},
      {SnapshotSection::kOutTargets, sizeof(NodeId), m},
      {SnapshotSection::kInOffsets, sizeof(uint64_t), n + 1},
      {SnapshotSection::kInTargets, sizeof(NodeId), m},
      {SnapshotSection::kDiagonal, sizeof(double), n},
      {SnapshotSection::kMeta, 1, 0},
  };
  for (const Expected& x : expect) {
    const DirEntry* e = found[static_cast<uint32_t>(x.id) - 1];
    if (e == nullptr) {
      return Corrupt(path, std::string("missing section ") +
                               SectionName(static_cast<uint32_t>(x.id)));
    }
    if (e->elem_size != x.elem_size ||
        (x.id != SnapshotSection::kMeta &&
         e->length != x.count * x.elem_size)) {
      return Corrupt(path, std::string("section ") +
                               SectionName(static_cast<uint32_t>(x.id)) +
                               " disagrees with the header's node/edge "
                               "counts");
    }
  }

  const auto section_ptr = [this](const DirEntry* e) {
    return data_ + e->offset;
  };
  const DirEntry* e_out_off =
      found[static_cast<uint32_t>(SnapshotSection::kOutOffsets) - 1];
  const DirEntry* e_out_tgt =
      found[static_cast<uint32_t>(SnapshotSection::kOutTargets) - 1];
  const DirEntry* e_in_off =
      found[static_cast<uint32_t>(SnapshotSection::kInOffsets) - 1];
  const DirEntry* e_in_tgt =
      found[static_cast<uint32_t>(SnapshotSection::kInTargets) - 1];
  const DirEntry* e_diag =
      found[static_cast<uint32_t>(SnapshotSection::kDiagonal) - 1];
  const DirEntry* e_meta =
      found[static_cast<uint32_t>(SnapshotSection::kMeta) - 1];

  if ((sections & kSnapshotOut) != 0) {
    out_offsets_ = {
        reinterpret_cast<const uint64_t*>(section_ptr(e_out_off)), n + 1};
    out_targets_ = {reinterpret_cast<const NodeId*>(section_ptr(e_out_tgt)),
                    m};
  }
  if ((sections & kSnapshotIn) != 0) {
    in_offsets_ = {reinterpret_cast<const uint64_t*>(section_ptr(e_in_off)),
                   n + 1};
    in_targets_ = {reinterpret_cast<const NodeId*>(section_ptr(e_in_tgt)),
                   m};
  }
  if ((sections & kSnapshotDiagonal) != 0) {
    diagonal_ = {reinterpret_cast<const double*>(section_ptr(e_diag)), n};
  }

  // Structural invariants the zero-copy views rely on: the kernels index
  // with these values unchecked, so a file that passes here can never
  // send a walker out of bounds. Each check runs only for the groups this
  // open selected — an unselected group hands out no spans.
  const auto offsets_ok = [&](std::span<const uint64_t> off) {
    if (off.front() != 0 || off.back() != m) return false;
    for (uint64_t v = 0; v < n; ++v) {
      if (off[v] > off[v + 1]) return false;
    }
    return true;
  };
  if (((sections & kSnapshotOut) != 0 && !offsets_ok(out_offsets_)) ||
      ((sections & kSnapshotIn) != 0 && !offsets_ok(in_offsets_))) {
    return Corrupt(path, "CSR offsets are not monotone over [0, num_edges]");
  }
  const auto targets_ok = [n, m](std::span<const NodeId> targets) {
    for (uint64_t i = 0; i < m; ++i) {
      if (targets[i] >= n) return false;
    }
    return true;
  };
  if (((sections & kSnapshotOut) != 0 && !targets_ok(out_targets_)) ||
      ((sections & kSnapshotIn) != 0 && !targets_ok(in_targets_))) {
    return Corrupt(path, "edge target out of node range");
  }

  // Optional extension sections (ids 9/10). The CRC pass above already
  // pinned their bytes (group 0 — always checked), so a failure here means
  // a malformed writer, not bit rot; it is still corruption to the caller.
  if (const DirEntry* e_blocks =
          found[static_cast<uint32_t>(SnapshotSection::kBlockIndex) - 1]) {
    if (e_blocks->elem_size != 1) {
      return Corrupt(path, "block index has a malformed element size");
    }
    std::string block_bytes(section_ptr(e_blocks), e_blocks->length);
    uint64_t target = 0;
    const Status decoded = DecodeBlockIndex(block_bytes, n, m, &blocks_,
                                            &target);
    if (!decoded.ok()) {
      return Corrupt(path,
                     "undecodable block index (" + decoded.ToString() + ")");
    }
    block_target_bytes_ = target;
    if ((sections & kSnapshotIn) != 0) {
      // The blocks must cut the in-CSR at exactly the rows they claim —
      // the block cache preads [edge_begin, edge_end) for nodes
      // [node_begin, node_end) without consulting in_offsets again.
      for (const BlockExtent& b : blocks_) {
        if (in_offsets_[b.node_begin] != b.edge_begin ||
            in_offsets_[b.node_end] != b.edge_end) {
          return Corrupt(path, "block index disagrees with the in-CSR");
        }
      }
    }
  }
  if (const DirEntry* e_perm =
          found[static_cast<uint32_t>(SnapshotSection::kPermutation) - 1]) {
    if (version == 1) return Format1ReorderedError(path);
    if (e_perm->elem_size != sizeof(NodeId) ||
        e_perm->length != n * sizeof(NodeId)) {
      return Corrupt(path, "permutation disagrees with the node count");
    }
    permutation_ = {reinterpret_cast<const NodeId*>(section_ptr(e_perm)), n};
    std::vector<uint8_t> seen(n, 0);
    for (const NodeId ext : permutation_) {
      if (ext >= n || seen[ext]) {
        return Corrupt(path, "permutation is not a bijection");
      }
      seen[ext] = 1;
    }
  }

  std::string meta_bytes(section_ptr(e_meta), e_meta->length);
  const Status meta_ok = DecodeMetadata(meta_bytes, &params_, &metadata_);
  if (!meta_ok.ok()) {
    return Corrupt(path, "undecodable metadata (" + meta_ok.ToString() + ")");
  }
  if (!params_.Validate().ok()) {
    return Corrupt(path, "metadata carries invalid SimRank parameters");
  }

#if CW_SNAPSHOT_HAS_MMAP
  // Serving hint: queries hit the CSR arrays in walker order —
  // effectively at random — so flip those extents from the sequential
  // validation hint to MADV_RANDOM. Purely advisory; a failing madvise
  // (see SetSnapshotMadviseFailForTest) never fails the open.
  if (mmapped_) {
    for (const SnapshotSection id :
         {SnapshotSection::kOutOffsets, SnapshotSection::kOutTargets,
          SnapshotSection::kInOffsets, SnapshotSection::kInTargets}) {
      const DirEntry* e = found[static_cast<uint32_t>(id) - 1];
      MadviseRange(data_, e->offset, e->length, MADV_RANDOM);
    }
  }
#endif

  num_nodes_ = static_cast<NodeId>(n);
  num_edges_ = m;
  return Status::Ok();
}

StatusOr<SnapshotInfo> InspectSnapshot(const std::string& path) {
  std::string bytes;
  CW_RETURN_IF_ERROR(BinaryReader::LoadFile(path, &bytes));
  const char* data = bytes.data();
  const uint64_t size = bytes.size();
  if (size < kHeaderBytes) {
    return Corrupt(path, "truncated header (" + std::to_string(size) +
                             " bytes, need " + std::to_string(kHeaderBytes) +
                             ")");
  }
  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a cloudwalker snapshot: " + path);
  }
  SnapshotInfo info;
  uint32_t endian = 0, dir_crc = 0;
  std::memcpy(&info.format_version, data + 8, 4);
  std::memcpy(&endian, data + 12, 4);
  std::memcpy(&info.num_sections, data + 16, 4);
  std::memcpy(&dir_crc, data + 20, 4);
  std::memcpy(&info.num_nodes, data + 32, 8);
  std::memcpy(&info.num_edges, data + 40, 8);
  info.file_bytes = size;
  if (endian != kEndianStamp) {
    return Status::InvalidArgument(
        "snapshot " + path +
        " was written on a machine with a different byte order");
  }
  const uint64_t dir_bytes = uint64_t{info.num_sections} * kDirEntryBytes;
  if (dir_bytes > size - kHeaderBytes) {
    return Corrupt(path, "truncated directory");
  }
  {
    char header_copy[kHeaderBytes];
    std::memcpy(header_copy, data, kHeaderBytes);
    std::memset(header_copy + 20, 0, 4);
    info.header_crc_ok = Crc32(data + kHeaderBytes, dir_bytes,
                               Crc32(header_copy, kHeaderBytes)) == dir_crc;
  }
  info.sections.reserve(info.num_sections);
  for (uint32_t i = 0; i < info.num_sections; ++i) {
    DirEntry e;
    std::memcpy(&e, data + kHeaderBytes + i * kDirEntryBytes, sizeof(e));
    SnapshotSectionInfo s;
    s.id = e.id;
    s.name = SectionName(e.id);
    s.elem_size = e.elem_size;
    s.offset = e.offset;
    s.length = e.length;
    s.crc = e.crc;
    const bool in_file = e.offset <= size && e.length <= size - e.offset;
    s.crc_ok = in_file && Crc32(data + e.offset, e.length) == e.crc;
    s.retired = IsRetiredSection(e.id);
    if (e.id == static_cast<uint32_t>(SnapshotSection::kBlockIndex)) {
      info.has_block_index = true;
      if (in_file) {
        std::vector<BlockExtent> blocks;
        uint64_t target = 0;
        uint32_t block_version = 0;
        if (DecodeBlockIndex(std::string(data + e.offset, e.length),
                             info.num_nodes, info.num_edges, &blocks, &target,
                             &block_version)
                .ok()) {
          info.block_count = blocks.size();
          info.block_index_version = block_version;
        }
      }
    } else if (e.id == static_cast<uint32_t>(SnapshotSection::kPermutation)) {
      info.has_permutation = true;
    }
    info.sections.push_back(std::move(s));
  }
  return info;
}

void SetSnapshotMadviseFailForTest(bool fail) {
#if CW_SNAPSHOT_HAS_MMAP
  g_madvise_fail_for_test = fail;
#else
  (void)fail;
#endif
}

}  // namespace cloudwalker
