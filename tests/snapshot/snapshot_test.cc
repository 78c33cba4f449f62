// Snapshot round-trip and durability tests (DESIGN.md section 9).
//
// The contract under test: a snapshot written by CloudWalker::WriteSnapshot
// and reopened via the mmap-backed CloudWalker::Open answers every query
// kind bit-identically to the instance that wrote it — and any corruption
// of the file (truncation, flipped bytes, wrong magic/version/endianness)
// is rejected with a clean kDataLoss / kInvalidArgument before a kernel
// ever touches a byte.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/cloudwalker.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "ooc/ooc_backend.h"
#include "ooc/paged_snapshot.h"
#include "snapshot/snapshot.h"

namespace cloudwalker {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Section count from the header (u32 little-endian at offset 16), so the
// corruption sweeps track the directory's real extent as sections are
// added to the format.
uint32_t NumSections(const std::string& bytes) {
  uint32_t n = 0;
  std::memcpy(&n, bytes.data() + 16, sizeof(n));
  return n;
}

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Graph graph = GenerateRmat(/*num_nodes=*/400, /*num_edges=*/3000,
                               /*seed=*/11);
    IndexingOptions options;
    options.num_walkers = 20;
    options.params.num_steps = 5;
    auto built = CloudWalker::Build(std::move(graph), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    built_ = new std::shared_ptr<const CloudWalker>(std::move(built).value());
    path_ = new std::string(TempPath("roundtrip.cwk"));
    ASSERT_TRUE((*built_)->WriteSnapshot(*path_).ok());
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete built_;
    delete path_;
    built_ = nullptr;
    path_ = nullptr;
  }

  const CloudWalker& built() { return **built_; }
  const std::string& path() { return *path_; }

  static std::shared_ptr<const CloudWalker>* built_;
  static std::string* path_;
};

std::shared_ptr<const CloudWalker>* SnapshotTest::built_ = nullptr;
std::string* SnapshotTest::path_ = nullptr;

TEST_F(SnapshotTest, OpenIsZeroCopy) {
  auto opened = CloudWalker::Open(path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const CloudWalker& cw = **opened;
  ASSERT_NE(cw.snapshot(), nullptr);
  EXPECT_TRUE(cw.snapshot()->mmapped());
  // The flat arrays alias the mapping, not heap vectors.
  EXPECT_FALSE(cw.graph().owns_storage());
  EXPECT_FALSE(cw.index().owns_storage());
  EXPECT_EQ(cw.graph().num_nodes(), built().graph().num_nodes());
  EXPECT_EQ(cw.graph().num_edges(), built().graph().num_edges());
  // Build metadata survived the trip.
  EXPECT_EQ(cw.indexing_options().num_walkers, 20u);
  EXPECT_EQ(cw.indexing_options().params.num_steps, 5u);
  EXPECT_EQ(cw.indexing_stats().walk_steps, built().indexing_stats().walk_steps);
  EXPECT_EQ(cw.snapshot()->metadata().query_options_fingerprint,
            QueryOptionsFingerprint(QueryOptions{}));
}

TEST_F(SnapshotTest, AnswersBitIdenticalForAllQueryKinds) {
  auto opened = CloudWalker::Open(path());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const CloudWalker& cw = **opened;
  QueryOptions q;
  q.num_walkers = 300;

  // kPair.
  for (const auto& [i, j] : std::vector<std::pair<NodeId, NodeId>>{
           {1, 2}, {7, 300}, {42, 42}}) {
    auto a = built().SinglePair(i, j, q);
    auto b = cw.SinglePair(i, j, q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "pair (" << i << ", " << j << ")";
  }
  // kSingleSource: exact sparse-vector equality.
  for (NodeId src : {NodeId{0}, NodeId{17}, NodeId{399}}) {
    auto a = built().SingleSource(src, q);
    auto b = cw.SingleSource(src, q);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size()) << "source " << src;
    for (size_t e = 0; e < a->size(); ++e) EXPECT_EQ((*a)[e], (*b)[e]);
  }
  // kSourceTopK.
  auto ta = built().SingleSourceTopK(5, 10, q);
  auto tb = cw.SingleSourceTopK(5, 10, q);
  ASSERT_TRUE(ta.ok() && tb.ok());
  EXPECT_EQ(*ta, *tb);
  // kAllPairsTopK.
  QueryOptions cheap = q;
  cheap.num_walkers = 40;
  auto aa = built().AllPairs(3, cheap);
  auto ab = cw.AllPairs(3, cheap);
  ASSERT_TRUE(aa.ok() && ab.ok());
  EXPECT_EQ(*aa, *ab);
  // The unified Execute() path agrees too.
  const QueryResponse ra = built().Execute(QueryRequest::SourceTopK(5, 10)
                                               .WithOptions(q));
  const QueryResponse rb = cw.Execute(QueryRequest::SourceTopK(5, 10)
                                          .WithOptions(q));
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(*ra.topk(), *rb.topk());
}

TEST_F(SnapshotTest, SnapshotOfSnapshotIsByteStable) {
  // Writing a snapshot from an opened (view-backed) instance reproduces
  // the original file byte for byte: the persistent artifact is a fixed
  // point of Open + WriteSnapshot.
  auto opened = CloudWalker::Open(path());
  ASSERT_TRUE(opened.ok());
  const std::string copy = TempPath("rewrite.cwk");
  ASSERT_TRUE((*opened)->WriteSnapshot(copy).ok());
  EXPECT_EQ(ReadFile(path()), ReadFile(copy));
  std::remove(copy.c_str());
}

TEST_F(SnapshotTest, RejectsWrongMagicVersionAndEndianness) {
  const std::string original = ReadFile(path());
  const std::string mutant = TempPath("mutant.cwk");

  std::string bad = original;
  bad[0] = 'X';  // magic
  WriteFile(mutant, bad);
  auto r1 = CloudWalker::Open(mutant);
  ASSERT_FALSE(r1.ok());
  EXPECT_TRUE(r1.status().IsInvalidArgument()) << r1.status().ToString();

  bad = original;
  bad[8] = 99;  // format version
  WriteFile(mutant, bad);
  auto r2 = CloudWalker::Open(mutant);
  ASSERT_FALSE(r2.ok());
  EXPECT_TRUE(r2.status().IsInvalidArgument()) << r2.status().ToString();

  bad = original;
  std::swap(bad[12], bad[15]);  // endianness stamp, byte-swapped
  WriteFile(mutant, bad);
  auto r3 = CloudWalker::Open(mutant);
  ASSERT_FALSE(r3.ok());
  EXPECT_TRUE(r3.status().IsInvalidArgument()) << r3.status().ToString();

  std::remove(mutant.c_str());
}

TEST_F(SnapshotTest, RejectsTruncation) {
  const std::string original = ReadFile(path());
  const std::string mutant = TempPath("truncated.cwk");
  for (const size_t keep :
       {size_t{0}, size_t{9}, size_t{63}, size_t{64}, size_t{200},
        original.size() / 2, original.size() - 1}) {
    WriteFile(mutant, original.substr(0, keep));
    auto r = CloudWalker::Open(mutant);
    ASSERT_FALSE(r.ok()) << "truncated to " << keep << " bytes";
    EXPECT_TRUE(r.status().IsDataLoss() || r.status().IsInvalidArgument())
        << "truncated to " << keep << ": " << r.status().ToString();
  }
  std::remove(mutant.c_str());
}

TEST_F(SnapshotTest, RejectsEveryFlippedByte) {
  // Fuzz-ish sweep: flip one byte at a stride of offsets covering the
  // header and directory densely and the payload sections sparsely. Every
  // mutant must fail cleanly — kDataLoss for payload/directory damage,
  // kInvalidArgument when the flip lands in magic/version/endianness —
  // and none may crash or yield a working instance.
  const std::string original = ReadFile(path());
  const std::string mutant = TempPath("flipped.cwk");
  const size_t directory_end = 64 + 32 * size_t{NumSections(original)};
  std::vector<size_t> offsets;
  for (size_t o = 0; o < std::min(original.size(), directory_end); ++o) {
    offsets.push_back(o);  // header + directory, every byte
  }
  for (size_t o = directory_end; o < original.size(); o += 997) {
    offsets.push_back(o);
  }
  offsets.push_back(original.size() - 1);

  for (const size_t off : offsets) {
    std::string bad = original;
    bad[off] = static_cast<char>(bad[off] ^ 0x40);
    WriteFile(mutant, bad);
    auto r = CloudWalker::Open(mutant);
    ASSERT_FALSE(r.ok()) << "flip at offset " << off << " went undetected";
    EXPECT_TRUE(r.status().IsDataLoss() || r.status().IsInvalidArgument())
        << "flip at " << off << ": " << r.status().ToString();
  }
  std::remove(mutant.c_str());
}

TEST_F(SnapshotTest, RejectsFlippedCrcField) {
  // Flipping a byte of a stored CRC (not the data it covers) must also
  // fail: the checksum and the payload can never be patched consistently
  // by a single-byte error.
  const std::string original = ReadFile(path());
  const std::string mutant = TempPath("crcflip.cwk");
  const uint32_t num_sections = NumSections(original);
  ASSERT_GE(num_sections, 7u) << "expected the kBlockIndex section too";
  // Section CRCs live at directory offset 64 + 32*i + 24.
  for (uint32_t section = 0; section < num_sections; ++section) {
    std::string bad = original;
    const size_t off = 64 + 32 * static_cast<size_t>(section) + 24;
    bad[off] = static_cast<char>(bad[off] ^ 0x01);
    WriteFile(mutant, bad);
    auto r = CloudWalker::Open(mutant);
    ASSERT_FALSE(r.ok()) << "section " << section;
    EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
  }
  std::remove(mutant.c_str());
}

TEST_F(SnapshotTest, OldFormatOpensThroughBothPathsIdentically) {
  // A pre-extension artifact (no kBlockIndex section, authored with the
  // current writer's compatibility knob) must open via the mmap path AND
  // via OutOfCore's whole-file fallback, answering identically.
  const std::string old_path = TempPath("oldformat.cwk");
  SnapshotWriteOptions write_options;
  write_options.write_block_index = false;
  ASSERT_TRUE(SnapshotWriter::Write(old_path, built().graph(),
                                    built().index(), SnapshotMetadata{},
                                    write_options)
                  .ok());
  const std::string bytes = ReadFile(old_path);
  EXPECT_EQ(NumSections(bytes), 6u) << "compat knob wrote a new section";

  auto mmap_open = CloudWalker::Open(old_path);
  ASSERT_TRUE(mmap_open.ok()) << mmap_open.status().ToString();
  EXPECT_FALSE((*mmap_open)->snapshot()->has_block_index());
  auto ooc_open = CloudWalker::OutOfCore(old_path);
  ASSERT_TRUE(ooc_open.ok()) << ooc_open.status().ToString();
  ASSERT_NE((*ooc_open)->ooc_backend(), nullptr);
  EXPECT_TRUE((*ooc_open)->ooc_backend()->paged_snapshot().all_resident());

  auto a = built().SingleSource(42);
  auto b = (*mmap_open)->SingleSource(42);
  auto c = (*ooc_open)->SingleSource(42);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_EQ(a->entries().size(), c->entries().size());
  for (size_t e = 0; e < a->entries().size(); ++e) {
    EXPECT_EQ(a->entries()[e].value, b->entries()[e].value);
    EXPECT_EQ(a->entries()[e].value, c->entries()[e].value);
  }
  std::remove(old_path.c_str());
}

TEST_F(SnapshotTest, MadviseFailureIsBestEffort) {
  // The access-pattern hints are advisory: a kernel that rejects them
  // must not fail the open, and answers are unaffected.
  SetSnapshotMadviseFailForTest(true);
  auto opened = CloudWalker::Open(path());
  SetSnapshotMadviseFailForTest(false);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto hinted = (*opened)->SinglePair(1, 2);
  auto plain = built().SinglePair(1, 2);
  ASSERT_TRUE(hinted.ok() && plain.ok());
  EXPECT_EQ(*hinted, *plain);
}

TEST_F(SnapshotTest, InspectReportsDirectoryAndFlagsDamage) {
  auto info = InspectSnapshot(path());
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format_version, 2u);
  EXPECT_EQ(info->block_index_version, 2u);
  EXPECT_EQ(info->num_nodes, built().graph().num_nodes());
  EXPECT_EQ(info->num_edges, built().graph().num_edges());
  EXPECT_TRUE(info->header_crc_ok);
  EXPECT_TRUE(info->has_block_index);
  EXPECT_FALSE(info->has_permutation);
  EXPECT_GT(info->block_count, 0u);
  ASSERT_EQ(info->sections.size(), info->num_sections);
  for (const SnapshotSectionInfo& s : info->sections) {
    EXPECT_TRUE(s.crc_ok) << s.name;
    EXPECT_NE(s.name, "unknown");
    EXPECT_FALSE(s.retired) << s.name;
  }

  // Diagnostic-grade on damage: a flipped payload byte is *reported*, not
  // a hard failure.
  const std::string original = ReadFile(path());
  std::string bad = original;
  const size_t payload_off = info->sections.back().offset +
                             info->sections.back().length / 2;
  ASSERT_LT(payload_off, bad.size());
  bad[payload_off] = static_cast<char>(bad[payload_off] ^ 0x20);
  const std::string mutant = TempPath("inspect_damaged.cwk");
  WriteFile(mutant, bad);
  auto damaged = InspectSnapshot(mutant);
  ASSERT_TRUE(damaged.ok()) << damaged.status().ToString();
  size_t bad_sections = 0;
  for (const SnapshotSectionInfo& s : damaged->sections) {
    if (!s.crc_ok) ++bad_sections;
  }
  EXPECT_EQ(bad_sections, 1u);
  std::remove(mutant.c_str());
}

TEST_F(SnapshotTest, MissingFileIsIoError) {
  auto r = CloudWalker::Open(TempPath("does-not-exist.cwk"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIoError()) << r.status().ToString();
}

TEST(SnapshotWriterTest, RejectsMismatchedInputs) {
  Graph g1 = GenerateRmat(100, 500, /*seed=*/3);
  Graph g2 = GenerateRmat(120, 500, /*seed=*/4);
  IndexingOptions options;
  options.num_walkers = 5;
  options.params.num_steps = 3;
  auto cw = CloudWalker::Build(&g1, options);
  ASSERT_TRUE(cw.ok());
  // Index from a different graph: node counts disagree.
  const Status s = SnapshotWriter::Write(TempPath("bad.cwk"), g2, cw->index(),
                                         SnapshotMetadata{});
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  // A permutation that is not a bijection over the node ids.
  SnapshotWriteOptions write_options;
  const std::vector<NodeId> not_a_bijection(g1.num_nodes(), 0);
  write_options.permutation = not_a_bijection;
  const Status s2 = SnapshotWriter::Write(TempPath("bad.cwk"), g1,
                                          cw->index(), SnapshotMetadata{},
                                          write_options);
  ASSERT_FALSE(s2.ok());
  EXPECT_TRUE(s2.IsInvalidArgument()) << s2.ToString();
}

}  // namespace
}  // namespace cloudwalker
