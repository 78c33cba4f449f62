// Read compatibility with format-1 snapshots (DESIGN.md section 9).
//
// testdata/legacy_v1.cwk was written by the format-1 writer: it carries
// the retired alias-arena sections 5 and 6 and a version-1 block index
// (recipe in testdata/README.md). Opened through the mmap path, out of core
// at a two-block budget, and by shard workers, it must answer every query
// kind bit-identically to a fresh format-2 build of the same graph — the
// fixture's diagonal was estimated by the format-1 engine, so this also
// pins the walk kernel's draws across the format change.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "../net/worker_fleet.h"
#include "common/crc32.h"
#include "core/cloudwalker.h"
#include "core/request.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "net/remote_backend.h"
#include "ooc/ooc_backend.h"
#include "ooc/paged_snapshot.h"
#include "ooc/reorder.h"
#include "snapshot/snapshot.h"

namespace cloudwalker {
namespace {

constexpr char kFixture[] = CW_LEGACY_FIXTURE;

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

// The fixture's graph and indexing options, built fresh by this version.
std::shared_ptr<const CloudWalker> FreshBuild() {
  IndexingOptions options;
  options.num_walkers = 40;
  options.params.num_steps = 5;
  options.seed = 5;
  auto built = CloudWalker::Build(GenerateRmat(200, 1400, /*seed=*/11),
                                  options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

std::vector<QueryRequest> EveryKind() {
  QueryOptions options;
  options.num_walkers = 500;
  std::vector<QueryRequest> requests = {
      QueryRequest::Pair(3, 77),
      QueryRequest::Pair(150, 9),
      QueryRequest::SingleSource(3),
      QueryRequest::SourceTopK(42, 10),
      QueryRequest::AllPairsTopK(5),
      QueryRequest::PersonalizedPageRank(42, 10),
      QueryRequest::Node2Vec(3, 10),
      QueryRequest::Node2Vec(199, 10),
  };
  for (QueryRequest& r : requests) r.options = options;
  return requests;
}

void ExpectSameAnswers(const CloudWalker& got, const CloudWalker& want,
                       const std::string& what) {
  for (const QueryRequest& request : EveryKind()) {
    const std::string label =
        what + " " + std::string(QueryKindToString(request.kind));
    const QueryResponse g = got.Execute(request);
    const QueryResponse w = want.Execute(request);
    ASSERT_TRUE(g.ok()) << label << ": " << g.status.ToString();
    ASSERT_TRUE(w.ok()) << label << ": " << w.status.ToString();
    switch (request.kind) {
      case QueryKind::kPair:
        EXPECT_EQ(g.score(), w.score()) << label;
        break;
      case QueryKind::kSingleSource:
        EXPECT_EQ(g.scores()->entries(), w.scores()->entries()) << label;
        break;
      case QueryKind::kSourceTopK:
      case QueryKind::kPersonalizedPageRank:
      case QueryKind::kNode2Vec:
        EXPECT_EQ(*g.topk(), *w.topk()) << label;
        break;
      case QueryKind::kAllPairsTopK:
        EXPECT_EQ(*g.all_pairs(), *w.all_pairs()) << label;
        break;
    }
  }
}

TEST(LegacyFormatTest, MmapOpenAnswersLikeAFreshBuild) {
  auto opened = CloudWalker::Open(kFixture);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const auto fresh = FreshBuild();
  ASSERT_TRUE((*opened)->snapshot()->has_block_index());
  const auto got = (*opened)->index().diagonal();
  const auto want = fresh->index().diagonal();
  ASSERT_EQ(got.size(), want.size());
  for (size_t v = 0; v < got.size(); ++v) {
    EXPECT_EQ(got[v], want[v]) << "diagonal entry " << v;
  }
  ExpectSameAnswers(**opened, *fresh, "mmap");
}

TEST(LegacyFormatTest, OutOfCoreAtTwoBlocksAnswersLikeAFreshBuild) {
  auto paged = PagedSnapshot::Open(kFixture);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_TRUE((*paged)->has_block_index());
  ASSERT_FALSE((*paged)->all_resident());
  ASSERT_EQ((*paged)->blocks().size(), 6u);
  // Only in_targets pages: the version-1 extents cover 4 bytes per edge.
  EXPECT_EQ((*paged)->paged_bytes(), (*paged)->num_edges() * sizeof(NodeId));
  OutOfCoreOptions options;
  options.budget_bytes = 2 * (*paged)->max_block_bytes();
  auto ooc = CloudWalker::OutOfCore(kFixture, options);
  ASSERT_TRUE(ooc.ok()) << ooc.status().ToString();
  ExpectSameAnswers(**ooc, *FreshBuild(), "out of core");
  const BlockCacheCounters c = (*ooc)->ooc_backend()->cache_counters();
  EXPECT_GT(c.evictions, 0u) << "a two-block budget must page";
  EXPECT_LE(c.peak_bytes_resident, options.budget_bytes);
}

TEST(LegacyFormatTest, ShardWorkersServeItLikeAFreshBuild) {
  auto base = CloudWalker::Open(kFixture);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  WorkerFleet fleet(kFixture, 2);
  ASSERT_EQ(fleet.size(), 2u);
  RemoteBackendOptions options;
  options.workers = fleet.Addresses();
  auto remote = CloudWalker::Distribute(*base, options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ExpectSameAnswers(**remote, *FreshBuild(), "shard workers");
}

TEST(LegacyFormatTest, FlippedByteInRetiredSectionIsCorruption) {
  // The retired sections are never mapped, but their bytes are still the
  // file's: the mmap open's CRC pass covers them like any other section.
  auto info = InspectSnapshot(kFixture);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  const SnapshotSectionInfo* arena_slots = nullptr;
  for (const SnapshotSectionInfo& s : info->sections) {
    if (s.id == 6) arena_slots = &s;
  }
  ASSERT_NE(arena_slots, nullptr);
  std::string bytes = ReadFile(kFixture);
  const size_t off = arena_slots->offset + arena_slots->length / 2;
  bytes[off] = static_cast<char>(bytes[off] ^ 0x04);
  const std::string mutant = TempPath("legacy_flipped.cwk");
  WriteFile(mutant, bytes);
  auto opened = CloudWalker::Open(mutant);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsDataLoss()) << opened.status().ToString();
  std::remove(mutant.c_str());
}

TEST(LegacyFormatTest, InspectListsRetiredSections) {
  auto info = InspectSnapshot(kFixture);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format_version, 1u);
  EXPECT_EQ(info->block_index_version, 1u);
  EXPECT_EQ(info->block_count, 6u);
  EXPECT_TRUE(info->header_crc_ok);
  ASSERT_EQ(info->sections.size(), 9u);
  for (const SnapshotSectionInfo& s : info->sections) {
    EXPECT_TRUE(s.crc_ok) << s.name;
    EXPECT_EQ(s.retired, s.id == 5 || s.id == 6) << s.name;
  }
}

TEST(LegacyFormatTest, RewriteProducesFormatTwo) {
  auto opened = CloudWalker::Open(kFixture);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const std::string rewritten = TempPath("legacy_rewritten.cwk");
  ASSERT_TRUE((*opened)->WriteSnapshot(rewritten).ok());
  auto info = InspectSnapshot(rewritten);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->format_version, 2u);
  EXPECT_EQ(info->block_index_version, 2u);
  for (const SnapshotSectionInfo& s : info->sections) {
    EXPECT_FALSE(s.retired) << s.name;
  }
  auto reopened = CloudWalker::Open(rewritten);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectSameAnswers(**reopened, **opened, "rewritten");
  std::remove(rewritten.c_str());
}

TEST(LegacyFormatTest, ReorderedFormatOneFileIsRefused) {
  // A reordered format-1 file kept its walk order in the retired arena;
  // its in-rows ascend by internal id, so both readers refuse it rather
  // than answer differently. Forge one: a format-2 reordered file with
  // the version field set back to 1 and the header CRC recomputed.
  const auto fresh = FreshBuild();
  const std::string path = TempPath("legacy_reordered.cwk");
  ASSERT_TRUE(fresh->WriteReorderedSnapshot(path, ReorderKind::kBfs).ok());
  std::string bytes = ReadFile(path);
  const uint32_t version = 1;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  uint32_t num_sections = 0;
  std::memcpy(&num_sections, bytes.data() + 16, sizeof(num_sections));
  std::string header = bytes.substr(0, 64);
  std::memset(header.data() + 20, 0, 4);
  const uint32_t crc = Crc32(bytes.data() + 64, 32 * size_t{num_sections},
                             Crc32(header.data(), header.size()));
  std::memcpy(bytes.data() + 20, &crc, sizeof(crc));
  WriteFile(path, bytes);

  auto info = InspectSnapshot(path);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info->header_crc_ok);
  auto mmap_open = CloudWalker::Open(path);
  ASSERT_FALSE(mmap_open.ok());
  EXPECT_TRUE(mmap_open.status().IsInvalidArgument())
      << mmap_open.status().ToString();
  auto ooc_open = CloudWalker::OutOfCore(path);
  ASSERT_FALSE(ooc_open.ok());
  EXPECT_TRUE(ooc_open.status().IsInvalidArgument())
      << ooc_open.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cloudwalker
