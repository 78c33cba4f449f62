// OutOfCoreWalkBackend behind the CloudWalker facade: all six QueryKinds
// answer bit-identically to the in-memory open of the same artifact while
// the cache demonstrably pages (misses and evictions at a two-block
// budget), plus the budget floor and the facade guards that keep an
// out-of-core instance from being re-backed or re-snapshotted.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/cloudwalker.h"
#include "engine/parallel_walk.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "ooc/ooc_backend.h"
#include "ooc/paged_snapshot.h"
#include "shard/sharding.h"
#include "snapshot/snapshot.h"

namespace cloudwalker {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// A many-block artifact opened both ways: mmap (reference) and out-of-core
// at the smallest admissible budget, so every query actually pages.
class OocBackendTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Graph graph = GenerateRmat(/*num_nodes=*/500, /*num_edges=*/4000,
                               /*seed=*/17);
    IndexingOptions options;
    options.num_walkers = 16;
    options.params.num_steps = 5;
    auto built = CloudWalker::Build(std::move(graph), options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    path_ = new std::string(TempPath("ooc_fixture.cwk"));
    SnapshotWriteOptions write_options;
    write_options.block_bytes = 1024;
    ASSERT_TRUE(SnapshotWriter::Write(*path_, (*built)->graph(),
                                      (*built)->index(), SnapshotMetadata{},
                                      write_options)
                    .ok());
    auto mem = CloudWalker::Open(*path_);
    ASSERT_TRUE(mem.ok()) << mem.status().ToString();
    mem_ = new std::shared_ptr<const CloudWalker>(std::move(*mem));

    auto paged = PagedSnapshot::Open(*path_);
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    ASSERT_GE((*paged)->blocks().size(), 4u) << "fixture must page";
    OutOfCoreOptions ooc_options;
    ooc_options.budget_bytes = 2 * (*paged)->max_block_bytes();
    auto ooc = CloudWalker::OutOfCore(*path_, ooc_options);
    ASSERT_TRUE(ooc.ok()) << ooc.status().ToString();
    ooc_ = new std::shared_ptr<const CloudWalker>(std::move(*ooc));
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete mem_;
    delete ooc_;
    delete path_;
    mem_ = nullptr;
    ooc_ = nullptr;
    path_ = nullptr;
  }

  static const CloudWalker& mem() { return **mem_; }
  static const CloudWalker& ooc() { return **ooc_; }
  static std::shared_ptr<const CloudWalker> ooc_shared() { return *ooc_; }
  static const std::string& path() { return *path_; }

  static std::shared_ptr<const CloudWalker>* mem_;
  static std::shared_ptr<const CloudWalker>* ooc_;
  static std::string* path_;
};

std::shared_ptr<const CloudWalker>* OocBackendTest::mem_ = nullptr;
std::shared_ptr<const CloudWalker>* OocBackendTest::ooc_ = nullptr;
std::string* OocBackendTest::path_ = nullptr;

TEST_F(OocBackendTest, OpenShapeAndFingerprint) {
  ASSERT_NE(ooc().ooc_backend(), nullptr);
  EXPECT_EQ(ooc().snapshot(), nullptr);  // paged open, not mmap
  EXPECT_EQ(ooc().graph().num_nodes(), mem().graph().num_nodes());
  EXPECT_EQ(ooc().ooc_backend()->paged_snapshot().fingerprint(),
            mem().snapshot()->fingerprint());
  EXPECT_FALSE(ooc().ooc_backend()->paged_snapshot().all_resident());
}

TEST_F(OocBackendTest, SinglePairBitIdentical) {
  for (const auto& [i, j] : {std::pair<NodeId, NodeId>{0, 1},
                            {3, 250},
                            {499, 7},
                            {42, 42}}) {
    auto a = mem().SinglePair(i, j);
    auto b = ooc().SinglePair(i, j);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "(" << i << ", " << j << ")";
  }
}

TEST_F(OocBackendTest, SingleSourceBitIdentical) {
  for (const NodeId q : {NodeId{0}, NodeId{123}, NodeId{499}}) {
    auto a = mem().SingleSource(q);
    auto b = ooc().SingleSource(q);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->entries().size(), b->entries().size()) << "q=" << q;
    for (size_t e = 0; e < a->entries().size(); ++e) {
      EXPECT_EQ(a->entries()[e].index, b->entries()[e].index);
      EXPECT_EQ(a->entries()[e].value, b->entries()[e].value);
    }
  }
}

TEST_F(OocBackendTest, SingleSourceTopKBitIdentical) {
  for (const NodeId q : {NodeId{5}, NodeId{321}}) {
    auto a = mem().SingleSourceTopK(q, 10);
    auto b = ooc().SingleSourceTopK(q, 10);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "q=" << q;
  }
}

TEST_F(OocBackendTest, AllPairsBitIdentical) {
  auto a = mem().AllPairs(5);
  auto b = ooc().AllPairs(5);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(OocBackendTest, PersonalizedPageRankTopKBitIdentical) {
  for (const NodeId q : {NodeId{9}, NodeId{400}}) {
    auto a = mem().PersonalizedPageRankTopK(q, 10);
    auto b = ooc().PersonalizedPageRankTopK(q, 10);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "q=" << q;
  }
}

TEST_F(OocBackendTest, Node2VecTopKBitIdentical) {
  for (const NodeId q : {NodeId{2}, NodeId{350}}) {
    auto a = mem().Node2VecTopK(q, 10);
    auto b = ooc().Node2VecTopK(q, 10);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "q=" << q;
  }
}

TEST_F(OocBackendTest, CachePagesUnderTheTwoBlockBudget) {
  // The suite above pushed many walks through a two-block budget over a
  // >= 4 block artifact: the cache must have both missed and evicted, and
  // residency must have respected the budget (no overflow admits — the
  // scheduler never pins more than two blocks).
  const BlockCacheCounters c = ooc().ooc_backend()->cache_counters();
  EXPECT_GT(c.misses, 0u);
  EXPECT_GT(c.evictions, 0u);
  EXPECT_GT(c.hits, 0u);
  EXPECT_EQ(c.overflow_admits, 0u);
  EXPECT_LE(c.peak_bytes_resident, ooc().ooc_backend()->budget_bytes());
  EXPECT_GT(c.bytes_read, 0u);
}

TEST_F(OocBackendTest, CreateRejectsBudgetBelowTwoBlocks) {
  auto paged = PagedSnapshot::Open(path());
  ASSERT_TRUE(paged.ok());
  OutOfCoreOptions options;
  options.budget_bytes = 2 * (*paged)->max_block_bytes() - 1;
  auto backend = OutOfCoreWalkBackend::Create(*paged, options);
  ASSERT_FALSE(backend.ok());
  EXPECT_TRUE(backend.status().IsInvalidArgument())
      << backend.status().ToString();

  OutOfCoreOptions facade_options;
  facade_options.budget_bytes = 1;
  auto engine = CloudWalker::OutOfCore(path(), facade_options);
  ASSERT_FALSE(engine.ok());
  EXPECT_TRUE(engine.status().IsInvalidArgument());
}

TEST_F(OocBackendTest, GuardsRejectRebackingAndSnapshotting) {
  const Status w = ooc().WriteSnapshot(TempPath("ooc_resnap.cwk"));
  ASSERT_FALSE(w.ok());
  EXPECT_TRUE(w.IsFailedPrecondition()) << w.ToString();

  ShardingOptions shard_options;
  shard_options.num_shards = 2;
  auto sharded = CloudWalker::Shard(ooc_shared(), shard_options);
  ASSERT_FALSE(sharded.ok());
  EXPECT_TRUE(sharded.status().IsFailedPrecondition());

  ParallelWalkOptions parallel_options;
  parallel_options.num_threads = 2;
  auto parallel = CloudWalker::Parallelize(ooc_shared(), parallel_options);
  ASSERT_FALSE(parallel.ok());
  EXPECT_TRUE(parallel.status().IsFailedPrecondition());
}

TEST_F(OocBackendTest, OldFormatFallbackAnswersIdentically) {
  // No block index in the artifact: OutOfCore still opens it (whole-file
  // residency) and answers match the mmap open bit for bit.
  const std::string old_path = TempPath("ooc_oldformat.cwk");
  SnapshotWriteOptions write_options;
  write_options.write_block_index = false;
  ASSERT_TRUE(SnapshotWriter::Write(old_path, mem().graph(), mem().index(),
                                    SnapshotMetadata{}, write_options)
                  .ok());
  auto fallback = CloudWalker::OutOfCore(old_path);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_TRUE((*fallback)->ooc_backend()->paged_snapshot().all_resident());
  auto a = mem().SingleSource(77);
  auto b = (*fallback)->SingleSource(77);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->entries().size(), b->entries().size());
  for (size_t e = 0; e < a->entries().size(); ++e) {
    EXPECT_EQ(a->entries()[e].value, b->entries()[e].value);
  }
  auto ppr_a = mem().PersonalizedPageRankTopK(8, 10);
  auto ppr_b = (*fallback)->PersonalizedPageRankTopK(8, 10);
  ASSERT_TRUE(ppr_a.ok() && ppr_b.ok());
  EXPECT_EQ(*ppr_a, *ppr_b);
  std::remove(old_path.c_str());
}

}  // namespace
}  // namespace cloudwalker
