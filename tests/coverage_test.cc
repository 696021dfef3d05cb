// Tests for the AFL-style coverage machinery: edge hashing, hit-count
// classification, virgin-map novelty, site counting and noise edges, and a
// differential check of the touched-list merge against a full-map scan.

#include <gtest/gtest.h>

#include <array>
#include <memory>

#include "src/common/rng.h"
#include "src/fuzz/coverage.h"

namespace nyx {
namespace {

TEST(CoverageMapTest, SitesAndEdgesRecorded) {
  CoverageMap cov;
  cov.OnSite(100);
  cov.OnSite(200);
  size_t nonzero = 0;
  for (uint8_t b : cov.map()) {
    nonzero += b != 0 ? 1 : 0;
  }
  EXPECT_EQ(nonzero, 2u);  // two edges
  EXPECT_TRUE(cov.sites_hit()[100 >> 3] & (1 << (100 & 7)));
  EXPECT_TRUE(cov.sites_hit()[200 >> 3] & (1 << (200 & 7)));
}

TEST(CoverageMapTest, EdgeDependsOnPredecessor) {
  // A->B and C->B are distinct edges even though B is the same site.
  CoverageMap ab;
  ab.OnSite(1);
  ab.OnSite(5);
  CoverageMap cb;
  cb.OnSite(3);
  cb.OnSite(5);
  EXPECT_NE(ab.map(), cb.map());
}

TEST(CoverageMapTest, ResetClears) {
  CoverageMap cov;
  cov.OnSite(7);
  cov.Reset();
  for (uint8_t b : cov.map()) {
    ASSERT_EQ(b, 0);
  }
  for (uint8_t b : cov.sites_hit()) {
    ASSERT_EQ(b, 0);
  }
}

TEST(GlobalCoverageTest, NewBitsDetected) {
  GlobalCoverage global;
  CoverageMap a;
  a.OnSite(10);
  EXPECT_TRUE(global.MergeAndCheckNew(a));
  EXPECT_FALSE(global.MergeAndCheckNew(a));  // same trace: nothing new
  CoverageMap b;
  b.OnSite(11);
  EXPECT_TRUE(global.MergeAndCheckNew(b));
  EXPECT_EQ(global.SiteCount(), 2u);
  EXPECT_GE(global.EdgeCount(), 2u);
}

TEST(GlobalCoverageTest, HitCountBucketsAreNovel) {
  GlobalCoverage global;
  CoverageMap once;
  once.OnSite(42);
  EXPECT_TRUE(global.MergeAndCheckNew(once));

  // Same edge, much higher hit count: a new bucket, hence novel.
  CoverageMap many;
  for (int i = 0; i < 40; i++) {
    many.Reset();
    // re-trigger edge repeatedly within one trace
    for (int j = 0; j <= i; j++) {
      many.OnSite(42);
      many.OnSite(42);
    }
  }
  EXPECT_TRUE(global.MergeAndCheckNew(many));
  // Site count does not double-count.
  EXPECT_EQ(global.SiteCount(), 1u);
}

TEST(GlobalCoverageTest, NoiseEdgesDoNotCountAsSites) {
  GlobalCoverage global;
  CoverageMap trace;
  trace.OnNoiseEdge(61234);
  EXPECT_TRUE(global.MergeAndCheckNew(trace));  // pollutes the queue...
  EXPECT_EQ(global.SiteCount(), 0u);            // ...but not branch coverage
}

// Dense reference for GlobalCoverage::MergeAndCheckNew: scans every byte of
// both trace maps, with the same hit-count classification.
struct DenseCoverage {
  DenseCoverage() {
    virgin.fill(0xff);
    sites.fill(0);
  }

  bool Merge(const CoverageMap& trace) {
    bool new_bits = false;
    for (size_t i = 0; i < kCovMapSize; i++) {
      const uint8_t cls = GlobalCoverage::Classify(trace.map()[i]);
      if ((virgin[i] & cls) != 0) {
        edge_count += virgin[i] == 0xff ? 1 : 0;
        virgin[i] &= static_cast<uint8_t>(~cls);
        new_bits = true;
      }
    }
    for (size_t b = 0; b < kSiteBytes; b++) {
      const uint8_t fresh = static_cast<uint8_t>(trace.sites_hit()[b] & ~sites[b]);
      sites[b] |= fresh;
      site_count += static_cast<size_t>(__builtin_popcount(fresh));
    }
    return new_bits;
  }

  std::array<uint8_t, kCovMapSize> virgin;
  std::array<uint8_t, kSiteBytes> sites;
  size_t edge_count = 0;
  size_t site_count = 0;
};

bool AllZero(const CoverageMap& trace) {
  for (uint8_t b : trace.map()) {
    if (b != 0) {
      return false;
    }
  }
  for (uint8_t b : trace.sites_hit()) {
    if (b != 0) {
      return false;
    }
  }
  return true;
}

TEST(CoverageDifferentialTest, WrapCountsMatchDenseScan) {
  GlobalCoverage sparse;
  auto dense = std::make_unique<DenseCoverage>();
  CoverageMap trace;
  // 255 hits, then 256 (the uint8 counter wraps to 0), then 257 (wraps to
  // 1 and is listed twice).
  for (const int hits : {255, 256, 257, 1, 256}) {
    trace.Reset();
    for (int i = 0; i < hits; i++) {
      trace.OnNoiseEdge(4242);
    }
    EXPECT_EQ(trace.map()[4242], static_cast<uint8_t>(hits));
    EXPECT_EQ(sparse.MergeAndCheckNew(trace), dense->Merge(trace)) << hits;
    EXPECT_EQ(sparse.EdgeCount(), dense->edge_count) << hits;
  }
  trace.Reset();
  EXPECT_TRUE(AllZero(trace));
}

class CoverageDifferentialPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoverageDifferentialPropertyTest, SparseMergeMatchesDenseScan) {
  Rng rng(GetParam());
  GlobalCoverage sparse;
  auto dense = std::make_unique<DenseCoverage>();
  CoverageMap trace;
  for (int exec = 0; exec < 200; exec++) {
    trace.Reset();
    ASSERT_TRUE(AllZero(trace)) << "exec " << exec;
    // A small working set of sites, so traces overlap and repeat; a few
    // loops hammer one site past the counter wrap.
    const uint64_t sites = rng.Range(0, 40);
    for (uint64_t i = 0; i < sites; i++) {
      const uint32_t site = static_cast<uint32_t>(rng.Below(300) * 97 + GetParam());
      const uint64_t repeat = rng.Chance(1, 10) ? rng.Range(250, 260) : rng.Range(1, 3);
      for (uint64_t r = 0; r < repeat; r++) {
        trace.OnSite(site);
      }
    }
    const uint64_t noise = rng.Below(4);
    for (uint64_t i = 0; i < noise; i++) {
      trace.OnNoiseEdge(static_cast<uint32_t>(60000 + rng.Below(512)));
    }
    // Merging the same trace twice must find nothing new the second time,
    // on both sides.
    const int merges = rng.Chance(1, 5) ? 2 : 1;
    for (int m = 0; m < merges; m++) {
      ASSERT_EQ(sparse.MergeAndCheckNew(trace), dense->Merge(trace)) << "exec " << exec;
      ASSERT_EQ(sparse.EdgeCount(), dense->edge_count) << "exec " << exec;
      ASSERT_EQ(sparse.SiteCount(), dense->site_count) << "exec " << exec;
    }
  }
  EXPECT_GT(sparse.EdgeCount(), 0u);
  EXPECT_GT(sparse.SiteCount(), 0u);
  trace.Reset();
  EXPECT_TRUE(AllZero(trace));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageDifferentialPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace nyx
