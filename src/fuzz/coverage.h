// Coverage feedback (paper section 4.5).
//
// Nyx-Net supports AFL-style compile-time instrumentation: the target updates
// a shared-memory bitmap; the fuzzer classifies hit counts into buckets and
// keeps a "virgin" map of bits never seen before. We reproduce that signal
// exactly. Separately we track which instrumentation *sites* were ever hit,
// which is what ProFuzzBench's "branch coverage" numbers (Tables 2/5,
// Figures 5/7) count.
//
// Both the per-exec reset and the per-exec merge are hot: a trace holds a
// few dozen non-zero bytes but the maps total 72 KiB. The trace map
// therefore lists what it touched — an edge index when its counter leaves
// 0, a site byte when it first gets a bit — so Reset() clears and
// MergeAndCheckNew() visits only those entries. A counter that wraps past
// 255 leaves 0 again and is listed twice; both operations are idempotent
// per entry, so that is harmless. The lists keep their capacity across
// Reset(), so a steady-state exec allocates nothing here.

#ifndef SRC_FUZZ_COVERAGE_H_
#define SRC_FUZZ_COVERAGE_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/check.h"
#include "src/common/sync.h"

namespace nyx {

inline constexpr size_t kCovMapSize = 1 << 16;
inline constexpr size_t kMaxSites = 1 << 16;
inline constexpr size_t kSiteBytes = kMaxSites / 8;

// Per-execution trace bitmap, written by the instrumented target.
class CoverageMap {
 public:
  CoverageMap() {
    map_.fill(0);
    sites_hit_.fill(0);
  }

  // Clears only the entries touched since the last Reset — a full 72 KiB
  // clear per exec was a measured hot spot.
  void Reset() {
    // One affinity check per exec (not per site): the map is worker-owned
    // and unlocked, which is only sound while exactly one thread writes it.
    NYX_DCHECK(thread_checker_.CalledOnValidThread());
    for (const uint16_t idx : touched_edges_) {
      map_[idx] = 0;
    }
    touched_edges_.clear();
    for (const uint16_t byte : touched_sites_) {
      sites_hit_[byte] = 0;
    }
    touched_sites_.clear();
    prev_loc_ = 0;
  }

  // Called at every instrumented site (AFL's __afl_maybe_log analogue).
  void OnSite(uint32_t site) {
    const uint32_t loc = site & (kCovMapSize - 1);
    BumpEdge((loc ^ prev_loc_) & (kCovMapSize - 1));
    prev_loc_ = loc >> 1;
    const uint32_t byte = (site & (kMaxSites - 1)) >> 3;
    if (sites_hit_[byte] == 0) {
      touched_sites_.push_back(static_cast<uint16_t>(byte));
    }
    sites_hit_[byte] |= static_cast<uint8_t>(1u << (site & 7));
  }

  // Background-thread noise: perturbs the fuzzer-visible edge map (queue
  // pollution) without counting toward the externally measured branch
  // coverage — gcov over the target's own code never sees these.
  void OnNoiseEdge(uint32_t edge) { BumpEdge(edge & (kCovMapSize - 1)); }

  const std::array<uint8_t, kCovMapSize>& map() const { return map_; }
  const std::array<uint8_t, kSiteBytes>& sites_hit() const { return sites_hit_; }
  // Edge indices whose counter left 0, and site bytes that got their first
  // bit, since the last Reset. Every non-zero entry of map() / sites_hit()
  // is listed; an edge may be listed more than once.
  std::span<const uint16_t> touched_edges() const { return touched_edges_; }
  std::span<const uint16_t> touched_sites() const { return touched_sites_; }

 private:
  static_assert(kCovMapSize <= 1 << 16 && kSiteBytes <= 1 << 16, "indices must fit uint16_t");

  void BumpEdge(uint32_t idx) {
    if (map_[idx]++ == 0) {
      touched_edges_.push_back(static_cast<uint16_t>(idx));
    }
  }

  // Cache-line-aligned so the per-site increments of two workers' maps can
  // never straddle a shared line even when the owning objects are adjacent.
  alignas(kCacheLineSize) std::array<uint8_t, kCovMapSize> map_;
  alignas(kCacheLineSize) std::array<uint8_t, kSiteBytes> sites_hit_;
  std::vector<uint16_t> touched_edges_;
  std::vector<uint16_t> touched_sites_;
  uint32_t prev_loc_ = 0;
  ThreadChecker thread_checker_;
};

// Campaign-global accumulation: virgin bits for edge+hitcount novelty, site
// union for branch-coverage reporting.
//
// Ownership is context-dependent, so no ThreadChecker here: each fuzzer's
// instance is worker-owned, while CorpusFrontier::merged_cov_ is written by
// every departing shard — under the frontier mutex (NYX_GUARDED_BY(mu_)).
class GlobalCoverage {
 public:
  GlobalCoverage() {
    virgin_.fill(0xff);
    sites_.fill(0);
  }

  // Classifies hit counts into AFL's 8 buckets and folds the trace into the
  // virgin map. Returns true if any new (edge, bucket) bit appeared.
  bool MergeAndCheckNew(const CoverageMap& trace);

  // Folds another campaign-global map into this one (sharded-fuzzing corpus
  // sync, see fuzz/frontier.h). Returns true if `other` had any (edge,
  // bucket) bit or site this map had not seen.
  bool MergeFrom(const GlobalCoverage& other);

  // Distinct instrumentation sites ever hit ("branch coverage").
  size_t SiteCount() const { return site_count_; }

  // Edge-granularity count over the virgin map (AFL's "map density").
  size_t EdgeCount() const { return edge_count_; }

  // AFL's hit-count bucket of a trace counter: one bit per bucket, 0 for no
  // hits.
  static uint8_t Classify(uint8_t hits);

 private:
  std::array<uint8_t, kCovMapSize> virgin_;
  std::array<uint8_t, kSiteBytes> sites_;
  size_t site_count_ = 0;
  size_t edge_count_ = 0;
};

}  // namespace nyx

#endif  // SRC_FUZZ_COVERAGE_H_
