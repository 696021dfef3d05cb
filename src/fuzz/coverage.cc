#include "src/fuzz/coverage.h"

#include <cstring>

namespace nyx {

namespace {

inline uint64_t LoadWord(const uint8_t* p) {
  uint64_t w;
  memcpy(&w, p, sizeof(w));
  return w;
}

inline void StoreWord(uint8_t* p, uint64_t w) { memcpy(p, &w, sizeof(w)); }

}  // namespace

uint8_t GlobalCoverage::Classify(uint8_t hits) {
  if (hits == 0) {
    return 0;
  }
  if (hits == 1) {
    return 1 << 0;
  }
  if (hits == 2) {
    return 1 << 1;
  }
  if (hits == 3) {
    return 1 << 2;
  }
  if (hits <= 7) {
    return 1 << 3;
  }
  if (hits <= 15) {
    return 1 << 4;
  }
  if (hits <= 31) {
    return 1 << 5;
  }
  if (hits <= 127) {
    return 1 << 6;
  }
  return 1 << 7;
}

bool GlobalCoverage::MergeAndCheckNew(const CoverageMap& trace) {
  bool new_bits = false;
  const auto& map = trace.map();
  for (const uint16_t i : trace.touched_edges()) {
    // A wrapped counter classifies as 0, and an edge listed twice finds its
    // bits already cleared: neither changes anything.
    const uint8_t cls = Classify(map[i]);
    if ((virgin_[i] & cls) != 0) {
      if (virgin_[i] == 0xff) {
        edge_count_++;
      }
      virgin_[i] &= static_cast<uint8_t>(~cls);
      new_bits = true;
    }
  }
  const auto& sites = trace.sites_hit();
  for (const uint16_t b : trace.touched_sites()) {
    const uint8_t fresh = static_cast<uint8_t>(sites[b] & ~sites_[b]);
    if (fresh != 0) {
      sites_[b] |= fresh;
      site_count_ += static_cast<size_t>(__builtin_popcount(fresh));
    }
  }
  return new_bits;
}

bool GlobalCoverage::MergeFrom(const GlobalCoverage& other) {
  bool new_bits = false;
  for (size_t off = 0; off < kCovMapSize; off += 8) {
    // Bits *cleared* in the other virgin map that are still set here.
    const uint64_t fresh_w = ~LoadWord(other.virgin_.data() + off) & LoadWord(virgin_.data() + off);
    if (fresh_w == 0) {
      continue;
    }
    for (size_t i = off; i < off + 8; i++) {
      const uint8_t fresh = static_cast<uint8_t>(~other.virgin_[i] & virgin_[i]);
      if (fresh != 0) {
        if (virgin_[i] == 0xff) {
          edge_count_++;
        }
        virgin_[i] &= static_cast<uint8_t>(~fresh);
        new_bits = true;
      }
    }
  }
  for (size_t off = 0; off < kSiteBytes; off += 8) {
    const uint64_t theirs = LoadWord(other.sites_.data() + off);
    const uint64_t mine = LoadWord(sites_.data() + off);
    const uint64_t fresh = theirs & ~mine;
    if (fresh != 0) {
      StoreWord(sites_.data() + off, mine | fresh);
      site_count_ += static_cast<size_t>(__builtin_popcountll(fresh));
      new_bits = true;
    }
  }
  return new_bits;
}

}  // namespace nyx
