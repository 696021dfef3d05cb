// Guest physical memory with hardware-style dirty-page logging.
//
// The paper relies on KVM's hardware-assisted dirty logging: the CPU traps
// the first write to each page and reports it to the hypervisor. We
// reproduce the signal in userspace with write protection (DESIGN.md §12):
// the region is mapped read-only from construction, and the first write per
// page raises a SIGSEGV whose handler marks the page dirty and makes it
// writable again. Every first write lands in a preallocated DirtyTracker
// stack, so restore cost stays O(#dirty).
//
// Ever-written set. The handler also records each faulting page in a
// monotone set that is never cleared. Tracking starts at construction, and
// restores only ever write content captured from pages already in the set,
// so every page outside it still reads as zero: a root snapshot copies the
// set and nothing else (RootSnapshot).
//
// Restore protocol (used by Vm and the Agamotto manager):
//   <read tracker, decide pages>
//   OpenForRestore(pages, n);       // make protected pages writable,
//   RestorePage(page, src) ...      //   without polluting the dirty log
//   SealAfterRestore();             // re-protect opened+dirty, clear, re-arm
// Opening and sealing coalesce runs of consecutive pages into single
// mprotect calls instead of toggling protection around every page copy.
//
// Hot pages (DESIGN.md §12). Every seal or re-arm with a nonempty dirty
// set ends an arming epoch. A page dirty in two consecutive epochs becomes
// hot: it is not re-protected and stays in the dirty set across epochs, so
// every restore reverts it and every capture includes it, but its writes
// never trap again. Restores copy a hot page only when it differs from the
// restore source; after kHotDemoteAfter consecutive restores that found it
// unchanged, the next epoch end re-arms it and drops it from the dirty
// set. Invariant: hot => writable and dirty.

#ifndef SRC_VM_GUEST_MEMORY_H_
#define SRC_VM_GUEST_MEMORY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/sync.h"
#include "src/common/telemetry.h"
#include "src/vm/dirty_tracker.h"
#include "src/vm/page.h"

namespace nyx {

// Last-resort hook consulted when a SIGSEGV cannot be resolved as a
// dirty-tracking fault (e.g. a target bug walked off guest memory). If the
// hook returns, it must not return control to the faulting instruction —
// implementations siglongjmp back into the execution engine. Returning
// false reinstates the default fatal behaviour.
using UnresolvedFaultHook = bool (*)();
void SetUnresolvedFaultHook(UnresolvedFaultHook hook);

// Dirty tracking has exactly one mechanism. The names below exist only
// because the benchmark driver (hostbench/driver.cc) still sets and reports
// a tracking mode; nothing branches on them, and they go together with the
// driver lines that use them.
enum class TrackingMode { kMprotect };
inline const char* TrackingModeName(TrackingMode /*mode*/) { return "mprotect"; }

// Consecutive unchanged restores after which a hot page is re-armed.
inline constexpr uint8_t kHotDemoteAfter = 4;

struct HotPageStats {
  uint64_t promotions = 0;      // pages that became hot
  uint64_t demotions = 0;       // hot pages re-armed after kHotDemoteAfter
  uint64_t copies_skipped = 0;  // hot-page restores that found no change
};

class GuestMemory {
 public:
  explicit GuestMemory(size_t num_pages, size_t dirty_ring_capacity = kDirtyRingCapacity);
  ~GuestMemory();

  GuestMemory(const GuestMemory&) = delete;
  GuestMemory& operator=(const GuestMemory&) = delete;

  uint8_t* base() { return base_; }
  const uint8_t* base() const { return base_; }
  size_t size_bytes() const { return num_pages_ * kPageSize; }
  size_t num_pages() const { return num_pages_; }
  // For the benchmark driver only (see TrackingMode above).
  TrackingMode mode() const { return TrackingMode::kMprotect; }
  TrackingMode requested_mode() const { return TrackingMode::kMprotect; }

  // Write-protects the whole region and clears the dirty set and the hot
  // pages: a new root epoch. Tracking itself never stops; the ever-written
  // set is kept.
  void ArmTracking();

  // Every page ever written through a tracking fault, in first-write order.
  // A superset of the pages that are not all zero.
  std::span<const uint32_t> written_pages() const {
    return {written_list_.data(), written_count_.load(std::memory_order_acquire)};
  }

  // Makes still-protected pages writable without marking them dirty; the
  // restore path writes snapshot content through this window. Pages already
  // dirty (hence writable) are skipped. May be called repeatedly before the
  // closing SealAfterRestore().
  void OpenForRestore(const uint32_t* pages, size_t n);

  // Writes snapshot content `src` into `page` inside the restore window. A
  // hot page already equal to `src` is left untouched.
  void RestorePage(uint32_t page, const uint8_t* src);

  // Re-protects everything OpenForRestore opened plus the dirty pages that
  // are not hot, clears the tracker down to the hot pages and re-arms.
  // Completes the restore protocol and ends the epoch.
  void SealAfterRestore();

  // Re-protects the dirty pages that are not hot and clears the tracker down
  // to the hot pages (cheap re-arm after a capture, when nothing was
  // opened); ends the epoch.
  void ReArmDirtyPages();

  bool IsHot(uint32_t page) const { return hot_[page] != 0; }
  size_t hot_pages() const { return hot_count_; }
  const HotPageStats& hot_stats() const { return hot_stats_; }

  DirtyTracker& tracker() { return tracker_; }
  const DirtyTracker& tracker() const { return tracker_; }

  // Typed view into guest memory. The object must fit inside the region.
  template <typename T>
  T* At(uint64_t guest_offset) {
    return reinterpret_cast<T*>(base_ + guest_offset);
  }

  // Called by the SIGSEGV handler. Returns true if `addr` was a tracking
  // fault inside this region and has been resolved.
  bool HandleFault(uintptr_t addr);

  bool Contains(uintptr_t addr) const {
    return addr >= reinterpret_cast<uintptr_t>(base_) &&
           addr < reinterpret_cast<uintptr_t>(base_) + size_bytes();
  }

  // mprotect calls issued for tracking, for overhead statistics.
  uint64_t protect_calls() const { return protect_calls_.load(std::memory_order_relaxed); }

 private:
  uint8_t* base_ = nullptr;
  size_t num_pages_;
  DirtyTracker tracker_;
  // Ever-written set: a flag per page plus the list of flagged pages,
  // preallocated because HandleFault fills them from the SIGSEGV handler.
  // The count is atomic for the same reason as protect_calls_.
  std::vector<uint8_t> written_;
  std::vector<uint32_t> written_list_;
  std::atomic<size_t> written_count_{0};
  // Atomic because HandleFault bumps it from inside the SIGSEGV handler;
  // a plain field lets the compiler cache reads across the faulting writes.
  std::atomic<uint64_t> protect_calls_{0};
  // Pages opened (made writable while clean) since the last seal,
  // preallocated so restores never allocate.
  std::vector<uint32_t> opened_;
  size_t opened_count_ = 0;

  // mprotect over pages [first_page, first_page + count); aborts on failure.
  void Protect(uint32_t first_page, size_t count, int prot);
  // Protect() over a page list, one call per run of consecutive pages.
  void ProtectList(const uint32_t* pages, size_t n, int prot);

  // Ends an arming epoch: promotes, keeps or demotes hot pages, re-arms the
  // rest of the dirty set and clears it down to the hot pages.
  void EndEpoch();
  void ResetHotPages();

  // Hot-page state, five bytes per page. dirty_epoch_[p] is the last epoch
  // in which p was dirty (0 = never; epochs count from 2 so that epoch - 1
  // never matches it). hot_[p] is 0 for a cold page, else 1 + the number of
  // consecutive restores that found the page unchanged.
  std::vector<uint32_t> dirty_epoch_;
  std::vector<uint8_t> hot_;
  uint32_t epoch_ = 2;
  size_t hot_count_ = 0;
  std::vector<uint32_t> rearm_;  // EndEpoch scratch, preallocated
  HotPageStats hot_stats_;
  telemetry::Counter* promotions_counter_;
  telemetry::Counter* demotions_counter_;
  telemetry::Counter* skipped_counter_;
  telemetry::Gauge* hot_gauge_;
  // A region must live its whole life on the thread that constructed it
  // (the SIGSEGV handler only resolves faults for regions owned by the
  // faulting thread — DESIGN.md §8.1). Debug builds
  // check that at every arm and seal instead of trusting the comment.
  ThreadChecker thread_checker_;
};

}  // namespace nyx

#endif  // SRC_VM_GUEST_MEMORY_H_
