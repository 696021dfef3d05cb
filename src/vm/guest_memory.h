// Guest physical memory with hardware-style dirty-page logging.
//
// The paper relies on KVM's hardware-assisted dirty logging: the CPU traps
// the first write to each page and reports it to the hypervisor. We
// reproduce the signal in userspace behind a pluggable DirtyBackend
// (src/vm/dirty_backend.h, DESIGN.md §12): write-protection faults
// (mprotect/SIGSEGV or userfaultfd-WP) or passive soft-dirty harvesting.
// Whatever the backend, every first write per page lands in the same
// preallocated DirtyTracker stack, so restore cost stays O(#dirty).
//
// A software-tracking mode (explicit Write()/Memset() calls) exists for unit
// tests that want to exercise tracker logic without kernel machinery.
//
// Restore protocol (used by Vm and the Agamotto manager):
//   SyncDirty();                    // publish passive backends' dirty info
//   <read tracker, decide pages>
//   OpenForRestore(pages, n);       // make protected pages writable,
//   RestorePage(page, src) ...      //   without polluting the dirty log
//   SealAfterRestore();             // re-protect opened+dirty, clear, re-arm
// The old per-page mprotect toggle pair around each copy is gone: opening
// and sealing coalesce runs of pages into single syscalls.
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
#include <memory>

#include "src/common/sync.h"
#include "src/common/telemetry.h"
#include "src/vm/dirty_backend.h"
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

// Consecutive unchanged restores after which a hot page is re-armed.
inline constexpr uint8_t kHotDemoteAfter = 4;

struct HotPageStats {
  uint64_t promotions = 0;      // pages that became hot
  uint64_t demotions = 0;       // hot pages re-armed after kHotDemoteAfter
  uint64_t copies_skipped = 0;  // hot-page restores that found no change
};

class GuestMemory {
 public:
  // `mode` is the *requested* backend; when its kernel feature is missing
  // the region falls back to mprotect (one warning per mode per process)
  // and mode() reports what actually runs. The default stays compile-time
  // kMprotect — NYX_TRACKER is resolved only by VmConfig, so unit tests of
  // one specific backend are immune to the environment.
  GuestMemory(size_t num_pages, TrackingMode mode = TrackingMode::kMprotect,
              size_t dirty_ring_capacity = kDirtyRingCapacity);
  ~GuestMemory();

  GuestMemory(const GuestMemory&) = delete;
  GuestMemory& operator=(const GuestMemory&) = delete;

  uint8_t* base() { return base_; }
  const uint8_t* base() const { return base_; }
  size_t size_bytes() const { return num_pages_ * kPageSize; }
  size_t num_pages() const { return num_pages_; }
  // The backend actually running (after any fallback).
  TrackingMode mode() const { return mode_; }
  TrackingMode requested_mode() const { return requested_mode_; }

  // Write-protects the whole region and clears the dirty set. From this point
  // every first write per page is recorded.
  void ArmTracking();

  // Makes everything writable and stops recording (used during setup).
  void DisarmTracking();

  bool armed() const { return armed_; }

  // Drains backend-internal dirty state into the tracker. Required before
  // reading the tracker (and implicitly before Open/Seal/ReArm) for passive
  // backends; a cheap no-op for fault-driven ones.
  void SyncDirty();

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
  // opened); ends the epoch. Callers that read the tracker first must
  // SyncDirty() before this on passive backends.
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

  // Explicit accessors (required in software mode; allowed in both).
  void Write(uint64_t guest_offset, const void* src, size_t len);
  void Read(uint64_t guest_offset, void* dst, size_t len) const;
  void Memset(uint64_t guest_offset, uint8_t value, size_t len);

  // Called by the SIGSEGV handler. Returns true if `addr` was a tracking
  // fault inside this region and has been resolved.
  bool HandleFault(uintptr_t addr);

  bool Contains(uintptr_t addr) const {
    return addr >= reinterpret_cast<uintptr_t>(base_) &&
           addr < reinterpret_cast<uintptr_t>(base_) + size_bytes();
  }

  // Protection-change syscalls issued (mprotect calls, uffd range ioctls or
  // clear_refs resets depending on the backend), for overhead statistics.
  uint64_t protect_calls() const { return protect_calls_.load(std::memory_order_relaxed); }

 private:
  uint8_t* base_ = nullptr;
  size_t num_pages_;
  TrackingMode requested_mode_;
  TrackingMode mode_;  // effective, after fallback
  bool armed_ = false;
  bool registered_ = false;  // in the SIGSEGV region registry
  DirtyTracker tracker_;
  // Atomic because HandleFault bumps it from inside the SIGSEGV handler;
  // a plain field lets the compiler cache reads across the faulting writes.
  std::atomic<uint64_t> protect_calls_{0};
  std::unique_ptr<DirtyBackend> backend_;
  // Pages opened (made writable while clean) since the last seal,
  // preallocated so restores never allocate.
  std::vector<uint32_t> opened_;
  size_t opened_count_ = 0;

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
  // A region with fault-driven tracking must live its whole life on the
  // thread that constructed it (the SIGSEGV handler only resolves faults for
  // regions owned by the faulting thread — DESIGN.md §8.1). Debug builds
  // check that at every arm/disarm boundary instead of trusting the comment.
  ThreadChecker thread_checker_;
};

}  // namespace nyx

#endif  // SRC_VM_GUEST_MEMORY_H_
