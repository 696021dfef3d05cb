#include "src/vm/guest_memory.h"

#include <pthread.h>
#include <signal.h>
#include <string.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/common/check.h"
#include "src/common/telemetry.h"
#include "src/vm/state_registry.h"

namespace nyx {
namespace {

// Registry of live regions consulted by the (process-wide) SIGSEGV handler.
// Fixed-size, with atomic slots: worker threads (harness/parallel.h) create
// and destroy their own VMs concurrently. Each slot is tagged with the
// registering thread: a tracking fault can only be raised by the thread
// mutating that region's memory, so the handler dereferences only regions
// owned by the faulting thread. That confines every dereference to the one
// thread that also destroys the region — the handler can never touch an
// object another thread is concurrently deleting.
constexpr size_t kMaxRegions = 64;
// One cache line per slot: register/unregister CAS over the whole array
// from many worker threads, and unpadded slots (16 bytes) would put four
// unrelated workers' claims on one line (false sharing on every campaign
// setup/teardown).
struct alignas(kCacheLineSize) RegionSlot {
  std::atomic<GuestMemory*> region{nullptr};
  // pthread_t of the owner, written by the owner right after claiming the
  // slot. Other threads may briefly observe a stale owner and skip the slot
  // — which is exactly what they must do anyway.
  std::atomic<unsigned long> owner{0};
};
// Campaign infrastructure, not guest state: executions never observe these,
// so no snapshot captures them (NYX_EXEC_EPHEMERAL, DESIGN.md §10).
NYX_EXEC_EPHEMERAL("guest_memory.region_slots");
RegionSlot g_regions[kMaxRegions];
NYX_EXEC_EPHEMERAL("guest_memory.unresolved_hook");
std::atomic<UnresolvedFaultHook> g_unresolved_hook{nullptr};

unsigned long SelfId() {
  // pthread_self is a TLS read on Linux — safe inside a signal handler.
  return reinterpret_cast<unsigned long>(pthread_self());
}

void SegvHandler(int sig, siginfo_t* info, void* ucontext) {
  const uintptr_t addr = reinterpret_cast<uintptr_t>(info->si_addr);
  const unsigned long self = SelfId();
  for (auto& slot : g_regions) {
    GuestMemory* region = slot.region.load(std::memory_order_acquire);
    if (region == nullptr || slot.owner.load(std::memory_order_relaxed) != self) {
      continue;
    }
    if (region->Contains(addr) && region->HandleFault(addr)) {
      return;
    }
  }
  // Not a tracking fault. Give the execution engine a chance to turn it
  // into a detected target crash (it siglongjmps and never returns here).
  UnresolvedFaultHook hook = g_unresolved_hook.load(std::memory_order_acquire);
  if (hook != nullptr && hook()) {
    return;
  }
  // Restore the default disposition; the faulting instruction re-executes
  // and the process dies with a genuine SIGSEGV.
  signal(SIGSEGV, SIG_DFL);
}

void InstallHandlerOnce() {
  // Monotonic init-once: set on first VM construction, immutable afterwards.
  NYX_EXEC_EPHEMERAL("guest_memory.sighandler_once");
  static std::once_flag installed;
  std::call_once(installed, [] {
    struct sigaction sa = {};
    sa.sa_sigaction = SegvHandler;
    sa.sa_flags = SA_SIGINFO;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGSEGV, &sa, nullptr) != 0) {
      perror("sigaction");
      abort();
    }
  });
}

void RegisterRegion(GuestMemory* gm) {
  for (auto& slot : g_regions) {
    GuestMemory* expected = nullptr;
    if (slot.region.compare_exchange_strong(expected, gm, std::memory_order_release)) {
      // The owner's own faults are ordered after this store on the same
      // thread, which is the only reader the value must be exact for.
      slot.owner.store(SelfId(), std::memory_order_release);
      return;
    }
  }
  ::nyx::internal::ContractFailure(__FILE__, __LINE__, "NYX_CHECK", "free region slot")
      << "too many live GuestMemory regions (max " << kMaxRegions << ")";
}

void UnregisterRegion(GuestMemory* gm) {
  for (auto& slot : g_regions) {
    GuestMemory* expected = gm;
    if (slot.region.compare_exchange_strong(expected, nullptr, std::memory_order_release)) {
      return;
    }
  }
}

}  // namespace

void SetUnresolvedFaultHook(UnresolvedFaultHook hook) {
  g_unresolved_hook.store(hook, std::memory_order_release);
}

void RawProtect(void* addr, size_t len, int prot) {
  if (mprotect(addr, len, prot) != 0) {
    perror("mprotect");
    abort();
  }
}

GuestMemory::GuestMemory(size_t num_pages, size_t dirty_ring_capacity)
    : num_pages_(num_pages),
      tracker_(num_pages, dirty_ring_capacity),
      opened_(num_pages, 0),
      dirty_epoch_(num_pages, 0),
      hot_(num_pages, 0),
      rearm_(num_pages, 0),
      promotions_counter_(
          telemetry::MetricRegistry::Global().RegisterCounter("vm.hot_promotions")),
      demotions_counter_(
          telemetry::MetricRegistry::Global().RegisterCounter("vm.hot_demotions")),
      skipped_counter_(
          telemetry::MetricRegistry::Global().RegisterCounter("vm.hot_copies_skipped")),
      hot_gauge_(telemetry::MetricRegistry::Global().RegisterGauge("vm.hot_pages")) {
  // One extra PROT_NONE guard page so a target running off the end of guest
  // memory faults immediately and deterministically instead of silently
  // reading whatever mapping happens to be adjacent. The guard page is never
  // part of dirty tracking, so it is protected via the raw call.
  void* p = mmap(nullptr, size_bytes() + kPageSize, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    perror("mmap guest memory");
    abort();
  }
  base_ = static_cast<uint8_t*>(p);
  RawProtect(base_ + size_bytes(), kPageSize, PROT_NONE);
  InstallHandlerOnce();
  RegisterRegion(this);
  // Bind the region to this thread (see thread_checker_ in the header).
  NYX_DCHECK(thread_checker_.CalledOnValidThread());
}

GuestMemory::~GuestMemory() {
  UnregisterRegion(this);
  munmap(base_, size_bytes() + kPageSize);
}

void GuestMemory::Protect(uint32_t first_page, size_t count, int prot) {
  if (count == 0) {
    return;
  }
  RawProtect(base_ + static_cast<size_t>(first_page) * kPageSize, count * kPageSize, prot);
  protect_calls_.fetch_add(1, std::memory_order_relaxed);
}

void GuestMemory::ProtectList(const uint32_t* pages, size_t n, int prot) {
  size_t i = 0;
  while (i < n) {
    const uint32_t start = pages[i];
    size_t run = 1;
    while (i + run < n && pages[i + run] == start + run) {
      run++;
    }
    Protect(start, run, prot);
    i += run;
  }
}

void GuestMemory::ArmTracking() {
  NYX_DCHECK(thread_checker_.CalledOnValidThread());
  tracker_.Clear();
  ResetHotPages();
  armed_ = true;
  opened_count_ = 0;
  Protect(0, num_pages_, PROT_READ);
}

void GuestMemory::DisarmTracking() {
  armed_ = false;
  Protect(0, num_pages_, PROT_READ | PROT_WRITE);
}

void GuestMemory::OpenForRestore(const uint32_t* pages, size_t n) {
  const size_t start = opened_count_;
  for (size_t i = 0; i < n; i++) {
    if (!tracker_.IsDirty(pages[i])) {
      NYX_DCHECK_LT(opened_count_, opened_.size());
      opened_[opened_count_++] = pages[i];
    }
  }
  ProtectList(opened_.data() + start, opened_count_ - start, PROT_READ | PROT_WRITE);
}

void GuestMemory::RestorePage(uint32_t page, const uint8_t* src) {
  uint8_t* dst = base_ + static_cast<size_t>(page) * kPageSize;
  uint8_t& hot = hot_[page];
  if (hot != 0) {
    NYX_DCHECK(tracker_.IsDirty(page));
    // A 4 KiB compare costs about as much as the copy it may save; the
    // point is the count, which retires pages no longer being written.
    if (memcmp(dst, src, kPageSize) == 0) {
      if (hot <= kHotDemoteAfter) {
        hot++;
      }
      hot_stats_.copies_skipped++;
      skipped_counter_->Add(1);
      return;
    }
    hot = 1;
  }
  memcpy(dst, src, kPageSize);
}

void GuestMemory::SealAfterRestore() {
  NYX_DCHECK(thread_checker_.CalledOnValidThread());
  EndEpoch();
  ProtectList(opened_.data(), opened_count_, PROT_READ);
  opened_count_ = 0;
  armed_ = true;
}

void GuestMemory::ReArmDirtyPages() {
  NYX_DCHECK(thread_checker_.CalledOnValidThread());
  EndEpoch();
  armed_ = true;
}

void GuestMemory::EndEpoch() {
  if (tracker_.stack_size() == 0) {
    // Nothing was written (hot pages would be in the set): no epoch passed,
    // so back-to-back restores do not separate two writing epochs.
    return;
  }
  size_t n = 0;
  const uint32_t previous = epoch_ - 1;
  tracker_.ClearExcept([&](uint32_t p) {
    const bool dirty_last_epoch = dirty_epoch_[p] == previous;
    dirty_epoch_[p] = epoch_;
    if (hot_[p] != 0) {
      if (hot_[p] <= kHotDemoteAfter) {
        return true;
      }
      // Unchanged for kHotDemoteAfter restores: trap it again, and make it
      // earn promotion afresh.
      hot_[p] = 0;
      dirty_epoch_[p] = 0;
      hot_count_--;
      hot_stats_.demotions++;
      demotions_counter_->Add(1);
    } else if (dirty_last_epoch) {
      hot_[p] = 1;
      hot_count_++;
      hot_stats_.promotions++;
      promotions_counter_->Add(1);
      return true;
    }
    rearm_[n++] = p;
    return false;
  });
  ProtectList(rearm_.data(), n, PROT_READ);
  epoch_++;
  hot_gauge_->Set(hot_count_);
}

void GuestMemory::ResetHotPages() {
  std::fill(dirty_epoch_.begin(), dirty_epoch_.end(), 0);
  std::fill(hot_.begin(), hot_.end(), 0);
  epoch_ = 2;
  hot_count_ = 0;
  hot_gauge_->Set(0);
}

bool GuestMemory::HandleFault(uintptr_t addr) {
  if (!armed_) {
    return false;
  }
  // Contains() excludes the guard page, so a resolvable fault is in range.
  const uint32_t page = PageOf(addr - reinterpret_cast<uintptr_t>(base_));
  NYX_DCHECK_LT(page, num_pages_);
  if (tracker_.IsDirty(page)) {
    // The page is already writable; this fault is a genuine bug (e.g. a
    // wild write the handler cannot resolve).
    return false;
  }
  tracker_.MarkDirty(page);
  // Re-enable writes for this single page. mprotect is async-signal-safe
  // in practice on Linux (it is a plain syscall); failure must not abort
  // from inside the handler, so it goes unresolved instead.
  if (mprotect(base_ + static_cast<size_t>(page) * kPageSize, kPageSize,
               PROT_READ | PROT_WRITE) != 0) {
    return false;
  }
  protect_calls_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace nyx
