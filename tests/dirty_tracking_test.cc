// Tests for mprotect dirty tracking in GuestMemory (DESIGN.md §12): the
// configurable dirty ring, the open/seal restore protocol, re-arming after
// a capture, and the hot-page rules driven through a Vm.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/telemetry.h"
#include "src/vm/guest_memory.h"
#include "src/vm/vm.h"

namespace nyx {
namespace {

TEST(DirtyTrackingTest, RingCapacityConfigurableAndExported) {
  GuestMemory mem(64, 16);
  EXPECT_EQ(mem.tracker().ring_capacity(), 16u);
  EXPECT_EQ(telemetry::MetricRegistry::Global().RegisterGauge("vm.dirty_ring_capacity")->Value(),
            16u);
  mem.ArmTracking();
  for (uint32_t p = 0; p < 32; p++) {
    mem.base()[static_cast<size_t>(p) * kPageSize] = 1;
  }
  EXPECT_EQ(mem.tracker().ring_exits(), 2u);
}

TEST(DirtyTrackingTest, WritesLandInTracker) {
  GuestMemory mem(32);
  mem.ArmTracking();
  mem.base()[0] = 1;
  mem.base()[5 * kPageSize + 123] = 2;
  EXPECT_TRUE(mem.tracker().IsDirty(0));
  EXPECT_TRUE(mem.tracker().IsDirty(5));
  EXPECT_FALSE(mem.tracker().IsDirty(1));
  EXPECT_EQ(mem.base()[5 * kPageSize + 123], 2);
}

TEST(DirtyTrackingTest, OpenForRestoreDoesNotDirty) {
  GuestMemory mem(16);
  mem.ArmTracking();
  mem.base()[2 * kPageSize] = 7;  // page 2 dirty
  const uint32_t pages[] = {2, 9};
  mem.OpenForRestore(pages, 2);  // page 9 opened clean, page 2 skipped (dirty)
  mem.base()[9 * kPageSize] = 0;
  mem.base()[2 * kPageSize] = 0;
  mem.SealAfterRestore();
  // The restore writes above never polluted the log...
  EXPECT_EQ(mem.tracker().stack_size(), 0u);
  // ...and both pages are re-armed: new writes are tracked again.
  mem.base()[9 * kPageSize] = 1;
  mem.base()[2 * kPageSize] = 1;
  EXPECT_TRUE(mem.tracker().IsDirty(9));
  EXPECT_TRUE(mem.tracker().IsDirty(2));
}

TEST(DirtyTrackingTest, ReArmAfterCaptureTracksAgain) {
  GuestMemory mem(16);
  mem.ArmTracking();
  mem.base()[3 * kPageSize] = 1;
  ASSERT_TRUE(mem.tracker().IsDirty(3));
  mem.ReArmDirtyPages();
  EXPECT_EQ(mem.tracker().stack_size(), 0u);
  mem.base()[3 * kPageSize] = 2;
  EXPECT_TRUE(mem.tracker().IsDirty(3));
  EXPECT_EQ(mem.tracker().stack_size(), 1u);
}

// Hot pages (DESIGN.md §12): a page dirty in two consecutive epochs stays
// writable and dirty, is reverted by copy, and is re-armed after
// kHotDemoteAfter restores that found it unchanged.
class HotPageDirtyTest : public ::testing::Test {
 protected:
  static VmConfig Config() {
    VmConfig c;
    c.mem_pages = 32;
    c.disk_sectors = 16;
    return c;
  }
  static uint8_t& Byte(Vm& vm, uint32_t page) {
    return vm.mem().base()[static_cast<size_t>(page) * kPageSize + 17];
  }
  static uint64_t Traps(Vm& vm) { return vm.stats().dirty_traps; }
};

TEST_F(HotPageDirtyTest, PromotedAfterTwoConsecutiveEpochs) {
  Vm vm(Config());
  vm.TakeRootSnapshot();

  // Page 4 dirty in epochs 1 and 3 only: never two in a row.
  Byte(vm, 4) = 1;
  vm.RestoreRoot();
  Byte(vm, 6) = 1;
  vm.RestoreRoot();
  Byte(vm, 4) = 1;
  vm.RestoreRoot();
  EXPECT_FALSE(vm.mem().IsHot(4));

  // A restore with nothing dirty ends no epoch: page 7 is dirty in two
  // epochs with only an empty restore between them.
  Byte(vm, 7) = 1;
  vm.RestoreRoot();
  vm.RestoreRoot();
  Byte(vm, 7) = 1;
  vm.RestoreRoot();
  EXPECT_TRUE(vm.mem().IsHot(7));
  for (int i = 0; i < kHotDemoteAfter; i++) {
    vm.RestoreRoot();  // retire it again
  }
  EXPECT_FALSE(vm.mem().IsHot(7));

  // Page 3 dirty in two consecutive epochs: hot from the second seal on.
  Byte(vm, 3) = 1;
  vm.RestoreRoot();
  EXPECT_FALSE(vm.mem().IsHot(3));
  Byte(vm, 3) = 2;
  vm.RestoreRoot();
  EXPECT_TRUE(vm.mem().IsHot(3));
  EXPECT_EQ(Byte(vm, 3), 0);  // reverted like any dirty page
  EXPECT_TRUE(vm.mem().tracker().IsDirty(3));
  EXPECT_EQ(vm.mem().tracker().stack_size(), 1u);
  EXPECT_EQ(vm.stats().hot_promotions, 2u);
  EXPECT_EQ(vm.stats().hot_pages, 1u);

  // Writes to a hot page take no trap and are still reverted.
  const uint64_t traps = Traps(vm);
  for (uint8_t v = 3; v < 8; v++) {
    Byte(vm, 3) = v;
    EXPECT_EQ(Traps(vm), traps);
    vm.RestoreRoot();
    EXPECT_EQ(Byte(vm, 3), 0);
  }
  EXPECT_TRUE(vm.mem().IsHot(3));
}

TEST_F(HotPageDirtyTest, IdleHotPageRevertedThenDemotedThenTrapsAgain) {
  Vm vm(Config());
  vm.TakeRootSnapshot();
  for (uint8_t v = 1; v <= 2; v++) {
    Byte(vm, 5) = v;
    vm.RestoreRoot();
  }
  ASSERT_TRUE(vm.mem().IsHot(5));

  // A write after promotion differs from the root: copied back.
  Byte(vm, 5) = 9;
  vm.RestoreRoot();
  EXPECT_EQ(Byte(vm, 5), 0);
  EXPECT_EQ(vm.stats().hot_copies_skipped, 0u);

  // The page goes idle. Each restore still covers it, finds it unchanged
  // and skips the copy; the kHotDemoteAfter-th re-arms it.
  for (uint8_t i = 1; i <= kHotDemoteAfter; i++) {
    EXPECT_TRUE(vm.mem().IsHot(5)) << "restore " << int{i};
    vm.RestoreRoot();
    EXPECT_EQ(Byte(vm, 5), 0);
    EXPECT_EQ(vm.stats().hot_copies_skipped, i);
  }
  EXPECT_FALSE(vm.mem().IsHot(5));
  EXPECT_FALSE(vm.mem().tracker().IsDirty(5));
  EXPECT_EQ(vm.stats().hot_demotions, 1u);
  EXPECT_EQ(vm.stats().hot_pages, 0u);

  // Re-armed: the next write traps again, and one epoch is not enough to
  // promote it afresh.
  const uint64_t traps = Traps(vm);
  Byte(vm, 5) = 3;
  EXPECT_EQ(Traps(vm), traps + 1);
  EXPECT_TRUE(vm.mem().tracker().IsDirty(5));
  vm.RestoreRoot();
  EXPECT_EQ(Byte(vm, 5), 0);
  EXPECT_FALSE(vm.mem().IsHot(5));
}

TEST_F(HotPageDirtyTest, HotSetStaysBoundedUnderSlidingWriter) {
  Vm vm(Config());
  vm.TakeRootSnapshot();
  // Exec k writes the pair (k, k+1): every page is written in exactly two
  // consecutive execs, so each one is promoted and must retire again.
  size_t max_hot = 0;
  constexpr uint32_t kExecs = 30;
  for (uint32_t k = 0; k < kExecs; k++) {
    Byte(vm, k) = static_cast<uint8_t>(k + 1);
    Byte(vm, k + 1) = static_cast<uint8_t>(k + 2);
    vm.RestoreRoot();
    for (uint32_t p = 0; p <= k + 1; p++) {
      ASSERT_EQ(Byte(vm, p), 0) << "exec " << k << " page " << p;
    }
    max_hot = std::max<size_t>(max_hot, vm.mem().hot_pages());
  }
  // A page is hot from its promotion until its kHotDemoteAfter-th idle
  // restore, which is also when the next-but-three page is promoted.
  EXPECT_EQ(max_hot, size_t{kHotDemoteAfter});
  const VmStats st = vm.stats();
  EXPECT_EQ(st.hot_promotions, kExecs - 1);  // the last page was written once
  EXPECT_EQ(st.hot_promotions, st.hot_demotions + st.hot_pages);
  EXPECT_EQ(st.hot_pages, size_t{kHotDemoteAfter});
}

}  // namespace
}  // namespace nyx
