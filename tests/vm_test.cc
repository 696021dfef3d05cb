// Integration tests for the Vm façade: whole-VM snapshot semantics across
// memory, devices, disk and the auxiliary blob, plus cost accounting.

#include <gtest/gtest.h>

#include <cstring>

#include "src/common/rng.h"
#include "src/common/telemetry.h"
#include "src/vm/vm.h"

namespace nyx {
namespace {

VmConfig SmallConfig() {
  VmConfig c;
  c.mem_pages = 64;
  c.disk_sectors = 64;
  return c;
}

TEST(VmTest, RootRestoreIsIdentity) {
  Vm vm(SmallConfig());
  vm.mem().base()[100] = 7;
  vm.TakeRootSnapshot();
  vm.mem().base()[100] = 99;
  vm.mem().base()[5 * kPageSize] = 1;
  vm.devices().regs(0)[0] = 0xab;
  vm.disk().WriteBytes(0, "dirty", 5);
  vm.RestoreRoot();
  EXPECT_EQ(vm.mem().base()[100], 7);
  EXPECT_EQ(vm.mem().base()[5 * kPageSize], 0);
  EXPECT_EQ(vm.devices().regs(0)[0], 0);
  char buf[6] = {};
  vm.disk().ReadBytes(0, buf, 5);
  EXPECT_EQ(0, memcmp(buf, "\0\0\0\0\0", 5));
  EXPECT_EQ(vm.stats().root_restores, 1u);
}

TEST(VmTest, RepeatedRestoresStayClean) {
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  for (int i = 0; i < 20; i++) {
    vm.mem().base()[static_cast<size_t>(i) * kPageSize] = static_cast<uint8_t>(i + 1);
    vm.RestoreRoot();
  }
  for (int i = 0; i < 20; i++) {
    EXPECT_EQ(vm.mem().base()[static_cast<size_t>(i) * kPageSize], 0);
  }
}

TEST(VmTest, IncrementalRestoreKeepsPrefixState) {
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  // Prefix execution.
  vm.mem().base()[0] = 11;
  vm.disk().WriteBytes(0, "pfx", 3);
  vm.devices().regs(0)[1] = 0x55;
  vm.CreateIncremental();
  // Fuzzing iterations on top of the prefix.
  for (int i = 0; i < 5; i++) {
    vm.mem().base()[0] = 200;
    vm.mem().base()[kPageSize] = 201;
    vm.disk().WriteBytes(100, "junk", 4);
    vm.devices().regs(0)[1] = 0x99;
    vm.RestoreIncremental();
    EXPECT_EQ(vm.mem().base()[0], 11);
    EXPECT_EQ(vm.mem().base()[kPageSize], 0);
    EXPECT_EQ(vm.devices().regs(0)[1], 0x55);
    char buf[4] = {};
    vm.disk().ReadBytes(0, buf, 3);
    EXPECT_EQ(0, memcmp(buf, "pfx", 3));
    char junk[5] = {};
    vm.disk().ReadBytes(100, junk, 4);
    EXPECT_EQ(0, memcmp(junk, "\0\0\0\0", 4));
  }
  EXPECT_EQ(vm.stats().incremental_restores, 5u);
}

TEST(VmTest, RootRestoreAfterIncrementalRevertsPrefix) {
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  vm.mem().base()[3 * kPageSize] = 42;
  vm.disk().WriteBytes(0, "pfx", 3);
  vm.CreateIncremental();
  vm.mem().base()[4 * kPageSize] = 43;
  vm.RestoreIncremental();
  // Schedule a different input: back to root. Prefix effects must vanish,
  // including pages/sectors only dirtied before the incremental snapshot.
  vm.RestoreRoot();
  EXPECT_EQ(vm.mem().base()[3 * kPageSize], 0);
  EXPECT_EQ(vm.mem().base()[4 * kPageSize], 0);
  char buf[4] = {};
  vm.disk().ReadBytes(0, buf, 3);
  EXPECT_EQ(0, memcmp(buf, "\0\0\0", 3));
  EXPECT_FALSE(vm.has_incremental());
}

TEST(VmTest, RootRestoreDirectlyAfterIncrementalCreate) {
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  vm.mem().base()[7 * kPageSize] = 1;
  vm.CreateIncremental();
  // No incremental restore in between.
  vm.RestoreRoot();
  EXPECT_EQ(vm.mem().base()[7 * kPageSize], 0);
}

TEST(VmTest, RootRestoreAfterDropIncrementalRevertsCapturedPages) {
  // Regression test for a restore-completeness bug the divergence auditor
  // found: CreateIncremental re-arms the tracker, so the captured pages are
  // no longer in the dirty stack. DropIncremental invalidates the snapshot
  // but leaves those pages in memory — the next root restore must still
  // revert them even though has_incremental() is false by then.
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  vm.mem().base()[3 * kPageSize] = 42;  // prefix writes
  vm.CreateIncremental();               // page 3 leaves the dirty tracker
  vm.DropIncremental();                 // fuzzer schedules a different input
  ASSERT_FALSE(vm.has_incremental());
  vm.RestoreRoot();
  EXPECT_EQ(vm.mem().base()[3 * kPageSize], 0);
}

TEST(VmTest, RootRestoreAfterIncrementalRestoreThenDrop) {
  // Same bug, longer path: resume through the incremental a few times first,
  // so the captured pages hold prefix state with a clean tracker, then drop.
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  vm.mem().base()[3 * kPageSize] = 42;
  vm.CreateIncremental();
  for (int i = 0; i < 3; i++) {
    vm.mem().base()[9 * kPageSize] = static_cast<uint8_t>(i + 1);  // suffix writes
    vm.RestoreIncremental();
  }
  EXPECT_EQ(vm.mem().base()[3 * kPageSize], 42);  // prefix state intact
  vm.DropIncremental();
  vm.RestoreRoot();
  EXPECT_EQ(vm.mem().base()[3 * kPageSize], 0);
  EXPECT_EQ(vm.mem().base()[9 * kPageSize], 0);
}

TEST(VmTest, AuxBlobFollowsSnapshots) {
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot(ToBytes("root-aux"));
  EXPECT_EQ(ToString(vm.current_aux()), "root-aux");
  vm.mem().base()[0] = 1;
  vm.CreateIncremental(ToBytes("inc-aux"));
  EXPECT_EQ(ToString(vm.current_aux()), "inc-aux");
  vm.mem().base()[0] = 2;
  vm.RestoreIncremental();
  EXPECT_EQ(ToString(vm.current_aux()), "inc-aux");
  vm.RestoreRoot();
  EXPECT_EQ(ToString(vm.current_aux()), "root-aux");
}

TEST(VmTest, RecreateIncrementalForNewPrefix) {
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  vm.mem().base()[1 * kPageSize] = 10;
  vm.CreateIncremental();
  vm.RestoreRoot();

  vm.mem().base()[2 * kPageSize] = 20;
  vm.CreateIncremental();
  vm.mem().base()[3 * kPageSize] = 30;
  vm.RestoreIncremental();
  EXPECT_EQ(vm.mem().base()[1 * kPageSize], 0);   // old prefix gone
  EXPECT_EQ(vm.mem().base()[2 * kPageSize], 20);  // new prefix present
  EXPECT_EQ(vm.mem().base()[3 * kPageSize], 0);   // suffix reverted
}

TEST(VmTest, ClockChargedForRestores) {
  Vm vm(SmallConfig());
  VirtualClock clock;
  CostModel cost;
  vm.AttachClock(&clock, &cost);
  vm.TakeRootSnapshot();
  vm.mem().base()[0] = 1;
  const uint64_t before = clock.now_ns();
  vm.RestoreRoot();
  const uint64_t charged = clock.now_ns() - before;
  EXPECT_GE(charged, cost.snapshot_restore_fixed_ns + cost.snapshot_page_copy_ns);
}

TEST(VmTest, SlowDeviceResetChargesMore) {
  VmConfig cfg = SmallConfig();
  cfg.fast_device_reset = false;
  Vm slow(cfg);
  Vm fast(SmallConfig());
  VirtualClock clock_slow;
  VirtualClock clock_fast;
  CostModel cost;
  slow.AttachClock(&clock_slow, &cost);
  fast.AttachClock(&clock_fast, &cost);
  slow.TakeRootSnapshot();
  fast.TakeRootSnapshot();
  slow.RestoreRoot();
  fast.RestoreRoot();
  EXPECT_GT(clock_slow.now_ns(), clock_fast.now_ns());
}

TEST(VmTest, StatsCountPagesRestored) {
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  vm.mem().base()[0] = 1;
  vm.mem().base()[kPageSize] = 1;
  vm.RestoreRoot();
  EXPECT_EQ(vm.stats().pages_restored, 2u);
}

// Pins the trap and hot-page counts on a scripted write pattern, in VmStats
// and in the process registry (metrics.json). Ten execs, each followed by a
// root restore: page 1 is written every exec, page 2 in the first two only,
// page 3 in every other exec.
TEST(VmTest, HotPageCountersFollowScriptedWrites) {
  telemetry::MetricRegistry& global = telemetry::MetricRegistry::Global();
  auto counter = [&](const char* name) { return global.RegisterCounter(name)->Value(); };
  const uint64_t marks0 = counter("vm.dirty_marks");
  const uint64_t promotions0 = counter("vm.hot_promotions");
  const uint64_t demotions0 = counter("vm.hot_demotions");
  const uint64_t skipped0 = counter("vm.hot_copies_skipped");

  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  for (int exec = 0; exec < 10; exec++) {
    vm.mem().base()[1 * kPageSize] = static_cast<uint8_t>(exec + 1);
    if (exec < 2) {
      vm.mem().base()[2 * kPageSize] = 1;
    }
    if (exec % 2 == 0) {
      vm.mem().base()[3 * kPageSize] = 1;
    }
    vm.RestoreRoot();
  }
  const VmStats st = vm.stats();
  // Page 1 and 2 are promoted at the second restore. Page 2 then goes idle:
  // four skipped copies, then demotion. Page 3 is never dirty twice in a
  // row.
  EXPECT_EQ(st.hot_promotions, 2u);
  EXPECT_EQ(st.hot_demotions, 1u);
  EXPECT_EQ(st.hot_copies_skipped, size_t{kHotDemoteAfter});
  EXPECT_EQ(st.hot_pages, 1u);
  EXPECT_TRUE(vm.mem().IsHot(1));
  // Traps: pages 1 and 2 twice each before promotion, page 3 five times.
  // Hot pages re-entering the dirty set are not traps.
  EXPECT_EQ(st.dirty_traps, 9u);
  // Restores still cover every hot page: 3+2+3+2+3+2+2+1+2+1.
  EXPECT_EQ(st.pages_restored, 21u);

  EXPECT_EQ(counter("vm.dirty_marks") - marks0, 9u);
  EXPECT_EQ(counter("vm.hot_promotions") - promotions0, 2u);
  EXPECT_EQ(counter("vm.hot_demotions") - demotions0, 1u);
  EXPECT_EQ(counter("vm.hot_copies_skipped") - skipped0, size_t{kHotDemoteAfter});
  EXPECT_EQ(global.RegisterGauge("vm.hot_pages")->Value(), 1u);
}

void ExpectRootEqualsMemory(Vm& vm) {
  const GuestMemory& mem = vm.mem();
  for (uint32_t p = 0; p < mem.num_pages(); p++) {
    ASSERT_EQ(0, memcmp(vm.root().PagePtr(p), mem.base() + static_cast<size_t>(p) * kPageSize,
                        kPageSize))
        << "page " << p;
  }
}

// A page first written after the root, captured by a push and re-armed out
// of the dirty set is in neither the old root's pages nor the current dirty
// set; a second root snapshot must still copy it.
TEST(VmReRootTest, PageCapturedThenReArmedIsInNewRoot) {
  Vm vm(SmallConfig());
  vm.mem().base()[2 * kPageSize] = 1;
  vm.TakeRootSnapshot();
  EXPECT_EQ(vm.stats().root_pages, 1u);
  vm.mem().base()[9 * kPageSize + 100] = 0x5a;  // a hole in the first root
  vm.CreateIncremental();                        // captured, then re-armed
  EXPECT_EQ(vm.mem().tracker().stack_size(), 0u);
  vm.TakeRootSnapshot();
  EXPECT_EQ(vm.stats().root_pages, 2u);
  EXPECT_EQ(vm.root().PagePtr(9)[100], 0x5a);
  ExpectRootEqualsMemory(vm);
}

// Property: re-rooting a used VM — after push, re-arm and restore cycles
// that leave hot pages behind — gives a root equal to memory byte for byte,
// and restores to it stay exact.
class VmReRootPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VmReRootPropertyTest, ReRootEqualsMemory) {
  Rng rng(GetParam());
  VmConfig config = SmallConfig();
  config.snapshot_depth = 3;
  Vm vm(config);
  vm.mem().base()[rng.Below(vm.mem().size_bytes())] = rng.NextByte();
  vm.TakeRootSnapshot();
  auto write_some = [&](int n) {
    // Page 5 is written every epoch, so it turns and stays hot.
    vm.mem().base()[5 * kPageSize + rng.Below(64)] = static_cast<uint8_t>(rng.NextByte() | 1);
    for (int i = 0; i < n; i++) {
      vm.mem().base()[rng.Below(vm.mem().size_bytes())] = rng.Chance(1, 4) ? 0 : rng.NextByte();
    }
  };
  for (int reroot = 0; reroot < 4; reroot++) {
    for (int round = 0; round < 12; round++) {
      write_some(6);
      vm.PushSnapshot();
      write_some(4);
      if (rng.Chance(1, 2) && vm.cur_depth() < config.snapshot_depth) {
        vm.PushSnapshot();
        write_some(3);
      }
      vm.RestoreTo(1);
      write_some(2);
      if (rng.Chance(1, 3)) {
        vm.RestoreRoot();
      } else {
        vm.DropIncremental();
        vm.RestoreTo(0);
      }
    }
    write_some(5);
    if (rng.Chance(1, 2)) {
      vm.PushSnapshot();  // leaves the state captured and re-armed
    }
    EXPECT_GT(vm.stats().hot_pages, 0u);
    vm.TakeRootSnapshot();
    ExpectRootEqualsMemory(vm);
    Bytes image(vm.mem().size_bytes());
    memcpy(image.data(), vm.mem().base(), image.size());
    write_some(8);
    vm.RestoreRoot();
    ASSERT_EQ(0, memcmp(vm.mem().base(), image.data(), image.size())) << "reroot " << reroot;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmReRootPropertyTest, ::testing::Values(1, 2, 3, 4, 5, 6));

// Property test: arbitrary interleavings of writes, incremental captures and
// restores never corrupt state.
class VmPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VmPropertyTest, SnapshotProtocolNeverCorrupts) {
  Rng rng(GetParam());
  Vm vm(SmallConfig());
  vm.TakeRootSnapshot();
  Bytes root_image(vm.mem().size_bytes());
  memcpy(root_image.data(), vm.mem().base(), root_image.size());

  for (int round = 0; round < 30; round++) {
    // Prefix writes.
    for (int i = 0; i < 10; i++) {
      vm.mem().base()[rng.Below(vm.mem().size_bytes())] = rng.NextByte();
    }
    const bool use_incremental = rng.Chance(1, 2);
    Bytes prefix_image(vm.mem().size_bytes());
    if (use_incremental) {
      vm.CreateIncremental();
      memcpy(prefix_image.data(), vm.mem().base(), prefix_image.size());
      const uint64_t iterations = rng.Range(1, 4);
      for (uint64_t it = 0; it < iterations; it++) {
        for (int i = 0; i < 10; i++) {
          vm.mem().base()[rng.Below(vm.mem().size_bytes())] = rng.NextByte();
        }
        vm.RestoreIncremental();
        ASSERT_EQ(0, memcmp(vm.mem().base(), prefix_image.data(), prefix_image.size()))
            << "round " << round << " iter " << it;
      }
    }
    vm.RestoreRoot();
    ASSERT_EQ(0, memcmp(vm.mem().base(), root_image.data(), root_image.size()))
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmPropertyTest,
                         ::testing::Values(100, 200, 300, 400, 500, 600));

}  // namespace
}  // namespace nyx
