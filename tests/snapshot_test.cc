// Tests for root and incremental snapshots: restore-is-identity properties,
// CoW mirror behaviour, revert of stale captures and re-mirroring.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/vm/snapshot.h"
#include "src/vm/vm.h"

namespace nyx {
namespace {

Bytes Checksum(const GuestMemory& mem) {
  Bytes copy(mem.size_bytes());
  memcpy(copy.data(), mem.base(), mem.size_bytes());
  return copy;
}

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() : mem_(64), disk_(64) {
    devices_.AddDevice("dev0", 128);
    // Deterministic initial contents.
    Rng rng(555);
    for (size_t i = 0; i < mem_.size_bytes(); i += 7) {
      mem_.base()[i] = rng.NextByte();
    }
  }

  GuestMemory mem_;
  DeviceState devices_;
  BlockDevice disk_;
};

TEST_F(SnapshotTest, RootSnapshotPreservesContents) {
  const Bytes before = Checksum(mem_);
  RootSnapshot root(mem_, devices_, disk_);
  for (uint32_t p = 0; p < mem_.num_pages(); p++) {
    EXPECT_EQ(0, memcmp(root.PagePtr(p), before.data() + static_cast<size_t>(p) * kPageSize,
                        kPageSize))
        << "page " << p;
  }
}

TEST_F(SnapshotTest, RootRestoreAfterWrites) {
  RootSnapshot root(mem_, devices_, disk_);
  const Bytes pristine = Checksum(mem_);
  mem_.ArmTracking();
  mem_.base()[5 * kPageSize + 3] = 0xff;
  mem_.base()[9 * kPageSize] = 0xee;
  // Manual restore path (what Vm::RestoreRoot does for the stack pages).
  const uint32_t* stack = mem_.tracker().stack_data();
  for (size_t i = 0; i < mem_.tracker().stack_size(); i++) {
    uint32_t p = stack[i];
    memcpy(mem_.base() + static_cast<size_t>(p) * kPageSize, root.PagePtr(p), kPageSize);
  }
  mem_.ReArmDirtyPages();
  EXPECT_EQ(Checksum(mem_), pristine);
}

TEST_F(SnapshotTest, IncrementalMirrorIsCompleteImage) {
  RootSnapshot root(mem_, devices_, disk_);
  mem_.ArmTracking();
  mem_.base()[2 * kPageSize] = 0xaa;
  IncrementalSnapshot inc(root);
  inc.Capture(mem_, devices_, disk_);
  // Captured page holds the new value; untouched pages show root content
  // through the CoW mapping.
  EXPECT_EQ(inc.PagePtr(2)[0], 0xaa);
  EXPECT_EQ(0, memcmp(inc.PagePtr(7), root.PagePtr(7), kPageSize));
  EXPECT_EQ(inc.base_pages().size(), 1u);
  EXPECT_EQ(inc.base_pages()[0], 2u);
}

TEST_F(SnapshotTest, RecaptureRevertsStalePages) {
  RootSnapshot root(mem_, devices_, disk_);
  mem_.ArmTracking();
  mem_.base()[2 * kPageSize] = 0xaa;
  IncrementalSnapshot inc(root);
  inc.Capture(mem_, devices_, disk_);
  mem_.ReArmDirtyPages();

  // Second capture with a different page: page 2 must revert to root content
  // in the mirror.
  mem_.base()[4 * kPageSize] = 0xbb;
  inc.Capture(mem_, devices_, disk_);
  EXPECT_EQ(0, memcmp(inc.PagePtr(2), root.PagePtr(2), kPageSize));
  EXPECT_EQ(inc.PagePtr(4)[0], 0xbb);
  EXPECT_EQ(inc.base_pages().size(), 1u);
  EXPECT_EQ(inc.base_pages()[0], 4u);
}

TEST_F(SnapshotTest, PrivatePageAccountingAndReuse) {
  RootSnapshot root(mem_, devices_, disk_);
  mem_.ArmTracking();
  IncrementalSnapshot inc(root);
  mem_.base()[0] = 1;
  inc.Capture(mem_, devices_, disk_);
  EXPECT_EQ(inc.private_pages(), 1u);
  mem_.ReArmDirtyPages();
  // Same page captured again: the private copy is reused, not duplicated.
  mem_.base()[0] = 2;
  inc.Capture(mem_, devices_, disk_);
  EXPECT_EQ(inc.private_pages(), 1u);
  EXPECT_EQ(inc.PagePtr(0)[0], 2);
}

TEST_F(SnapshotTest, ReMirrorResetsPrivatePages) {
  RootSnapshot root(mem_, devices_, disk_);
  mem_.ArmTracking();
  IncrementalSnapshot inc(root);
  // Drive enough captures to cross the re-mirror interval.
  for (uint64_t i = 0; i < kReMirrorInterval + 1; i++) {
    mem_.base()[(i % 8) * kPageSize] = static_cast<uint8_t>(i);
    inc.Capture(mem_, devices_, disk_);
    mem_.ReArmDirtyPages();
  }
  EXPECT_EQ(inc.remirrors(), 1u);
  EXPECT_LE(inc.private_pages(), 8u);
  // The mirror must still be a valid image after the re-mirror.
  const uint8_t expect = static_cast<uint8_t>(kReMirrorInterval);
  EXPECT_EQ(inc.PagePtr((kReMirrorInterval % 8))[0], expect);
}

TEST_F(SnapshotTest, DeviceAndDiskStateCaptured) {
  disk_.WriteBytes(0, "orig", 4);
  disk_.ClearDirty();
  RootSnapshot root(mem_, devices_, disk_);
  mem_.ArmTracking();

  devices_.regs(0)[0] = 0x42;
  disk_.WriteBytes(0, "newx", 4);
  IncrementalSnapshot inc(root);
  inc.Capture(mem_, devices_, disk_);
  EXPECT_EQ(inc.devices().regs(0)[0], 0x42);
  ASSERT_EQ(inc.disk().sectors.count(0), 1u);
  EXPECT_EQ(0, memcmp(inc.disk().sectors.at(0).data(), "newx", 4));
  EXPECT_EQ(0, memcmp(root.disk().data.data(), "orig", 4));
}

// `Snap` is RootSnapshot or IncrementalSnapshot: both expose PagePtr.
template <typename Snap>
void ExpectViewEqualsMemory(const Snap& snap, const GuestMemory& mem) {
  for (uint32_t p = 0; p < mem.num_pages(); p++) {
    ASSERT_EQ(0, memcmp(snap.PagePtr(p), mem.base() + static_cast<size_t>(p) * kPageSize,
                        kPageSize))
        << "page " << p;
  }
}

// Sparse roots: a region with only a few written pages. The root copies the
// ever-written set and leaves every other page a memfd hole.
class SparseRootTest : public ::testing::Test {
 protected:
  SparseRootTest() : mem_(64), disk_(16) {
    devices_.AddDevice("dev0", 16);
    mem_.base()[3 * kPageSize] = 0x11;
    mem_.base()[10 * kPageSize + kPageSize - 1] = 0x22;  // last byte of a page
    mem_.base()[20 * kPageSize + 5] = 0x33;
    mem_.base()[20 * kPageSize + 5] = 0;  // written back to all zeros
    mem_.base()[63 * kPageSize + kPageSize - 1] = 0x44;  // last byte of the region
  }

  GuestMemory mem_;
  DeviceState devices_;
  BlockDevice disk_;
};

TEST_F(SparseRootTest, RootCopiesOnlyWrittenPagesAndViewEqualsMemory) {
  EXPECT_EQ(mem_.written_pages().size(), 4u);
  RootSnapshot root(mem_, devices_, disk_);
  EXPECT_EQ(root.pages(), 4u);
  ExpectViewEqualsMemory(root, mem_);
  EXPECT_EQ(root.PagePtr(10)[kPageSize - 1], 0x22);
  EXPECT_EQ(root.PagePtr(63)[kPageSize - 1], 0x44);
}

TEST_F(SparseRootTest, WrittenSetSurvivesArmingAndRestores) {
  RootSnapshot root(mem_, devices_, disk_);
  mem_.ArmTracking();
  mem_.base()[40 * kPageSize] = 1;  // a hole in the root
  const uint32_t pages[] = {40};
  mem_.OpenForRestore(pages, 1);
  mem_.RestorePage(40, root.PagePtr(40));
  mem_.SealAfterRestore();
  EXPECT_EQ(mem_.base()[40 * kPageSize], 0);
  // Never cleared: arming and restores keep every page.
  mem_.ArmTracking();
  EXPECT_EQ(mem_.written_pages().size(), 5u);
  EXPECT_EQ(mem_.written_pages().back(), 40u);
}

TEST_F(SparseRootTest, IncrementalCaptureAndRestoreOverHoles) {
  RootSnapshot root(mem_, devices_, disk_);
  mem_.ArmTracking();
  IncrementalSnapshot inc(root);
  mem_.base()[30 * kPageSize + 9] = 0x55;  // hole in the root
  mem_.base()[3 * kPageSize + 1] = 0x66;   // page the root copied
  inc.Capture(mem_, devices_, disk_);
  mem_.ReArmDirtyPages();
  ExpectViewEqualsMemory(inc, mem_);
  Bytes at_capture(mem_.size_bytes());
  memcpy(at_capture.data(), mem_.base(), at_capture.size());

  // Dirty another hole and the root page, then restore from the mirror.
  mem_.base()[31 * kPageSize] = 0x77;
  mem_.base()[3 * kPageSize + 1] = 0x88;
  const std::vector<uint32_t> dirty(mem_.tracker().dirty().begin(),
                                    mem_.tracker().dirty().end());
  mem_.OpenForRestore(dirty.data(), dirty.size());
  for (const uint32_t p : dirty) {
    mem_.RestorePage(p, inc.PagePtr(p));
  }
  mem_.SealAfterRestore();
  EXPECT_EQ(0, memcmp(mem_.base(), at_capture.data(), at_capture.size()));

  // A recapture without page 30 reverts the mirror's copy to the hole.
  mem_.base()[3 * kPageSize + 1] = 0x99;
  inc.Capture(mem_, devices_, disk_);
  EXPECT_EQ(0, memcmp(inc.PagePtr(30), root.PagePtr(30), kPageSize));
  EXPECT_EQ(inc.PagePtr(30)[9], 0);
  EXPECT_EQ(inc.PagePtr(3)[1], 0x99);
}

TEST(SparseVmRootTest, ReMirrorOverHoles) {
  VmConfig config;
  config.mem_pages = 64;
  config.disk_sectors = 16;
  Vm vm(config);
  uint8_t* mem = vm.mem().base();
  mem[3 * kPageSize] = 0x11;
  vm.TakeRootSnapshot();
  EXPECT_EQ(vm.stats().root_pages, 1u);
  // Captures over holes and a root page, each from the root state, across
  // the re-mirror interval.
  for (uint64_t i = 0; i <= kReMirrorInterval; i++) {
    mem[(40 + i % 6) * kPageSize + 7] = static_cast<uint8_t>(i | 1);
    mem[3 * kPageSize + 1] = static_cast<uint8_t>(i);
    vm.CreateIncremental();
    if (i + 1 >= kReMirrorInterval) {
      SCOPED_TRACE("capture " + std::to_string(i));
      ExpectViewEqualsMemory(vm.incremental(), vm.mem());
    }
    vm.RestoreRoot();
  }
  EXPECT_EQ(vm.incremental().remirrors(), 1u);
  ExpectViewEqualsMemory(vm.root(), vm.mem());
}

// Property: capture + restore of random write sets is the identity.
class IncrementalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalPropertyTest, CaptureRestoreIdentity) {
  Rng rng(GetParam());
  GuestMemory mem(32);
  DeviceState devices;
  devices.AddDevice("d", 16);
  BlockDevice disk(16);
  for (size_t i = 0; i < mem.size_bytes(); i += 11) {
    mem.base()[i] = rng.NextByte();
  }
  RootSnapshot root(mem, devices, disk);
  mem.ArmTracking();

  // Random prefix writes, then capture.
  for (int i = 0; i < 40; i++) {
    mem.base()[rng.Below(mem.size_bytes())] = rng.NextByte();
  }
  IncrementalSnapshot inc(root);
  inc.Capture(mem, devices, disk);
  mem.ReArmDirtyPages();
  Bytes at_capture(mem.size_bytes());
  memcpy(at_capture.data(), mem.base(), mem.size_bytes());

  // Random suffix writes, then restore from the mirror.
  for (int i = 0; i < 60; i++) {
    mem.base()[rng.Below(mem.size_bytes())] = rng.NextByte();
  }
  const uint32_t* stack = mem.tracker().stack_data();
  for (size_t i = 0; i < mem.tracker().stack_size(); i++) {
    uint32_t p = stack[i];
    memcpy(mem.base() + static_cast<size_t>(p) * kPageSize, inc.PagePtr(p), kPageSize);
  }
  mem.ReArmDirtyPages();

  Bytes after_restore(mem.size_bytes());
  memcpy(after_restore.data(), mem.base(), mem.size_bytes());
  EXPECT_EQ(after_restore, at_capture);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalPropertyTest,
                         ::testing::Values(10, 20, 30, 40, 50, 60, 70, 80));

}  // namespace
}  // namespace nyx
