// Tests for GuestMemory: real mprotect-based write tracking via SIGSEGV,
// arming/disarming and fault-path correctness.

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "src/common/rng.h"
#include "src/vm/guest_memory.h"

namespace nyx {
namespace {

TEST(GuestMemoryMprotectTest, WritesAreTrackedPerPage) {
  GuestMemory mem(16);
  mem.ArmTracking();
  mem.base()[0] = 1;                     // page 0
  mem.base()[3 * kPageSize + 100] = 2;   // page 3
  mem.base()[3 * kPageSize + 200] = 3;   // page 3 again (no new fault)
  EXPECT_EQ(mem.tracker().stack_size(), 2u);
  EXPECT_TRUE(mem.tracker().IsDirty(0));
  EXPECT_TRUE(mem.tracker().IsDirty(3));
  EXPECT_FALSE(mem.tracker().IsDirty(1));
  EXPECT_EQ(mem.base()[0], 1);
  EXPECT_EQ(mem.base()[3 * kPageSize + 100], 2);
}

TEST(GuestMemoryMprotectTest, ReadsDoNotDirty) {
  GuestMemory mem(4);
  mem.base()[kPageSize] = 7;
  mem.ArmTracking();
  volatile uint8_t v = mem.base()[kPageSize];
  EXPECT_EQ(v, 7);
  EXPECT_EQ(mem.tracker().stack_size(), 0u);
}

TEST(GuestMemoryMprotectTest, DisarmStopsTracking) {
  GuestMemory mem(4);
  mem.ArmTracking();
  mem.DisarmTracking();
  mem.base()[0] = 1;
  EXPECT_EQ(mem.tracker().stack_size(), 0u);
}

TEST(GuestMemoryMprotectTest, ReArmDirtyPagesResetsOnlyDirty) {
  GuestMemory mem(8);
  mem.ArmTracking();
  mem.base()[2 * kPageSize] = 1;
  mem.base()[5 * kPageSize] = 1;
  EXPECT_EQ(mem.tracker().stack_size(), 2u);
  mem.ReArmDirtyPages();
  EXPECT_EQ(mem.tracker().stack_size(), 0u);
  // Writing the same pages faults again (they were re-protected).
  mem.base()[2 * kPageSize] = 2;
  EXPECT_TRUE(mem.tracker().IsDirty(2));
  EXPECT_EQ(mem.tracker().stack_size(), 1u);
}

TEST(GuestMemoryMprotectTest, ConsecutivePagesCoalesceProtectCalls) {
  GuestMemory mem(64);
  mem.ArmTracking();
  const uint64_t before = mem.protect_calls();
  // Dirty pages 10..19 in order: one fault-driven mprotect each...
  for (uint32_t p = 10; p < 20; p++) {
    mem.base()[static_cast<size_t>(p) * kPageSize] = 1;
  }
  EXPECT_EQ(mem.protect_calls() - before, 10u);
  // ...but the re-arm coalesces the run into a single call.
  const uint64_t before_rearm = mem.protect_calls();
  mem.ReArmDirtyPages();
  EXPECT_EQ(mem.protect_calls() - before_rearm, 1u);
}

TEST(GuestMemoryMprotectTest, MultipleRegionsCoexist) {
  GuestMemory a(4);
  GuestMemory b(4);
  a.ArmTracking();
  b.ArmTracking();
  a.base()[0] = 1;
  b.base()[kPageSize] = 2;
  EXPECT_TRUE(a.tracker().IsDirty(0));
  EXPECT_FALSE(a.tracker().IsDirty(1));
  EXPECT_TRUE(b.tracker().IsDirty(1));
  EXPECT_FALSE(b.tracker().IsDirty(0));
}

TEST(GuestMemoryMprotectTest, StraddlingMemcpyMarksBothPages) {
  GuestMemory mem(8);
  mem.ArmTracking();
  const uint32_t value = 0x12345678;
  // One copy across the page 1/2 boundary takes a trap on each page.
  memcpy(mem.base() + 2 * kPageSize - 2, &value, sizeof(value));
  EXPECT_TRUE(mem.tracker().IsDirty(1));
  EXPECT_TRUE(mem.tracker().IsDirty(2));
  EXPECT_EQ(mem.tracker().stack_size(), 2u);
  uint32_t out = 0;
  memcpy(&out, mem.base() + 2 * kPageSize - 2, sizeof(out));
  EXPECT_EQ(out, value);
}

TEST(GuestMemoryMprotectTest, TypedAccess) {
  GuestMemory mem(4);
  mem.ArmTracking();
  struct Thing {
    int a;
    int b;
  };
  auto* t = mem.At<Thing>(256);
  t->a = 42;
  t->b = 43;
  EXPECT_TRUE(mem.tracker().IsDirty(0));
  EXPECT_EQ(mem.At<Thing>(256)->a, 42);
}

// Property: a random write workload produces exactly the dirty set of pages
// actually written.
class GuestMemoryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GuestMemoryPropertyTest, DirtySetMatchesWrites) {
  Rng rng(GetParam());
  GuestMemory mem(128);
  mem.ArmTracking();
  std::set<uint32_t> expected;
  for (int i = 0; i < 300; i++) {
    const uint64_t off = rng.Below(mem.size_bytes());
    mem.base()[off] = rng.NextByte();
    expected.insert(PageOf(off));
  }
  std::set<uint32_t> actual(mem.tracker().stack_data(),
                            mem.tracker().stack_data() + mem.tracker().stack_size());
  EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuestMemoryPropertyTest, ::testing::Values(1, 2, 3, 9001));

}  // namespace
}  // namespace nyx
