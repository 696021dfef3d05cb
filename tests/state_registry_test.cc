// Unit tests for the snapshot-state inventory (src/vm/state_registry.h):
// capture/restore framing, attribution of guest offsets to named regions,
// ephemeral verification, and rejection of stale or corrupt aux blobs.

#include <gtest/gtest.h>

#include "src/vm/state_registry.h"

namespace nyx {
namespace {

SnapshotStateRegistry::HostState CounterState(const char* name, int* counter) {
  SnapshotStateRegistry::HostState st;
  st.name = name;
  st.owner = "tests";
  st.capture = [counter](Bytes& out) { PutLe32(out, static_cast<uint32_t>(*counter)); };
  st.restore = [counter](ByteView b) {
    if (b.size() != 4) {
      return false;
    }
    size_t off = 0;
    *counter = static_cast<int>(ReadLe32(b, off));
    return true;
  };
  return st;
}

TEST(StateRegistryTest, CaptureRestoreRoundTrips) {
  SnapshotStateRegistry reg;
  int a = 7;
  int b = 42;
  reg.RegisterHostState(CounterState("test.a", &a));
  reg.RegisterHostState(CounterState("test.b", &b));

  const Bytes blob = reg.CaptureAll();
  a = 0;
  b = 0;
  ASSERT_TRUE(reg.RestoreAll(blob));
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, 42);
}

TEST(StateRegistryTest, EphemeralEntriesAreNotCaptured) {
  SnapshotStateRegistry reg;
  int a = 1;
  reg.RegisterHostState(CounterState("test.a", &a));
  reg.DeclareEphemeral("test.scratch", "tests");
  EXPECT_EQ(reg.snapshot_state_count(), 1u);
  EXPECT_EQ(SnapshotStateRegistry::EntryHashes(reg.CaptureAll()).size(), 1u);
}

TEST(StateRegistryTest, RestoreRejectsCorruptBlobs) {
  SnapshotStateRegistry reg;
  int a = 5;
  reg.RegisterHostState(CounterState("test.a", &a));
  Bytes blob = reg.CaptureAll();

  EXPECT_FALSE(reg.RestoreAll(Bytes{}));          // empty
  EXPECT_FALSE(reg.RestoreAll(Bytes{1, 2, 3}));   // garbage magic
  Bytes truncated(blob.begin(), blob.end() - 2);  // framing cut short
  EXPECT_FALSE(reg.RestoreAll(truncated));
  Bytes padded = blob;
  padded.push_back(0);  // trailing junk
  EXPECT_FALSE(reg.RestoreAll(padded));
  EXPECT_TRUE(reg.RestoreAll(blob));  // pristine blob still fine
  EXPECT_EQ(a, 5);
}

TEST(StateRegistryTest, RestoreRejectsBlobMissingAnEntry) {
  // A blob captured before a registration was added must not restore: the
  // unlisted entry would silently keep its current (wrong) value.
  SnapshotStateRegistry reg;
  int a = 1;
  reg.RegisterHostState(CounterState("test.a", &a));
  const Bytes old_blob = reg.CaptureAll();

  int b = 2;
  reg.RegisterHostState(CounterState("test.b", &b));
  EXPECT_FALSE(reg.RestoreAll(old_blob));
  EXPECT_TRUE(reg.RestoreAll(reg.CaptureAll()));
}

TEST(StateRegistryTest, RestoreRejectsUnknownEntryName) {
  SnapshotStateRegistry donor;
  int x = 9;
  donor.RegisterHostState(CounterState("donor.only", &x));
  const Bytes blob = donor.CaptureAll();

  SnapshotStateRegistry reg;
  int a = 1;
  reg.RegisterHostState(CounterState("test.a", &a));
  EXPECT_FALSE(reg.RestoreAll(blob));
}

TEST(StateRegistryTest, RestoreHookFailurePropagates) {
  SnapshotStateRegistry reg;
  SnapshotStateRegistry::HostState st;
  st.name = "test.picky";
  st.owner = "tests";
  st.capture = [](Bytes& out) { Append(out, Bytes{1, 2, 3, 4, 5}); };  // 5 bytes...
  st.restore = [](ByteView b) { return b.size() == 4; };                // ...wants 4
  reg.RegisterHostState(std::move(st));
  EXPECT_FALSE(reg.RestoreAll(reg.CaptureAll()));
}

TEST(StateRegistryTest, GuestOwnerAttributesOffsets) {
  SnapshotStateRegistry reg;
  reg.RegisterGuestRegion("low", 0, 4096);
  reg.RegisterGuestRegion("high", 8192, 4096);
  EXPECT_EQ(reg.GuestOwner(0), "low");
  EXPECT_EQ(reg.GuestOwner(4095), "low");
  EXPECT_EQ(reg.GuestOwner(8192), "high");
  // The gap between regions and anything past the end are unregistered.
  EXPECT_EQ(reg.GuestOwner(4096), SnapshotStateRegistry::kUnregistered);
  EXPECT_EQ(reg.GuestOwner(1 << 20), SnapshotStateRegistry::kUnregistered);
}

TEST(StateRegistryTest, EntryHashesChangeWithContent) {
  SnapshotStateRegistry reg;
  int a = 1;
  reg.RegisterHostState(CounterState("test.a", &a));
  const auto h1 = SnapshotStateRegistry::EntryHashes(reg.CaptureAll());
  a = 2;
  const auto h2 = SnapshotStateRegistry::EntryHashes(reg.CaptureAll());
  ASSERT_EQ(h1.size(), 1u);
  ASSERT_EQ(h2.size(), 1u);
  EXPECT_EQ(h1[0].first, "test.a");
  EXPECT_NE(h1[0].second, h2[0].second);
}

TEST(StateRegistryTest, CheckEphemeralRunsVerifyHooks) {
  SnapshotStateRegistry reg;
  bool idle = true;
  reg.DeclareEphemeral("test.guard", "tests", [&idle] { return idle; });
  reg.DeclareEphemeral("test.unverified", "tests");  // no hook: never fails
  EXPECT_TRUE(reg.CheckEphemeral().empty());
  idle = false;
  const auto failed = reg.CheckEphemeral();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], "test.guard");
}

}  // namespace
}  // namespace nyx
