// Property tests for the network emulation layer: serialization robustness
// against fuzzed blobs, snapshot-restore equivalence under random operation
// sequences, and conservation of delivered bytes.

#include <gtest/gtest.h>

#include <cstring>

#include "src/common/rng.h"
#include "src/netemu/netemu.h"

namespace nyx {
namespace {

class NetEmuPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NetEmuPropertyTest, FuzzedSnapshotsNeverCrashDeserialize) {
  Rng rng(GetParam());
  NetEmu net;
  for (int i = 0; i < 300; i++) {
    Bytes junk;
    const uint64_t len = rng.Below(512);
    for (uint64_t j = 0; j < len; j++) {
      junk.push_back(rng.NextByte());
    }
    NetEmu victim;
    victim.Deserialize(junk);  // must not crash; result may be false
  }
}

TEST_P(NetEmuPropertyTest, TruncatedRealSnapshotsNeverCrash) {
  Rng rng(GetParam());
  NetEmu net;
  int lfd = net.Socket(SockKind::kStream);
  net.Bind(lfd, 80);
  net.Listen(lfd, 4);
  int conn = net.QueueConnection(80);
  int cfd = net.Accept(lfd);
  net.DeliverPacket(conn, ToBytes("payload-bytes"));
  net.Send(cfd, "resp", 4);
  const Bytes blob = net.Serialize();
  for (int i = 0; i < 200; i++) {
    Bytes cut(blob.begin(), blob.begin() + static_cast<long>(rng.Below(blob.size() + 1)));
    NetEmu victim;
    victim.Deserialize(cut);
  }
}

TEST_P(NetEmuPropertyTest, SerializeRoundTripPreservesBehaviour) {
  // Drive a random operation sequence on one instance; snapshot it; drive
  // the SAME remaining reads on the original and the restored copy — the
  // results must be identical.
  Rng rng(GetParam());
  NetEmu original;
  int lfd = original.Socket(SockKind::kStream);
  original.Bind(lfd, 80);
  original.Listen(lfd, 8);

  std::vector<int> conns;
  std::vector<int> fds;
  for (int step = 0; step < 60; step++) {
    switch (rng.Below(4)) {
      case 0: {
        int c = original.QueueConnection(80);
        int fd = original.Accept(lfd);
        if (c >= 0 && fd >= 0) {
          conns.push_back(c);
          fds.push_back(fd);
        }
        break;
      }
      case 1:
        if (!conns.empty()) {
          Bytes data;
          const uint64_t n = 1 + rng.Below(32);
          for (uint64_t i = 0; i < n; i++) {
            data.push_back(rng.NextByte());
          }
          original.DeliverPacket(rng.Choice(conns), std::move(data));
        }
        break;
      case 2:
        if (!fds.empty()) {
          uint8_t buf[16];
          original.Recv(rng.Choice(fds), buf, rng.Below(sizeof(buf)) + 1);
        }
        break;
      case 3:
        if (!fds.empty()) {
          original.Send(rng.Choice(fds), "ok", 2);
        }
        break;
    }
  }

  NetEmu restored;
  ASSERT_TRUE(restored.Deserialize(original.Serialize()));

  for (int step = 0; step < 40; step++) {
    if (fds.empty()) {
      break;
    }
    const int fd = rng.Choice(fds);
    const size_t len = rng.Below(24) + 1;
    uint8_t a[32];
    uint8_t b[32];
    memset(a, 0, sizeof(a));
    memset(b, 0, sizeof(b));
    const int ra = original.Recv(fd, a, len);
    const int rb = restored.Recv(fd, b, len);
    ASSERT_EQ(ra, rb) << "step " << step;
    if (ra > 0) {
      ASSERT_EQ(0, memcmp(a, b, static_cast<size_t>(ra)));
    }
  }
}

TEST_P(NetEmuPropertyTest, DeliveredBytesAreConserved) {
  // Every byte delivered is either read by the target or still undelivered;
  // nothing is duplicated or lost.
  Rng rng(GetParam());
  NetEmu net;
  int lfd = net.Socket(SockKind::kStream);
  net.Bind(lfd, 80);
  net.Listen(lfd, 4);
  const int conn = net.QueueConnection(80);
  const int cfd = net.Accept(lfd);
  ASSERT_GE(cfd, 0);

  size_t delivered = 0;
  size_t consumed = 0;
  for (int step = 0; step < 400; step++) {
    if (rng.Chance(1, 2)) {
      const uint64_t n = 1 + rng.Below(64);
      delivered += n;
      net.DeliverPacket(conn, Bytes(n, 0xab));
    } else {
      uint8_t buf[48];
      const int r = net.Recv(cfd, buf, rng.Below(sizeof(buf)) + 1);
      if (r > 0) {
        consumed += static_cast<size_t>(r);
      }
    }
    ASSERT_EQ(consumed + net.UndeliveredBytes(), delivered) << "step " << step;
  }
}

TEST_P(NetEmuPropertyTest, DeliveredBytesAreConservedUnderFaults) {
  // With random fault injection in the mix the ledger gains one more column:
  // every delivered byte is consumed, still queued, or dropped by a fault
  // (connection reset). The three must always sum to the deliveries.
  Rng rng(GetParam());
  NetEmu net;
  int lfd = net.Socket(SockKind::kStream);
  net.Bind(lfd, 80);
  net.Listen(lfd, 8);

  std::vector<int> conns;
  std::vector<int> fds;
  auto fresh_conn = [&]() {
    int c = net.QueueConnection(80);
    int fd = net.Accept(lfd);
    if (c >= 0 && fd >= 0) {
      conns.push_back(c);
      fds.push_back(fd);
    }
  };
  fresh_conn();
  ASSERT_FALSE(fds.empty());

  size_t delivered = 0;
  size_t consumed = 0;
  for (int step = 0; step < 500; step++) {
    switch (rng.Below(5)) {
      case 0:
        if (conns.size() < 6) {
          fresh_conn();
        }
        break;
      case 1: {
        const uint64_t n = 1 + rng.Below(64);
        if (net.DeliverPacket(rng.Choice(conns), Bytes(n, 0xcd))) {
          delivered += n;
        }
        break;
      }
      case 2: {
        uint8_t buf[48];
        const int r = net.Recv(rng.Choice(fds), buf, rng.Below(sizeof(buf)) + 1);
        if (r > 0) {
          consumed += static_cast<size_t>(r);
        }
        break;
      }
      case 3:
        net.Send(rng.Choice(fds), "reply", 5);
        break;
      case 4: {
        FaultPlan plan;
        plan.kind = static_cast<FaultKind>(rng.Below(kFaultKindCount));
        plan.count = static_cast<uint8_t>(1 + rng.Below(kMaxFaultBurst));
        plan.arg = static_cast<uint16_t>(rng.Below(64));
        net.QueueFault(rng.Choice(conns), plan);
        break;
      }
    }
    ASSERT_EQ(consumed + net.UndeliveredBytes() + net.faulted_bytes(), delivered)
        << "step " << step;
  }
}

TEST_P(NetEmuPropertyTest, SnapshotMidBurstEqualsUninterrupted) {
  // Core determinism property for fault replay: running a faulted operation
  // sequence straight through must be indistinguishable from serializing the
  // emulator mid-burst and finishing on a restored copy. Drives the same
  // random tail on both instances and compares every return value and byte.
  Rng setup_rng(GetParam());
  NetEmu original;
  int lfd = original.Socket(SockKind::kStream);
  original.Bind(lfd, 80);
  original.Listen(lfd, 8);
  const int conn = original.QueueConnection(80);
  const int cfd = original.Accept(lfd);
  ASSERT_GE(cfd, 0);

  // Arm a pile of faults and burn a random prefix of them so the snapshot
  // lands mid-burst, then top up rx so the tail has bytes to fight over.
  for (int i = 0; i < 8; i++) {
    FaultPlan plan;
    plan.kind = static_cast<FaultKind>(setup_rng.Below(kFaultKindCount));
    plan.count = static_cast<uint8_t>(1 + setup_rng.Below(kMaxFaultBurst));
    plan.arg = static_cast<uint16_t>(1 + setup_rng.Below(16));
    original.QueueFault(conn, plan);
  }
  original.DeliverPacket(conn, Bytes(64, 0x5a));
  const uint64_t prefix = setup_rng.Below(6);
  for (uint64_t i = 0; i < prefix; i++) {
    uint8_t buf[8];
    original.Recv(cfd, buf, sizeof(buf));
  }
  original.DeliverPacket(conn, Bytes(32, 0xa5));

  NetEmu restored;
  ASSERT_TRUE(restored.Deserialize(original.Serialize()));
  // faulted_bytes is an observational counter (deliberately not serialized,
  // like calls()), so compare per-instance deltas from here on.
  const uint64_t base_orig = original.faulted_bytes();
  const uint64_t base_rest = restored.faulted_bytes();

  Rng tail_rng(GetParam() ^ 0x7461696cull);
  for (int step = 0; step < 60; step++) {
    if (tail_rng.Chance(1, 4)) {
      const Bytes pkt(1 + tail_rng.Below(16), 0x33);
      ASSERT_EQ(original.DeliverPacket(conn, pkt), restored.DeliverPacket(conn, pkt));
      continue;
    }
    const size_t len = 1 + tail_rng.Below(24);
    uint8_t a[32];
    uint8_t b[32];
    memset(a, 0, sizeof(a));
    memset(b, 0, sizeof(b));
    const int ra = original.Recv(cfd, a, len);
    const int rb = restored.Recv(cfd, b, len);
    ASSERT_EQ(ra, rb) << "step " << step;
    if (ra > 0) {
      ASSERT_EQ(0, memcmp(a, b, static_cast<size_t>(ra)));
    }
    ASSERT_EQ(original.faulted_bytes() - base_orig, restored.faulted_bytes() - base_rest)
        << "step " << step;
  }
}

// Drives `steps` random libc-shaped and fuzzer-facing calls over small fd
// and connection-handle ranges, and returns everything observable: every
// return value, every byte read, and validity of the handles touched. Two
// emulators in the same state driven with equal seeds return equal
// transcripts.
std::vector<int64_t> Drive(NetEmu& net, uint64_t seed, int steps) {
  Rng rng(seed);
  std::vector<int64_t> out;
  constexpr int kFds = 12;
  constexpr int kConns = 12;
  for (int step = 0; step < steps; step++) {
    const int fd = static_cast<int>(rng.Below(kFds));
    const int conn = static_cast<int>(rng.Below(kConns));
    switch (rng.Below(12)) {
      case 0:
        out.push_back(net.Socket(rng.Chance(1, 4) ? SockKind::kDgram : SockKind::kStream));
        break;
      case 1:
        out.push_back(net.Bind(fd, 80));
        out.push_back(net.Listen(fd, 8));
        break;
      case 2:
        out.push_back(net.QueueConnection(80));
        break;
      case 3:
        out.push_back(net.Accept(fd));
        break;
      case 4: {
        out.push_back(net.ValidConn(conn));
        if (net.ValidConn(conn)) {
          const Bytes pkt(1 + rng.Below(24), static_cast<uint8_t>(rng.NextByte()));
          out.push_back(net.DeliverPacket(conn, pkt));
        }
        break;
      }
      case 5: {
        uint8_t buf[32] = {};
        const int r = net.Recv(fd, buf, 1 + rng.Below(sizeof(buf)));
        out.push_back(r);
        for (int i = 0; i < r; i++) {
          out.push_back(buf[i]);
        }
        break;
      }
      case 6:
        out.push_back(net.Send(fd, "response", 1 + rng.Below(8)));
        break;
      case 7: {
        out.push_back(net.ValidConn(conn));
        if (net.ValidConn(conn)) {
          FaultPlan plan;
          plan.kind = static_cast<FaultKind>(rng.Below(kFaultKindCount));
          plan.count = static_cast<uint8_t>(1 + rng.Below(kMaxFaultBurst));
          plan.arg = static_cast<uint16_t>(1 + rng.Below(16));
          out.push_back(net.QueueFault(conn, plan));
        }
        break;
      }
      case 8: {
        const int ep = net.EpollCreate();
        out.push_back(ep);
        out.push_back(net.EpollCtlAdd(ep, fd, true));
        std::vector<int> ready;
        out.push_back(net.EpollWait(ep, ready));
        out.insert(out.end(), ready.begin(), ready.end());
        break;
      }
      case 9:
        out.push_back(net.Close(fd));
        break;
      case 10:
        out.push_back(net.Shutdown(fd));
        break;
      case 11:
        out.push_back(net.ValidConn(conn));
        if (net.ValidConn(conn)) {
          net.PeerClose(conn);
        }
        break;
    }
  }
  out.push_back(static_cast<int64_t>(net.UndeliveredBytes()));
  for (int c = 0; c < kConns; c++) {
    for (ByteView pkt : net.Sent(c)) {
      out.push_back(static_cast<int64_t>(pkt.size()));
    }
  }
  return out;
}

// A listener with accepted connections: the state every blob grows from.
void Listen(NetEmu& net, int conns) {
  const int lfd = net.Socket(SockKind::kStream);
  net.Bind(lfd, 80);
  net.Listen(lfd, 8);
  for (int i = 0; i < conns; i++) {
    net.QueueConnection(80);
    net.Accept(lfd);
  }
}

TEST_P(NetEmuPropertyTest, RecycledSocketsNeverLeakAcrossRestore) {
  // The blob to restore: a few sockets with queued rx/tx, faults and epoll
  // watches.
  NetEmu source;
  Listen(source, 2);
  Drive(source, GetParam(), 40);
  const Bytes blob = source.Serialize();

  // A dirty emulator: a larger socket table full of state, restored once to
  // a one-socket blob (which moves the rest to the spare pool) and dirtied
  // again, so the restore below both reuses spares and cuts sockets off.
  NetEmu dirty;
  Listen(dirty, 6);
  Drive(dirty, GetParam() ^ 0xd1, 120);
  NetEmu tiny;
  Listen(tiny, 0);
  ASSERT_TRUE(dirty.Deserialize(tiny.Serialize()));
  Drive(dirty, GetParam() ^ 0xd2, 60);

  NetEmu fresh;
  ASSERT_TRUE(fresh.Deserialize(blob));
  ASSERT_TRUE(dirty.Deserialize(blob));
  EXPECT_EQ(fresh.Serialize(), blob);
  EXPECT_EQ(dirty.Serialize(), blob);

  // Same scripted tail on both: identical results and end state.
  // faulted_bytes is observational and not serialized: compare deltas.
  const uint64_t fresh_faulted = fresh.faulted_bytes();
  const uint64_t dirty_faulted = dirty.faulted_bytes();
  EXPECT_EQ(Drive(fresh, GetParam() ^ 0x7a, 80), Drive(dirty, GetParam() ^ 0x7a, 80));
  EXPECT_EQ(fresh.Serialize(), dirty.Serialize());
  EXPECT_EQ(fresh.faulted_bytes() - fresh_faulted, dirty.faulted_bytes() - dirty_faulted);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetEmuPropertyTest, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace nyx
