// Robustness: hammering every target with adversarial garbage must never
// produce a wild memory access (kCrashWildSegv). Seeded bugs may fire —
// that is what they are for — but the implementations themselves have to be
// memory-safe, exactly like the paper's real targets running under a real
// MMU. The GuardedStep fault fence turns any violation into a visible crash
// id instead of killing the test runner.

#include <gtest/gtest.h>
#include <pthread.h>

#include <csignal>

#include "src/common/rng.h"
#include "src/fuzz/engine.h"
#include "src/spec/builder.h"
#include "src/targets/registry.h"

namespace nyx {
namespace {

class TargetRobustnessTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TargetRobustnessTest, GarbagePacketsNeverEscapeGuestMemory) {
  auto reg = FindTarget(GetParam());
  ASSERT_TRUE(reg.has_value());
  Spec spec = reg->make_spec();
  EngineConfig cfg;
  cfg.vm.mem_pages = 512;
  cfg.vm.disk_sectors = 128;
  NyxEngine engine(cfg, reg->factory, spec);
  engine.Boot();
  Rng rng(0xd15ea5e);
  const std::vector<Program> seeds = reg->make_seeds(spec);

  for (int trial = 0; trial < 40; trial++) {
    Builder b(spec);
    ValueRef con = b.Connection();
    const uint64_t packets = 1 + rng.Below(6);
    for (uint64_t p = 0; p < packets; p++) {
      Bytes data;
      const uint64_t len = rng.Below(700);
      // Mix pure garbage with protocol-shaped prefixes to reach deeper code.
      if (rng.Chance(1, 3) && !seeds.empty()) {
        const Program& seed = seeds[0];
        const auto idx = seed.PacketOpIndices(spec);
        if (!idx.empty()) {
          data = seed.ops[idx[rng.Below(idx.size())]].data;
        }
      }
      for (uint64_t i = 0; i < len; i++) {
        data.push_back(rng.NextByte());
      }
      b.Packet(con, std::move(data));
    }
    auto prog = b.Build();
    ASSERT_TRUE(prog.has_value());
    CoverageMap cov;
    ExecResult r = engine.Run(*prog, cov);
    ASSERT_NE(r.crash.crash_id, kCrashWildSegv)
        << GetParam() << " wild access on trial " << trial;
  }
}

std::vector<std::string> AllNames() {
  std::vector<std::string> names;
  for (const auto& t : AllTargets()) {
    names.push_back(t.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(Registry, TargetRobustnessTest, ::testing::ValuesIn(AllNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

// The guard shares the SIGSEGV handler with dirty tracking: a wild access
// must become a crash while first-write traps keep resolving.
TEST(FaultGuardTest, WildStepBecomesCrash) {
  // A synthetic target that walks off guest memory on "go" and writes its
  // own guest state on "w": the guard must convert the fault into
  // kCrashWildSegv rather than dying, any number of times.
  class WildTarget final : public Target {
   public:
    TargetInfo info() const override {
      TargetInfo ti;
      ti.name = "wild";
      ti.transport = SockKind::kDgram;
      ti.port = 1;
      return ti;
    }
    void Init(GuestContext& ctx) override {
      int fd = ctx.net().Socket(SockKind::kDgram);
      ctx.net().Bind(fd, 1);
      auto* st = ctx.State<int>();
      *st = fd;
    }
    void Step(GuestContext& ctx) override {
      uint8_t buf[8];
      if (ctx.net().Recv(*ctx.State<int>(), buf, sizeof(buf)) <= 0) {
        return;
      }
      if (buf[0] == 'w') {
        ctx.State<int>()[1] = 0x5a;  // a first write to a tracked page
        return;
      }
      // Read far past the end of guest memory.
      volatile uint8_t sink = 0;
      const uint8_t* end = ctx.mem().base() + ctx.mem().size_bytes();
      for (size_t i = 0; i < 1 << 20; i++) {
        sink = static_cast<uint8_t>(sink + end[i]);
      }
      (void)sink;
    }
  };

  Spec spec = Spec::GenericNetwork();
  EngineConfig cfg;
  cfg.vm.mem_pages = 64;
  NyxEngine engine(cfg, [] { return std::unique_ptr<Target>(new WildTarget()); }, spec);
  engine.Boot();
  CoverageMap cov;

  // Two wild crashes back to back: the first landing must leave the guard
  // able to catch the second.
  for (int i = 0; i < 2; i++) {
    Builder b(spec);
    b.Packet(b.Connection(), "go");
    cov.Reset();
    ExecResult r = engine.Run(*b.Build(), cov);
    ASSERT_TRUE(r.crash.crashed) << "crash " << i;
    EXPECT_EQ(r.crash.crash_id, kCrashWildSegv);
    EXPECT_EQ(r.crash.kind, "segv-wild-access");
  }

  // And the engine survives to run a guest-dirtying input cleanly, with
  // SIGSEGV no longer blocked by the jump out of the handler.
  Builder b2(spec);
  b2.Packet(b2.Connection(), "w");
  cov.Reset();
  ExecResult r2 = engine.Run(*b2.Build(), cov);
  EXPECT_FALSE(r2.crash.crashed);
  EXPECT_EQ(engine.vm().mem().At<int>(kStateBase)[1], 0x5a);
  sigset_t mask;
  ASSERT_EQ(pthread_sigmask(SIG_BLOCK, nullptr, &mask), 0);
  EXPECT_EQ(sigismember(&mask, SIGSEGV), 0);
}

}  // namespace
}  // namespace nyx
