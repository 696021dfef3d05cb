// Unit tests for the bytecode dataflow analyzer (src/spec/analyze.h):
// def/use chains, the connection-state lattice, provably-dead fault
// detection, removal cones, canonicalization, NormalHash semantic identity,
// and the corpus/frontier semantic-dedup integration.

#include <gtest/gtest.h>

#include "src/fuzz/corpus.h"
#include "src/fuzz/frontier.h"
#include "src/spec/analyze.h"
#include "src/spec/builder.h"
#include "src/spec/fault_plan.h"
#include "src/spec/program.h"
#include "src/spec/spec.h"

namespace nyx {
namespace {

Bytes Plan(FaultKind kind, uint8_t count = 1, uint16_t arg = 0) {
  FaultPlan plan;
  plan.kind = kind;
  plan.count = count;
  plan.arg = arg;
  Bytes wire;
  plan.EncodeTo(wire);
  return wire;
}

// conn; pkt; fault(kind); [pkt]
Program FaultProgram(const Spec& spec, FaultKind kind, uint16_t arg, bool trailing) {
  Builder b(spec);
  ValueRef con = b.Connection();
  b.Packet(con, "hello");
  EXPECT_TRUE(b.Node("fault", {con}, Plan(kind, 1, arg)).has_value());
  if (!trailing) {
    b.Packet(con, "world");
  }
  auto prog = b.Build();
  EXPECT_TRUE(prog.has_value());
  return *prog;
}

TEST(AnalyzeTest, DefUseChains) {
  Spec spec = Spec::MultiConnection();
  Builder b(spec);
  ValueRef c1 = b.Connection();
  ValueRef c2 = b.Connection();
  b.Packet(c1, "a");
  b.Packet(c1, "b");
  b.Close(c2);
  Program p = *b.Build();

  const spec::Analysis a = spec::Analyze(p, spec);
  ASSERT_EQ(a.values.size(), 2u);
  EXPECT_EQ(a.values[0].def_op, 0u);
  EXPECT_EQ(a.values[0].uses, (std::vector<size_t>{2, 3}));
  EXPECT_FALSE(a.values[0].consumed_by.has_value());
  EXPECT_EQ(a.values[0].last_use(), 3u);
  EXPECT_EQ(a.values[1].def_op, 1u);
  ASSERT_TRUE(a.values[1].consumed_by.has_value());
  EXPECT_EQ(*a.values[1].consumed_by, 4u);
  // An unused value's liveness interval collapses to its def.
  Builder b2(spec);
  b2.Connection();
  const spec::Analysis a2 = spec::Analyze(*b2.Build(), spec);
  EXPECT_TRUE(a2.values[0].unused());
  EXPECT_EQ(a2.values[0].last_use(), 0u);
}

TEST(AnalyzeTest, ConnectionStateLattice) {
  Spec spec = Spec::MultiConnection();
  Builder b(spec);
  ValueRef fresh = b.Connection();
  ValueRef used = b.Connection();
  ValueRef closed = b.Connection();
  ValueRef reset = b.Connection();
  b.Packet(used, "x");
  b.Close(closed);
  b.Node("fault", {reset}, Plan(FaultKind::kConnReset));
  b.Packet(reset, "after-reset-armed");
  (void)fresh;
  Program p = *b.Build();

  const spec::Analysis a = spec::Analyze(p, spec);
  EXPECT_EQ(a.values[0].state, spec::ConnState::kFresh);
  EXPECT_EQ(a.values[1].state, spec::ConnState::kUsed);
  EXPECT_EQ(a.values[2].state, spec::ConnState::kClosed);
  // Reset-kind plans dominate later borrows: once armed, the lattice stays
  // at kReset (the fault may fire on any later syscall).
  EXPECT_EQ(a.values[3].state, spec::ConnState::kReset);
  EXPECT_STREQ(spec::ConnStateName(spec::ConnState::kReset), "reset");
}

TEST(AnalyzeTest, TrailingFaultIsProvablyDead) {
  Spec spec = Spec::GenericNetwork();
  Program trailing = FaultProgram(spec, FaultKind::kShortRead, 8, /*trailing=*/true);
  const spec::Analysis a = spec::Analyze(trailing, spec);
  EXPECT_EQ(a.provably_dead, 1u);
  EXPECT_TRUE(a.ops[2].provably_dead);
  EXPECT_EQ(a.ProvablyDeadOps(), (std::vector<size_t>{2}));

  // The same fault with a packet after it is NOT provably dead — the armed
  // plan fires on the later packet's syscalls. It is only a trim candidate.
  Program mid = FaultProgram(spec, FaultKind::kShortRead, 8, /*trailing=*/false);
  const spec::Analysis a2 = spec::Analyze(mid, spec);
  EXPECT_EQ(a2.provably_dead, 0u);
  EXPECT_FALSE(a2.ops[2].provably_dead);
  EXPECT_TRUE(a2.ops[2].trim_candidate);
}

TEST(AnalyzeTest, UndecodablePlanIsProvablyDead) {
  Spec spec = Spec::GenericNetwork();
  const uint8_t fault = static_cast<uint8_t>(*spec.FindNodeType("fault"));
  Program p = FaultProgram(spec, FaultKind::kShortRead, 8, /*trailing=*/false);
  // Corrupt the plan kind past kFaultKindCount: Decode fails, the engine
  // skips the op entirely, so it is dead even with live packets after it.
  ASSERT_EQ(p.ops[2].node_type, fault);
  p.ops[2].data[0] = 200;
  const spec::Analysis a = spec::Analyze(p, spec);
  EXPECT_TRUE(a.ops[2].provably_dead);
}

TEST(AnalyzeTest, StepsTargetNeverDead) {
  Spec spec = Spec::MultiConnection();
  Builder b(spec);
  ValueRef con = b.Connection();
  b.Packet(con, "x");
  b.Close(con);
  Program p = *b.Build();
  const spec::Analysis a = spec::Analyze(p, spec);
  // Every op here steps the target, so nothing is provably dead — even the
  // close, whose removal the trim oracle must vet dynamically.
  EXPECT_EQ(a.provably_dead, 0u);
  for (const spec::OpFacts& f : a.ops) {
    EXPECT_TRUE(f.steps_target);
  }
}

TEST(AnalyzeTest, RemovalConeCoversTransitiveUses) {
  Spec spec = Spec::MultiConnection();
  Builder b(spec);
  ValueRef c1 = b.Connection();  // op 0
  ValueRef c2 = b.Connection();  // op 1
  b.Packet(c1, "a");             // op 2
  b.Packet(c2, "b");             // op 3
  b.Close(c1);                   // op 4
  Program p = *b.Build();

  const spec::Analysis a = spec::Analyze(p, spec);
  EXPECT_EQ(spec::RemovalCone(a, p, spec, 0), (std::vector<size_t>{0, 2, 4}));
  EXPECT_EQ(spec::RemovalCone(a, p, spec, 1), (std::vector<size_t>{1, 3}));
  EXPECT_EQ(spec::RemovalCone(a, p, spec, 3), (std::vector<size_t>{3}));

  // Removing a full cone keeps the program Validate-clean with ids renumbered.
  auto removed = spec::RemoveOps(p, spec, spec::RemovalCone(a, p, spec, 0));
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->ops.size(), 2u);
  EXPECT_TRUE(removed->Validate(spec));
  EXPECT_EQ(removed->ops[1].args[0], 0u);  // c2 renumbered 1 -> 0

  // Removing a def but keeping its use is rejected, not silently repaired.
  EXPECT_FALSE(spec::RemoveOps(p, spec, {0}).has_value());
}

TEST(AnalyzeTest, CanonicalizeElidesDeadAndStripsMarkers) {
  Spec spec = Spec::GenericNetwork();
  Program p = FaultProgram(spec, FaultKind::kConnReset, 0, /*trailing=*/true);
  p.InsertSnapshotAfterPacket(spec, 0);
  ASSERT_EQ(p.ops.size(), 4u);  // conn, pkt, marker, fault

  const Program canon = spec::Canonicalize(p, spec);
  EXPECT_EQ(canon.ops.size(), 2u);  // conn, pkt
  EXPECT_FALSE(canon.SnapshotMarkerPos().has_value());
  EXPECT_TRUE(canon.Validate(spec));

  // Idempotence: canonicalizing the canonical form is the identity.
  const Program canon2 = spec::Canonicalize(canon, spec);
  EXPECT_EQ(canon2.OpsHash(canon2.ops.size()), canon.OpsHash(canon.ops.size()));
}

TEST(AnalyzeTest, CanonicalizeReachesFixpoint) {
  // Eliding a trailing fault can expose another trailing fault; the elision
  // loop must run to fixpoint, not stop after one round.
  Spec spec = Spec::GenericNetwork();
  Builder b(spec);
  ValueRef con = b.Connection();
  b.Packet(con, "x");
  b.Node("fault", {con}, Plan(FaultKind::kShortRead, 1, 4));
  b.Node("fault", {con}, Plan(FaultKind::kEagain));
  Program p = *b.Build();

  const Program canon = spec::Canonicalize(p, spec);
  EXPECT_EQ(canon.ops.size(), 2u);
}

TEST(AnalyzeTest, NormalHashIgnoresDeadOpsAndIgnoredArgs) {
  Spec spec = Spec::GenericNetwork();
  Builder base(spec);
  ValueRef con = base.Connection();
  base.Packet(con, "hello");
  const Program plain = *base.Build();

  // Dead-op padding does not change semantic identity.
  Program padded = FaultProgram(spec, FaultKind::kConnReset, 0, /*trailing=*/true);
  padded.ops.pop_back();  // drop the fault: now identical to `plain`
  EXPECT_EQ(spec::NormalHash(plain, spec), spec::NormalHash(padded, spec));
  Program dead = FaultProgram(spec, FaultKind::kConnReset, 0, /*trailing=*/true);
  EXPECT_EQ(spec::NormalHash(plain, spec), spec::NormalHash(dead, spec));

  // netemu never reads the arg for eintr-class kinds: twiddling it does not
  // change identity...
  Program a = FaultProgram(spec, FaultKind::kIntr, 0, /*trailing=*/false);
  Program b = FaultProgram(spec, FaultKind::kIntr, 0x1234, /*trailing=*/false);
  EXPECT_EQ(spec::NormalHash(a, spec), spec::NormalHash(b, spec));
  // ...but for kinds whose arg is read (short-read byte cap), it does.
  Program c = FaultProgram(spec, FaultKind::kShortRead, 1, /*trailing=*/false);
  Program d = FaultProgram(spec, FaultKind::kShortRead, 2, /*trailing=*/false);
  EXPECT_NE(spec::NormalHash(c, spec), spec::NormalHash(d, spec));
  // Distinct kinds stay distinct even with args zeroed.
  Program e = FaultProgram(spec, FaultKind::kEagain, 0, /*trailing=*/false);
  EXPECT_NE(spec::NormalHash(a, spec), spec::NormalHash(e, spec));
}

TEST(AnalyzeTest, LiveValuesRespectCloseAndPosition) {
  Spec spec = Spec::MultiConnection();
  Builder b(spec);
  ValueRef c1 = b.Connection();  // op 0 -> value 0
  b.Packet(c1, "a");             // op 1
  ValueRef c2 = b.Connection();  // op 2 -> value 1
  b.Close(c1);                   // op 3
  b.Packet(c2, "b");             // op 4
  Program p = *b.Build();

  const int conn_edge = 0;
  // Before op 2 only c1 exists; before op 4 (post-close) only c2 is live.
  EXPECT_EQ(spec::LiveValuesAt(p, spec, 2, conn_edge), (std::vector<uint16_t>{0}));
  EXPECT_EQ(spec::LiveValuesAt(p, spec, 3, conn_edge), (std::vector<uint16_t>{0, 1}));
  EXPECT_EQ(spec::LiveValuesAt(p, spec, 4, conn_edge), (std::vector<uint16_t>{1}));
  // End-of-program query and an unknown edge type.
  EXPECT_EQ(spec::LiveValuesAt(p, spec, p.ops.size(), conn_edge),
            (std::vector<uint16_t>{1}));
  EXPECT_TRUE(spec::LiveValuesAt(p, spec, 4, 99).empty());
}

TEST(AnalyzeTest, CorpusRejectsSemanticDuplicates) {
  Spec spec = Spec::GenericNetwork();
  Corpus corpus(&spec);

  Program a = FaultProgram(spec, FaultKind::kIntr, 0, /*trailing=*/false);
  Program b = FaultProgram(spec, FaultKind::kIntr, 0x1234, /*trailing=*/false);
  ASSERT_NE(a.OpsHash(a.ops.size()), b.OpsHash(b.ops.size()));  // syntactically new
  EXPECT_TRUE(corpus.Add(std::move(a), 1000, 1, 0.0));
  EXPECT_FALSE(corpus.Add(std::move(b), 1000, 1, 0.0));  // semantically dup
  EXPECT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus.semantic_dupes(), 1u);

  // A genuinely different program still gets in.
  Program c = FaultProgram(spec, FaultKind::kShortRead, 3, /*trailing=*/false);
  EXPECT_TRUE(corpus.Add(std::move(c), 1000, 1, 0.0));
  EXPECT_EQ(corpus.size(), 2u);
}

TEST(AnalyzeTest, FrontierDropsSemanticDuplicates) {
  Spec spec = Spec::GenericNetwork();
  // Single shard: every ExchangeSync completes the barrier and flips, so the
  // publish/dedup path runs without spinning up worker threads.
  CorpusFrontier frontier(1, &spec);

  CorpusFrontier::Entry e0;
  e0.program = FaultProgram(spec, FaultKind::kIntr, 0, /*trailing=*/false);
  CorpusFrontier::Entry e1;
  e1.program = FaultProgram(spec, FaultKind::kIntr, 0x1234, /*trailing=*/false);

  std::vector<CorpusFrontier::Entry> batch;
  batch.push_back(std::move(e0));
  frontier.ExchangeSync(0, std::move(batch));
  EXPECT_EQ(frontier.published(), 1u);

  // The ignored-arg twiddle is syntactically fresh but semantically
  // identical: it never publishes.
  batch.clear();
  batch.push_back(std::move(e1));
  frontier.ExchangeSync(0, std::move(batch));
  EXPECT_EQ(frontier.published(), 1u);
}

}  // namespace
}  // namespace nyx
