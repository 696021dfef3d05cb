// End-to-end tests for the deterministic fault-injection dimension ("No
// Peer, no Cry"): the verifier's fault-plan rule, Repair's payload
// sanitization, the mutator knob that gates fault ops, and whole faulted
// campaigns — which must be repeat-identical and replay divergence-free
// under the snapshot auditor, since fault state snapshots with the emulator.

#include <gtest/gtest.h>

#include "src/fuzz/fuzzer.h"
#include "src/spec/builder.h"
#include "src/spec/fault_plan.h"
#include "src/spec/verify.h"
#include "src/targets/registry.h"

namespace nyx {
namespace {

// Builds USER/PASS/CWD traffic with a well-formed fault op armed before the
// last packet, so executing the program actually fires the fault.
Program FaultedSeed(const Spec& spec) {
  Builder b(spec);
  ValueRef con = b.Connection();
  b.Packet(con, "USER anonymous\r\n");
  b.Packet(con, "PASS x\r\n");
  Bytes plan;
  FaultPlan{FaultKind::kShortRead, 2, 3}.EncodeTo(plan);
  b.Node("fault", {con}, plan);
  b.Packet(con, "CWD /tmp\r\n");
  Program p = *b.Build();
  return p;
}

size_t FaultOpIndex(const Program& p, const Spec& spec) {
  for (size_t i = 0; i < p.ops.size(); i++) {
    if (!p.ops[i].is_snapshot() &&
        spec.node_type(p.ops[i].node_type).semantic == NodeSemantic::kFault) {
      return i;
    }
  }
  ADD_FAILURE() << "no fault op in program";
  return 0;
}

size_t CountFaultOps(const Program& p, const Spec& spec) {
  size_t n = 0;
  for (const Op& op : p.ops) {
    if (!op.is_snapshot() &&
        spec.node_type(op.node_type).semantic == NodeSemantic::kFault) {
      n++;
    }
  }
  return n;
}

TEST(FaultInjectionTest, BuilderAcceptsWellFormedFaultOp) {
  const Spec spec = Spec::GenericNetwork();
  const Program p = FaultedSeed(spec);
  EXPECT_TRUE(spec::Verify(p, spec).ok());
  EXPECT_EQ(CountFaultOps(p, spec), 1u);
}

TEST(FaultInjectionTest, VerifierFlagsIllFormedFaultPlans) {
  const Spec spec = Spec::GenericNetwork();

  // Unknown fault kind.
  Program p = FaultedSeed(spec);
  p.ops[FaultOpIndex(p, spec)].data = {99, 1, 0, 0};
  spec::Result r = spec::Verify(p, spec);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.Has(spec::Rule::kFaultPlan)) << r.Summary();

  // Zero burst count.
  p = FaultedSeed(spec);
  p.ops[FaultOpIndex(p, spec)].data = {0, 0, 0, 0};
  r = spec::Verify(p, spec);
  EXPECT_TRUE(r.Has(spec::Rule::kFaultPlan)) << r.Summary();

  // Oversized burst count.
  p = FaultedSeed(spec);
  p.ops[FaultOpIndex(p, spec)].data = {0, static_cast<uint8_t>(kMaxFaultBurst + 1), 0, 0};
  r = spec::Verify(p, spec);
  EXPECT_TRUE(r.Has(spec::Rule::kFaultPlan)) << r.Summary();

  // Wrong payload width is the scalar-width rule's business, not kFaultPlan.
  p = FaultedSeed(spec);
  p.ops[FaultOpIndex(p, spec)].data = {0, 1};
  r = spec::Verify(p, spec);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.Has(spec::Rule::kScalarDataWidth)) << r.Summary();
  EXPECT_FALSE(r.Has(spec::Rule::kFaultPlan)) << r.Summary();
}

TEST(FaultInjectionTest, RepairSanitizesFaultPayloads) {
  const Spec spec = Spec::GenericNetwork();
  const Bytes corrupt[] = {
      {99, 1, 0, 0},                                        // unknown kind
      {0, 0, 0, 0},                                         // zero burst
      {3, static_cast<uint8_t>(kMaxFaultBurst + 7), 9, 9},  // oversize burst
      {1},                                                  // short payload
      {},                                                   // empty payload
  };
  for (const Bytes& data : corrupt) {
    Program p = FaultedSeed(spec);
    p.ops[FaultOpIndex(p, spec)].data = data;
    p.Repair(spec);
    const spec::Result r = spec::Verify(p, spec);
    EXPECT_TRUE(r.ok()) << r.Summary();
    EXPECT_TRUE(FaultPlan::Decode(p.ops[FaultOpIndex(p, spec)].data).has_value());
  }
}

TEST(FaultInjectionTest, MutatorNeverInsertsFaultOpsWhenDisabled) {
  auto reg = FindTarget("lightftp");
  ASSERT_TRUE(reg.has_value());
  const Spec spec = reg->make_spec();
  const std::vector<Program> seeds = reg->make_seeds(spec);
  ASSERT_FALSE(seeds.empty());
  Mutator mutator(spec, /*seed=*/7, /*dictionary=*/true, /*faults=*/false);
  for (int i = 0; i < 300; i++) {
    Program p = seeds[static_cast<size_t>(i) % seeds.size()];
    mutator.Mutate(p, {}, 0);
    EXPECT_EQ(CountFaultOps(p, spec), 0u) << "iteration " << i;
  }
}

TEST(FaultInjectionTest, MutatorInsertsValidFaultOpsWhenEnabled) {
  auto reg = FindTarget("lightftp");
  ASSERT_TRUE(reg.has_value());
  const Spec spec = reg->make_spec();
  const std::vector<Program> seeds = reg->make_seeds(spec);
  ASSERT_FALSE(seeds.empty());
  Mutator mutator(spec, /*seed=*/7, /*dictionary=*/true, /*faults=*/true);
  size_t with_faults = 0;
  // 1500 programs: the per-program fault-carrying probability is only a few
  // percent (most steps are havoc; inserts race deletes), so a small sample
  // turns this into an RNG-stream lottery. At this size the expected count
  // is ~60 and the threshold is a >4-sigma floor, robust to stream shifts
  // from unrelated mutator changes.
  for (int i = 0; i < 1500; i++) {
    Program p = seeds[static_cast<size_t>(i) % seeds.size()];
    mutator.Mutate(p, {}, 0);
    const spec::Result r = spec::Verify(p, spec);
    ASSERT_TRUE(r.ok()) << "iteration " << i << ": " << r.Summary();
    if (CountFaultOps(p, spec) > 0) {
      with_faults++;
    }
  }
  EXPECT_GT(with_faults, 25u);
}

CampaignLimits FaultedLimits() {
  CampaignLimits limits;
  limits.vtime_seconds = 5.0;
  limits.max_execs = 150;
  limits.wall_seconds = 120.0;
  return limits;
}

CampaignResult RunFaultedCampaign(const EngineConfig& ecfg) {
  auto reg = FindTarget("lightftp");
  EXPECT_TRUE(reg.has_value());
  const Spec spec = reg->make_spec();
  FuzzerConfig fcfg;
  fcfg.policy = PolicyMode::kBalanced;
  fcfg.seed = 5;
  fcfg.fault_injection = true;
  NyxFuzzer fuzzer(ecfg, reg->factory, spec, fcfg);
  for (const Program& s : reg->make_seeds(spec)) {
    fuzzer.AddSeed(s);
  }
  // One extra seed that already carries a fault op, so the campaign
  // exercises fault replay from exec #1 rather than waiting on the mutator.
  fuzzer.AddSeed(FaultedSeed(spec));
  return fuzzer.Run(FaultedLimits());
}

TEST(FaultInjectionTest, FaultedCampaignIsRepeatIdentical) {
  EngineConfig ecfg;
  ecfg.vm.mem_pages = 256;
  ecfg.vm.disk_sectors = 256;
  const CampaignResult a = RunFaultedCampaign(ecfg);
  const CampaignResult b = RunFaultedCampaign(ecfg);

  EXPECT_GT(a.faults_injected, 0u);
  EXPECT_EQ(a.execs, b.execs);
  EXPECT_EQ(a.branch_coverage, b.branch_coverage);
  EXPECT_EQ(a.edge_coverage, b.edge_coverage);
  EXPECT_EQ(a.corpus_size, b.corpus_size);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.faulted_bytes, b.faulted_bytes);
  EXPECT_EQ(a.crashes.size(), b.crashes.size());
  EXPECT_DOUBLE_EQ(a.vtime_seconds, b.vtime_seconds);
}

TEST(FaultInjectionTest, AuditedFaultedCampaignStaysDivergenceFree) {
  // The acceptance bar for fault snapshotting: an audited campaign with
  // incremental snapshots (depth >= 1) and fault injection on replays
  // bit-identically — fault queues and reset flags really do restore.
  EngineConfig ecfg;
  ecfg.vm.mem_pages = 256;
  ecfg.vm.disk_sectors = 256;
  ecfg.vm.snapshot_depth = 2;
  ecfg.audit = true;
  const CampaignResult result = RunFaultedCampaign(ecfg);
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_GT(result.incremental_creates, 0u);
  EXPECT_GT(result.pages_audited, 0u);
  EXPECT_EQ(result.audit_divergences, 0u);
}

}  // namespace
}  // namespace nyx
