#include "src/fuzz/engine.h"

#include <cstdio>
#include <cstdlib>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/telemetry.h"

namespace nyx {

namespace {
// The per-exec RNG hash: the snapshot-prefix hash (0 without a marker) xor
// the full-input hash, read off the input's prefix hashes.
uint64_t RngHashFromPrefixes(const std::vector<uint64_t>& prefix_hashes,
                             std::optional<size_t> marker) {
  const uint64_t prefix_hash = marker.has_value() ? prefix_hashes[*marker] : 0;
  return prefix_hash ^ prefix_hashes.back();
}
}  // namespace

NyxEngine::NyxEngine(const EngineConfig& config, TargetFactory factory, const Spec& spec)
    : config_(config), spec_(spec) {
  vm_ = std::make_unique<Vm>(config_.vm);
  vm_->AttachClock(&clock_, &config_.cost);
  net_.AttachClock(&clock_, &config_.cost);
  target_ = factory();
  target_info_ = target_->info();
  if (config_.audit) {
    auditor_ = std::make_unique<DivergenceAuditor>();
  }

  // Snapshot-state inventory (DESIGN.md §10): every piece of host-side state
  // that a restore must bring back is registered here, and the snapshot aux
  // blob is assembled from these hooks — state outside the registry cannot
  // ride along even by accident.
  SnapshotStateRegistry::HostState netemu_state;
  netemu_state.name = "netemu.socket_table";
  netemu_state.owner = "src/netemu/netemu.cc";
  netemu_state.capture = [this](Bytes& out) { net_.SerializeTo(out); };
  netemu_state.restore = [this](ByteView blob) { return net_.Deserialize(blob); };
  state_registry_.RegisterHostState(std::move(netemu_state));

  SnapshotStateRegistry::HostState interp_state;
  interp_state.name = "engine.interp";
  interp_state.owner = "src/fuzz/engine.cc";
  interp_state.capture = [this](Bytes& out) {
    PutLe32(out, static_cast<uint32_t>(value_conns_.size()));
    for (int c : value_conns_) {
      PutLe32(out, static_cast<uint32_t>(c));
    }
    PutLe32(out, resume_op_);
    PutLe32(out, static_cast<uint32_t>(connection_ops_seen_));
  };
  interp_state.restore = [this](ByteView blob) {
    size_t off = 0;
    const uint32_t nvals = ReadLe32(blob, off);
    off += 4;
    if (blob.size() != 4 + 4ull * nvals + 8) {
      return false;
    }
    value_conns_.clear();
    for (uint32_t i = 0; i < nvals; i++) {
      value_conns_.push_back(static_cast<int>(ReadLe32(blob, off)));
      off += 4;
    }
    resume_op_ = ReadLe32(blob, off);
    off += 4;
    connection_ops_seen_ = ReadLe32(blob, off);
    return true;
  };
  state_registry_.RegisterHostState(std::move(interp_state));

  // Per-exec ephemerals: never snapshotted, asserted back to their idle
  // state between executions where an invariant exists.
  state_registry_.DeclareEphemeral("engine.exec_rng", "src/fuzz/engine.cc");
  // Recomputed from the input at the start of every exec.
  state_registry_.DeclareEphemeral("engine.prefix_hashes", "src/fuzz/engine.cc");
  state_registry_.DeclareEphemeral("guest.fault_jmp", "src/fuzz/guest.cc",
                                   [] { return FaultGuardIdle(); });
  state_registry_.DeclareEphemeral("coverage.trace_map", "src/fuzz/coverage.h");
  // Telemetry is observational host state: phase timers and the trace ring
  // never feed back into execution, so they are per-exec ephemeral, not
  // snapshot state. The verify hook pins the invariant that makes this
  // sound — no phase scope may straddle an execution boundary (a frame left
  // open would attribute one exec's time to another).
  state_registry_.DeclareEphemeral("telemetry.phase_timers", "src/common/telemetry.cc",
                                   [] { return telemetry::PhaseDepth() == 0; });
  state_registry_.DeclareEphemeral("telemetry.trace_ring", "src/common/trace.cc");
}

const Bytes& NyxEngine::SerializeInterpState(uint32_t resume_op) {
  resume_op_ = resume_op;
  state_registry_.CaptureAll(aux_scratch_);
  return aux_scratch_;
}

void NyxEngine::RestoreInterpState(ByteView aux) {
  // Aux blobs are engine-produced; a mismatch means corruption. Fail hard
  // rather than restoring partial state.
  NYX_CHECK(state_registry_.RestoreAll(aux)) << "corrupt snapshot aux blob";
}

void NyxEngine::Boot() {
  CoverageMap boot_cov;
  GuestContext ctx(*vm_, net_, boot_cov, clock_, config_.cost);
  ctx.set_asan(config_.asan);
  ctx.ReseedRng(config_.seed);
  target_->Init(ctx);
  GuardedStep(*target_, ctx);

  // Name the guest-physical layout so the divergence auditor can attribute
  // a diverging page to its owner (guest.h layout + the target's declared
  // state-struct size).
  const uint64_t mem_bytes = vm_->mem().size_bytes();
  state_registry_.RegisterGuestRegion("guest.reserved", 0, kStateBase);
  const uint64_t state_window = kHeapBase - kStateBase;
  const uint64_t state_bytes =
      target_info_.state_bytes > 0 && target_info_.state_bytes < state_window
          ? target_info_.state_bytes
          : state_window;
  state_registry_.RegisterGuestRegion("target." + target_info_.name + ".state", kStateBase,
                                      state_bytes);
  if (state_bytes < state_window) {
    state_registry_.RegisterGuestRegion("guest.state_slack", kStateBase + state_bytes,
                                        state_window - state_bytes);
  }
  if (mem_bytes > kHeapBase) {
    const uint64_t heap_end = mem_bytes < kScratchBase ? mem_bytes : kScratchBase;
    state_registry_.RegisterGuestRegion("guest.heap", kHeapBase, heap_end - kHeapBase);
  }
  if (mem_bytes > kScratchBase) {
    state_registry_.RegisterGuestRegion("guest.scratch", kScratchBase,
                                        mem_bytes - kScratchBase);
  }

  // The target is now parked on Accept/Recv/Poll over the attack surface:
  // the automatic root snapshot point, "after starting the process and
  // directly before the first byte of input data is passed to the target".
  value_conns_.clear();
  connection_ops_seen_ = 0;
  vm_->TakeRootSnapshot(SerializeInterpState(0));
  booted_ = true;
}

int NyxEngine::ResolveConn(const Op& op) const {
  if (op.args.empty()) {
    return -1;
  }
  const uint16_t value_id = op.args[0];
  if (value_id < value_conns_.size()) {
    return value_conns_[value_id];
  }
  // Dangling reference (the mutator repairs most, but stay defensive): fall
  // back to the most recent connection.
  return value_conns_.empty() ? -1 : value_conns_.back();
}

ExecResult NyxEngine::Run(const Program& input, CoverageMap& cov) {
  execs_++;
  if (auditor_ == nullptr) {
    return RunInternal(input, cov);
  }

  // Audit mode (NYX_AUDIT=1): run the program, replay it down the identical
  // path, and compare end states. See src/fuzz/audit.h for the oracle.
  const std::vector<ChainLink> pre_chain = chain_;
  ExecResult result_a = RunInternal(input, cov);
  {
    // Everything past the primary execution is audit overhead:
    // fingerprinting, the replay (whose inner phases nest here and keep
    // their own self-time), and the cross-restore check. The scope closes
    // before CheckEphemeral below — that check runs the telemetry
    // phase-depth verify hook, which must observe depth zero.
    telemetry::ScopedPhase phase(telemetry::Phase::kAudit);
    const StateFingerprint fp_a = CaptureFingerprint(cov, result_a);

    // Force the replay down run A's exact path: A may have pushed new
    // snapshots mid-run (the marker, or packet-boundary auto-pushes that
    // extend the chain past A's own match), and the replay must compute
    // the same chain match A did rather than shortcut through links A
    // just recorded. Restoring the pre-A chain is sufficient: A only
    // pushed *deeper* than its match, so every slot the restored chain
    // can match is still valid, the first hash mismatch falls at the same
    // depth, and B re-pushes the same snapshots from identical state.
    chain_ = pre_chain;
    CoverageMap audit_cov;
    ExecResult result_b = RunInternal(input, audit_cov);
    const StateFingerprint fp_b = CaptureFingerprint(audit_cov, result_b);
    auditor_->CompareReplay(fp_a, fp_b, state_registry_);

    // Cross-restore check: if the replay recreated the incremental
    // snapshot, a third execution takes the restore-and-resume shortcut
    // through it and must land exactly where the full replay did. Comparing
    // against run B's own just-created snapshot keeps the per-exec RNG
    // seeding consistent.
    if (!result_a.used_incremental && result_b.created_incremental && vm_->has_incremental()) {
      audit_cov.Reset();
      ExecResult result_c = RunInternal(input, audit_cov);
      if (result_c.used_incremental) {
        const StateFingerprint fp_c = CaptureFingerprint(audit_cov, result_c);
        auditor_->CompareCrossRestore(fp_b, fp_c, state_registry_);
      }
    }
  }
  auditor_->ReportEphemeralFailures(state_registry_.CheckEphemeral());
  return result_a;
}

ExecResult NyxEngine::RunInternal(const Program& input, CoverageMap& cov) {
  ExecResult result;
  const uint64_t t0 = clock_.now_ns();

  const auto marker = input.SnapshotMarkerPos();
  // One hashing pass answers every prefix question below: chain-link
  // matching, link creation and the RNG seed.
  input.PrefixHashes(prefix_hashes_);

  size_t start_op = 0;
  {
    telemetry::ScopedPhase phase(telemetry::Phase::kSnapshotRestore);
    // Deepest chain link whose recorded prefix the new input shares. Links
    // match in order; the first mismatch caps the depth (anything deeper
    // was captured past a diverging op). The VM bounds the search to its
    // valid-slot prefix.
    size_t match = 0;
    if (marker.has_value()) {
      size_t limit = chain_.size() < vm_->max_valid_depth() ? chain_.size()
                                                            : vm_->max_valid_depth();
      for (size_t d = 1; d <= limit; d++) {
        const ChainLink& link = chain_[d - 1];
        if (link.ops_hashed > input.ops.size() || prefix_hashes_[link.ops_hashed] != link.hash) {
          break;
        }
        match = d;
      }
    }
    if (match > 0) {
      vm_->RestoreTo(match);
      RestoreInterpState(vm_->current_aux());
      start_op = resume_op_;
      result.used_incremental = true;
    } else {
      vm_->RestoreRoot();
      RestoreInterpState(vm_->current_aux());
      start_op = 0;
      chain_.clear();
    }
  }

  GuestContext ctx(*vm_, net_, cov, clock_, config_.cost);
  ctx.set_asan(config_.asan);
  // Deterministic per-input noise: the same input always sees the same
  // layout, different inputs differ. Differential probes pin the hash
  // (RunPinned) so a rewritten program sees the original's noise.
  const uint64_t rng_hash = exec_rng_hash_override_.has_value()
                                ? *exec_rng_hash_override_
                                : RngHashFromPrefixes(prefix_hashes_, marker);
  ctx.ReseedRng(Mix64(config_.seed ^ rng_hash));

  for (size_t i = start_op; i < input.ops.size() && !ctx.crash().crashed; i++) {
    const Op& op = input.ops[i];
    if (op.is_snapshot()) {
      if (vm_->cur_depth() != 0) {
        // Malformed input with a second marker (Validate rejects these, but
        // the engine must not abort on one): ignore it.
        continue;
      }
      // Own self time: the aux blob; the Vm's nested snapshot-create scope
      // holds the page capture.
      telemetry::ScopedPhase phase(telemetry::Phase::kSnapshotCreate);
      vm_->CreateIncremental(SerializeInterpState(static_cast<uint32_t>(i + 1)));
      // The link hash covers the marker op itself, so a later match implies
      // the candidate input also carries the marker at this position and
      // resuming at i+1 skips exactly the executed prefix.
      chain_.clear();
      chain_.push_back({prefix_hashes_[i + 1], static_cast<uint32_t>(i + 1)});
      result.created_incremental = true;
      continue;
    }
    if (op.node_type >= spec_.node_type_count()) {
      continue;
    }
    switch (spec_.node_type(op.node_type).semantic) {
      case NodeSemantic::kConnection: {
        int conn = -1;
        if (target_info_.is_client) {
          const auto& clients = net_.ClientConnections();
          if (connection_ops_seen_ < clients.size()) {
            conn = clients[connection_ops_seen_];
          }
        } else if (target_info_.transport == SockKind::kDgram) {
          conn = net_.FindDgramSocket(target_info_.port);
        } else {
          conn = net_.QueueConnection(target_info_.port);
        }
        connection_ops_seen_++;
        value_conns_.push_back(conn);
        GuardedStep(*target_, ctx);
        break;
      }
      case NodeSemantic::kPacket: {
        const int conn = ResolveConn(op);
        if (net_.ValidConn(conn)) {
          net_.DeliverPacket(conn, op.data);
          result.packets_delivered++;
          clock_.Advance(config_.cost.per_byte_ns * op.data.size());
          GuardedStep(*target_, ctx);
          // Deepen the snapshot chain at packet boundaries once the marker
          // established depth 1 — the next related input resumes past this
          // packet instead of replaying it. Crashed states are never worth
          // resuming from.
          if (vm_->cur_depth() >= 1 && vm_->cur_depth() < config_.vm.snapshot_depth &&
              !ctx.crash().crashed) {
            telemetry::ScopedPhase phase(telemetry::Phase::kSnapshotCreate);
            const size_t d =
                vm_->PushSnapshot(SerializeInterpState(static_cast<uint32_t>(i + 1)));
            chain_.resize(d - 1);
            chain_.push_back({prefix_hashes_[i + 1], static_cast<uint32_t>(i + 1)});
            result.created_incremental = true;
          }
        }
        break;
      }
      case NodeSemantic::kClose: {
        const int conn = ResolveConn(op);
        if (net_.ValidConn(conn)) {
          net_.PeerClose(conn);
          GuardedStep(*target_, ctx);
        }
        break;
      }
      case NodeSemantic::kCustom:
        GuardedStep(*target_, ctx);
        break;
      case NodeSemantic::kFault: {
        // Queue the plan; the fault fires inside the target's own
        // Recv/Send/... calls on a later step. No GuardedStep here — the
        // op only arms state, it delivers nothing to react to.
        const int conn = ResolveConn(op);
        if (net_.ValidConn(conn)) {
          if (auto plan = FaultPlan::Decode(op.data)) {
            net_.QueueFault(conn, *plan);
          }
        }
        break;
      }
    }
  }

  result.crash = ctx.crash();
  result.ijon_max = ctx.IjonValue(0);
  result.vtime_ns = clock_.now_ns() - t0;
  last_exec_rng_hash_ = ctx.rng().StateHash();
  return result;
}

StateFingerprint NyxEngine::CaptureFingerprint(const CoverageMap& cov,
                                               const ExecResult& result) {
  StateFingerprint fp;
  GuestMemory& mem = vm_->mem();
  const size_t pages = mem.size_bytes() / kPageSize;
  fp.page_hashes.reserve(pages);
  for (size_t p = 0; p < pages; p++) {
    fp.page_hashes.push_back(Fnv1a64(mem.base() + p * kPageSize, kPageSize));
  }
  const DeviceState& dev = vm_->devices();
  for (size_t d = 0; d < dev.device_count(); d++) {
    fp.device_hashes.emplace_back(dev.name(d),
                                  Fnv1a64(dev.regs(d).data(), dev.regs(d).size()));
  }
  fp.disk_hash = Fnv1a64(vm_->disk().SectorPtr(0), vm_->disk().size_bytes());
  fp.host_hashes = SnapshotStateRegistry::EntryHashes(state_registry_.CaptureAll());
  fp.rng_hash = last_exec_rng_hash_;
  fp.edge_hash = Fnv1a64(cov.map().data(), cov.map().size());
  fp.sites.assign(cov.sites_hit().begin(), cov.sites_hit().end());
  fp.crashed = result.crash.crashed;
  fp.crash_id = result.crash.crash_id;
  fp.packets_delivered = result.packets_delivered;
  fp.ijon_max = result.ijon_max;
  return fp;
}

ExecResult NyxEngine::RunPinned(const Program& input, uint64_t rng_hash, CoverageMap& cov) {
  exec_rng_hash_override_ = rng_hash;
  ExecResult result = Run(input, cov);
  exec_rng_hash_override_.reset();
  return result;
}

bool NyxEngine::CheckRewriteEquivalence(const Program& original, const Program& rewritten,
                                        std::string* why) {
  const uint64_t pin = InputRngHash(original);
  auto probe = [&](const Program& p, CoverageMap& cov, ExecResult& result) {
    DropIncremental();
    result = RunPinned(p, pin, cov);
    return CaptureFingerprint(cov, result);
  };
  CoverageMap cov_a;
  CoverageMap cov_b;
  ExecResult ra;
  ExecResult rb;
  const StateFingerprint fp_a = probe(original, cov_a, ra);
  const StateFingerprint fp_b = probe(rewritten, cov_b, rb);
  DropIncremental();

  auto fail = [why](const std::string& msg) {
    if (why != nullptr) {
      *why = msg;
    }
    return false;
  };
  // host_hashes deliberately NOT compared — see the header-comment contract.
  if (fp_a.page_hashes != fp_b.page_hashes) {
    for (size_t p = 0; p < fp_a.page_hashes.size() && p < fp_b.page_hashes.size(); p++) {
      if (fp_a.page_hashes[p] != fp_b.page_hashes[p]) {
        return fail("guest page " + std::to_string(p) + " diverged");
      }
    }
    return fail("guest page count diverged");
  }
  if (fp_a.device_hashes != fp_b.device_hashes) {
    return fail("device registers diverged");
  }
  if (fp_a.disk_hash != fp_b.disk_hash) {
    return fail("disk diverged");
  }
  if (fp_a.rng_hash != fp_b.rng_hash) {
    return fail("per-exec RNG end state diverged");
  }
  if (fp_a.edge_hash != fp_b.edge_hash) {
    return fail("coverage edge map diverged");
  }
  if (fp_a.sites != fp_b.sites) {
    return fail("coverage site bitmap diverged");
  }
  if (fp_a.crashed != fp_b.crashed || fp_a.crash_id != fp_b.crash_id) {
    return fail("crash outcome diverged");
  }
  if (fp_a.packets_delivered != fp_b.packets_delivered) {
    return fail("packets_delivered diverged (" + std::to_string(fp_a.packets_delivered) +
                " vs " + std::to_string(fp_b.packets_delivered) + ")");
  }
  if (fp_a.ijon_max != fp_b.ijon_max) {
    return fail("ijon feedback diverged");
  }
  return true;
}

uint64_t InputRngHash(const Program& input) {
  std::vector<uint64_t> prefix_hashes;
  input.PrefixHashes(prefix_hashes);
  return RngHashFromPrefixes(prefix_hashes, input.SnapshotMarkerPos());
}

void NyxEngine::DropIncremental() {
  vm_->DropIncremental();
  chain_.clear();
}

std::vector<Bytes> NyxEngine::LastResponses() const {
  std::vector<Bytes> out;
  for (int conn : value_conns_) {
    if (net_.ValidConn(conn)) {
      for (ByteView b : net_.Sent(conn)) {
        out.emplace_back(b.begin(), b.end());
      }
    }
  }
  return out;
}

}  // namespace nyx
