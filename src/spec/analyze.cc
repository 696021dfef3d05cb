#include "src/spec/analyze.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/spec/fault_plan.h"

namespace nyx {
namespace spec {
namespace {

// Kinds whose `arg` field netemu never reads (src/netemu: only kTimeout's
// expiry and kShortRead/kShortWrite's byte caps are consulted). Zeroing the
// arg for the rest is a semantics-preserving normalization.
bool FaultArgIgnored(FaultKind kind) {
  switch (kind) {
    case FaultKind::kEagain:
    case FaultKind::kIntr:
    case FaultKind::kConnReset:
    case FaultKind::kPeerClose:
      return true;
    case FaultKind::kShortRead:
    case FaultKind::kShortWrite:
    case FaultKind::kTimeout:
      return false;
  }
  return false;
}

bool KnownOpcode(const Op& op, const Spec& spec) {
  return !op.is_snapshot() && op.node_type < spec.node_type_count();
}

// Output value count of an op (markers and unknown opcodes produce none).
size_t OutputCount(const Op& op, const Spec& spec) {
  return KnownOpcode(op, spec) ? spec.node_type(op.node_type).outputs.size() : 0;
}

}  // namespace

const char* ConnStateName(ConnState state) {
  switch (state) {
    case ConnState::kFresh:  return "fresh";
    case ConnState::kUsed:   return "used";
    case ConnState::kClosed: return "closed";
    case ConnState::kReset:  return "reset";
  }
  return "?";
}

std::vector<size_t> Analysis::ProvablyDeadOps() const {
  std::vector<size_t> dead;
  for (size_t i = 0; i < ops.size(); i++) {
    if (ops[i].provably_dead) dead.push_back(i);
  }
  return dead;
}

std::vector<uint16_t> Analysis::LiveBefore(size_t op_index, int edge_type) const {
  std::vector<uint16_t> live;
  for (size_t v = 0; v < values.size(); v++) {
    const ValueInfo& info = values[v];
    if (info.edge_type != edge_type) continue;
    if (info.def_op >= op_index) continue;
    if (info.consumed_by.has_value() && *info.consumed_by < op_index) continue;
    live.push_back(static_cast<uint16_t>(v));
  }
  return live;
}

Analysis Analyze(const Program& program, const Spec& spec) {
  Analysis a;
  a.ops.resize(program.ops.size());

  for (size_t i = 0; i < program.ops.size(); i++) {
    const Op& op = program.ops[i];
    OpFacts& facts = a.ops[i];
    if (op.is_snapshot()) {
      facts.is_marker = true;
      continue;
    }
    if (!KnownOpcode(op, spec)) {
      // Unknown opcode: claim nothing — conservatively treat it as stepping
      // the target so nothing around it is ever called dead.
      facts.steps_target = true;
      continue;
    }
    const NodeTypeDef& node = spec.node_type(op.node_type);
    facts.steps_target = node.semantic != NodeSemantic::kFault;

    const size_t arity = node.borrows.size() + node.consumes.size();
    if (op.args.size() == arity) {
      for (size_t p = 0; p < op.args.size(); p++) {
        const uint16_t arg = op.args[p];
        if (arg >= a.values.size()) continue;  // dangling: nothing to bind
        ValueInfo& val = a.values[arg];
        val.uses.push_back(i);
        const bool consumes = p >= node.borrows.size();
        if (consumes && !val.consumed_by.has_value()) {
          val.consumed_by = i;
          if (node.semantic == NodeSemantic::kClose) {
            val.state = ConnState::kClosed;
          }
        }
        // Lattice transitions on borrowed values. kClosed is final; kReset
        // is only refined by an explicit close (handled above).
        if (!consumes && val.state != ConnState::kClosed) {
          if (node.semantic == NodeSemantic::kFault) {
            const std::optional<FaultPlan> plan = FaultPlan::Decode(op.data);
            if (plan.has_value() && (plan->kind == FaultKind::kConnReset ||
                                     plan->kind == FaultKind::kPeerClose)) {
              val.state = ConnState::kReset;
            }
          } else if (val.state == ConnState::kFresh) {
            val.state = ConnState::kUsed;
          }
        }
      }
    }
    for (size_t out = 0; out < node.outputs.size(); out++) {
      ValueInfo val;
      val.edge_type = node.outputs[out];
      val.def_op = i;
      a.values.push_back(val);
    }
  }

  // Index of the last op that steps the target; ops after it can only arm
  // netemu state that is never consulted again.
  size_t last_step = program.ops.size();  // sentinel: none
  for (size_t i = program.ops.size(); i-- > 0;) {
    if (a.ops[i].steps_target) {
      last_step = i;
      break;
    }
  }

  // First value id produced by each op, to test "all outputs unused".
  std::vector<size_t> first_output(program.ops.size(), 0);
  {
    size_t next = 0;
    for (size_t i = 0; i < program.ops.size(); i++) {
      first_output[i] = next;
      next += OutputCount(program.ops[i], spec);
    }
  }
  auto outputs_unused = [&](size_t i) {
    const size_t n = OutputCount(program.ops[i], spec);
    for (size_t v = first_output[i]; v < first_output[i] + n; v++) {
      if (!a.values[v].unused()) return false;
    }
    return true;
  };

  for (size_t i = 0; i < program.ops.size(); i++) {
    const Op& op = program.ops[i];
    OpFacts& facts = a.ops[i];
    if (facts.is_marker || !KnownOpcode(op, spec)) continue;
    const NodeTypeDef& node = spec.node_type(op.node_type);
    switch (node.semantic) {
      case NodeSemantic::kFault: {
        if (!outputs_unused(i)) break;
        // Dead iff the engine skips the plan (undecodable payload) or no
        // later op ever steps the target (the armed plan is never consulted).
        const bool undecodable = !FaultPlan::Decode(op.data).has_value();
        const bool trailing = last_step == program.ops.size() || i > last_step;
        if (undecodable || trailing) {
          facts.provably_dead = true;
          a.provably_dead++;
        } else {
          facts.trim_candidate = true;
          a.trim_candidates++;
        }
        break;
      }
      case NodeSemantic::kConnection:
        // A connection nothing ever touches is very likely removable, but
        // establishing it still steps the target: dynamic-oracle territory.
        if (outputs_unused(i)) {
          facts.trim_candidate = true;
          a.trim_candidates++;
        }
        break;
      case NodeSemantic::kClose: {
        // Closing a connection that already has a reset/peer-close armed is
        // likely redundant — but whether the reset actually fired depends on
        // the target's syscall pattern, so again only a candidate.
        bool reset_armed = false;
        for (size_t p = node.borrows.size(); p < op.args.size(); p++) {
          if (op.args[p] < a.values.size() &&
              a.values[op.args[p]].state == ConnState::kReset) {
            reset_armed = true;
          }
        }
        if (reset_armed) {
          facts.trim_candidate = true;
          a.trim_candidates++;
        }
        break;
      }
      case NodeSemantic::kPacket:
      case NodeSemantic::kCustom:
        break;
    }
  }
  return a;
}

std::vector<size_t> RemovalCone(const Analysis& analysis, const Program& program,
                                const Spec& spec, size_t op) {
  NYX_DCHECK(op < program.ops.size()) << "RemovalCone: op out of range";
  // first value id produced by each op (mirrors Analyze's layout).
  std::vector<size_t> first_output(program.ops.size(), 0);
  size_t next = 0;
  for (size_t i = 0; i < program.ops.size(); i++) {
    first_output[i] = next;
    next += OutputCount(program.ops[i], spec);
  }

  std::vector<bool> in_cone(program.ops.size(), false);
  std::vector<size_t> worklist = {op};
  in_cone[op] = true;
  while (!worklist.empty()) {
    const size_t cur = worklist.back();
    worklist.pop_back();
    const size_t n = OutputCount(program.ops[cur], spec);
    for (size_t v = first_output[cur]; v < first_output[cur] + n; v++) {
      for (size_t user : analysis.values[v].uses) {
        if (!in_cone[user]) {
          in_cone[user] = true;
          worklist.push_back(user);
        }
      }
    }
  }
  std::vector<size_t> cone;
  for (size_t i = 0; i < program.ops.size(); i++) {
    if (in_cone[i]) cone.push_back(i);
  }
  return cone;
}

std::optional<Program> RemoveOps(const Program& program, const Spec& spec,
                                 const std::vector<size_t>& remove) {
  std::vector<bool> removed(program.ops.size(), false);
  for (size_t i : remove) {
    if (i < removed.size()) removed[i] = true;
  }

  // Old value id -> new value id (nullopt once its producer is elided).
  constexpr uint16_t kElided = 0xffff;
  std::vector<uint16_t> remap;
  Program out;
  uint16_t next_new = 0;
  for (size_t i = 0; i < program.ops.size(); i++) {
    const Op& op = program.ops[i];
    const size_t outputs = OutputCount(op, spec);
    if (removed[i]) {
      remap.insert(remap.end(), outputs, kElided);
      continue;
    }
    Op kept = op;
    for (uint16_t& arg : kept.args) {
      if (arg >= remap.size()) continue;  // dangling in the input: keep as-is
      if (remap[arg] == kElided) return std::nullopt;  // not a union of cones
      arg = remap[arg];
    }
    for (size_t out = 0; out < outputs; out++) {
      remap.push_back(next_new++);
    }
    out.ops.push_back(std::move(kept));
  }
  return out;
}

Program Canonicalize(const Program& program, const Spec& spec) {
  Program p = program;
  p.StripSnapshotMarkers();

  // Elide provably-dead ops to fixpoint. One pass suffices for well-formed
  // programs (removing a dead fault never makes another op dead), but the
  // loop costs nothing and keeps the normal form a true fixpoint even for
  // adversarial inputs.
  for (;;) {
    const Analysis a = Analyze(p, spec);
    const std::vector<size_t> dead = a.ProvablyDeadOps();
    if (dead.empty()) break;
    std::optional<Program> next = RemoveOps(p, spec, dead);
    if (!next.has_value()) break;  // dead op's output in use — cannot happen
    p = std::move(*next);
  }

  // Normalize fault payloads: zero the arg for kinds netemu never reads it
  // for, so e.g. eintr{count=2, arg=7} and eintr{count=2, arg=0} — which are
  // byte-identical to the guest — share one normal form.
  for (Op& op : p.ops) {
    if (!KnownOpcode(op, spec)) continue;
    if (spec.node_type(op.node_type).semantic != NodeSemantic::kFault) continue;
    const std::optional<FaultPlan> plan = FaultPlan::Decode(op.data);
    if (plan.has_value() && plan->arg != 0 && FaultArgIgnored(plan->kind)) {
      FaultPlan normalized = *plan;
      normalized.arg = 0;
      normalized.EncodeTo(op.data);
    }
  }
  return p;
}

uint64_t NormalHash(const Program& program, const Spec& spec) {
  const Program canon = Canonicalize(program, spec);
  return canon.OpsHash(canon.ops.size());
}

std::vector<uint16_t> LiveValuesAt(const Program& program, const Spec& spec, size_t op_index,
                                   int edge_type) {
  const Analysis a = Analyze(program, spec);
  return a.LiveBefore(std::min(op_index, a.ops.size()), edge_type);
}

}  // namespace spec
}  // namespace nyx
