// Snapshot-state inventory: the static half of the snapshot-completeness
// analysis (DESIGN.md §10).
//
// Nyx-Net's correctness rests on one property: a snapshot restore brings
// back *all* mutated state. Guest RAM, device registers and disk sectors are
// restored by the Vm itself; everything else — host-side state that is
// logically part of the guest, like the emulated kernel's socket table or
// the bytecode interpreter's resume position — used to ride along in an
// opaque aux blob maintained by hand. State that never made it into the
// blob was not an error anywhere; it was a heisenbug that surfaced as
// irreproducible executions.
//
// The SnapshotStateRegistry turns that convention into an enforced
// inventory. Every piece of mutable host-side state that must survive a
// restore is registered by name with capture/restore hooks; state that is
// legitimately re-initialized on every execution is declared ephemeral
// (optionally with a verify hook asserting the re-initialization actually
// happens). The engine builds its snapshot aux blob *through* the registry,
// so unregistered state cannot be restored even by accident — and the
// DivergenceAuditor (src/fuzz/audit.h) names the owning registration when a
// double-execution comparison finds a mismatch.
//
// Guest memory is covered by named regions (target state struct, heap,
// scratch, ...) so a diverging page is attributed to its owner too; a page
// outside every registered region is reported as UNREGISTERED.
//
// The companion lint rule (`snapshot-state` in src/tools/nyx_lint.cc) flags
// mutable statics in the snapshot-relevant directories that carry neither
// annotation, making an unregistered global a CI failure instead of a
// debugging session.

#ifndef SRC_VM_STATE_REGISTRY_H_
#define SRC_VM_STATE_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/bytes.h"

namespace nyx {

// Source annotations for mutable statics in snapshot-relevant directories.
// They expand to nothing at runtime — their job is to force the author to
// answer "who restores this?" at the declaration site, where nyx_lint's
// `snapshot-state` rule checks for one of the two:
//
//   NYX_SNAPSHOT_STATE("netemu.socket_table");   // registered with hooks
//   static std::vector<Sock> g_sockets;
//
//   NYX_EXEC_EPHEMERAL("guest.fault_jmp");       // re-armed every exec
//   thread_local sigjmp_buf t_step_jmp;
//
// A NYX_SNAPSHOT_STATE annotation must be backed by a matching
// RegisterHostState() call; NYX_EXEC_EPHEMERAL optionally by
// DeclareEphemeral() with a verify hook the auditor runs.
#define NYX_SNAPSHOT_STATE(name) \
  static_assert(sizeof(name) > 1, "snapshot state must be named")
#define NYX_EXEC_EPHEMERAL(name) \
  static_assert(sizeof(name) > 1, "ephemeral state must be named")

class SnapshotStateRegistry {
 public:
  enum class Kind : uint8_t {
    kSnapshot,   // captured into / restored from every snapshot
    kEphemeral,  // re-initialized each exec; never part of a snapshot
  };

  struct HostState {
    std::string name;   // stable identifier, e.g. "netemu.socket_table"
    std::string owner;  // owning component/file, for reports
    Kind kind = Kind::kSnapshot;
    // kSnapshot: both hooks required. Capture appends the state to `out`.
    // Restore reads a view into the snapshot's blob and returns false on
    // bytes it cannot parse (treated as snapshot corruption by the caller).
    std::function<void(Bytes& out)> capture;
    std::function<bool(ByteView)> restore;
    // kEphemeral: optional invariant checked by the auditor between
    // executions ("is this really back to its initial state?").
    std::function<bool()> verify;
  };

  struct GuestRegion {
    std::string name;
    uint64_t base = 0;
    uint64_t size = 0;
  };

  // Registers host-side snapshot state. Names must be unique; kSnapshot
  // entries must carry capture and restore hooks. Aborts on violation —
  // a bad registration is a build bug, not an input problem.
  void RegisterHostState(HostState state);

  // Declares per-exec ephemeral host state (no hooks needed beyond the
  // optional verify invariant).
  void DeclareEphemeral(std::string name, std::string owner,
                        std::function<bool()> verify = nullptr);

  // Names a guest-physical range so diverging pages can be attributed.
  // Regions may not overlap.
  void RegisterGuestRegion(std::string name, uint64_t base, uint64_t size);

  // Name of the registered region containing guest byte `offset`, or
  // kUnregistered if no region covers it.
  static constexpr const char* kUnregistered = "UNREGISTERED";
  const std::string& GuestOwner(uint64_t offset) const;

  // ---- Snapshot aux-blob support ----

  // Captures every kSnapshot entry into one framed blob (registration
  // order). The engine stores this as the snapshot's aux blob. The first
  // form overwrites `out`, reusing its capacity.
  void CaptureAll(Bytes& out);
  Bytes CaptureAll();

  // Restores every entry found in `blob` by name, handing each hook a view
  // into `blob` (no copies). False on framing errors, unknown names,
  // missing entries or a restore hook rejecting its bytes.
  bool RestoreAll(ByteView blob);

  // Per-entry FNV hashes of a captured blob, for divergence attribution
  // without retaining full copies.
  static std::vector<std::pair<std::string, uint64_t>> EntryHashes(ByteView blob);

  // Runs every ephemeral verify hook; returns the names that failed.
  std::vector<std::string> CheckEphemeral() const;

  const std::vector<HostState>& host_states() const { return host_states_; }
  const std::vector<GuestRegion>& guest_regions() const { return guest_regions_; }
  size_t snapshot_state_count() const;

 private:
  std::vector<HostState> host_states_;
  std::vector<GuestRegion> guest_regions_;
};

}  // namespace nyx

#endif  // SRC_VM_STATE_REGISTRY_H_
