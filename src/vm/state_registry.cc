#include "src/vm/state_registry.h"

#include <string.h>

#include "src/common/check.h"
#include "src/common/hash.h"

namespace nyx {

namespace {

constexpr uint32_t kBlobMagic = 0x53535231;  // "SSR1"

// Shared framing walk for RestoreAll / EntryHashes: calls `fn(name, data)`
// with views into `blob` for every entry; returns false on framing errors.
template <typename Fn>
bool WalkBlob(ByteView blob, Fn fn) {
  size_t off = 0;
  if (ReadLe32(blob, off) != kBlobMagic) {
    return false;
  }
  off += 4;
  const uint32_t count = ReadLe32(blob, off);
  off += 4;
  for (uint32_t i = 0; i < count; i++) {
    const uint32_t name_len = ReadLe32(blob, off);
    off += 4;
    if (off + name_len > blob.size()) {
      return false;
    }
    const std::string_view name(reinterpret_cast<const char*>(blob.data()) + off, name_len);
    off += name_len;
    const uint32_t data_len = ReadLe32(blob, off);
    off += 4;
    if (off + data_len > blob.size()) {
      return false;
    }
    const ByteView data = blob.subspan(off, data_len);
    off += data_len;
    if (!fn(name, data)) {
      return false;
    }
  }
  return off == blob.size();
}

}  // namespace

void SnapshotStateRegistry::RegisterHostState(HostState state) {
  NYX_CHECK(!state.name.empty()) << "snapshot state must be named";
  if (state.kind == Kind::kSnapshot) {
    NYX_CHECK(state.capture != nullptr && state.restore != nullptr)
        << "snapshot state '" << state.name << "' needs capture and restore hooks";
  }
  for (const HostState& existing : host_states_) {
    NYX_CHECK(existing.name != state.name)
        << "duplicate snapshot state registration '" << state.name << "'";
  }
  host_states_.push_back(std::move(state));
}

void SnapshotStateRegistry::DeclareEphemeral(std::string name, std::string owner,
                                             std::function<bool()> verify) {
  HostState st;
  st.name = std::move(name);
  st.owner = std::move(owner);
  st.kind = Kind::kEphemeral;
  st.verify = std::move(verify);
  RegisterHostState(std::move(st));
}

void SnapshotStateRegistry::RegisterGuestRegion(std::string name, uint64_t base, uint64_t size) {
  NYX_CHECK(!name.empty() && size > 0) << "guest region must be named and non-empty";
  for (const GuestRegion& r : guest_regions_) {
    const bool disjoint = base + size <= r.base || r.base + r.size <= base;
    NYX_CHECK(disjoint) << "guest region '" << name << "' overlaps '" << r.name << "'";
  }
  guest_regions_.push_back(GuestRegion{std::move(name), base, size});
}

const std::string& SnapshotStateRegistry::GuestOwner(uint64_t offset) const {
  for (const GuestRegion& r : guest_regions_) {
    if (offset >= r.base && offset < r.base + r.size) {
      return r.name;
    }
  }
  static const std::string kNone = kUnregistered;
  return kNone;
}

size_t SnapshotStateRegistry::snapshot_state_count() const {
  size_t n = 0;
  for (const HostState& st : host_states_) {
    n += st.kind == Kind::kSnapshot ? 1 : 0;
  }
  return n;
}

void SnapshotStateRegistry::CaptureAll(Bytes& out) {
  out.clear();
  PutLe32(out, kBlobMagic);
  PutLe32(out, static_cast<uint32_t>(snapshot_state_count()));
  for (const HostState& st : host_states_) {
    if (st.kind != Kind::kSnapshot) {
      continue;
    }
    PutLe32(out, static_cast<uint32_t>(st.name.size()));
    Append(out, st.name);
    // Length placeholder, patched once the hook has appended its bytes.
    const size_t len_at = out.size();
    PutLe32(out, 0);
    st.capture(out);
    const uint32_t len = static_cast<uint32_t>(out.size() - len_at - 4);
    memcpy(out.data() + len_at, &len, 4);
  }
}

Bytes SnapshotStateRegistry::CaptureAll() {
  Bytes out;
  CaptureAll(out);
  return out;
}

bool SnapshotStateRegistry::RestoreAll(ByteView blob) {
  size_t restored = 0;
  const bool ok = WalkBlob(blob, [&](std::string_view name, ByteView data) {
    for (const HostState& st : host_states_) {
      if (st.name == name) {
        if (st.kind != Kind::kSnapshot || !st.restore(data)) {
          return false;
        }
        restored++;
        return true;
      }
    }
    return false;  // unknown name: blob from a different registration set
  });
  // Every registered entry must be present — a missing entry means the blob
  // predates a registration and restoring it would leave that state stale.
  return ok && restored == snapshot_state_count();
}

std::vector<std::pair<std::string, uint64_t>> SnapshotStateRegistry::EntryHashes(
    ByteView blob) {
  std::vector<std::pair<std::string, uint64_t>> out;
  WalkBlob(blob, [&](std::string_view name, ByteView data) {
    out.emplace_back(std::string(name), Fnv1a64(data.data(), data.size()));
    return true;
  });
  return out;
}

std::vector<std::string> SnapshotStateRegistry::CheckEphemeral() const {
  std::vector<std::string> failed;
  for (const HostState& st : host_states_) {
    if (st.kind == Kind::kEphemeral && st.verify != nullptr && !st.verify()) {
      failed.push_back(st.name);
    }
  }
  return failed;
}

}  // namespace nyx
