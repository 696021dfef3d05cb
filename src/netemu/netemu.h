// Selective network emulation (paper sections 3.3 and 4.1).
//
// Nyx-Net injects an LD_PRELOAD library into the target that hooks ~30 libc
// networking functions. The hooks track which file descriptors belong to the
// external attack surface and serve fuzzer-generated packets directly from
// the input bytecode — no kernel network stack is involved, packet
// boundaries are preserved ("a frightening amount of servers assume that a
// single call to recv() will never return data from more than one packet"),
// and the right place for the root snapshot is found automatically (the
// first time the target would consume attacker data).
//
// This class is the emulated-kernel side of those hooks. Targets call the
// libc-shaped methods below; the fuzzer-facing methods queue connections and
// packets. All state is serializable so it snapshots together with the VM:
// a restore brings back fd tables, queues and stream positions exactly.

#ifndef SRC_NETEMU_NETEMU_H_
#define SRC_NETEMU_NETEMU_H_

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/telemetry.h"
#include "src/common/vclock.h"
#include "src/netemu/errno_table.h"
#include "src/spec/fault_plan.h"

namespace nyx {

enum class SockKind : uint8_t {
  kListener,
  kStream,  // TCP / Unix stream: packet-chunked byte stream
  kDgram,   // UDP: datagram boundaries are semantic
};

struct PollRequest {
  int fd = -1;
  bool want_read = false;
  bool want_write = false;
  bool readable = false;
  bool writable = false;
};

// FIFO of packets stored back to back in one byte buffer, boundaries kept.
// Clearing (or draining) keeps both buffers' capacity, so a socket recycled
// across executions queues packets without allocating once warm.
class PacketQueue {
 public:
  bool empty() const { return head_ == ends_.size(); }
  size_t size() const { return ends_.size() - head_; }
  // The i-th queued packet, counted from the front.
  ByteView operator[](size_t i) const {
    const size_t k = head_ + i;
    const size_t begin = k == 0 ? 0 : ends_[k - 1];
    return ByteView(bytes_.data() + begin, ends_[k] - begin);
  }
  ByteView front() const { return (*this)[0]; }

  // Range-for over the queued packets, front first.
  class Iterator {
   public:
    Iterator(const PacketQueue* queue, size_t i) : queue_(queue), i_(i) {}
    ByteView operator*() const { return (*queue_)[i_]; }
    Iterator& operator++() {
      i_++;
      return *this;
    }
    bool operator!=(const Iterator& other) const { return i_ != other.i_; }

   private:
    const PacketQueue* queue_;
    size_t i_;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

  void push_back(ByteView packet) {
    bytes_.insert(bytes_.end(), packet.begin(), packet.end());
    ends_.push_back(bytes_.size());
  }
  void pop_front() {
    if (++head_ == ends_.size()) {
      clear();
    }
  }
  void clear() {
    bytes_.clear();
    ends_.clear();
    head_ = 0;
  }

 private:
  Bytes bytes_;               // packet payloads, back to back
  std::vector<size_t> ends_;  // end offset in bytes_ of every packet
  size_t head_ = 0;           // index into ends_ of the front packet
};

class NetEmu {
 public:
  struct Config {
    size_t max_fds = 128;
    size_t max_sockets = 128;
    // Whether a Recv on a stream socket may return at most one queued packet
    // (Nyx-Net behaviour) or coalesces everything available (what a
    // stdin-redirection layer like desock effectively does).
    bool preserve_packet_boundaries = true;
  };

  NetEmu();
  explicit NetEmu(Config config);

  void AttachClock(VirtualClock* clock, const CostModel* cost) {
    clock_ = clock;
    cost_ = cost;
  }

  // ---- Target-facing API (the hooked libc surface) ----

  int Socket(SockKind kind);
  int Bind(int fd, uint16_t port);
  int Listen(int fd, int backlog);
  // Accepts a queued connection; kErrAgain if none pending.
  int Accept(int fd);
  // Outbound connection (client targets): the resulting socket is part of
  // the attack surface — the fuzzer plays the remote server.
  int Connect(int fd, uint16_t port);
  // Packet-boundary-preserving receive; kErrAgain when no data is queued,
  // 0 on orderly peer close.
  int Recv(int fd, void* buf, size_t len);
  int Send(int fd, const void* data, size_t len);
  int Close(int fd);
  int Shutdown(int fd);
  int Dup(int fd);
  int Dup2(int oldfd, int newfd);
  // Simplified poll(): fills readable/writable; returns number of ready fds
  // (0 = would block).
  int Poll(std::vector<PollRequest>& reqs);
  // Minimal epoll emulation.
  int EpollCreate();
  int EpollCtlAdd(int epfd, int fd, bool want_read);
  int EpollCtlDel(int epfd, int fd);
  // Returns ready fds; 0 = would block.
  int EpollWait(int epfd, std::vector<int>& ready_fds);
  // fork() support: duplicates the fd table for a child process id. Sockets
  // are shared (refcounted), so packet consumption stays synchronized across
  // processes — "forking network servers will usually inherit a recently
  // opened socket from the main process".
  int ForkFdTable();
  // Closes every fd owned by `process`.
  void ExitProcess(int process);
  // Switches which process's fd table the libc-shaped calls use.
  void SetCurrentProcess(int process) { current_process_ = process; }
  int current_process() const { return current_process_; }

  // ---- Fuzzer-facing API (driven by the bytecode interpreter) ----

  // Queues a new inbound connection on the listener bound to `port` (or the
  // only listener if port is 0). Returns a connection handle, or -1.
  int QueueConnection(uint16_t port);
  // Finds the bound datagram socket for `port` (0 = any); UDP "connections"
  // deliver straight to it. Returns a connection handle, or -1.
  int FindDgramSocket(uint16_t port) const;
  // Appends one packet to a connection's receive queue. The handle comes
  // from QueueConnection() or from ClientConnections(). Returns true when
  // the bytes entered the emulator (a reset connection accepts-and-drops
  // them into faulted_bytes(), like a kernel dropping onto a dead socket).
  bool DeliverPacket(int conn, ByteView data);
  void PeerClose(int conn);
  // Queues one deterministic fault plan on a connection. Plans are strictly
  // FIFO per socket: the front plan is consulted by the libc-shaped call it
  // applies to and passes through calls it does not (a short-write queued
  // before a short-read simply waits for the next Send). Driven by the
  // NodeSemantic::kFault opcode; see src/spec/fault_plan.h.
  bool QueueFault(int conn, const FaultPlan& plan);
  // Everything the target sent on this connection, packet boundaries as sent.
  const PacketQueue& Sent(int conn) const;
  // Connection handles created by the target via Connect().
  const std::vector<int>& ClientConnections() const { return client_conns_; }

  // True when the last blocking call (Accept/Recv/Poll/EpollWait) blocked
  // waiting for attack-surface input — the auto-placement point for the root
  // snapshot ("directly before the first byte of input data is passed").
  bool blocked_on_input() const { return blocked_on_input_; }
  // True once the target has consumed at least one attacker-controlled byte.
  bool consumed_input() const { return consumed_input_; }

  // Bytes of fuzz input still queued but never read by the target.
  size_t UndeliveredBytes() const;
  // Bytes dropped by injected faults (connection resets discarding queued
  // packets, deliveries onto reset sockets). Conservation invariant:
  //   consumed + UndeliveredBytes() + faulted_bytes() == delivered.
  uint64_t faulted_bytes() const { return faulted_bytes_; }
  // Total fault applications (per-kind breakdown is in the metric registry
  // under netemu.faults_injected.<kind>).
  uint64_t faults_injected() const { return faults_injected_; }

  // ---- Snapshot support ----
  Bytes Serialize() const;
  // Appends the serialized state to `out` (the engine captures snapshot
  // aux blobs into one reused buffer).
  void SerializeTo(Bytes& out) const;
  bool Deserialize(ByteView blob);

  // ---- Introspection ----
  uint64_t calls() const { return calls_; }
  bool ValidConn(int conn) const {
    return conn >= 0 && conn < static_cast<int>(sockets_.size()) && sockets_[conn].live;
  }

 private:
  // One queued fault application: the plan plus how many calls it still
  // fires on (burst countdown). Snapshot-relevant, so it serializes.
  struct FaultEntry {
    FaultPlan plan;
    uint8_t remaining = 0;
  };

  // A socket's plain-value fields; Sock::Clear resets them by assignment.
  struct SockFields {
    bool live = false;
    SockKind kind = SockKind::kStream;
    uint16_t port = 0;
    bool listening = false;
    bool attack_surface = false;
    bool peer_closed = false;
    bool shut_down = false;
    bool reset = false;             // killed by a kConnReset fault
    bool epoll_instance = false;
    int refcount = 0;
    size_t rx_front_consumed = 0;   // partial read offset into rx.front()
  };

  // Sockets are recycled, not rebuilt: Clear() returns one to the
  // default-constructed state but keeps its containers' capacity. A new
  // container member must be cleared there too.
  struct Sock : SockFields {
    PacketQueue rx;                     // queued packets, boundaries preserved
    PacketQueue tx;                     // sent packets, boundaries as sent
    std::vector<int> pending_accept;    // queued connection socket indices
    std::vector<std::pair<int, bool>> epoll_watch;  // (fd, want_read)
    std::vector<FaultEntry> faults;     // FIFO fault queue (see QueueFault)

    void Clear() {
      static_cast<SockFields&>(*this) = SockFields{};
      rx.clear();
      tx.clear();
      pending_accept.clear();
      epoll_watch.clear();
      faults.clear();
    }
  };

  struct FdEntry {
    int sock = -1;       // index into sockets_
    int process = -1;    // owning process id
    bool open = false;
  };

  int AllocSocket();
  // Appends a cleared socket to sockets_, recycled from spare_sockets_ when
  // one is there.
  void AppendSocket();
  int AllocFd(int sock);
  Sock* SockForFd(int fd);
  bool Readable(const Sock& s) const;
  void DropSocketRef(int sock);
  // If the front of the socket's fault queue matches one of `kinds`,
  // consumes one application (pops one-shot kinds whole) and returns the
  // plan; otherwise leaves the queue untouched and returns nullopt.
  std::optional<FaultPlan> TakeFault(Sock& s, std::initializer_list<FaultKind> kinds);
  // kConnReset application: queued-but-unread rx bytes move to
  // faulted_bytes_ and the socket goes dead-to-the-peer.
  void ResetSock(Sock& s);
  void Charge() {
    calls_++;
    if (clock_ != nullptr) {
      clock_->Advance(cost_->emulated_call_ns);
    }
  }

  Config config_;
  std::vector<Sock> sockets_;
  // Sockets a restore cut off the end of sockets_, kept for their buffers'
  // capacity. Not snapshot state: AppendSocket clears one before reuse.
  std::vector<Sock> spare_sockets_;
  std::vector<FdEntry> fds_;
  std::vector<int> client_conns_;
  int current_process_ = 0;
  int next_process_ = 1;
  bool blocked_on_input_ = false;
  bool consumed_input_ = false;
  uint64_t calls_ = 0;
  // Observational (like calls_): deliberately NOT serialized, so audit
  // fingerprints stay identical across replays that re-apply the faults.
  uint64_t faults_injected_ = 0;
  uint64_t faulted_bytes_ = 0;
  VirtualClock* clock_ = nullptr;
  const CostModel* cost_ = nullptr;
  // Registry counters, resolved once at construction; the per-call overhead
  // is one relaxed fetch_add each.
  telemetry::Counter* conns_queued_counter_;
  telemetry::Counter* packets_counter_;
  telemetry::Counter* bytes_counter_;
  telemetry::Counter* fault_counters_[kFaultKindCount];
};

}  // namespace nyx

#endif  // SRC_NETEMU_NETEMU_H_
