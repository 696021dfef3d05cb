#include "src/netemu/netemu.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "src/common/check.h"

namespace nyx {

NetEmu::NetEmu() : NetEmu(Config()) {}

NetEmu::NetEmu(Config config)
    : config_(config),
      conns_queued_counter_(
          telemetry::MetricRegistry::Global().RegisterCounter("netemu.connections_queued")),
      packets_counter_(
          telemetry::MetricRegistry::Global().RegisterCounter("netemu.packets_delivered")),
      bytes_counter_(telemetry::MetricRegistry::Global().RegisterCounter("netemu.bytes_delivered")) {
  for (size_t k = 0; k < kFaultKindCount; k++) {
    fault_counters_[k] = telemetry::MetricRegistry::Global().RegisterCounter(
        std::string("netemu.faults_injected.") + FaultKindName(static_cast<FaultKind>(k)));
  }
  sockets_.reserve(config_.max_sockets);
  spare_sockets_.reserve(config_.max_sockets);
  fds_.reserve(config_.max_fds);
}

std::optional<FaultPlan> NetEmu::TakeFault(Sock& s, std::initializer_list<FaultKind> kinds) {
  if (s.faults.empty()) {
    return std::nullopt;
  }
  FaultEntry& front = s.faults.front();
  bool applies = false;
  for (FaultKind k : kinds) {
    if (front.plan.kind == k) {
      applies = true;
      break;
    }
  }
  if (!applies) {
    return std::nullopt;
  }
  const FaultPlan plan = front.plan;
  // One-shot kinds retire the whole entry (a connection dies once); burst
  // kinds count down one application per matching call.
  const bool one_shot =
      plan.kind == FaultKind::kConnReset || plan.kind == FaultKind::kPeerClose;
  if (one_shot || --front.remaining == 0) {
    s.faults.erase(s.faults.begin());
  }
  faults_injected_++;
  fault_counters_[static_cast<size_t>(plan.kind)]->Add(1);
  return plan;
}

void NetEmu::ResetSock(Sock& s) {
  // Queued-but-unread fuzz input dies with the connection; account for it
  // separately so throughput numbers stay honest (ISSUE satellite).
  size_t dropped = 0;
  for (ByteView pkt : s.rx) {
    dropped += pkt.size();
  }
  if (!s.rx.empty() && s.rx_front_consumed < s.rx.front().size()) {
    dropped -= s.rx_front_consumed;
  }
  faulted_bytes_ += dropped;
  s.rx.clear();
  s.rx_front_consumed = 0;
  s.reset = true;
  s.peer_closed = true;
}

int NetEmu::AllocSocket() {
  for (size_t i = 0; i < sockets_.size(); i++) {
    if (!sockets_[i].live) {
      sockets_[i].Clear();
      sockets_[i].live = true;
      return static_cast<int>(i);
    }
  }
  if (sockets_.size() >= config_.max_sockets) {
    return -1;
  }
  AppendSocket();
  sockets_.back().live = true;
  return static_cast<int>(sockets_.size() - 1);
}

void NetEmu::AppendSocket() {
  if (spare_sockets_.empty()) {
    sockets_.emplace_back();
    return;
  }
  sockets_.push_back(std::move(spare_sockets_.back()));
  spare_sockets_.pop_back();
  sockets_.back().Clear();
}

int NetEmu::AllocFd(int sock) {
  NYX_DCHECK_GE(sock, 0);
  NYX_DCHECK_LT(static_cast<size_t>(sock), sockets_.size());
  for (size_t i = 0; i < fds_.size(); i++) {
    if (!fds_[i].open) {
      fds_[i] = FdEntry{sock, current_process_, true};
      sockets_[sock].refcount++;
      return static_cast<int>(i);
    }
  }
  if (fds_.size() >= config_.max_fds) {
    return kErrMfile;
  }
  fds_.push_back(FdEntry{sock, current_process_, true});
  sockets_[sock].refcount++;
  return static_cast<int>(fds_.size() - 1);
}

NetEmu::Sock* NetEmu::SockForFd(int fd) {
  if (fd < 0 || fd >= static_cast<int>(fds_.size()) || !fds_[fd].open) {
    return nullptr;
  }
  return &sockets_[fds_[fd].sock];
}

void NetEmu::DropSocketRef(int sock) {
  NYX_DCHECK_GE(sock, 0);
  NYX_DCHECK_LT(static_cast<size_t>(sock), sockets_.size());
  Sock& s = sockets_[sock];
  NYX_DCHECK_GT(s.refcount, 0);
  if (--s.refcount <= 0) {
    s.live = false;
    s.rx.clear();
    s.tx.clear();
    s.pending_accept.clear();
    s.epoll_watch.clear();
    s.faults.clear();
  }
}

int NetEmu::Socket(SockKind kind) {
  Charge();
  const int sock = AllocSocket();
  if (sock < 0) {
    return kErrMfile;
  }
  sockets_[sock].kind = kind;
  const int fd = AllocFd(sock);
  if (fd < 0) {
    sockets_[sock].live = false;
  }
  return fd;
}

int NetEmu::Bind(int fd, uint16_t port) {
  Charge();
  Sock* s = SockForFd(fd);
  if (s == nullptr) {
    return kErrBadf;
  }
  s->port = port;
  // A bound UDP socket is directly part of the attack surface.
  if (s->kind == SockKind::kDgram) {
    s->attack_surface = true;
  }
  return 0;
}

int NetEmu::Listen(int fd, int backlog) {
  Charge();
  Sock* s = SockForFd(fd);
  if (s == nullptr) {
    return kErrBadf;
  }
  if (s->kind != SockKind::kListener && s->kind != SockKind::kStream) {
    return kErrInval;
  }
  s->kind = SockKind::kListener;
  s->listening = true;
  return 0;
}

int NetEmu::Accept(int fd) {
  Charge();
  Sock* s = SockForFd(fd);
  if (s == nullptr) {
    return kErrBadf;
  }
  if (!s->listening) {
    return kErrInval;
  }
  if (s->pending_accept.empty()) {
    blocked_on_input_ = true;
    return kErrAgain;
  }
  // The connection at the head of the backlog may carry a fault: the peer
  // can abort (RST while queued) or the accept itself can be interrupted.
  if (auto f = TakeFault(sockets_[s->pending_accept.front()],
                         {FaultKind::kConnReset, FaultKind::kIntr, FaultKind::kEagain})) {
    switch (f->kind) {
      case FaultKind::kConnReset: {
        const int aborted = s->pending_accept.front();
        s->pending_accept.erase(s->pending_accept.begin());
        ResetSock(sockets_[aborted]);
        DropSocketRef(aborted);
        return kErrConnReset;
      }
      case FaultKind::kIntr:
        return kErrIntr;
      case FaultKind::kEagain:
        return kErrAgain;
      case FaultKind::kShortRead:
      case FaultKind::kShortWrite:
      case FaultKind::kPeerClose:
      case FaultKind::kTimeout:
        NYX_UNREACHABLE() << "kind outside TakeFault filter";
    }
  }
  blocked_on_input_ = false;
  const int conn = s->pending_accept.front();
  s->pending_accept.erase(s->pending_accept.begin());
  const int conn_fd = AllocFd(conn);
  if (conn_fd >= 0) {
    // The backlog's reference is transferred to the new fd.
    sockets_[conn].refcount--;
  } else {
    DropSocketRef(conn);
  }
  return conn_fd;
}

int NetEmu::Connect(int fd, uint16_t port) {
  Charge();
  Sock* s = SockForFd(fd);
  if (s == nullptr) {
    return kErrBadf;
  }
  if (auto f = TakeFault(*s, {FaultKind::kTimeout, FaultKind::kConnReset, FaultKind::kIntr})) {
    switch (f->kind) {
      case FaultKind::kTimeout:
        if (clock_ != nullptr) {
          clock_->Advance(static_cast<uint64_t>(f->arg) * 1000000ull);
        }
        return kErrTimedOut;
      case FaultKind::kConnReset:
        return kErrConnReset;
      case FaultKind::kIntr:
        return kErrIntr;
      case FaultKind::kShortRead:
      case FaultKind::kShortWrite:
      case FaultKind::kEagain:
      case FaultKind::kPeerClose:
        NYX_UNREACHABLE() << "kind outside TakeFault filter";
    }
  }
  s->port = port;
  s->attack_surface = true;
  client_conns_.push_back(fds_[fd].sock);
  return 0;
}

int NetEmu::Recv(int fd, void* buf, size_t len) {
  Charge();
  Sock* s = SockForFd(fd);
  if (s == nullptr) {
    return kErrBadf;
  }
  if (s->kind == SockKind::kListener) {
    return kErrInval;
  }
  if (auto f = TakeFault(*s, {FaultKind::kShortRead, FaultKind::kEagain, FaultKind::kIntr,
                              FaultKind::kConnReset, FaultKind::kPeerClose,
                              FaultKind::kTimeout})) {
    switch (f->kind) {
      case FaultKind::kShortRead:
        // Cap this read; the normal path below serves at most `arg` bytes.
        len = std::min(len, static_cast<size_t>(f->arg > 0 ? f->arg : 1));
        break;
      case FaultKind::kEagain:
        // Spurious would-block despite queued data. Not a real blocking
        // point, so blocked_on_input_ stays untouched.
        return kErrAgain;
      case FaultKind::kIntr:
        return kErrIntr;
      case FaultKind::kConnReset:
        ResetSock(*s);
        return kErrConnReset;
      case FaultKind::kPeerClose:
        // FIN mid-message: queued data stays readable, EOF once drained —
        // exactly the half-closed stream a real kernel presents.
        s->peer_closed = true;
        break;
      case FaultKind::kTimeout:
        if (clock_ != nullptr) {
          clock_->Advance(static_cast<uint64_t>(f->arg) * 1000000ull);
        }
        return kErrTimedOut;
      case FaultKind::kShortWrite:
        NYX_UNREACHABLE() << "kind outside TakeFault filter";
    }
  }
  if (s->rx.empty()) {
    if (s->peer_closed || s->shut_down) {
      return 0;  // orderly EOF
    }
    if (s->attack_surface) {
      blocked_on_input_ = true;
    }
    return kErrAgain;
  }
  blocked_on_input_ = false;
  if (s->attack_surface) {
    consumed_input_ = true;
  }

  size_t out = 0;
  if (s->kind == SockKind::kDgram) {
    // One datagram per call; excess bytes are discarded (truncation), like
    // recvfrom on a SOCK_DGRAM socket.
    const ByteView pkt = s->rx.front();
    out = pkt.size() < len ? pkt.size() : len;
    if (out > 0) {  // empty datagram: data() may be null
      memcpy(buf, pkt.data(), out);
    }
    s->rx.pop_front();
    s->rx_front_consumed = 0;
    return static_cast<int>(out);
  }

  if (config_.preserve_packet_boundaries) {
    // At most one packet per call — the emulation the paper argues for.
    const ByteView pkt = s->rx.front();
    const size_t avail = pkt.size() - s->rx_front_consumed;
    out = avail < len ? avail : len;
    if (out > 0) {  // empty packet: data() may be null
      memcpy(buf, pkt.data() + s->rx_front_consumed, out);
    }
    s->rx_front_consumed += out;
    if (s->rx_front_consumed >= pkt.size()) {
      s->rx.pop_front();
      s->rx_front_consumed = 0;
    }
    return static_cast<int>(out);
  }

  // Coalescing mode (desock-style): drain as much as fits.
  uint8_t* dst = static_cast<uint8_t*>(buf);
  while (out < len && !s->rx.empty()) {
    const ByteView pkt = s->rx.front();
    const size_t avail = pkt.size() - s->rx_front_consumed;
    const size_t take = avail < len - out ? avail : len - out;
    if (take > 0) {  // empty packet: data() may be null
      memcpy(dst + out, pkt.data() + s->rx_front_consumed, take);
    }
    out += take;
    s->rx_front_consumed += take;
    if (s->rx_front_consumed >= pkt.size()) {
      s->rx.pop_front();
      s->rx_front_consumed = 0;
    }
  }
  return static_cast<int>(out);
}

int NetEmu::Send(int fd, const void* data, size_t len) {
  Charge();
  Sock* s = SockForFd(fd);
  if (s == nullptr) {
    return kErrBadf;
  }
  if (s->kind == SockKind::kListener) {
    return kErrInval;
  }
  // Error-path consistency (matching a real kernel): writing after our own
  // shutdown or after the connection was reset is EPIPE — the reset itself
  // was reported exactly once as ECONNRESET. Writing after a plain peer FIN
  // (peer_closed) still succeeds: TCP lets the first post-FIN send through.
  if (s->shut_down || s->reset) {
    return kErrPipe;
  }
  if (auto f = TakeFault(*s, {FaultKind::kShortWrite, FaultKind::kEagain, FaultKind::kIntr,
                              FaultKind::kConnReset})) {
    switch (f->kind) {
      case FaultKind::kShortWrite:
        len = std::min(len, static_cast<size_t>(f->arg > 0 ? f->arg : 1));
        break;
      case FaultKind::kEagain:
        return kErrAgain;
      case FaultKind::kIntr:
        return kErrIntr;
      case FaultKind::kConnReset:
        ResetSock(*s);
        return kErrConnReset;
      case FaultKind::kShortRead:
      case FaultKind::kPeerClose:
      case FaultKind::kTimeout:
        NYX_UNREACHABLE() << "kind outside TakeFault filter";
    }
  }
  s->tx.push_back(ByteView(static_cast<const uint8_t*>(data), len));
  return static_cast<int>(len);
}

int NetEmu::Close(int fd) {
  Charge();
  if (fd < 0 || fd >= static_cast<int>(fds_.size()) || !fds_[fd].open) {
    return kErrBadf;
  }
  const int sock = fds_[fd].sock;
  fds_[fd].open = false;
  DropSocketRef(sock);
  return 0;
}

int NetEmu::Shutdown(int fd) {
  Charge();
  Sock* s = SockForFd(fd);
  if (s == nullptr) {
    return kErrBadf;
  }
  s->shut_down = true;
  return 0;
}

int NetEmu::Dup(int fd) {
  Charge();
  Sock* s = SockForFd(fd);
  if (s == nullptr) {
    return kErrBadf;
  }
  return AllocFd(fds_[fd].sock);
}

int NetEmu::Dup2(int oldfd, int newfd) {
  Charge();
  Sock* s = SockForFd(oldfd);
  if (s == nullptr || newfd < 0 || newfd >= static_cast<int>(config_.max_fds)) {
    return kErrBadf;
  }
  if (newfd == oldfd) {
    return newfd;
  }
  if (newfd >= static_cast<int>(fds_.size())) {
    fds_.resize(newfd + 1);
  }
  if (fds_[newfd].open) {
    DropSocketRef(fds_[newfd].sock);
  }
  fds_[newfd] = FdEntry{fds_[oldfd].sock, current_process_, true};
  sockets_[fds_[oldfd].sock].refcount++;
  return newfd;
}

bool NetEmu::Readable(const Sock& s) const {
  if (s.listening) {
    return !s.pending_accept.empty();
  }
  return !s.rx.empty() || s.peer_closed || s.shut_down;
}

int NetEmu::Poll(std::vector<PollRequest>& reqs) {
  Charge();
  int ready = 0;
  bool any_attack_surface = false;
  for (PollRequest& r : reqs) {
    r.readable = false;
    r.writable = false;
  }
  // A queued timeout fault expires the whole poll: nothing reports ready
  // even if data is queued, and the virtual clock jumps by the plan's arg
  // milliseconds. Not a real blocking point, so blocked_on_input_ is not
  // set. First matching fd in request order wins, deterministically.
  for (PollRequest& r : reqs) {
    Sock* s = SockForFd(r.fd);
    if (s == nullptr) {
      continue;
    }
    if (auto f = TakeFault(*s, {FaultKind::kTimeout})) {
      if (clock_ != nullptr) {
        clock_->Advance(static_cast<uint64_t>(f->arg) * 1000000ull);
      }
      return 0;
    }
  }
  for (PollRequest& r : reqs) {
    Sock* s = SockForFd(r.fd);
    if (s == nullptr) {
      continue;
    }
    if (s->attack_surface || s->listening) {
      any_attack_surface = true;
    }
    if (r.want_read && Readable(*s)) {
      r.readable = true;
    }
    if (r.want_write && !s->listening) {
      r.writable = true;
    }
    if (r.readable || r.writable) {
      ready++;
    }
  }
  if (ready == 0 && any_attack_surface) {
    blocked_on_input_ = true;
  }
  return ready;
}

int NetEmu::EpollCreate() {
  Charge();
  const int sock = AllocSocket();
  if (sock < 0) {
    return kErrMfile;
  }
  sockets_[sock].epoll_instance = true;
  const int fd = AllocFd(sock);
  if (fd < 0) {
    sockets_[sock].live = false;
  }
  return fd;
}

int NetEmu::EpollCtlAdd(int epfd, int fd, bool want_read) {
  Charge();
  Sock* ep = SockForFd(epfd);
  if (ep == nullptr || !ep->epoll_instance || SockForFd(fd) == nullptr) {
    return kErrBadf;
  }
  for (auto& [watched, unused] : ep->epoll_watch) {
    if (watched == fd) {
      return kErrInval;  // EEXIST, close enough
    }
  }
  ep->epoll_watch.emplace_back(fd, want_read);
  return 0;
}

int NetEmu::EpollCtlDel(int epfd, int fd) {
  Charge();
  Sock* ep = SockForFd(epfd);
  if (ep == nullptr || !ep->epoll_instance) {
    return kErrBadf;
  }
  for (auto it = ep->epoll_watch.begin(); it != ep->epoll_watch.end(); ++it) {
    if (it->first == fd) {
      ep->epoll_watch.erase(it);
      return 0;
    }
  }
  return kErrBadf;
}

int NetEmu::EpollWait(int epfd, std::vector<int>& ready_fds) {
  Charge();
  ready_fds.clear();
  Sock* ep = SockForFd(epfd);
  if (ep == nullptr || !ep->epoll_instance) {
    return kErrBadf;
  }
  // Same timeout-fault semantics as Poll().
  for (const auto& [fd, want_read] : ep->epoll_watch) {
    Sock* s = SockForFd(fd);
    if (s == nullptr) {
      continue;
    }
    if (auto f = TakeFault(*s, {FaultKind::kTimeout})) {
      if (clock_ != nullptr) {
        clock_->Advance(static_cast<uint64_t>(f->arg) * 1000000ull);
      }
      return 0;
    }
  }
  bool any_attack_surface = false;
  for (const auto& [fd, want_read] : ep->epoll_watch) {
    Sock* s = SockForFd(fd);
    if (s == nullptr) {
      continue;
    }
    if (s->attack_surface || s->listening) {
      any_attack_surface = true;
    }
    if (want_read && Readable(*s)) {
      ready_fds.push_back(fd);
    }
  }
  if (ready_fds.empty() && any_attack_surface) {
    blocked_on_input_ = true;
  }
  return static_cast<int>(ready_fds.size());
}

int NetEmu::ForkFdTable() {
  Charge();
  const int child = next_process_++;
  const size_t n = fds_.size();
  for (size_t i = 0; i < n; i++) {
    if (fds_[i].open && fds_[i].process == current_process_) {
      fds_.push_back(FdEntry{fds_[i].sock, child, true});
      sockets_[fds_[i].sock].refcount++;
    }
  }
  return child;
}

void NetEmu::ExitProcess(int process) {
  for (auto& fd : fds_) {
    if (fd.open && fd.process == process) {
      fd.open = false;
      DropSocketRef(fd.sock);
    }
  }
}

int NetEmu::QueueConnection(uint16_t port) {
  telemetry::ScopedPhase phase(telemetry::Phase::kNetemu);
  // Find the listener (first listening socket, matching port if given).
  int listener = -1;
  for (size_t i = 0; i < sockets_.size(); i++) {
    if (sockets_[i].live && sockets_[i].listening &&
        (port == 0 || sockets_[i].port == port)) {
      listener = static_cast<int>(i);
      break;
    }
  }
  if (listener == -1) {
    return -1;
  }
  const int conn = AllocSocket();
  if (conn < 0) {
    return -1;
  }
  sockets_[conn].kind = SockKind::kStream;
  sockets_[conn].attack_surface = true;
  sockets_[conn].port = sockets_[listener].port;
  // The connection is owned by its fd once accepted; keep it alive while it
  // sits in the backlog.
  sockets_[conn].refcount = 1;
  sockets_[listener].pending_accept.push_back(conn);
  conns_queued_counter_->Add(1);
  return conn;
}

int NetEmu::FindDgramSocket(uint16_t port) const {
  for (size_t i = 0; i < sockets_.size(); i++) {
    if (sockets_[i].live && sockets_[i].kind == SockKind::kDgram &&
        (port == 0 || sockets_[i].port == port)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool NetEmu::DeliverPacket(int conn, ByteView data) {
  telemetry::ScopedPhase phase(telemetry::Phase::kNetemu);
  // A dead connection id here means the interpreter's view of the socket
  // table diverged from ours — count it instead of dropping silently.
  if (!NYX_EXPECT(ValidConn(conn))) {
    return false;
  }
  packets_counter_->Add(1);
  bytes_counter_->Add(data.size());
  if (sockets_[conn].reset) {
    // A reset connection drops deliveries on the floor, like a kernel
    // discarding segments for a dead socket. The bytes count as delivered
    // (the fuzzer spent them) and as faulted (the target never saw them).
    faulted_bytes_ += data.size();
    return true;
  }
  sockets_[conn].rx.push_back(data);
  return true;
}

bool NetEmu::QueueFault(int conn, const FaultPlan& plan) {
  telemetry::ScopedPhase phase(telemetry::Phase::kNetemu);
  if (!NYX_EXPECT(ValidConn(conn)) || !plan.Valid()) {
    return false;
  }
  sockets_[conn].faults.push_back(FaultEntry{plan, plan.count});
  return true;
}

void NetEmu::PeerClose(int conn) {
  telemetry::ScopedPhase phase(telemetry::Phase::kNetemu);
  if (NYX_EXPECT(ValidConn(conn))) {
    sockets_[conn].peer_closed = true;
  }
}

const PacketQueue& NetEmu::Sent(int conn) const {
  static const PacketQueue kEmpty;
  if (!ValidConn(conn)) {
    return kEmpty;
  }
  return sockets_[conn].tx;
}

size_t NetEmu::UndeliveredBytes() const {
  size_t n = 0;
  for (const Sock& s : sockets_) {
    if (!s.live || !s.attack_surface) {
      continue;
    }
    for (ByteView pkt : s.rx) {
      n += pkt.size();
    }
    // A partially read front packet: the consumed prefix is no longer
    // "undelivered" (the pop-when-drained invariant keeps the offset
    // strictly inside the front packet).
    if (!s.rx.empty() && s.rx_front_consumed < s.rx.front().size()) {
      n -= s.rx_front_consumed;
    }
  }
  return n;
}

Bytes NetEmu::Serialize() const {
  Bytes out;
  SerializeTo(out);
  return out;
}

void NetEmu::SerializeTo(Bytes& out) const {
  PutLe32(out, 0x4e455432);  // "NET2": v1 plus per-sock reset flag + fault queue
  PutLe32(out, static_cast<uint32_t>(sockets_.size()));
  for (const Sock& s : sockets_) {
    out.push_back(s.live ? 1 : 0);
    out.push_back(static_cast<uint8_t>(s.kind));
    PutLe16(out, s.port);
    out.push_back(s.listening ? 1 : 0);
    out.push_back(s.attack_surface ? 1 : 0);
    out.push_back(s.peer_closed ? 1 : 0);
    out.push_back(s.shut_down ? 1 : 0);
    out.push_back(s.epoll_instance ? 1 : 0);
    PutLe32(out, static_cast<uint32_t>(s.refcount));
    PutLe64(out, s.rx_front_consumed);
    PutLe32(out, static_cast<uint32_t>(s.rx.size()));
    for (ByteView pkt : s.rx) {
      PutLe32(out, static_cast<uint32_t>(pkt.size()));
      Append(out, pkt);
    }
    PutLe32(out, static_cast<uint32_t>(s.pending_accept.size()));
    for (int c : s.pending_accept) {
      PutLe32(out, static_cast<uint32_t>(c));
    }
    PutLe32(out, static_cast<uint32_t>(s.tx.size()));
    for (ByteView pkt : s.tx) {
      PutLe32(out, static_cast<uint32_t>(pkt.size()));
      Append(out, pkt);
    }
    PutLe32(out, static_cast<uint32_t>(s.epoll_watch.size()));
    for (const auto& [fd, want_read] : s.epoll_watch) {
      PutLe32(out, static_cast<uint32_t>(fd));
      out.push_back(want_read ? 1 : 0);
    }
    out.push_back(s.reset ? 1 : 0);
    // Fault queues are snapshot-relevant: a restore mid-burst must replay
    // the remaining applications bit-identically (NYX_AUDIT relies on it).
    PutLe32(out, static_cast<uint32_t>(s.faults.size()));
    for (const FaultEntry& e : s.faults) {
      out.push_back(static_cast<uint8_t>(e.plan.kind));
      out.push_back(e.remaining);
      PutLe16(out, e.plan.arg);
    }
  }
  PutLe32(out, static_cast<uint32_t>(fds_.size()));
  for (const FdEntry& fd : fds_) {
    PutLe32(out, static_cast<uint32_t>(fd.sock));
    PutLe32(out, static_cast<uint32_t>(fd.process));
    out.push_back(fd.open ? 1 : 0);
  }
  PutLe32(out, static_cast<uint32_t>(client_conns_.size()));
  for (int c : client_conns_) {
    PutLe32(out, static_cast<uint32_t>(c));
  }
  PutLe32(out, static_cast<uint32_t>(current_process_));
  PutLe32(out, static_cast<uint32_t>(next_process_));
  out.push_back(consumed_input_ ? 1 : 0);
}

bool NetEmu::Deserialize(ByteView blob) {
  size_t off = 0;
  auto u8 = [&]() -> uint8_t { return off < blob.size() ? blob[off++] : 0; };
  auto u16 = [&]() {
    uint16_t v = ReadLe16(blob, off);
    off += 2;
    return v;
  };
  auto u32 = [&]() {
    uint32_t v = ReadLe32(blob, off);
    off += 4;
    return v;
  };
  auto u64 = [&]() -> uint64_t {
    uint64_t lo = u32();
    uint64_t hi = u32();
    return lo | (hi << 32);
  };
  // A view of the next n bytes (empty when the blob is too short; the
  // final bounds check then rejects the blob).
  auto bytes = [&](size_t n) {
    const ByteView b = off + n <= blob.size() ? blob.subspan(off, n) : ByteView();
    off += n;
    return b;
  };

  if (u32() != 0x4e455432) {
    return false;
  }
  const uint32_t nsock = u32();
  if (nsock > config_.max_sockets) {
    return false;
  }
  // Recycle sockets rather than rebuild them: surplus ones move to the
  // spare pool, and every socket is cleared before it is refilled.
  while (sockets_.size() > nsock) {
    spare_sockets_.push_back(std::move(sockets_.back()));
    sockets_.pop_back();
  }
  while (sockets_.size() < nsock) {
    AppendSocket();
  }
  for (Sock& s : sockets_) {
    s.Clear();
    s.live = u8() != 0;
    s.kind = static_cast<SockKind>(u8());
    s.port = u16();
    s.listening = u8() != 0;
    s.attack_surface = u8() != 0;
    s.peer_closed = u8() != 0;
    s.shut_down = u8() != 0;
    s.epoll_instance = u8() != 0;
    s.refcount = static_cast<int>(u32());
    s.rx_front_consumed = u64();
    const uint32_t nrx = u32();
    for (uint32_t i = 0; i < nrx && off <= blob.size(); i++) {
      const uint32_t len = u32();
      s.rx.push_back(bytes(len));
    }
    const uint32_t nacc = u32();
    for (uint32_t i = 0; i < nacc; i++) {
      s.pending_accept.push_back(static_cast<int>(u32()));
    }
    const uint32_t ntx = u32();
    for (uint32_t i = 0; i < ntx && off <= blob.size(); i++) {
      const uint32_t len = u32();
      s.tx.push_back(bytes(len));
    }
    const uint32_t nwatch = u32();
    for (uint32_t i = 0; i < nwatch; i++) {
      const int fd = static_cast<int>(u32());
      const bool want_read = u8() != 0;
      s.epoll_watch.emplace_back(fd, want_read);
    }
    s.reset = u8() != 0;
    const uint32_t nfault = u32();
    for (uint32_t i = 0; i < nfault && off <= blob.size(); i++) {
      // Clamp against fuzzed blobs: an out-of-range kind or burst must not
      // become an out-of-range switch or an unbounded countdown.
      FaultEntry e;
      e.plan.kind = static_cast<FaultKind>(u8() % kFaultKindCount);
      e.remaining = u8();
      e.plan.arg = u16();
      if (e.remaining == 0 || e.remaining > kMaxFaultBurst) {
        continue;
      }
      e.plan.count = e.remaining;
      s.faults.push_back(e);
    }
  }
  const uint32_t nfds = u32();
  if (nfds > config_.max_fds) {
    return false;
  }
  fds_.assign(nfds, FdEntry{});
  for (FdEntry& fd : fds_) {
    fd.sock = static_cast<int>(u32());
    fd.process = static_cast<int>(u32());
    fd.open = u8() != 0;
  }
  client_conns_.clear();
  const uint32_t nclient = u32();
  for (uint32_t i = 0; i < nclient; i++) {
    client_conns_.push_back(static_cast<int>(u32()));
  }
  current_process_ = static_cast<int>(u32());
  next_process_ = static_cast<int>(u32());
  consumed_input_ = u8() != 0;
  blocked_on_input_ = false;
  return off <= blob.size();
}

}  // namespace nyx
