#include "transport/transport.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "obs/trace.h"
#include "transport/framed_fd.h"

namespace lamp::transport {

namespace {

void EmitConnect(TransportKind kind, std::size_t endpoints, std::size_t fds) {
  obs::Emit(obs::EventKind::kTransportConnect,
            static_cast<std::uint32_t>(endpoints),
            static_cast<std::uint32_t>(kind), fds);
}

/// Traffic counters, plus the send/recv trace events every backend emits.
class WireCounters {
 public:
  void Sent(const WireFrame& frame, std::size_t bytes) {
    obs::Emit(obs::EventKind::kTransportSend, frame.from, frame.to, bytes);
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(bytes, std::memory_order_relaxed);
  }

  void Received(const WireFrame& frame) {
    const std::size_t bytes = FrameWireSize(frame);
    obs::Emit(obs::EventKind::kTransportRecv, frame.to, frame.from, bytes);
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    bytes_received_.fetch_add(bytes, std::memory_order_relaxed);
  }

  WireStats Snapshot() const {
    return WireStats{frames_sent_.load(std::memory_order_relaxed),
                     bytes_sent_.load(std::memory_order_relaxed),
                     frames_received_.load(std::memory_order_relaxed),
                     bytes_received_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
};

/// The default backend: one FIFO deque per (from, to) channel. Frames are
/// never serialized, but wire bytes are accounted with FrameWireSize so
/// the in-process numbers match what the socket backends measure.
class InProcessTransport final : public Transport {
 public:
  explicit InProcessTransport(std::size_t num_endpoints)
      : n_(num_endpoints), channels_(num_endpoints * num_endpoints) {
    EmitConnect(TransportKind::kInProcess, n_, 0);
  }

  TransportKind kind() const override { return TransportKind::kInProcess; }
  std::size_t num_endpoints() const override { return n_; }

  void Send(WireFrame frame) override {
    LAMP_CHECK(frame.from < n_ && frame.to < n_);
    counters_.Sent(frame, FrameWireSize(frame));
    Channel& ch = channels_[frame.from * n_ + frame.to];
    {
      std::lock_guard<std::mutex> lock(ch.mu);
      ch.frames.push_back(std::move(frame));
    }
    ch.cv.notify_one();
  }

  WireFrame Recv(std::uint32_t to, std::uint32_t from) override {
    LAMP_CHECK(from < n_ && to < n_);
    Channel& ch = channels_[static_cast<std::size_t>(from) * n_ + to];
    std::unique_lock<std::mutex> lock(ch.mu);
    ch.cv.wait(lock, [&ch] { return !ch.frames.empty(); });
    WireFrame frame = std::move(ch.frames.front());
    ch.frames.pop_front();
    lock.unlock();
    counters_.Received(frame);
    return frame;
  }

  void Shutdown() override {}

  WireStats stats() const override { return counters_.Snapshot(); }

 private:
  struct Channel {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<WireFrame> frames;
  };

  std::size_t n_;
  std::vector<Channel> channels_;
  WireCounters counters_;
};

/// Socket backends: every endpoint holds one stream socket whose peer end
/// belongs to a relay thread that forwards frames to their destination
/// endpoint. The relay queues forwarded bytes in userspace and never stops
/// reading, so an endpoint send may flush to completion.
class SocketRelayTransport final : public Transport {
 public:
  SocketRelayTransport(TransportKind kind, std::size_t num_endpoints)
      : kind_(kind), n_(num_endpoints), endpoints_(num_endpoints) {
    // One socket pair per endpoint: [0] stays with the endpoint, [1] goes
    // to the relay. Rank mapping is positional — no handshake needed.
    std::vector<FramedFd> relay_side(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      const std::array<int, 2> pair = SocketPair(kind_);
      endpoints_[i].link = FramedFd(pair[0]);
      endpoints_[i].inbox.resize(n_);
      relay_side[i] = FramedFd(pair[1]);
    }
    LAMP_CHECK_MSG(::pipe(wake_pipe_) == 0, "transport: pipe failed");
    EmitConnect(kind_, n_, 2 * n_);
    relay_ = std::thread([this, links = std::move(relay_side)]() mutable {
      // Forward every frame to its destination's write queue until
      // Shutdown writes to the wake pipe.
      std::vector<bool> closed(n_, false);
      while (!PollLinks(links, closed, wake_pipe_[0],
                        [&links, this](std::size_t, WireFrame frame) {
                          LAMP_CHECK_MSG(frame.to < n_,
                                         "transport: bad destination");
                          links[frame.to].Queue(frame);
                        })) {
      }
    });
  }

  ~SocketRelayTransport() override { Shutdown(); }

  TransportKind kind() const override { return kind_; }
  std::size_t num_endpoints() const override { return n_; }

  void Send(WireFrame frame) override {
    LAMP_CHECK(frame.from < n_ && frame.to < n_);
    Endpoint& ep = endpoints_[frame.from];
    std::lock_guard<std::mutex> lock(ep.send_mu);
    counters_.Sent(frame, ep.link.Queue(frame));
    ep.link.Flush();
  }

  WireFrame Recv(std::uint32_t to, std::uint32_t from) override {
    LAMP_CHECK(from < n_ && to < n_);
    Endpoint& ep = endpoints_[to];
    std::lock_guard<std::mutex> lock(ep.recv_mu);
    while (ep.inbox[from].empty()) {
      // Frames for other channels of `to` are buffered in their inbox,
      // preserving per-channel FIFO.
      WireFrame frame = ep.link.ReadFrame();
      LAMP_CHECK_MSG(frame.to == to && frame.from < n_,
                     "transport: misrouted frame");
      ep.inbox[frame.from].push_back(std::move(frame));
    }
    WireFrame frame = std::move(ep.inbox[from].front());
    ep.inbox[from].pop_front();
    counters_.Received(frame);
    return frame;
  }

  void Shutdown() override {
    bool expected = false;
    if (!stopped_.compare_exchange_strong(expected, true)) return;
    // Wake the relay: one byte down the self-pipe, then join.
    const std::uint8_t byte = 0;
    LAMP_CHECK_MSG(::write(wake_pipe_[1], &byte, 1) == 1,
                   "transport: relay wake-up failed");
    if (relay_.joinable()) relay_.join();
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    for (Endpoint& ep : endpoints_) ep.link.Close();
  }

  WireStats stats() const override { return counters_.Snapshot(); }

 private:
  struct Endpoint {
    FramedFd link;  // Write side under send_mu, read side under recv_mu.
    std::mutex send_mu;
    std::mutex recv_mu;
    std::vector<std::deque<WireFrame>> inbox;
  };

  TransportKind kind_;
  std::size_t n_;
  std::vector<Endpoint> endpoints_;
  int wake_pipe_[2] = {-1, -1};
  std::thread relay_;
  std::atomic<bool> stopped_{false};
  WireCounters counters_;
};

/// One rank of a full mesh: a FramedFd per peer. Send queues the frame and
/// writes what the socket takes; while Recv waits it flushes every queue
/// and reads every readable peer, so ranks that all send before they
/// receive never deadlock on socket buffers, whatever the round's volume.
class MeshTransport final : public Transport {
 public:
  MeshTransport(TransportKind kind, std::size_t rank,
                std::vector<FramedFd> peers)
      : kind_(kind),
        rank_(rank),
        peers_(std::move(peers)),
        closed_(peers_.size(), false),
        inbox_(peers_.size()) {
    LAMP_CHECK(rank_ < peers_.size() && !peers_[rank_].is_open());
    EmitConnect(kind_, peers_.size(), peers_.size() - 1);
  }

  ~MeshTransport() override { Shutdown(); }

  TransportKind kind() const override { return kind_; }
  std::size_t num_endpoints() const override { return peers_.size(); }

  void Send(WireFrame frame) override {
    LAMP_CHECK(frame.from == rank_ && frame.to < peers_.size() &&
               frame.to != rank_);
    FramedFd& peer = peers_[frame.to];
    counters_.Sent(frame, peer.Queue(frame));
    peer.FlushSome();
  }

  WireFrame Recv(std::uint32_t to, std::uint32_t from) override {
    LAMP_CHECK(to == rank_ && from < peers_.size() && from != rank_);
    while (inbox_[from].empty()) {
      LAMP_CHECK_MSG(!closed_[from], "transport: mesh peer closed");
      Pump();
    }
    WireFrame frame = std::move(inbox_[from].front());
    inbox_[from].pop_front();
    counters_.Received(frame);
    return frame;
  }

  /// Flushes every queued frame (still reading, so two ranks flushing to
  /// each other both progress), then closes the peer sockets.
  void Shutdown() override {
    while (std::any_of(peers_.begin(), peers_.end(),
                       [](const FramedFd& peer) { return peer.HasQueued(); })) {
      Pump();
    }
    for (FramedFd& peer : peers_) peer.Close();
  }

  WireStats stats() const override { return counters_.Snapshot(); }

 private:
  void Pump() {
    PollLinks(peers_, closed_, -1, [this](std::size_t peer, WireFrame frame) {
      LAMP_CHECK_MSG(frame.from == peer && frame.to == rank_,
                     "transport: misrouted frame on the mesh");
      inbox_[peer].push_back(std::move(frame));
    });
  }

  TransportKind kind_;
  std::size_t rank_;
  std::vector<FramedFd> peers_;
  std::vector<bool> closed_;  // Peer has closed its end.
  std::vector<std::deque<WireFrame>> inbox_;
  WireCounters counters_;
};

TransportKind g_active_kind = TransportKind::kInProcess;
bool g_active_kind_set = false;

}  // namespace


std::string_view TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProcess:
      return "inproc";
    case TransportKind::kTcp:
      return "tcp";
    case TransportKind::kUds:
      return "uds";
  }
  return "unknown";
}

bool ParseTransportKind(std::string_view name, TransportKind* out) {
  if (name == "inproc" || name == "inprocess" || name == "in-process") {
    *out = TransportKind::kInProcess;
    return true;
  }
  if (name == "tcp") {
    *out = TransportKind::kTcp;
    return true;
  }
  if (name == "uds" || name == "unix") {
    *out = TransportKind::kUds;
    return true;
  }
  return false;
}

std::array<int, 2> SocketPair(TransportKind kind) {
  std::array<int, 2> fds{-1, -1};
  if (kind == TransportKind::kUds) {
    LAMP_CHECK_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds.data()) == 0,
                   "transport: socketpair failed");
    return fds;
  }
  LAMP_CHECK(kind == TransportKind::kTcp);
  // A one-shot listener on an ephemeral port: the only pending connection
  // is ours, so accept returns the peer of fds[0].
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  auto* const sa = reinterpret_cast<sockaddr*>(&addr);
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  LAMP_CHECK_MSG(listener >= 0 && ::bind(listener, sa, len) == 0 &&
                     ::listen(listener, 1) == 0 &&
                     ::getsockname(listener, sa, &len) == 0,
                 "transport: cannot listen on 127.0.0.1");
  fds[0] = ::socket(AF_INET, SOCK_STREAM, 0);
  LAMP_CHECK_MSG(fds[0] >= 0 && ::connect(fds[0], sa, len) == 0,
                 "transport: connect failed");
  fds[1] = ::accept(listener, nullptr, nullptr);
  LAMP_CHECK_MSG(fds[1] >= 0, "transport: accept failed");
  ::close(listener);
  const int one = 1;
  for (const int fd : fds) {
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return fds;
}

std::unique_ptr<Transport> MakeLoopbackTransport(TransportKind kind,
                                                 std::size_t num_endpoints) {
  LAMP_CHECK(num_endpoints > 0);
  if (kind == TransportKind::kInProcess) {
    return std::make_unique<InProcessTransport>(num_endpoints);
  }
  return std::make_unique<SocketRelayTransport>(kind, num_endpoints);
}

std::unique_ptr<Transport> MakeMeshEndpoint(TransportKind kind,
                                            std::size_t rank,
                                            std::vector<FramedFd> peers) {
  return std::make_unique<MeshTransport>(kind, rank, std::move(peers));
}

TransportKind ActiveKind() {
  if (!g_active_kind_set) {
    g_active_kind_set = true;
    const char* env = std::getenv("LAMP_TRANSPORT");
    if (env != nullptr && env[0] != '\0') {
      TransportKind kind;
      if (ParseTransportKind(env, &kind)) {
        g_active_kind = kind;
      } else {
        std::fprintf(stderr, "transport: unknown LAMP_TRANSPORT '%s'\n", env);
      }
    }
  }
  return g_active_kind;
}

void SetActiveKind(TransportKind kind) {
  g_active_kind = kind;
  g_active_kind_set = true;
}

void ConfigureFromCommandLine(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strncmp(arg, "--transport=", 12) == 0) {
      value = arg + 12;
    } else if (std::strcmp(arg, "--transport") == 0 && i + 1 < *argc) {
      value = argv[++i];
    }
    if (value == nullptr) {
      argv[out++] = argv[i];
      continue;
    }
    TransportKind kind;
    if (!ParseTransportKind(value, &kind)) {
      std::fprintf(stderr,
                   "usage: --transport {inproc,tcp,uds} (got '%s')\n", value);
      std::exit(2);
    }
    SetActiveKind(kind);
  }
  argv[out] = nullptr;
  *argc = out;
}

}  // namespace lamp::transport
