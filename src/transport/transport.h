#ifndef LAMP_TRANSPORT_TRANSPORT_H_
#define LAMP_TRANSPORT_TRANSPORT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "transport/framed_fd.h"
#include "transport/wire.h"

/// \file
/// Pluggable transports for MPC communication phases and transducer
/// message delivery.
///
/// A Transport connects `num_endpoints()` ranks with framed, per-channel
/// FIFO delivery: a frame sent from A to B is received by B, after every
/// frame A previously sent to B, via Recv(B, A). Nothing else is promised
/// — no ordering across channels, no delivery scheduling. That split is
/// the determinism contract (DESIGN.md §lamp::transport): the *runtime*
/// (MpcSimulator's merge phase, TransducerNetwork's Scheduler) decides
/// the order in which channels are drained, and because per-channel FIFO
/// is all it relies on, the same decisions replay on every backend. The
/// seeded Scheduler is therefore a delivery-order policy the transport
/// honors, and golden digests stay byte-identical across backends.
///
/// Three backends:
///  * InProcessTransport — mutex/condvar deques per channel; the default
///    and the zero-copy fast path.
///  * TcpTransport       — real TCP sockets over 127.0.0.1.
///  * UdsTransport       — AF_UNIX stream socketpairs.
///
/// All socket I/O goes through one primitive (FramedFd, framed_fd.h), in
/// two shapes. The loopback relay (MakeLoopbackTransport) connects every
/// endpoint to a relay thread that forwards each frame; it takes 2p
/// descriptors where a full mesh in one process takes p(p-1) — 65,280 at
/// p = 256 over tcp, past common `ulimit -n` values — so the simulator
/// keeps it at every p. The mesh endpoint (MakeMeshEndpoint) is one rank
/// of a full mesh, as tools/mpc_procs runs one per process. Neither
/// blocks a sender on a receiver that has not started draining (the relay
/// queues in userspace; the mesh flushes its queues while it waits in
/// Recv), so a round may send its whole volume before anyone drains.
///
/// Every backend counts wire traffic (WireStats) and emits
/// kTransportSend/kTransportRecv/kTransportConnect trace events, so
/// serialization overhead is measured, not modelled, even in-process.

namespace lamp::transport {

enum class TransportKind : std::uint8_t {
  kInProcess = 0,
  kTcp,
  kUds,
};

/// Stable names: "inproc", "tcp", "uds".
std::string_view TransportKindName(TransportKind kind);

/// Parses a TransportKindName; returns false on unknown names.
bool ParseTransportKind(std::string_view name, TransportKind* out);

/// Wire traffic counters, aggregated over all endpoints.
struct WireStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_received = 0;
};

/// A connected clique of endpoints. Send/Recv are safe to call from
/// different threads for different endpoints (and from lamp::par workers);
/// per-endpoint calls are internally serialized.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual TransportKind kind() const = 0;
  virtual std::size_t num_endpoints() const = 0;

  /// Enqueues \p frame from endpoint `frame.from` to endpoint `frame.to`.
  /// Never blocks indefinitely: the backend buffers as much as the round
  /// requires.
  virtual void Send(WireFrame frame) = 0;

  /// Blocks until a frame from \p from addressed to \p to is available and
  /// returns it, preserving per-channel FIFO order. Frames arriving on
  /// other channels of \p to are buffered, not lost.
  virtual WireFrame Recv(std::uint32_t to, std::uint32_t from) = 0;

  /// Releases sockets/threads. Idempotent; the destructor calls it.
  virtual void Shutdown() = 0;

  /// Traffic so far. For socket backends these are measured socket bytes;
  /// the in-process backend counts FrameWireSize of every frame, so all
  /// backends report identical totals for identical traffic.
  virtual WireStats stats() const = 0;
};

/// A connected pair of stream sockets of socket kind \p kind: a 127.0.0.1
/// TCP connection (TCP_NODELAY at both ends) or an AF_UNIX socketpair.
/// Aborts (LAMP_CHECK) if a socket call fails.
std::array<int, 2> SocketPair(TransportKind kind);

/// Builds a connected loopback transport of \p kind with \p num_endpoints
/// endpoints. Aborts (LAMP_CHECK) if socket setup fails.
std::unique_ptr<Transport> MakeLoopbackTransport(TransportKind kind,
                                                 std::size_t num_endpoints);

/// One rank's endpoint of a full mesh: \p peers[r] is the connected socket
/// to rank r (unopened at r == \p rank). Send takes frames from \p rank;
/// Recv(to, from) takes to == \p rank. Every frame on a peer's socket must
/// come from that peer. Shutdown flushes every queued frame before it
/// closes the sockets. One thread drives the endpoint.
std::unique_ptr<Transport> MakeMeshEndpoint(TransportKind kind,
                                            std::size_t rank,
                                            std::vector<FramedFd> peers);

/// The process-wide backend selection honored by MpcSimulator and
/// TransducerNetwork. Defaults to kInProcess; the LAMP_TRANSPORT
/// environment variable ("inproc"/"tcp"/"uds") overrides the default, and
/// SetActiveKind / --transport override both.
TransportKind ActiveKind();
void SetActiveKind(TransportKind kind);

/// Strips a `--transport <kind>` / `--transport=<kind>` flag from argv
/// (mirroring par::ConfigureFromCommandLine) and applies it via
/// SetActiveKind. Unknown kinds abort with a usage message.
void ConfigureFromCommandLine(int* argc, char** argv);

}  // namespace lamp::transport

#endif  // LAMP_TRANSPORT_TRANSPORT_H_
