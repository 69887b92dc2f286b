#ifndef LAMP_TRANSPORT_FRAMED_FD_H_
#define LAMP_TRANSPORT_FRAMED_FD_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "transport/wire.h"

/// \file
/// The one socket-I/O primitive of lamp::transport: a connected stream fd
/// carrying lamp.wire.v1 frames both ways. Writes go through a userspace
/// queue that the caller flushes without blocking (FlushSome) or until it
/// is empty (Flush); reads feed an incremental FrameDecoder. The loopback
/// relay, its endpoints, the per-rank mesh endpoint and tools/mpc_procs'
/// report pipe are all built on it.
///
/// The write side (Queue, FlushSome, Flush) and the read side (ReadSome,
/// Next, ReadFrame) touch disjoint state, so one thread may write while
/// another reads; each side must be serialized by its caller.

namespace lamp::transport {

class FramedFd {
 public:
  FramedFd() = default;
  /// Takes ownership of \p fd and switches it to non-blocking mode.
  explicit FramedFd(int fd);
  FramedFd(FramedFd&& other) noexcept;
  FramedFd& operator=(FramedFd&& other) noexcept;
  ~FramedFd() { Close(); }

  int fd() const { return fd_; }
  bool is_open() const { return fd_ >= 0; }
  /// Closes the fd, dropping anything still queued.
  void Close();

  /// Appends the encoded \p frame to the write queue and returns its
  /// on-wire size. Writes nothing yet.
  std::size_t Queue(const WireFrame& frame);
  bool HasQueued() const { return head_ < out_.size(); }
  /// Writes as much of the queue as the fd takes now; never blocks.
  void FlushSome();
  /// Blocks until the queue is written. Safe only while the peer reads.
  void Flush();

  /// Reads what the fd holds now into the decoder; never blocks. Returns
  /// false once the peer has closed its end (bytes read before the end
  /// stay decodable).
  bool ReadSome();
  /// The next decoded frame, or nullopt when more bytes are needed.
  /// Aborts on a corrupt stream; warns once per batch of skipped frames
  /// of unknown type.
  std::optional<WireFrame> Next();
  /// Blocks until one frame has arrived. Aborts if the peer closes first.
  WireFrame ReadFrame();

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> out_;
  std::size_t head_ = 0;  // Bytes of out_ already written.
  FrameDecoder decoder_;
  std::uint64_t warned_skipped_ = 0;
};

/// One poll over \p links: flushes each writable queue, reads each
/// readable link and hands every decoded frame to on_frame(link, frame).
/// Unopened links are skipped, and so are links marked in \p closed for
/// reading; a link whose peer closes is marked there. Also watches
/// \p wake_fd when it is >= 0, and returns true (having done nothing
/// else) once it is readable.
bool PollLinks(std::vector<FramedFd>& links, std::vector<bool>& closed,
               int wake_fd,
               const std::function<void(std::size_t, WireFrame)>& on_frame);

}  // namespace lamp::transport

#endif  // LAMP_TRANSPORT_FRAMED_FD_H_
