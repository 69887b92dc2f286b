#include "transport/framed_fd.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace lamp::transport {

namespace {

/// Read chunk of ReadSome.
constexpr std::size_t kReadChunk = 1 << 16;

void WaitFor(int fd, short events) {
  pollfd p{fd, events, 0};
  while (::poll(&p, 1, -1) < 0) {
    LAMP_CHECK_MSG(errno == EINTR, "transport: poll failed");
  }
}

}  // namespace

FramedFd::FramedFd(int fd) : fd_(fd) {
  LAMP_CHECK(fd_ >= 0);
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  LAMP_CHECK_MSG(flags >= 0 && ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) == 0,
                 "transport: cannot make fd non-blocking");
}

FramedFd::FramedFd(FramedFd&& other) noexcept { *this = std::move(other); }

FramedFd& FramedFd::operator=(FramedFd&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    out_ = std::move(other.out_);
    head_ = std::exchange(other.head_, 0);
    decoder_ = std::move(other.decoder_);
    warned_skipped_ = other.warned_skipped_;
  }
  return *this;
}

void FramedFd::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  out_.clear();
  head_ = 0;
}

std::size_t FramedFd::Queue(const WireFrame& frame) {
  const std::size_t before = out_.size();
  AppendFrame(out_, frame);
  return out_.size() - before;
}

void FramedFd::FlushSome() {
  while (HasQueued()) {
    const ssize_t n = ::write(fd_, out_.data() + head_, out_.size() - head_);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    LAMP_CHECK_MSG(n > 0, "transport: socket write failed");
    head_ += static_cast<std::size_t>(n);
  }
  if (!HasQueued()) {
    out_.clear();
    head_ = 0;
  } else if (head_ > (1u << 20) && head_ * 2 > out_.size()) {
    out_.erase(out_.begin(), out_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void FramedFd::Flush() {
  for (FlushSome(); HasQueued(); FlushSome()) WaitFor(fd_, POLLOUT);
}

bool FramedFd::ReadSome() {
  std::uint8_t buf[kReadChunk];
  while (true) {
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n <= 0) return false;  // Orderly close or reset by the peer.
    decoder_.Feed(buf, static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < sizeof buf) return true;
  }
}

std::optional<WireFrame> FramedFd::Next() {
  std::optional<WireFrame> frame = decoder_.Next();
  LAMP_CHECK_MSG(!decoder_.error(), "transport: corrupt frame stream");
  // Unknown-type frames (a newer peer's optional extension) are skipped by
  // the decoder; surface each skip so a version-skewed mesh is visible
  // without being fatal.
  if (decoder_.unknown_skipped() > warned_skipped_) {
    std::fprintf(stderr,
                 "transport: warning: skipped %llu frame(s) of unknown type"
                 " 0x%02x on fd %d\n",
                 static_cast<unsigned long long>(decoder_.unknown_skipped() -
                                                 warned_skipped_),
                 decoder_.last_unknown_type(), fd_);
    warned_skipped_ = decoder_.unknown_skipped();
  }
  return frame;
}

WireFrame FramedFd::ReadFrame() {
  while (true) {
    if (std::optional<WireFrame> frame = Next()) return *std::move(frame);
    WaitFor(fd_, POLLIN);
    const bool open = ReadSome();
    if (std::optional<WireFrame> frame = Next()) return *std::move(frame);
    LAMP_CHECK_MSG(open, "transport: peer closed mid-frame");
  }
}

bool PollLinks(std::vector<FramedFd>& links, std::vector<bool>& closed,
               int wake_fd,
               const std::function<void(std::size_t, WireFrame)>& on_frame) {
  std::vector<pollfd> set;
  std::vector<std::size_t> link_of;  // Link index of set[k].
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto events = static_cast<short>(
        (closed[i] ? 0 : POLLIN) | (links[i].HasQueued() ? POLLOUT : 0));
    if (!links[i].is_open() || events == 0) continue;
    set.push_back({links[i].fd(), events, 0});
    link_of.push_back(i);
  }
  if (wake_fd >= 0) set.push_back({wake_fd, POLLIN, 0});
  LAMP_CHECK_MSG(!set.empty(), "transport: no open link left to wait on");
  if (::poll(set.data(), set.size(), -1) < 0) {
    LAMP_CHECK_MSG(errno == EINTR, "transport: poll failed");
    return false;
  }
  if (wake_fd >= 0 && (set.back().revents & POLLIN) != 0) return true;
  for (std::size_t k = 0; k < link_of.size(); ++k) {
    FramedFd& link = links[link_of[k]];
    const short revents = set[k].revents;
    if ((revents & (POLLOUT | POLLERR)) != 0 && link.HasQueued()) {
      link.FlushSome();
    }
    if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0 || closed[link_of[k]]) {
      continue;
    }
    closed[link_of[k]] = !link.ReadSome();
    while (std::optional<WireFrame> frame = link.Next()) {
      on_frame(link_of[k], *std::move(frame));
    }
  }
  return false;
}

}  // namespace lamp::transport
