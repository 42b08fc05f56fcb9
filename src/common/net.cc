#include "common/net.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/crc32.h"
#include "common/lockdep.h"

namespace mamdr {
namespace net {

namespace {

void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

uint32_t GetU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

void StoreU32(char* p, uint32_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
  p[2] = static_cast<char>((v >> 16) & 0xff);
  p[3] = static_cast<char>((v >> 24) & 0xff);
}

}  // namespace

void ScopedFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Status SendAll(int fd, const void* data, size_t size) {
  if (fd < 0) return Status::Internal("net::SendAll: bad fd");
  lockdep::AssertNoLocksHeld("net.send");
  const char* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < size) {
#ifdef MSG_NOSIGNAL
    const ssize_t n = ::send(fd, p + sent, size - sent, MSG_NOSIGNAL);
#else
    const ssize_t n = ::send(fd, p + sent, size - sent, 0);
#endif
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_SNDTIMEO (SetIoTimeout) expired: the peer stopped draining.
        return Status::DeadlineExceeded(
            "net::SendAll: i/o deadline exceeded");
      }
      return Status::Unavailable(std::string("net::SendAll: ") +
                                 std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status RecvAll(int fd, void* data, size_t size) {
  if (fd < 0) return Status::Internal("net::RecvAll: bad fd");
  lockdep::AssertNoLocksHeld("net.recv");
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, p + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_RCVTIMEO (SetIoTimeout) expired: the peer stalled mid-frame.
        return Status::DeadlineExceeded(
            "net::RecvAll: i/o deadline exceeded");
      }
      return Status::Unavailable(std::string("net::RecvAll: ") +
                                 std::strerror(errno));
    }
    if (n == 0) {
      return Status::Unavailable("net::RecvAll: connection closed after " +
                                 std::to_string(got) + " of " +
                                 std::to_string(size) + " bytes (truncated)");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<size_t> RecvSome(int fd, void* buf, size_t cap) {
  if (fd < 0) return Status::Internal("net::RecvSome: bad fd");
  lockdep::AssertNoLocksHeld("net.recv");
  for (;;) {
    const ssize_t n = ::recv(fd, buf, cap, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded(
            "net::RecvSome: i/o deadline exceeded");
      }
      return Status::Unavailable(std::string("net::RecvSome: ") +
                                 std::strerror(errno));
    }
    return static_cast<size_t>(n);
  }
}

void ShutdownFd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

Status SetIoTimeout(int fd, int64_t timeout_us) {
  if (fd < 0) return Status::Internal("net::SetIoTimeout: bad fd");
  if (timeout_us < 0) {
    return Status::InvalidArgument("net::SetIoTimeout: negative timeout");
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_us / 1'000'000);
  tv.tv_usec = static_cast<suseconds_t>(timeout_us % 1'000'000);
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) < 0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) < 0) {
    return Status::Internal(std::string("net::SetIoTimeout: setsockopt: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

bool ProbeConnAlive(int fd) {
  if (fd < 0) return false;
  char b;
  const ssize_t n = ::recv(fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n == 0) return false;  // orderly EOF: peer closed while idle
  if (n > 0) return false;   // unsolicited bytes on an idle RPC conn: desync
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
}

Status Listener::Bind(int port) {
  if (fd_.valid()) {
    return Status::FailedPrecondition("net::Listener: already bound");
  }
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("net::Listener: bad port " +
                                   std::to_string(port));
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("bind(127.0.0.1:" + std::to_string(port) +
                            "): " + err);
  }
  if (::listen(fd, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal(std::string("listen(): ") + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal(std::string("getsockname(): ") + err);
  }
  int pipefd[2];
  if (::pipe(pipefd) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal(std::string("pipe(): ") + err);
  }
  // Nonblocking on both ends: draining can never hang PollAccept, and a
  // full pipe makes Wake() a no-op (a wake is already pending).
  ::fcntl(pipefd[0], F_SETFL, O_NONBLOCK);
  ::fcntl(pipefd[1], F_SETFL, O_NONBLOCK);
  fd_.reset(fd);
  wake_rd_.reset(pipefd[0]);
  wake_wr_.reset(pipefd[1]);
  port_ = static_cast<int>(ntohs(bound.sin_port));
  return Status::OK();
}

Result<int> Listener::Poll(int timeout_ms, const std::vector<int>& sessions,
                           std::vector<int>* ready) {
  if (!fd_.valid()) {
    return Status::FailedPrecondition("net::Listener: not bound");
  }
  std::vector<pollfd> pfds(2 + sessions.size());
  pfds[0].fd = fd_.get();
  pfds[1].fd = wake_rd_.get();
  for (size_t i = 0; i < sessions.size(); ++i) pfds[2 + i].fd = sessions[i];
  for (pollfd& p : pfds) {
    p.events = POLLIN;
    p.revents = 0;
  }
  const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (rc < 0 && errno != EINTR) {
    return Status::Internal(std::string("poll(): ") + std::strerror(errno));
  }
  if (rc <= 0) return -1;  // timeout (or EINTR): caller re-polls
  for (size_t i = 0; i < sessions.size(); ++i) {
    // POLLHUP/POLLERR count too: the reader of a hung-up session sees the
    // EOF or error and ends it.
    if (pfds[2 + i].revents != 0) ready->push_back(sessions[i]);
  }
  if ((pfds[1].revents & POLLIN) != 0) {
    // Wake(): drain whatever tokens have accumulated and yield to the
    // caller's stop check. A connection that raced in alongside the wake
    // is picked up by the next Poll (or dropped at Close, which a
    // stopping server wants anyway).
    char buf[64];
    while (::read(wake_rd_.get(), buf, sizeof(buf)) > 0) {
    }
    return -1;
  }
  if ((pfds[0].revents & POLLIN) == 0) return -1;
  const int fd = ::accept(pfds[0].fd, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED) return -1;
    return Status::Internal(std::string("accept(): ") + std::strerror(errno));
  }
  return fd;
}

void Listener::Wake() {
  if (!wake_wr_.valid()) return;
  const char token = 'w';
  ssize_t rc;
  do {
    rc = ::write(wake_wr_.get(), &token, 1);
  } while (rc < 0 && errno == EINTR);
  // A full pipe means a wake is already pending — nothing more to do.
}

void Listener::Close() {
  fd_.reset();
  wake_rd_.reset();
  wake_wr_.reset();
  port_ = 0;
}

Result<int> ConnectLoopback(int port, int64_t io_timeout_us) {
  if (port <= 0 || port > 65535) {
    return Status::Unavailable("net::ConnectLoopback: no endpoint (port " +
                               std::to_string(port) + ")");
  }
  lockdep::AssertNoLocksHeld("net.connect");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  // RPC frames are small and latency-bound: never Nagle-delay them.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (io_timeout_us > 0) {
    const Status armed = SetIoTimeout(fd, io_timeout_us);
    if (!armed.ok()) {
      ::close(fd);
      return armed;
    }
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    // SO_SNDTIMEO expiring mid-handshake reports EINPROGRESS: the dial
    // deadline, retryable like a refusal.
    const std::string err = errno == EINPROGRESS ? "dial deadline exceeded"
                                                 : std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("connect(127.0.0.1:" + std::to_string(port) +
                               "): " + err);
  }
  return fd;
}

std::string EncodeFrame(const std::string& payload) {
  std::string out;
  out.reserve(payload.size() + kFrameOverhead);
  PutU32(&out, kFrameMagic);
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  out += payload;
  PutU32(&out, Crc32(payload.data(), payload.size()));
  return out;
}

namespace {

/// Shared validation for ReadFrame/DecodeFrame once header bytes are in
/// hand. Returns the payload length or the error both entry points agree
/// on.
Result<uint32_t> CheckHeader(const char* header, size_t max_payload) {
  const uint32_t magic = GetU32(header);
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("net frame: bad magic");
  }
  const uint32_t len = GetU32(header + 4);
  if (len > max_payload) {
    return Status::InvalidArgument(
        "net frame: payload length " + std::to_string(len) +
        " exceeds limit " + std::to_string(max_payload));
  }
  return len;
}

Status CheckCrc(const std::string& payload, uint32_t wire_crc) {
  const uint32_t crc = Crc32(payload.data(), payload.size());
  if (crc != wire_crc) {
    return Status::InvalidArgument("net frame: CRC mismatch (corrupted)");
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, const std::string& payload) {
  if (fd < 0) return Status::Internal("net::WriteFrame: bad fd");
  lockdep::AssertNoLocksHeld("net.send");
  // Gather-write header + payload + CRC footer straight from the caller's
  // buffer. Going through EncodeFrame would allocate and copy the whole
  // frame (32KB for a dense pull) on every RPC in both directions.
  char head[8];
  StoreU32(head, kFrameMagic);
  StoreU32(head + 4, static_cast<uint32_t>(payload.size()));
  char foot[4];
  StoreU32(foot, Crc32(payload.data(), payload.size()));
  iovec iov[3] = {
      {head, sizeof(head)},
      {const_cast<char*>(payload.data()), payload.size()},
      {foot, sizeof(foot)},
  };
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 3;
  size_t idx = 0;  // first iovec with bytes still unsent
  while (idx < 3) {
#ifdef MSG_NOSIGNAL
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
#else
    const ssize_t n = ::sendmsg(fd, &msg, 0);
#endif
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_SNDTIMEO (SetIoTimeout) expired: the peer stopped draining.
        return Status::DeadlineExceeded(
            "net::WriteFrame: i/o deadline exceeded");
      }
      return Status::Unavailable(std::string("net::WriteFrame: ") +
                                 std::strerror(errno));
    }
    size_t left = static_cast<size_t>(n);
    while (idx < 3 && left >= iov[idx].iov_len) {
      left -= iov[idx].iov_len;
      iov[idx].iov_len = 0;
      ++idx;
    }
    if (idx < 3) {
      iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + left;
      iov[idx].iov_len -= left;
    }
    msg.msg_iov = iov + idx;
    msg.msg_iovlen = 3 - idx;
  }
  return Status::OK();
}

Result<std::string> ReadFrame(int fd, size_t max_payload) {
  return ReadFrame(fd, max_payload, nullptr);
}

Result<std::string> ReadFrame(int fd, size_t max_payload, bool* clean_close) {
  if (clean_close != nullptr) *clean_close = false;
  char header[8];
  if (fd < 0) return Status::Internal("net::ReadFrame: bad fd");
  // First byte read by hand so EOF *at the frame boundary* is
  // distinguishable from EOF mid-frame: a persistent connection's peer
  // hanging up between requests is a clean session end, not damage.
  lockdep::AssertNoLocksHeld("net.recv");
  for (;;) {
    const ssize_t n = ::recv(fd, header, 1, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded(
            "net::ReadFrame: i/o deadline exceeded");
      }
      return Status::Unavailable(std::string("net::ReadFrame: ") +
                                 std::strerror(errno));
    }
    if (n == 0) {
      if (clean_close != nullptr) *clean_close = true;
      return Status::Unavailable("net::ReadFrame: peer closed");
    }
    break;
  }
  MAMDR_RETURN_IF_ERROR(RecvAll(fd, header + 1, sizeof(header) - 1));
  MAMDR_ASSIGN_OR_RETURN(const uint32_t len,
                         CheckHeader(header, max_payload));
  // Payload and CRC footer arrive in one RecvAll; shrinking the string by
  // four bytes afterwards keeps the capacity and avoids a second syscall
  // round on every frame.
  std::string payload(static_cast<size_t>(len) + 4, '\0');
  MAMDR_RETURN_IF_ERROR(RecvAll(fd, payload.data(), payload.size()));
  const uint32_t wire_crc = GetU32(payload.data() + len);
  payload.resize(len);
  MAMDR_RETURN_IF_ERROR(CheckCrc(payload, wire_crc));
  return payload;
}

Result<std::string> DecodeFrame(const std::string& buf, size_t max_payload) {
  if (buf.size() < 8) {
    return Status::Unavailable("net frame: truncated header (" +
                               std::to_string(buf.size()) + " bytes)");
  }
  MAMDR_ASSIGN_OR_RETURN(const uint32_t len,
                         CheckHeader(buf.data(), max_payload));
  if (buf.size() < 8 + static_cast<size_t>(len) + 4) {
    return Status::Unavailable("net frame: truncated body (" +
                               std::to_string(buf.size()) + " of " +
                               std::to_string(8 + len + 4) + " bytes)");
  }
  std::string payload = buf.substr(8, len);
  MAMDR_RETURN_IF_ERROR(CheckCrc(payload, GetU32(buf.data() + 8 + len)));
  return payload;
}

}  // namespace net
}  // namespace mamdr
