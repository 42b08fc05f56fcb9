// Dependency-free POSIX TCP machinery shared by every networked endpoint.
//
// Extracted from serve/metrics_server so the sharded parameter server
// (ps/net) and the metrics endpoint run on one reviewed implementation of
// the fiddly parts: EINTR-safe send/recv loops, a loopback listener with a
// stoppable poll loop over new and idle connections, the one stall guard
// every endpoint uses (a kernel I/O deadline per fd, SetIoTimeout, which
// needs no thread), and a length-prefixed, CRC32-footed frame codec
// (common/crc32) that converts every torn or bit-flipped message into a
// clean Status instead of deserialized garbage.
//
// The mamdr_lint `raw-socket` rule bans direct ::socket()/::connect()/...
// calls outside common/net.cc, so every byte that leaves the process goes
// through these helpers — which is what makes the network fault proxy
// (ps/net/fault_proxy) a faithful model: it injects at the same frame
// boundary all real traffic crosses.
//
// Error mapping contract (relied on by the ps/net wire-format tests):
//   * peer closed / reset / cut mid-frame  -> kUnavailable (retryable)
//   * SetIoTimeout deadline expired        -> kDeadlineExceeded (callers
//     decide: the PS client maps it to a retryable kUnavailable)
//   * bad magic, oversize length, CRC mismatch -> kInvalidArgument
//   * local programming errors (bad fd)    -> kInternal
#ifndef MAMDR_COMMON_NET_H_
#define MAMDR_COMMON_NET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace mamdr {
namespace net {

/// RAII file descriptor: closes on destruction. Move-only.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { reset(); }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ScopedFd(ScopedFd&& other) noexcept : fd_(other.release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    reset(other.release());
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  /// Give up ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  /// Close the current fd (if any) and adopt `fd`.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Send exactly `size` bytes (EINTR-safe, SIGPIPE-suppressed). A peer that
/// closed or reset the connection yields kUnavailable; an expired
/// SetIoTimeout deadline yields kDeadlineExceeded.
Status SendAll(int fd, const void* data, size_t size);

/// Receive exactly `size` bytes. EOF or an error before `size` bytes have
/// arrived yields kUnavailable ("truncated"), the signature of a connection
/// cut mid-message; an expired SetIoTimeout deadline yields
/// kDeadlineExceeded.
Status RecvAll(int fd, void* data, size_t size);

/// One recv() of at most `cap` bytes (EINTR-safe), for delimiter-terminated
/// protocols (the HTTP metrics endpoint). Returns the byte count — 0 means
/// orderly EOF; a connection error yields kUnavailable, an expired
/// SetIoTimeout deadline kDeadlineExceeded.
Result<size_t> RecvSome(int fd, void* buf, size_t cap);

/// shutdown(fd, SHUT_RDWR): forces any thread blocked in recv()/send() on
/// this fd to return. Stop() paths use it to unblock a session thread.
void ShutdownFd(int fd);

/// Arm a kernel-level I/O deadline on `fd` (SO_RCVTIMEO + SO_SNDTIMEO):
/// a recv()/send() that makes no progress for `timeout_us` fails, which
/// every helper here surfaces as kDeadlineExceeded ("i/o deadline
/// exceeded"). The bound is per call: a peer that keeps trickling bytes
/// restarts it, so a caller that needs a total budget re-arms with what
/// is left before each call (the metrics server does). This is the only
/// stall guard in the tree: the shard server, the PS client and the
/// metrics server all use it, and none needs a thread to enforce it.
/// 0 disables the deadline.
Status SetIoTimeout(int fd, int64_t timeout_us);

/// Cheap liveness probe for an *idle* connection about to be reused
/// (MSG_PEEK | MSG_DONTWAIT, never blocks): true when the peer has neither
/// closed nor sent unexpected bytes. On a request/response connection with
/// no RPC in flight, readable bytes mean protocol desync — as unusable as
/// a closed peer, so both report false and the caller redials. A false
/// *positive* (peer closed, FIN not yet delivered) is possible; callers
/// must still treat a failed first use of a reused connection as "stale,
/// redial", not as a hard error. A server asks the same question after
/// answering a frame: true means nothing more is pending, so the session
/// can go back to idle without a thread blocking on it.
bool ProbeConnAlive(int fd);

/// Loopback TCP listener with a stoppable, wakeable poll loop.
class Listener {
 public:
  Listener() = default;
  ~Listener() { Close(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Bind 127.0.0.1:`port` (0 = kernel-assigned ephemeral port) and listen.
  /// Also opens the self-pipe that makes Wake() work.
  Status Bind(int port);

  /// Wait up to `timeout_ms` (-1 = indefinitely) for a connection. Returns
  /// the accepted fd; -1 on timeout, Wake(), or a transient accept failure
  /// (EINTR, ECONNABORTED) — the caller's loop just re-polls, which is
  /// where it checks its stop flag; a non-OK Status means the listener
  /// itself is broken. With Wake() available, accept loops should block
  /// with -1 instead of burning a short poll period.
  Result<int> PollAccept(int timeout_ms) {
    return Poll(timeout_ms, {}, nullptr);
  }

  /// PollAccept that also watches the caller's idle connections: the same
  /// one poll() covers the listener, the wake pipe and every fd in
  /// `sessions`, and each of those that is readable or hung up is appended
  /// to `*ready` (whatever the return value). This is how one thread
  /// multiplexes a server's idle sessions without a thread per connection.
  Result<int> Poll(int timeout_ms, const std::vector<int>& sessions,
                   std::vector<int>* ready);

  /// Interrupt a concurrent Poll/PollAccept immediately (self-pipe trick):
  /// the blocked call returns -1 without waiting out its timeout. Safe
  /// from any thread, any number of times; wakes the next Poll if none is
  /// in flight. This is how Stop() paths avoid both polling churn
  /// and a full timeout of shutdown latency.
  void Wake();

  /// Close the listening socket and the wake pipe. Idempotent.
  void Close();

  /// The bound port (resolved when Bind(0) was used); 0 when not bound.
  int port() const { return port_; }
  bool bound() const { return fd_.valid(); }

 private:
  ScopedFd fd_;
  ScopedFd wake_rd_;  // self-pipe read end, polled alongside fd_
  ScopedFd wake_wr_;  // self-pipe write end, written by Wake()
  int port_ = 0;
};

/// Blocking connect to 127.0.0.1:`port`. `io_timeout_us` > 0 arms that
/// I/O deadline (SetIoTimeout) on the socket *before* connect(), so it
/// bounds the dial too: a peer whose listen backlog is full drops the SYN,
/// and without a deadline the kernel retries it for about two minutes.
/// Refused, unreachable and timed-out connects all yield kUnavailable (the
/// retry layer's cue); 0 leaves the socket fully blocking.
Result<int> ConnectLoopback(int port, int64_t io_timeout_us = 0);

// --- Frame codec ----------------------------------------------------------
//
// Wire layout (all little-endian):
//   u32 magic 'MFRM'  |  u32 payload_len  |  payload  |  u32 crc32(payload)

inline constexpr uint32_t kFrameMagic = 0x4D52464Du;  // "MFRM" LE
/// Fixed bytes around the payload: 8-byte header + 4-byte CRC footer.
inline constexpr size_t kFrameOverhead = 12;

/// Frame `payload` and send it.
Status WriteFrame(int fd, const std::string& payload);

/// Read one frame and return its payload. `max_payload` bounds the length
/// field before any allocation (an attacker-controlled or corrupted length
/// must not OOM the server). Truncation -> kUnavailable; an expired
/// SetIoTimeout deadline -> kDeadlineExceeded; bad magic, oversize length,
/// or CRC mismatch -> kInvalidArgument.
Result<std::string> ReadFrame(int fd, size_t max_payload);

/// Like ReadFrame, but on failure also reports *where* the stream ended:
/// `*clean_close` is set true iff the peer closed at a frame boundary
/// (EOF before any header byte) — the normal end of a persistent
/// connection's session, which servers must not count as a bad request.
/// Any other failure (mid-frame EOF, deadline, corruption) leaves it
/// false.
Result<std::string> ReadFrame(int fd, size_t max_payload, bool* clean_close);

/// Pure-buffer encoder/decoder for the same layout, so the wire-format
/// corruption matrix can run without sockets. DecodeFrame consumes exactly
/// one frame from `buf` and fails exactly like ReadFrame (a short buffer is
/// kUnavailable, matching a cut connection).
std::string EncodeFrame(const std::string& payload);
Result<std::string> DecodeFrame(const std::string& buf, size_t max_payload);

}  // namespace net
}  // namespace mamdr

#endif  // MAMDR_COMMON_NET_H_
