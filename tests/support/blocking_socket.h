#ifndef RAFIKI_TESTS_SUPPORT_BLOCKING_SOCKET_H_
#define RAFIKI_TESTS_SUPPORT_BLOCKING_SOCKET_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "net/socket.h"

// Blocking socket helpers for tests: a test thread may wait, an event loop
// may not, so none of this belongs in the library.

namespace rafiki::net {

/// Absolute deadline for the blocking client-side paths. Default (or
/// `After(0)`) means "no deadline"; otherwise it is a steady-clock expiry
/// shared across every wait of one logical operation, so a peer that
/// dribbles bytes cannot extend the total wall time the way a per-syscall
/// SO_RCVTIMEO can.
class Deadline {
 public:
  Deadline() = default;  // no deadline

  /// `seconds` <= 0 yields a no-deadline Deadline.
  static Deadline After(double seconds) {
    Deadline d;
    if (seconds > 0.0) {
      d.has_deadline_ = true;
      d.at_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
    }
    return d;
  }

  bool infinite() const { return !has_deadline_; }
  bool expired() const {
    return has_deadline_ && std::chrono::steady_clock::now() >= at_;
  }
  /// Remaining time as a poll() timeout: -1 when infinite, else >= 0,
  /// rounded up so a wait never spins on a sub-millisecond remainder.
  int remaining_ms() const;

 private:
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point at_{};
};

/// Blocks until `fd` is readable (readable also covers EOF/error, which
/// recv then reports) or the deadline passes: kDeadlineExceeded on expiry.
Status WaitReadable(int fd, const Deadline& deadline);
/// Blocks until `fd` is writable (or has a pending error, which the caller
/// sees via SO_ERROR or the next write) — kDeadlineExceeded on expiry.
Status WaitWritable(int fd, const Deadline& deadline);

/// Blocking TCP connect: DialTcp plus one wait for it to finish. With
/// `timeout_seconds` > 0 a black-holed peer fails kDeadlineExceeded instead
/// of hanging in SYN retries, and the connected socket gets matching
/// send/receive timeouts; 0 waits for the kernel's verdict.
Result<Socket> ConnectTcp(const std::string& host, uint16_t port,
                          double timeout_seconds);

/// Writes all of [data, data+len), handling EINTR and partial writes.
/// Works on sockets (MSG_NOSIGNAL, no SIGPIPE) and plain fds (pipes);
/// a send timeout on the fd maps to DeadlineExceeded.
Status WriteFull(int fd, const char* data, size_t len);

/// One recv() of at most `len` bytes, retrying EINTR. Returns the byte
/// count (0 = orderly peer shutdown) or an error status; a receive timeout
/// maps to DeadlineExceeded.
Result<size_t> RecvSome(int fd, char* data, size_t len);

/// A loopback listener whose accept queue is full: backlog 0 plus one
/// connection that is never accepted. The kernel drops every later SYN, so
/// a dial to `port` stays in progress until the dialer gives up or its SYN
/// retries run out (minutes). Needs no privilege and changes no host
/// setting. A backlog of 0 leaves no room in the SYN queue either, so the
/// kernel admits the filler with a SYN cookie: net.ipv4.tcp_syncookies
/// must be on, as it is by default.
struct FullAcceptQueue {
  Socket listener;
  Socket filler;  // the one connection that fills the queue
  uint16_t port = 0;
};
Result<FullAcceptQueue> MakeFullAcceptQueue();

}  // namespace rafiki::net

#endif  // RAFIKI_TESTS_SUPPORT_BLOCKING_SOCKET_H_
