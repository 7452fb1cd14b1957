#ifndef RAFIKI_NET_SOCKET_H_
#define RAFIKI_NET_SOCKET_H_

#include <cstdint>
#include <string>

#include "common/result.h"

namespace rafiki::net {

/// Move-only RAII wrapper around a file descriptor. Closing is idempotent;
/// a default-constructed Socket holds no fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  void Close();

 private:
  int fd_ = -1;
};

/// Sets or clears O_NONBLOCK.
Status SetNonBlocking(int fd, bool nonblocking);

/// Disables Nagle (TCP_NODELAY); request/response traffic is latency-bound.
Status SetNoDelay(int fd);

/// Creates a nonblocking listening TCP socket on 127.0.0.1-visible
/// INADDR_ANY:`port` (0 = kernel-assigned ephemeral port) with SO_REUSEADDR.
/// On success `*bound_port` holds the actual port.
Result<Socket> ListenTcp(uint16_t port, int backlog, uint16_t* bound_port);

/// Starts a TCP connect to an IPv4 address ("127.0.0.1") on a nonblocking
/// socket with TCP_NODELAY and returns the socket, whose connect may still
/// be in progress. The connect is over once the fd reports writable or an
/// error; FinishDial then says how it ended. Nothing here waits: the caller
/// watches the fd on its EventLoop. Fails at once on a malformed address or
/// a connect error the kernel reports synchronously.
Result<Socket> DialTcp(const std::string& host, uint16_t port);

/// The outcome of a DialTcp whose fd reported writable or an error: OK when
/// connected, else the connect's error (SO_ERROR).
Status FinishDial(int fd);

}  // namespace rafiki::net

#endif  // RAFIKI_NET_SOCKET_H_
