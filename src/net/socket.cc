#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/string_util.h"

namespace rafiki::net {
namespace {

Status Errno(const char* what) {
  return Status::Internal(StrFormat("%s: %s", what, std::strerror(errno)));
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status SetNonBlocking(int fd, bool nonblocking) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (nonblocking) {
    flags |= O_NONBLOCK;
  } else {
    flags &= ~O_NONBLOCK;
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) return Errno("fcntl(F_SETFL)");
  return Status::OK();
}

Status SetNoDelay(int fd) {
  int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  return Status::OK();
}

Result<Socket> ListenTcp(uint16_t port, int backlog, uint16_t* bound_port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!sock.valid()) return Errno("socket");
  int one = 1;
  if (::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    return Errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("bind");
  }
  if (::listen(sock.fd(), backlog) < 0) return Errno("listen");
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&actual),
                      &len) < 0) {
      return Errno("getsockname");
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return sock;
}

Result<Socket> DialTcp(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrFormat("not an IPv4 address: '%s'", host.c_str()));
  }
  Socket sock(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!sock.valid()) return Errno("socket");
  (void)SetNoDelay(sock.fd());  // best-effort: latency, not correctness
  // EINPROGRESS is the usual answer. An interrupted connect also goes on
  // asynchronously, so both hand the socket back to be watched.
  if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr)) < 0 &&
      errno != EINPROGRESS && errno != EINTR) {
    return Errno("connect");
  }
  return sock;
}

Status FinishDial(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
    return Errno("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    errno = err;
    return Errno("connect");
  }
  return Status::OK();
}

}  // namespace rafiki::net
