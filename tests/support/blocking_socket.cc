#include "support/blocking_socket.h"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/string_util.h"

namespace rafiki::net {
namespace {

Status Errno(const char* what) {
  return Status::Internal(StrFormat("%s: %s", what, std::strerror(errno)));
}

Status WaitFor(int fd, short events, const Deadline& deadline,
               const char* what) {
  for (;;) {
    if (deadline.expired()) {
      return Status::DeadlineExceeded(StrFormat("%s: deadline expired", what));
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    int n = ::poll(&pfd, 1, deadline.remaining_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    if (n > 0) return Status::OK();
    // n == 0: poll timed out; the expired() check above reports it.
  }
}

}  // namespace

int Deadline::remaining_ms() const {
  if (!has_deadline_) return -1;
  auto left = at_ - std::chrono::steady_clock::now();
  if (left <= std::chrono::steady_clock::duration::zero()) return 0;
  auto ms = std::chrono::ceil<std::chrono::milliseconds>(left).count();
  return ms > 2147483646 ? 2147483646 : static_cast<int>(ms);
}

Status WaitReadable(int fd, const Deadline& deadline) {
  return WaitFor(fd, POLLIN, deadline, "read");
}

Status WaitWritable(int fd, const Deadline& deadline) {
  return WaitFor(fd, POLLOUT, deadline, "write");
}

Result<Socket> ConnectTcp(const std::string& host, uint16_t port,
                          double timeout_seconds) {
  RAFIKI_ASSIGN_OR_RETURN(Socket sock, DialTcp(host, port));
  RAFIKI_RETURN_IF_ERROR(
      WaitWritable(sock.fd(), Deadline::After(timeout_seconds)));
  RAFIKI_RETURN_IF_ERROR(FinishDial(sock.fd()));
  RAFIKI_RETURN_IF_ERROR(SetNonBlocking(sock.fd(), false));
  if (timeout_seconds > 0.0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeout_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    if (::setsockopt(sock.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) <
            0 ||
        ::setsockopt(sock.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) <
            0) {
      return Errno("setsockopt(SO_RCVTIMEO)");
    }
  }
  return sock;
}

Status WriteFull(int fd, const char* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    // send() first for the MSG_NOSIGNAL guarantee; non-socket fds (pipes)
    // fall back to write().
    ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, data + sent, len - sent);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("send timed out");
      }
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<size_t> RecvSome(int fd, char* data, size_t len) {
  for (;;) {
    ssize_t n = ::recv(fd, data, len, 0);
    if (n < 0 && errno == ENOTSOCK) n = ::read(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("recv timed out");
      }
      return Errno("recv");
    }
    return static_cast<size_t>(n);
  }
}

Result<FullAcceptQueue> MakeFullAcceptQueue() {
  FullAcceptQueue q;
  RAFIKI_ASSIGN_OR_RETURN(q.listener, ListenTcp(0, /*backlog=*/0, &q.port));
  RAFIKI_ASSIGN_OR_RETURN(q.filler, ConnectTcp("127.0.0.1", q.port, 5.0));
  // The filler's handshake may still be finishing on the server side; a
  // listener turns readable once the connection sits in its accept queue.
  RAFIKI_RETURN_IF_ERROR(
      WaitReadable(q.listener.fd(), Deadline::After(5.0)));
  return q;
}

}  // namespace rafiki::net
