#include "net/socket.h"

#include <sys/socket.h>
#include <signal.h>
#include <unistd.h>

#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "support/blocking_socket.h"

namespace rafiki::net {
namespace {

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(pipe(fds), 0); }
  ~Pipe() {
    CloseRead();
    CloseWrite();
  }
  int read_fd() const { return fds[0]; }
  int write_fd() const { return fds[1]; }
  void CloseRead() {
    if (fds[0] >= 0) close(fds[0]);
    fds[0] = -1;
  }
  void CloseWrite() {
    if (fds[1] >= 0) close(fds[1]);
    fds[1] = -1;
  }
};

/// Reads exactly `len` bytes; false when EOF or an error comes first.
bool RecvExactly(int fd, char* data, size_t len) {
  size_t got = 0;
  while (got < len) {
    Result<size_t> n = RecvSome(fd, data + got, len - got);
    if (!n.ok() || n.value() == 0) return false;
    got += n.value();
  }
  return true;
}

TEST(SocketIoTest, WriteFullIntoClosedPipeFails) {
  // MSG_NOSIGNAL / SIGPIPE-safety: the write must fail with a status, not
  // kill the process.
  signal(SIGPIPE, SIG_IGN);
  Pipe p;
  p.CloseRead();
  std::string data(64, 'x');
  EXPECT_FALSE(WriteFull(p.write_fd(), data.data(), data.size()).ok());
}

TEST(SocketIoTest, WriteFullHandlesPartialKernelWrites) {
  // A pipe has finite capacity; writing several buffers' worth forces
  // write() to go partial/blocking, exercising the resume loop.
  Pipe p;
  std::string data(1 << 20, 'w');
  std::string got(data.size(), '\0');
  std::thread reader([&] {
    EXPECT_TRUE(RecvExactly(p.read_fd(), got.data(), got.size()));
  });
  ASSERT_TRUE(WriteFull(p.write_fd(), data.data(), data.size()).ok());
  reader.join();
  EXPECT_EQ(got, data);
}

TEST(SocketIoTest, TcpListenConnectRoundTrip) {
  uint16_t port = 0;
  auto listener = ListenTcp(0, 4, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ASSERT_GT(port, 0);

  // The dial returns before the handshake is done; writable means done.
  auto client = DialTcp("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(WaitWritable(client->fd(), Deadline::After(5.0)).ok());
  ASSERT_TRUE(FinishDial(client->fd()).ok());

  ASSERT_TRUE(WaitReadable(listener->fd(), Deadline::After(5.0)).ok());
  Socket server(accept(listener->fd(), nullptr, nullptr));
  ASSERT_TRUE(server.valid());

  ASSERT_TRUE(WriteFull(client->fd(), "ping", 4).ok());
  char buf[4];
  ASSERT_TRUE(RecvExactly(server.fd(), buf, 4));
  EXPECT_EQ(std::string(buf, 4), "ping");
}

TEST(SocketIoTest, DialToAClosedPortFailsAtStartOrAtFinish) {
  uint16_t port = 0;
  {
    auto listener = ListenTcp(0, 4, &port);
    ASSERT_TRUE(listener.ok());
  }  // closed: nothing listens on `port` now
  auto client = DialTcp("127.0.0.1", port);
  if (!client.ok()) return;  // the kernel refused synchronously
  ASSERT_TRUE(WaitWritable(client->fd(), Deadline::After(5.0)).ok());
  EXPECT_FALSE(FinishDial(client->fd()).ok());
}

TEST(SocketIoTest, DialRejectsAHostName) {
  EXPECT_TRUE(DialTcp("localhost", 80).status().IsInvalidArgument());
}

}  // namespace
}  // namespace rafiki::net
