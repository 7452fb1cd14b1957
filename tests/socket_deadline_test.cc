#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "gtest/gtest.h"
#include "net/socket.h"
#include "support/blocking_socket.h"
#include "support/http_client.h"

namespace rafiki::net {
namespace {

using StatusCode = rafiki::StatusCode;

double Elapsed(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

TEST(DeadlineTest, ZeroAndNegativeMeanNoDeadline) {
  EXPECT_TRUE(Deadline().infinite());
  EXPECT_TRUE(Deadline::After(0.0).infinite());
  EXPECT_TRUE(Deadline::After(-1.0).infinite());
  EXPECT_EQ(Deadline().remaining_ms(), -1);
  EXPECT_FALSE(Deadline().expired());
}

TEST(DeadlineTest, ExpiresAndClampsRemaining) {
  Deadline d = Deadline::After(0.02);
  EXPECT_FALSE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_ms(), 0);
}

TEST(DeadlineTest, WaitReadableTimesOutAtDeadline) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  auto start = std::chrono::steady_clock::now();
  Status s = WaitReadable(fds[0], Deadline::After(0.1));
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.message();
  EXPECT_GE(Elapsed(start), 0.09);
  EXPECT_LT(Elapsed(start), 2.0);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(DeadlineTest, WaitReadableReturnsOkWhenDataArrives) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  char byte = 'x';
  ASSERT_EQ(::send(fds[1], &byte, 1, 0), 1);
  EXPECT_TRUE(WaitReadable(fds[0], Deadline::After(1.0)).ok());
  // An empty socket buffer is immediately writable.
  EXPECT_TRUE(WaitWritable(fds[0], Deadline::After(1.0)).ok());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(DeadlineTest, ConnectTcpWithTimeoutStillConnects) {
  uint16_t port = 0;
  auto listener = ListenTcp(0, 8, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().message();
  auto sock = ConnectTcp("127.0.0.1", port, 0.5);
  ASSERT_TRUE(sock.ok()) << sock.status().message();
  EXPECT_TRUE(sock->valid());
}

TEST(DeadlineTest, ConnectTcpTimesOutOnAFullAcceptQueue) {
  // The kernel drops the SYN, so only the deadline ends the connect.
  auto hole = MakeFullAcceptQueue();
  ASSERT_TRUE(hole.ok()) << hole.status().message();
  auto start = std::chrono::steady_clock::now();
  auto sock = ConnectTcp("127.0.0.1", hole->port, 0.2);
  ASSERT_FALSE(sock.ok());
  EXPECT_EQ(sock.status().code(), StatusCode::kDeadlineExceeded)
      << sock.status().message();
  EXPECT_GE(Elapsed(start), 0.15);
  EXPECT_LT(Elapsed(start), 2.0);
}

TEST(DeadlineTest, HttpClientReadDeadlineExceededOnSilentServer) {
  // The listener's backlog completes the TCP handshake but nothing ever
  // accepts or answers: the client's whole-response deadline must fire
  // instead of hanging forever.
  uint16_t port = 0;
  auto listener = ListenTcp(0, 8, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().message();

  HttpClient client("127.0.0.1", port, /*timeout_seconds=*/0.3);
  auto start = std::chrono::steady_clock::now();
  Result<int> status = client.RequestView("GET", "/never-answered");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kDeadlineExceeded)
      << status.status().message();
  // One deadline for the whole request — no doubled retry on timeout.
  EXPECT_GE(Elapsed(start), 0.25);
  EXPECT_LT(Elapsed(start), 2.0);
  EXPECT_FALSE(client.connected());  // half-dead connection was dropped
}

}  // namespace
}  // namespace rafiki::net
