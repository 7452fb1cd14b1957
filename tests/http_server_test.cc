#include "net/http_server.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/socket.h"
#include "support/blocking_socket.h"
#include "support/http_client.h"

namespace rafiki::net {
namespace {

HttpResponse EchoHandler(const HttpRequest& request) {
  HttpResponse resp;
  resp.body = request.method + " " + request.path;
  if (!request.query.empty()) resp.body += "?" + request.query;
  if (!request.body.empty()) resp.body += " body=" + request.body;
  return resp;
}

/// Holds requests in flight without blocking an event loop: the handler
/// parks its writer here and returns, and the test completes it later.
struct WriterStash {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<HttpServer::ResponseWriter> writers;

  HttpServer::AsyncHandler Handler() {
    return [this](const HttpRequest&, HttpServer::ResponseWriter writer) {
      {
        std::lock_guard<std::mutex> lock(mu);
        writers.push_back(std::move(writer));
      }
      cv.notify_all();
    };
  }

  bool WaitFor(size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [&] { return writers.size() >= n; });
  }

  /// Completes every parked writer with `body`, in parking order.
  void CompleteAll(const std::string& body) {
    std::lock_guard<std::mutex> lock(mu);
    for (HttpServer::ResponseWriter& writer : writers) {
      HttpResponse resp;
      resp.body = body;
      writer.Complete(resp);
    }
    writers.clear();
  }
};

/// Raw-socket helper: sends `wire` and reads until `want` complete
/// responses parsed or the peer closes. Returns the statuses in order.
std::vector<int> RawExchange(uint16_t port, const std::string& wire,
                             size_t want) {
  auto sock = ConnectTcp("127.0.0.1", port, 10.0);
  EXPECT_TRUE(sock.ok()) << sock.status().ToString();
  if (!sock.ok()) return {};
  EXPECT_TRUE(WriteFull(sock->fd(), wire.data(), wire.size()).ok());
  std::vector<int> statuses;
  std::string buffered;
  HttpResponseParser parser;
  char buf[4096];
  while (statuses.size() < want) {
    Result<size_t> n = RecvSome(sock->fd(), buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    buffered.append(buf, *n);
    for (;;) {
      size_t consumed = parser.Feed(buffered.data(), buffered.size());
      buffered.erase(0, consumed);
      if (!parser.done()) break;
      statuses.push_back(parser.status());
      parser = HttpResponseParser();
      if (buffered.empty()) break;
    }
  }
  return statuses;
}

/// Reads one response from `fd` and returns its body; fails the test and
/// returns "" when the peer closes or errors first.
std::string ReadOneResponse(int fd) {
  HttpResponseParser parser;
  char buf[4096];
  while (!parser.done()) {
    Result<size_t> n = RecvSome(fd, buf, sizeof(buf));
    if (!n.ok() || *n == 0) {
      ADD_FAILURE() << "connection ended before a response";
      return "";
    }
    EXPECT_EQ(parser.Feed(buf, *n), *n);
  }
  EXPECT_EQ(parser.status(), 200);
  return parser.body();
}

/// Seconds until the peer closes `fd` (EOF or a reset), discarding any
/// bytes; -1 when it is still open after `bound_seconds`.
double SecondsUntilPeerCloses(int fd, double bound_seconds) {
  auto start = std::chrono::steady_clock::now();
  Deadline deadline = Deadline::After(bound_seconds);
  char buf[256];
  for (;;) {
    if (!WaitReadable(fd, deadline).ok()) return -1.0;
    Result<size_t> n = RecvSome(fd, buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Threads in this process, one /proc/self/task entry each.
size_t ThreadCount() {
  size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(HttpServerTest, StartAddsOneThreadPerWorkerAndNoAcceptor) {
  HttpServerOptions opts;
  opts.num_workers = 3;
  HttpServer server(EchoHandler, opts);
  // A sanitizer runtime may start a helper thread at the process's first
  // thread creation; create one first so that helper is already counted.
  std::thread([] {}).join();
  size_t before = ThreadCount();
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(ThreadCount(), before + 3);
  HttpClient client("127.0.0.1", server.port());
  Result<HttpResponse> resp = client.Get("/accepted");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->body, "GET /accepted");
  server.Stop();
  EXPECT_EQ(ThreadCount(), before);
}

TEST(HttpServerTest, ConnectionsLandOnWorkersRoundRobin) {
  // Worker 0 accepts and deals connections out in accept order: with two
  // workers, the 1st and 3rd land on one loop, the 2nd and 4th on the
  // other.
  std::mutex mu;
  std::vector<std::thread::id> loop_of;
  HttpServerOptions opts;
  opts.num_workers = 2;
  HttpServer server(
      [&](const HttpRequest&) {
        std::lock_guard<std::mutex> lock(mu);
        loop_of.push_back(std::this_thread::get_id());
        return HttpResponse{};
      },
      opts);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::unique_ptr<HttpClient>> clients;
  for (int i = 0; i < 4; ++i) {
    // Each connection is answered before the next one connects, so the
    // accept order is the client order.
    clients.push_back(std::make_unique<HttpClient>("127.0.0.1", server.port()));
    ASSERT_TRUE(clients.back()->Get("/").ok());
  }
  server.Stop();
  ASSERT_EQ(loop_of.size(), 4u);
  EXPECT_NE(loop_of[0], loop_of[1]);
  EXPECT_EQ(loop_of[0], loop_of[2]);
  EXPECT_EQ(loop_of[1], loop_of[3]);
}

TEST(HttpServerTest, ServesBasicGetOverRealSocket) {
  HttpServerOptions opts;
  opts.num_workers = 2;
  HttpServer server(EchoHandler, opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  HttpClient client("127.0.0.1", server.port());
  Result<HttpResponse> resp = client.Get("/jobs/j0?x=1");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "GET /jobs/j0?x=1");

  Result<HttpResponse> post = client.Post("/query?job=i0", "1,2,3");
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(post->body, "POST /query?job=i0 body=1,2,3");

  server.Stop();
  HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_total, 2u);
  EXPECT_EQ(stats.responses_total, 2u);
  EXPECT_EQ(stats.handled, 2u);
  EXPECT_EQ(stats.accepted_connections, 1u);  // keep-alive reused it
}

TEST(HttpServerTest, KeepAliveServesManySequentialRequests) {
  HttpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < 50; ++i) {
    Result<HttpResponse> resp = client.Get("/r" + std::to_string(i));
    ASSERT_TRUE(resp.ok()) << i << ": " << resp.status().ToString();
    EXPECT_EQ(resp->status, 200);
    EXPECT_EQ(resp->body, "GET /r" + std::to_string(i));
  }
  server.Stop();
  EXPECT_EQ(server.stats().accepted_connections, 1u);
  EXPECT_EQ(server.stats().requests_total, 50u);
}

// The idle-timeout tests use a 50 ms window. A close is never expected
// before about one window has passed since the last response, and is
// awaited with a 5 s bound rather than a fixed sleep.
constexpr double kIdleWindow = 0.050;

TEST(HttpServerTest, IdleKeepAliveConnectionClosesOneWindowAfterLastResponse) {
  HttpServerOptions opts;
  opts.num_workers = 1;
  opts.idle_timeout_seconds = kIdleWindow;
  HttpServer server(EchoHandler, opts);
  ASSERT_TRUE(server.Start().ok());
  auto sock = ConnectTcp("127.0.0.1", server.port(), 10.0);
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  std::string wire = "GET /once HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(WriteFull(sock->fd(), wire.data(), wire.size()).ok());
  EXPECT_EQ(ReadOneResponse(sock->fd()), "GET /once");

  double closed_after = SecondsUntilPeerCloses(sock->fd(), 5.0);
  ASSERT_GE(closed_after, 0.0) << "idle connection still open after 5 s";
  // The response left the server after its last activity, so the close
  // trails its arrival by about one window, less the time in flight.
  EXPECT_GE(closed_after, kIdleWindow / 2);
  EXPECT_LT(closed_after, 10 * kIdleWindow);
  server.Stop();
  EXPECT_EQ(server.stats().timed_out_connections, 1u);
}

TEST(HttpServerTest, BusyConnectionOutlivesIdleWindowThenTimesOut) {
  // The handler's writer is held for four windows. A busy connection is
  // never idle, so its timer re-arms and the connection stays open; the
  // response goes out on it, and one window later it times out.
  WriterStash held;
  HttpServerOptions opts;
  opts.num_workers = 1;
  opts.idle_timeout_seconds = kIdleWindow;
  HttpServer server(held.Handler(), opts);
  ASSERT_TRUE(server.Start().ok());
  auto sock = ConnectTcp("127.0.0.1", server.port(), 10.0);
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  std::string wire = "GET /held HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(WriteFull(sock->fd(), wire.data(), wire.size()).ok());
  ASSERT_TRUE(held.WaitFor(1));
  // Nothing, not even EOF, may arrive while the writer is held.
  EXPECT_EQ(WaitReadable(sock->fd(), Deadline::After(4 * kIdleWindow)).code(),
            StatusCode::kDeadlineExceeded);
  held.CompleteAll("late");
  EXPECT_EQ(ReadOneResponse(sock->fd()), "late");

  double closed_after = SecondsUntilPeerCloses(sock->fd(), 5.0);
  ASSERT_GE(closed_after, 0.0) << "connection still open after 5 s";
  EXPECT_GE(closed_after, kIdleWindow / 2);
  EXPECT_LT(closed_after, 10 * kIdleWindow);
  server.Stop();
  HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.timed_out_connections, 1u);
  EXPECT_EQ(stats.responses_total, 1u);
}

TEST(HttpServerTest, TornWritesReassemble) {
  HttpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  auto sock = ConnectTcp("127.0.0.1", server.port(), 10.0);
  ASSERT_TRUE(sock.ok());
  std::string wire =
      "POST /q HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  // Dribble the request a few bytes at a time across separate packets.
  for (size_t i = 0; i < wire.size(); i += 3) {
    size_t n = std::min<size_t>(3, wire.size() - i);
    ASSERT_TRUE(WriteFull(sock->fd(), wire.data() + i, n).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string buffered;
  HttpResponseParser parser;
  char buf[4096];
  while (!parser.done()) {
    Result<size_t> n = RecvSome(sock->fd(), buf, sizeof(buf));
    ASSERT_TRUE(n.ok());
    ASSERT_GT(*n, 0u);
    parser.Feed(buf, *n);
  }
  EXPECT_EQ(parser.status(), 200);
  EXPECT_EQ(parser.body(), "POST /q body=hello");
  server.Stop();
}

TEST(HttpServerTest, PipelinedRequestsAnsweredInOrder) {
  HttpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  // Three requests in a single write; responses must come back 1:1 in
  // order on the same connection.
  std::string wire =
      "GET /a HTTP/1.1\r\n\r\n"
      "GET /b HTTP/1.1\r\n\r\n"
      "GET /c HTTP/1.1\r\nConnection: close\r\n\r\n";
  auto sock = ConnectTcp("127.0.0.1", server.port(), 10.0);
  ASSERT_TRUE(sock.ok());
  ASSERT_TRUE(WriteFull(sock->fd(), wire.data(), wire.size()).ok());
  std::string all;
  char buf[4096];
  for (;;) {
    Result<size_t> n = RecvSome(sock->fd(), buf, sizeof(buf));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    if (*n == 0) break;  // server closed after the third response
    all.append(buf, *n);
  }
  size_t a = all.find("GET /a");
  size_t b = all.find("GET /b");
  size_t c = all.find("GET /c");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(c, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  server.Stop();
  EXPECT_EQ(server.stats().requests_total, 3u);
  EXPECT_EQ(server.stats().responses_total, 3u);
}

TEST(HttpServerTest, MalformedRequestsGetParserStatusAndClose) {
  HttpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  struct Case {
    const char* wire;
    int status;
  } cases[] = {
      {"GARBAGE\r\n\r\n", 400},
      {"GET / HTTP/9.9\r\n\r\n", 505},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
      {"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n", 413},
  };
  for (const Case& c : cases) {
    std::vector<int> statuses = RawExchange(server.port(), c.wire, 1);
    ASSERT_EQ(statuses.size(), 1u) << c.wire;
    EXPECT_EQ(statuses[0], c.status) << c.wire;
  }
  server.Stop();
  EXPECT_EQ(server.stats().parse_errors, 4u);
  EXPECT_EQ(server.stats().responses_total, 4u);
}

TEST(HttpServerTest, OverloadShedsBoundedAndConserves) {
  // Park the writers so admitted requests pile up at the cap; everything
  // beyond max_inflight must be answered 503 by the event loop.
  constexpr size_t kCap = 2;
  constexpr int kClients = 8;
  WriterStash stash;
  HttpServerOptions opts;
  opts.max_inflight = kCap;
  HttpServer server(stash.Handler(), opts);
  ASSERT_TRUE(server.Start().ok());

  std::mutex mu;
  std::condition_variable cv;
  int ok_count = 0;
  int overloaded_count = 0;
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&] {
      HttpClient client("127.0.0.1", server.port());
      Result<HttpResponse> resp = client.Get("/");
      EXPECT_TRUE(resp.ok()) << resp.status().ToString();
      std::lock_guard<std::mutex> lock(mu);
      if (resp.ok() && resp->status == 200) ++ok_count;
      if (resp.ok() && resp->status == 503) ++overloaded_count;
      cv.notify_all();
    });
  }
  // Every request has reached the server once kCap are parked and the
  // rest have been answered; only then free the admitted ones.
  EXPECT_TRUE(stash.WaitFor(kCap));
  {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] {
      return overloaded_count == kClients - static_cast<int>(kCap);
    }));
  }
  stash.CompleteAll("admitted");
  for (std::thread& t : clients) t.join();
  server.Stop();

  // Exact admission accounting: the cap admits kCap, the rest shed.
  EXPECT_EQ(ok_count, static_cast<int>(kCap));
  EXPECT_EQ(overloaded_count, kClients - static_cast<int>(kCap));
  HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.handled, kCap);
  EXPECT_EQ(stats.rejected_overload, kClients - kCap);
  EXPECT_EQ(stats.requests_total, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.responses_total,
            stats.handled + stats.rejected_overload + stats.parse_errors +
                stats.rejected_draining);
}

TEST(HttpServerTest, RequestsDuringDrainAre503) {
  // A parked writer keeps the server in kDraining long enough for a
  // request on a second, already-accepted connection to be refused 503.
  WriterStash stash;
  HttpServerOptions opts;
  // One worker: the idle second connection shares the event loop with the
  // busy one, so it drains (answers 503) instead of being closed outright
  // by an already-idle worker.
  opts.num_workers = 1;
  HttpServer server(stash.Handler(), opts);
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.port();

  std::thread first([&] {
    HttpClient client("127.0.0.1", port);
    (void)client.Get("/hold");
  });
  ASSERT_TRUE(stash.WaitFor(1));
  // Second connection must exist before Stop() closes the listener.
  auto sock = ConnectTcp("127.0.0.1", port, 10.0);
  ASSERT_TRUE(sock.ok());
  while (server.stats().accepted_connections < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread stopper([&] { server.Stop(); });
  // Worker 0 closes the listener on the first tick that sees the drain, so
  // once a fresh connect is refused the late request is parsed mid-drain.
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool refused = false;
  while (!refused && std::chrono::steady_clock::now() < give_up) {
    refused = !ConnectTcp("127.0.0.1", port, 10.0).ok();
    if (!refused) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(refused) << "the listener stayed open after Stop()";
  std::string wire = "GET /late HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(WriteFull(sock->fd(), wire.data(), wire.size()).ok());
  std::string buffered;
  HttpResponseParser parser;
  char buf[4096];
  while (!parser.done()) {
    Result<size_t> n = RecvSome(sock->fd(), buf, sizeof(buf));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_GT(*n, 0u);
    parser.Feed(buf, *n);
  }
  EXPECT_EQ(parser.status(), 503);
  stash.CompleteAll("held");
  first.join();
  stopper.join();
  EXPECT_EQ(server.stats().rejected_draining, 1u);
  EXPECT_EQ(server.stats().handled, 1u);
}

TEST(HttpServerTest, PartialWritesFlushViaEpollout) {
  // A tiny send buffer forces send() to return EAGAIN mid-response; the
  // EPOLLOUT path must finish the flush.
  std::string big(512 * 1024, 'x');
  HttpServerOptions opts;
  opts.send_buffer_bytes = 4096;
  HttpServer server(
      [&](const HttpRequest&) {
        HttpResponse resp;
        resp.body = big;
        return resp;
      },
      opts);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());
  Result<HttpResponse> resp = client.Get("/big");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body.size(), big.size());
  EXPECT_EQ(resp->body, big);
  server.Stop();
}

TEST(HttpServerTest, ServeMixedInlineAndParkedCompletions) {
  // Handlers execute on the event-loop thread. /inline/N completes its
  // writer immediately (the no-handoff fast path); /parked/N hands the
  // writer to a background thread, so its completion comes back through
  // EventLoop::Post while later pipelined requests complete inline —
  // responses must still be emitted in strict request order.
  WriterStash parked;
  HttpServer::AsyncHandler park = parked.Handler();
  HttpServerOptions opts;
  opts.num_workers = 1;
  HttpServer server(
      HttpServer::AsyncHandler(
          [&](const HttpRequest& request, HttpServer::ResponseWriter writer) {
            if (request.path.rfind("/parked/", 0) == 0) {
              park(request, std::move(writer));
              return;  // completed later, from another thread
            }
            HttpResponse& out = writer.response();
            out.body.assign("inline ");
            out.body.append(request.path);
            writer.Complete(out);
          }),
      opts);
  ASSERT_TRUE(server.Start().ok());

  std::thread completer([&] {
    // Complete parked writers out-of-band once both are captured.
    EXPECT_TRUE(parked.WaitFor(2));
    parked.CompleteAll("parked");
  });

  // Pipelined burst: parked, inline, parked, inline. The two inline
  // responses are ready first but must wait behind their parked
  // predecessors.
  auto sock = ConnectTcp("127.0.0.1", server.port(), 10.0);
  ASSERT_TRUE(sock.ok());
  std::string wire =
      "GET /parked/0 HTTP/1.1\r\n\r\n"
      "GET /inline/1 HTTP/1.1\r\n\r\n"
      "GET /parked/2 HTTP/1.1\r\n\r\n"
      "GET /inline/3 HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(WriteFull(sock->fd(), wire.data(), wire.size()).ok());
  std::vector<std::string> bodies;
  std::string buffered;
  HttpResponseParser parser;
  char buf[4096];
  while (bodies.size() < 4) {
    Result<size_t> n = RecvSome(sock->fd(), buf, sizeof(buf));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_GT(*n, 0u);
    buffered.append(buf, *n);
    for (;;) {
      size_t consumed = parser.Feed(buffered.data(), buffered.size());
      buffered.erase(0, consumed);
      if (!parser.done()) break;
      EXPECT_EQ(parser.status(), 200);
      bodies.push_back(parser.body());
      parser.Reset();
      if (buffered.empty()) break;
    }
  }
  completer.join();
  EXPECT_EQ(bodies, (std::vector<std::string>{
                        "parked", "inline /inline/1", "parked",
                        "inline /inline/3"}));
  server.Stop();
  HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_total, 4u);
  EXPECT_EQ(stats.responses_total, 4u);
  EXPECT_EQ(stats.handled, 4u);
}

TEST(HttpServerTest, TornWritevResumesMidGatherAcrossPipelinedResponses) {
  // Pipelined requests queue several responses in one connection's output
  // queue, so a single sendmsg gathers many head+body iovec pairs. A tiny
  // SO_SNDBUF forces the kernel to accept partial writes that land in the
  // middle of an iovec and in the middle of the queue; the EPOLLOUT resume
  // path must pick up at the exact byte offset, across item boundaries,
  // without corrupting or reordering anything.
  constexpr int kRequests = 10;
  HttpServerOptions opts;
  opts.send_buffer_bytes = 4096;
  opts.num_workers = 1;  // all responses share one worker's outq
  HttpServer server(
      [](const HttpRequest& request) {
        // Distinct odd-sized bodies so partial-write boundaries never line
        // up with item boundaries: request /p3 gets 3*8191 bytes of 'd'.
        int i = std::stoi(request.path.substr(2));
        HttpResponse resp;
        resp.body.assign(static_cast<size_t>(i + 1) * 8191,
                         static_cast<char>('a' + i));
        return resp;
      },
      opts);
  ASSERT_TRUE(server.Start().ok());
  auto sock = ConnectTcp("127.0.0.1", server.port(), 10.0);
  ASSERT_TRUE(sock.ok());
  std::string wire;
  for (int i = 0; i < kRequests; ++i) {
    wire += "GET /p" + std::to_string(i) + " HTTP/1.1\r\n\r\n";
  }
  ASSERT_TRUE(WriteFull(sock->fd(), wire.data(), wire.size()).ok());
  std::string buffered;
  HttpResponseParser parser;
  char buf[8192];
  int got = 0;
  while (got < kRequests) {
    Result<size_t> n = RecvSome(sock->fd(), buf, sizeof(buf));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_GT(*n, 0u) << "connection closed after " << got << " responses";
    buffered.append(buf, *n);
    for (;;) {
      size_t consumed = parser.Feed(buffered.data(), buffered.size());
      buffered.erase(0, consumed);
      if (!parser.done()) break;
      EXPECT_EQ(parser.status(), 200);
      std::string want(static_cast<size_t>(got + 1) * 8191,
                       static_cast<char>('a' + got));
      EXPECT_EQ(parser.body(), want) << "response " << got << " corrupted";
      ++got;
      parser.Reset();
      if (buffered.empty()) break;
    }
  }
  server.Stop();
  HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_total, static_cast<uint64_t>(kRequests));
  EXPECT_EQ(stats.responses_total, static_cast<uint64_t>(kRequests));
}

TEST(HttpServerTest, ConcurrentClientsAllServed) {
  HttpServer server(EchoHandler);
  ASSERT_TRUE(server.Start().ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      HttpClient client("127.0.0.1", server.port());
      for (int i = 0; i < kPerThread; ++i) {
        std::string path =
            "/t" + std::to_string(t) + "/r" + std::to_string(i);
        Result<HttpResponse> resp = client.Get(path);
        if (resp.ok() && resp->status == 200 &&
            resp->body == "GET " + path) {
          ++ok;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server.Stop();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_total,
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.responses_total, stats.requests_total);
}

}  // namespace
}  // namespace rafiki::net
