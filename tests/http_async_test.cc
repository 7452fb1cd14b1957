// The continuation-based serving path of the HTTP server: handlers that
// park their ResponseWriter and complete it later from another thread.
// Covers pipelined re-ordering under reverse-order completion, in-flight
// concurrency beyond the event-loop count, drain-while-async-pending,
// dropped-writer recovery, one-shot semantics, and completion after Stop().

#include "net/http_server.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "net/http_client.h"
#include "net/socket.h"

namespace rafiki::net {
namespace {

/// Collects parked writers; handlers stash here and return immediately.
struct WriterStash {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<std::string, HttpServer::ResponseWriter>> writers;

  void Add(const std::string& path, HttpServer::ResponseWriter writer) {
    {
      std::lock_guard<std::mutex> lock(mu);
      writers.emplace_back(path, std::move(writer));
    }
    cv.notify_all();
  }

  bool WaitFor(size_t n, double timeout_s = 10.0) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                       [&] { return writers.size() >= n; });
  }
};

/// Reads until `want` responses parsed (or peer close); returns
/// (status, body) pairs in wire order.
std::vector<std::pair<int, std::string>> ReadResponses(int fd, size_t want) {
  std::vector<std::pair<int, std::string>> out;
  std::string buffered;
  HttpResponseParser parser;
  char buf[4096];
  while (out.size() < want) {
    Result<size_t> n = RecvSome(fd, buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    buffered.append(buf, *n);
    for (;;) {
      size_t consumed = parser.Feed(buffered.data(), buffered.size());
      buffered.erase(0, consumed);
      if (!parser.done()) break;
      out.emplace_back(parser.status(), parser.body());
      parser = HttpResponseParser();
      if (buffered.empty()) break;
    }
  }
  return out;
}

TEST(HttpAsyncTest, OutOfOrderCompletionsWriteInRequestOrder) {
  constexpr size_t kPipelined = 8;
  WriterStash stash;
  HttpServerOptions opts;
  opts.num_workers = 1;
  opts.max_pipeline = kPipelined;
  HttpServer server(
      [&stash](const HttpRequest& request,
               HttpServer::ResponseWriter writer) {
        stash.Add(request.path, std::move(writer));
      },
      opts);
  ASSERT_TRUE(server.Start().ok());

  auto sock = ConnectTcp("127.0.0.1", server.port(), 10.0);
  ASSERT_TRUE(sock.ok());
  std::string wire;
  for (size_t i = 0; i < kPipelined; ++i) {
    wire += "GET /r" + std::to_string(i) + " HTTP/1.1\r\n\r\n";
  }
  ASSERT_TRUE(SendAll(sock->fd(), wire.data(), wire.size()).ok());
  ASSERT_TRUE(stash.WaitFor(kPipelined));

  // Every request is admitted concurrently; nothing is on the wire yet.
  EXPECT_EQ(server.stats().inflight, kPipelined);

  // Complete in REVERSE request order, from this (non-loop) thread.
  {
    std::lock_guard<std::mutex> lock(stash.mu);
    for (size_t i = stash.writers.size(); i-- > 0;) {
      HttpResponse resp;
      resp.body = "answer " + stash.writers[i].first;
      stash.writers[i].second.Complete(resp);
    }
  }

  // Bytes on the wire must be in request order regardless.
  auto responses = ReadResponses(sock->fd(), kPipelined);
  ASSERT_EQ(responses.size(), kPipelined);
  for (size_t i = 0; i < kPipelined; ++i) {
    EXPECT_EQ(responses[i].first, 200);
    EXPECT_EQ(responses[i].second, "answer /r" + std::to_string(i));
  }

  server.Stop();
  HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_total, kPipelined);
  EXPECT_EQ(stats.responses_total, kPipelined);
  EXPECT_EQ(stats.handled, kPipelined);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(HttpAsyncTest, InflightExceedsEventLoops) {
  // Two event loops, eight parked requests: the continuation path must
  // carry all eight in flight at once — a loop that held each request until
  // it was answered could never exceed 2.
  constexpr size_t kConcurrent = 8;
  WriterStash stash;
  HttpServerOptions opts;
  opts.num_workers = 2;
  HttpServer server(
      [&stash](const HttpRequest& request,
               HttpServer::ResponseWriter writer) {
        stash.Add(request.path, std::move(writer));
      },
      opts);
  ASSERT_TRUE(server.Start().ok());

  std::vector<Socket> socks;
  for (size_t i = 0; i < kConcurrent; ++i) {
    auto sock = ConnectTcp("127.0.0.1", server.port(), 10.0);
    ASSERT_TRUE(sock.ok());
    std::string wire = "GET /c" + std::to_string(i) + " HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(SendAll(sock->fd(), wire.data(), wire.size()).ok());
    socks.push_back(std::move(*sock));
  }
  ASSERT_TRUE(stash.WaitFor(kConcurrent));

  // The stash fills when the handler parks the writer, a moment before the
  // handler callback returns — poll until the last one has returned and
  // its request is accounted as parked.
  HttpServerStats mid = server.stats();
  for (int i = 0; i < 2000 && mid.async_pending != kConcurrent; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    mid = server.stats();
  }
  EXPECT_EQ(mid.inflight, kConcurrent);
  EXPECT_GE(mid.inflight_peak, kConcurrent);
  // All handlers have returned; the responses are parked asynchronously.
  EXPECT_EQ(mid.async_pending, kConcurrent);

  {
    std::lock_guard<std::mutex> lock(stash.mu);
    for (auto& [path, writer] : stash.writers) {
      HttpResponse resp;
      resp.body = "done " + path;
      writer.Complete(resp);
    }
  }
  for (size_t i = 0; i < kConcurrent; ++i) {
    auto responses = ReadResponses(socks[i].fd(), 1);
    ASSERT_EQ(responses.size(), 1u) << "connection " << i;
    EXPECT_EQ(responses[0].first, 200);
  }
  server.Stop();
  HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.handled, kConcurrent);
  EXPECT_EQ(stats.async_pending, 0u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(HttpAsyncTest, DrainWaitsForAsyncPendingResponse) {
  WriterStash stash;
  HttpServerOptions opts;
  opts.num_workers = 1;
  opts.drain_timeout_seconds = 10.0;
  HttpServer server(
      [&stash](const HttpRequest& request,
               HttpServer::ResponseWriter writer) {
        stash.Add(request.path, std::move(writer));
      },
      opts);
  ASSERT_TRUE(server.Start().ok());

  auto sock = ConnectTcp("127.0.0.1", server.port(), 10.0);
  ASSERT_TRUE(sock.ok());
  std::string wire = "GET /slow HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(SendAll(sock->fd(), wire.data(), wire.size()).ok());
  ASSERT_TRUE(stash.WaitFor(1));

  // Complete from another thread WHILE Stop() is draining.
  std::thread completer([&stash] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    HttpResponse resp;
    resp.body = "late but delivered";
    std::lock_guard<std::mutex> lock(stash.mu);
    stash.writers[0].second.Complete(resp);
  });
  server.Stop();  // must block until the parked response went out
  completer.join();

  auto responses = ReadResponses(sock->fd(), 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].first, 200);
  EXPECT_EQ(responses[0].second, "late but delivered");
  EXPECT_EQ(server.stats().handled, 1u);
}

TEST(HttpAsyncTest, DroppedWriterAnswers500) {
  HttpServer server(
      [](const HttpRequest&, HttpServer::ResponseWriter) {
        // Writer dropped without completing: the server must answer 500
        // rather than wedge the connection and leak the admission slot.
      });
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());
  Result<HttpResponse> resp = client.Get("/oops");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 500);
  EXPECT_NE(resp->body.find("dropped"), std::string::npos);

  // The slot was released: the next request is served normally.
  Result<HttpResponse> again = client.Get("/again");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->status, 500);
  server.Stop();
  EXPECT_EQ(server.stats().inflight, 0u);
  EXPECT_EQ(server.stats().handled, 2u);
}

TEST(HttpAsyncTest, CompleteIsOneShot) {
  WriterStash stash;
  HttpServerOptions opts;
  opts.num_workers = 1;
  HttpServer server(
      [&stash](const HttpRequest& request,
               HttpServer::ResponseWriter writer) {
        // Keep a copy AND complete inline: the copy's destruction and any
        // further Complete() calls must all be no-ops.
        stash.Add(request.path, writer);
        HttpResponse resp;
        resp.body = "first";
        writer.Complete(resp);
        EXPECT_TRUE(writer.completed());
      },
      opts);
  ASSERT_TRUE(server.Start().ok());

  HttpClient client("127.0.0.1", server.port());
  Result<HttpResponse> resp = client.Get("/once");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->body, "first");
  ASSERT_TRUE(stash.WaitFor(1));
  {
    std::lock_guard<std::mutex> lock(stash.mu);
    HttpResponse dup;
    dup.body = "second";
    stash.writers[0].second.Complete(dup);  // ignored
  }
  Result<HttpResponse> next = client.Get("/n");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->body, "first");

  server.Stop();
  EXPECT_EQ(server.stats().handled, 2u);
  EXPECT_EQ(server.stats().responses_total, 2u);
}

TEST(HttpAsyncTest, CompletionAfterStopIsDroppedSafely) {
  WriterStash stash;
  HttpServerOptions opts;
  opts.num_workers = 1;
  opts.drain_timeout_seconds = 0.05;  // force-stop quickly
  auto server = std::make_unique<HttpServer>(
      [&stash](const HttpRequest& request,
               HttpServer::ResponseWriter writer) {
        stash.Add(request.path, std::move(writer));
      },
      opts);
  ASSERT_TRUE(server->Start().ok());

  auto sock = ConnectTcp("127.0.0.1", server->port(), 10.0);
  ASSERT_TRUE(sock.ok());
  std::string wire = "GET /never HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(SendAll(sock->fd(), wire.data(), wire.size()).ok());
  ASSERT_TRUE(stash.WaitFor(1));

  server->Stop();     // drain times out; the connection is force-closed
  server.reset();     // server object fully gone
  HttpResponse resp;  // completing now must be a safe no-op
  resp.body = "into the void";
  std::lock_guard<std::mutex> lock(stash.mu);
  stash.writers[0].second.Complete(resp);
  stash.writers.clear();  // ~WriterState path is safe too
}

}  // namespace
}  // namespace rafiki::net
