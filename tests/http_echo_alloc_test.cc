// Proves the tentpole zero-allocation property of the HTTP data plane:
// once one warmup pass has sized every pool — per-worker ResponseSlot
// arenas, the parser's string capacities, the inline-completion ring, the
// WriterState free list, and the client's wire/body buffers — a
// steady-state keep-alive echo round trip performs no heap allocations at
// all, on the server side or the client side.
//
// The proof is the same global operator new/delete hook as
// train_step_alloc_test.cc: allocations are counted while a flag is armed,
// and the armed window covers hundreds of complete request/response
// cycles through real sockets, the epoll loop, the handler, and the
// scatter-gather flush.

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "gtest/gtest.h"
#include "net/http_client.h"
#include "net/http_server.h"

namespace {

std::atomic<long> g_allocs{0};
std::atomic<bool> g_armed{false};

void CountAlloc() {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t size) {
  CountAlloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  CountAlloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rafiki::net {
namespace {

TEST(HttpEchoAllocTest, SteadyStateKeepAliveEchoIsAllocationFree) {
  HttpServerOptions opts;
  // Parse, handler, serialize, and flush all happen on the one worker
  // thread, so slot recycling is synchronous and the zero-allocation
  // property is deterministic.
  opts.num_workers = 1;
  opts.max_inflight = 64;
  // Null handler: echo the request body from the pooled slot, in place.
  HttpServer server(
      HttpServer::AsyncHandler(
          [](const HttpRequest& request, HttpServer::ResponseWriter writer) {
            HttpResponse& out = writer.response();
            out.status = 200;
            out.body.assign(request.body);
            writer.Complete(out);
          }),
      opts);
  ASSERT_TRUE(server.Start().ok());
  HttpClient client("127.0.0.1", server.port());
  const std::string body = "0,1,0,0,0,1,0,0";

  // Warmup: sizes every buffer on the path. A few hundred iterations also
  // let amortized growers (rings, flush lists) reach their plateau.
  for (int i = 0; i < 200; ++i) {
    Result<int> status = client.RequestView("POST", "/echo", body);
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    ASSERT_EQ(*status, 200);
    ASSERT_EQ(client.body(), body);
  }

  g_allocs.store(0);
  g_armed.store(true);
  int bad = 0;
  for (int i = 0; i < 400; ++i) {
    Result<int> status = client.RequestView("POST", "/echo", body);
    if (!status.ok() || *status != 200 || client.body() != body) ++bad;
  }
  g_armed.store(false);
  long allocs = g_allocs.load();

  EXPECT_EQ(bad, 0);
  EXPECT_EQ(allocs, 0)
      << "steady-state keep-alive echo allocated on the hot path";
  server.Stop();
  HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_total, 600u);
  EXPECT_EQ(stats.responses_total, 600u);
  EXPECT_EQ(stats.handled, 600u);
}

}  // namespace
}  // namespace rafiki::net
