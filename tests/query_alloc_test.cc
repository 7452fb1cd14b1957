// Counts heap allocations on the query path: steady-state keep-alive
// `POST /jobs/<id>/query` through HttpServer, MakeGatewayAsyncHttpHandler,
// Gateway, Rafiki and InferenceRuntime, with the dispatcher's forward, vote
// and answer formatting, and the owning loop's completion, in two setups:
//   * B = {1} with one client: one request per batch;
//   * B = {32} with 32 clients on two event loops: 32 requests per batch,
//     every completion posted back to its loop from the dispatcher.
//
// The hook is the same global operator new/delete counter as
// http_echo_alloc_test.cc. The armed window covers hundreds of complete
// round trips after a warmup that sizes every pool: the slot arenas, the
// runtime's pooled rows and queue ring, the dispatcher's scratch (batch,
// input tensor, one nn::Workspace per model, argmax and vote buffers,
// answers) and the per-loop feature buffer. None of them grows with
// timing: a batch's rows go back to the pool before its answers go out, so
// the pool never holds more rows than the queue did, and each loop's
// mailbox is reserved for max_inflight completions when the server starts.
//
// What is left: nothing. The writer's state lives in the slot, and the
// continuation the runtime holds is one raw pointer inside std::function's
// inline buffer, so the pinned count is zero in both setups.

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/http.h"
#include "net/http_server.h"
#include "rafiki/gateway.h"
#include "rafiki/http_gateway.h"
#include "rafiki/rafiki.h"
#include "support/blocking_socket.h"
#include "support/http_client.h"

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

// Deploy's std::stable_sort takes its buffer from the nothrow form and
// returns it through plain operator delete, so that form must come from
// malloc too (AddressSanitizer reports the mismatch otherwise).
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  CountAlloc();
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  CountAlloc();
  return std::malloc(size ? size : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rafiki::api {
namespace {

/// Allocations per query the path may make in each setup.
constexpr long kAllocsPerQuerySingle = 0;
constexpr long kAllocsPerQueryBatch32 = 0;

/// A deployed 4 -> 3 identity MLP: features "1,0,0,0" answer label 0.
class QueryAllocTest : public ::testing::Test {
 protected:
  void Deploy(std::vector<int64_t> batch_sizes) {
    ps::ModelCheckpoint ckpt;
    Tensor weight({4, 3});
    for (int64_t i = 0; i < 3; ++i) weight.at2(i, i) = 1.0f;
    ckpt.params.emplace_back("fc0/weight", weight);
    ckpt.params.emplace_back("fc0/bias", Tensor({1, 3}));
    ckpt.meta.accuracy = 0.9;
    ASSERT_TRUE(rafiki_.parameter_server().PutModel("alloc/tiny", ckpt).ok());
    serving::RuntimeOptions options;
    options.batch_sizes = std::move(batch_sizes);
    // A full batch of 32 forms as soon as the 32th request lands; a long
    // tau keeps Algorithm 3 from flushing a partial one meanwhile.
    options.tau = 1.0;
    Result<std::string> job =
        rafiki_.Deploy({ModelHandle{"alloc/tiny", "mlp", 0.9}}, options);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    job_ = *job;
  }

  void StartServer(int workers) {
    net::HttpServerOptions opts;
    opts.num_workers = workers;
    opts.max_inflight = 256;
    server_ = std::make_unique<net::HttpServer>(
        MakeGatewayAsyncHttpHandler(&gateway_), opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  Rafiki rafiki_;
  Gateway gateway_{&rafiki_};
  std::string job_;
  std::unique_ptr<net::HttpServer> server_;
};

TEST_F(QueryAllocTest, SingleClientBatchOfOne) {
  Deploy({1});
  StartServer(1);
  net::HttpClient client("127.0.0.1", server_->port());
  const std::string target = "/jobs/" + job_ + "/query";
  const std::string body = "0,1,0,0";
  const std::string want = "label=1&votes=1\n";
  auto round = [&] {
    Result<int> status = client.RequestView("POST", target, body);
    return status.ok() && *status == 200 && client.body() == want;
  };
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(round()) << "warmup " << i;

  constexpr int kQueries = 500;
  int bad = 0;
  g_allocs.store(0);
  g_armed.store(true);
  for (int i = 0; i < kQueries; ++i) bad += round() ? 0 : 1;
  g_armed.store(false);
  long allocs = g_allocs.load();

  EXPECT_EQ(bad, 0);
  EXPECT_EQ(allocs, kAllocsPerQuerySingle * kQueries)
      << static_cast<double>(allocs) / kQueries << " allocations per query";
}

/// One keep-alive connection whose request is written whole and whose
/// response is parsed into capacity the warmup already sized.
struct Conn {
  net::Socket sock;
  std::string wire;
  net::HttpResponseParser parser;

  bool Send() {
    parser.Reset();
    return net::WriteFull(sock.fd(), wire.data(), wire.size()).ok();
  }
  bool Receive(const std::string& want) {
    char buf[512];
    while (!parser.done()) {
      Result<size_t> n = net::RecvSome(sock.fd(), buf, sizeof(buf));
      if (!n.ok() || *n == 0) return false;
      size_t off = 0;
      while (off < *n && !parser.done() && !parser.failed()) {
        off += parser.Feed(buf + off, *n - off);
      }
      if (parser.failed()) return false;
    }
    return parser.status() == 200 && parser.body() == want;
  }
};

TEST_F(QueryAllocTest, ThirtyTwoClientsFullBatches) {
  constexpr int kClients = 32;
  Deploy({32});
  StartServer(2);
  const std::string target = "/jobs/" + job_ + "/query";
  std::vector<Conn> conns(kClients);
  std::vector<std::string> want(kClients);
  for (int i = 0; i < kClients; ++i) {
    Result<net::Socket> sock =
        net::ConnectTcp("127.0.0.1", server_->port(), 10.0);
    ASSERT_TRUE(sock.ok()) << sock.status().ToString();
    conns[i].sock = std::move(*sock);
    int hot = i % 3;
    std::string body = std::string(hot == 0 ? "1" : "0") + "," +
                       (hot == 1 ? "1" : "0") + "," + (hot == 2 ? "1" : "0") +
                       ",0";
    conns[i].wire = net::SerializeRequest("POST", target, "127.0.0.1", body,
                                          /*keep_alive=*/true);
    want[i] = "label=" + std::to_string(hot) + "&votes=" +
              std::to_string(hot) + "\n";
  }
  // One round: every client sends, so the 32 requests form one batch, then
  // every client reads its answer.
  auto round = [&] {
    int bad = 0;
    for (Conn& c : conns) bad += c.Send() ? 0 : 1;
    for (int i = 0; i < kClients; ++i) bad += conns[i].Receive(want[i]) ? 0 : 1;
    return bad;
  };
  for (int r = 0; r < 40; ++r) ASSERT_EQ(round(), 0) << "warmup round " << r;

  constexpr int kRounds = 40;
  int bad = 0;
  g_allocs.store(0);
  g_armed.store(true);
  for (int r = 0; r < kRounds; ++r) bad += round();
  g_armed.store(false);
  long allocs = g_allocs.load();

  EXPECT_EQ(bad, 0);
  constexpr long kQueries = kRounds * kClients;
  EXPECT_EQ(allocs, kAllocsPerQueryBatch32 * kQueries)
      << static_cast<double>(allocs) / kQueries << " allocations per query";
  Result<serving::InferenceJobMetrics> m = rafiki_.InferenceMetrics(job_);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->max_batch, kClients);
}

}  // namespace
}  // namespace rafiki::api
