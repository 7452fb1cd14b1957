#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "rafiki/http_gateway.h"

namespace rafiki::api {
namespace {

/// Extracts "key=..." from a key=value&key=value body (trailing newline
/// tolerated).
std::string Field(const std::string& body, const std::string& key) {
  for (const std::string& pair : Split(body, '&')) {
    std::string p = pair;
    while (!p.empty() && (p.back() == '\n' || p.back() == '\r')) p.pop_back();
    if (StartsWith(p, key + "=")) return p.substr(key.size() + 1);
  }
  return "";
}

TEST(HttpEndToEndTest, FullLifecycleOverRealTcp) {
  // The complete Figure 18 loop over an actual socket: import -> train ->
  // poll -> deploy -> query -> metrics -> undeploy, all through HTTP. Train,
  // deploy and undeploy cross the gateway's control thread; the query
  // completes from the job's dispatcher.
  Rafiki rafiki;
  data::SyntheticTaskOptions task;
  task.num_classes = 3;
  task.samples_per_class = 50;
  task.input_dim = 8;
  task.separation = 5.0;
  data::Dataset dataset = data::MakeSyntheticTask(task);
  ASSERT_TRUE(rafiki.ImportDataset("t", dataset).ok());

  Gateway gateway(&rafiki);
  net::HttpServerOptions opts;
  opts.num_workers = 2;
  net::HttpServer server(MakeGatewayAsyncHttpHandler(&gateway), opts);
  ASSERT_TRUE(server.Start().ok());

  net::HttpClient client("127.0.0.1", server.port());

  // Train.
  auto train = client.Post(
      "/train?dataset=t&trials=4&epochs=6&workers=2&advisor=random");
  ASSERT_TRUE(train.ok()) << train.status().ToString();
  ASSERT_EQ(train->status, 200) << train->body;
  std::string job = Field(train->body, "job_id");
  ASSERT_FALSE(job.empty());

  // Poll until done.
  std::string done;
  for (int i = 0; i < 20000 && done != "1"; ++i) {
    auto info = client.Get("/jobs/" + job);
    ASSERT_TRUE(info.ok());
    ASSERT_EQ(info->status, 200) << info->body;
    done = Field(info->body, "done");
    if (done != "1") {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_EQ(done, "1");

  // Deploy.
  auto deploy = client.Post("/deploy?job=" + job);
  ASSERT_TRUE(deploy.ok());
  ASSERT_EQ(deploy->status, 200) << deploy->body;
  std::string infer = Field(deploy->body, "job_id");
  ASSERT_FALSE(infer.empty());

  // Query the first dataset row; body carries the features.
  std::vector<std::string> fields;
  for (int64_t i = 0; i < dataset.x.dim(1); ++i) {
    fields.push_back(std::to_string(dataset.x.at(i)));
  }
  auto query = client.Post("/query?job=" + infer, Join(fields, ","));
  ASSERT_TRUE(query.ok());
  ASSERT_EQ(query->status, 200) << query->body;
  int label = std::stoi(Field(query->body, "label"));
  EXPECT_GE(label, 0);
  EXPECT_LT(label, 3);

  // Metrics reflect the query, including the new percentile fields.
  auto metrics = client.Get("/jobs/" + infer + "/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->status, 200) << metrics->body;
  EXPECT_EQ(Field(metrics->body, "arrived"), "1");
  EXPECT_EQ(Field(metrics->body, "processed"), "1");
  EXPECT_EQ(Field(metrics->body, "queue"), "0");
  EXPECT_FALSE(Field(metrics->body, "p99").empty());

  // Wrong method and unknown routes over the wire.
  auto wrong = client.Get("/train?dataset=t");
  ASSERT_TRUE(wrong.ok());
  EXPECT_EQ(wrong->status, 405);
  auto missing = client.Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);

  // Percent-encoded params decode before dispatch (ghost dataset -> 404
  // proves the decoded name reached the facade).
  auto encoded = client.Post("/train?dataset=gh%6Fst");
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->status, 404) << encoded->body;

  // Undeploy; double-undeploy is 404.
  auto undeploy = client.Post("/undeploy?job=" + infer);
  ASSERT_TRUE(undeploy.ok());
  EXPECT_EQ(undeploy->status, 200);
  auto again = client.Post("/undeploy?job=" + infer);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->status, 404);

  server.Stop();
  net::HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_total, stats.responses_total);
  EXPECT_EQ(stats.responses_total,
            stats.handled + stats.rejected_overload + stats.parse_errors +
                stats.rejected_draining);
}

TEST(HttpEndToEndTest, AsyncConcurrentSubmitStorm) {
  // 8 threads x 64 queries through the full continuation chain: epoll
  // server (async handler on 2 event loops) -> gateway DispatchAsync ->
  // InferenceRuntime::SubmitAsync -> batch completion -> ResponseWriter.
  // TSan runs this; it is the data-race canary for the whole async path.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 64;

  Rafiki rafiki;
  ps::ModelCheckpoint ckpt;
  Tensor weight({4, 3});
  for (int64_t i = 0; i < 3; ++i) weight.at2(i, i) = 1.0f;
  ckpt.params.emplace_back("fc0/weight", weight);
  ckpt.params.emplace_back("fc0/bias", Tensor({1, 3}));
  ckpt.meta.accuracy = 0.9;
  ASSERT_TRUE(
      rafiki.parameter_server().PutModel("study/fake/best", ckpt).ok());
  ModelHandle handle;
  handle.scope = "study/fake/best";
  handle.model_name = "mlp";
  handle.accuracy = 0.9;
  auto deployed = rafiki.Deploy({handle});
  ASSERT_TRUE(deployed.ok());
  std::string infer = *deployed;

  Gateway gateway(&rafiki);
  net::HttpServerOptions opts;
  opts.num_workers = 2;  // far fewer than concurrent queries
  opts.max_inflight = 1024;
  // Late-bound stats cell: the handler exists before the server it gauges.
  auto server_cell = std::make_shared<net::HttpServer*>(nullptr);
  net::HttpServer server(
      MakeGatewayAsyncHttpHandler(&gateway,
                                  [server_cell] {
                                    net::HttpServer* s = *server_cell;
                                    return s ? s->stats()
                                             : net::HttpServerStats{};
                                  }),
      opts);
  *server_cell = &server;
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> ok_count{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      net::HttpClient client("127.0.0.1", server.port());
      for (int i = 0; i < kPerThread; ++i) {
        int hot = (t + i) % 3;
        std::string body = StrFormat("%d,%d,%d,0", hot == 0 ? 1 : 0,
                                     hot == 1 ? 1 : 0, hot == 2 ? 1 : 0);
        auto resp = client.Post("/jobs/" + infer + "/query", body);
        if (!resp.ok() || resp->status != 200 ||
            Field(resp->body, "label") != std::to_string(hot)) {
          ++wrong;
          continue;
        }
        ++ok_count;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);

  auto metrics = rafiki.InferenceMetrics(infer);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->arrived, kThreads * kPerThread);
  EXPECT_EQ(metrics->processed, kThreads * kPerThread);
  EXPECT_EQ(metrics->dropped, 0);
  EXPECT_EQ(metrics->expired, 0);

  // The metrics route reports the front door's own gauges. The metrics
  // request itself is the only in-flight work: its handler is running and
  // nothing is parked async.
  net::HttpClient probe("127.0.0.1", server.port());
  auto gauges = probe.Get("/jobs/" + infer + "/metrics");
  ASSERT_TRUE(gauges.ok());
  ASSERT_EQ(gauges->status, 200) << gauges->body;
  EXPECT_EQ(Field(gauges->body, "expired"), "0");
  EXPECT_EQ(Field(gauges->body, "inflight"), "1");
  EXPECT_EQ(Field(gauges->body, "async_pending"), "0");
  EXPECT_FALSE(Field(gauges->body, "inflight_peak").empty());

  server.Stop();
  net::HttpServerStats stats = server.stats();
  // + 1: the gauge probe above.
  EXPECT_EQ(stats.requests_total,
            static_cast<uint64_t>(kThreads * kPerThread + 1));
  EXPECT_EQ(stats.requests_total, stats.responses_total);
  EXPECT_EQ(stats.handled, stats.responses_total);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.async_pending, 0u);
}

}  // namespace
}  // namespace rafiki::api
