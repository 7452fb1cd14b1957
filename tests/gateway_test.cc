#include "rafiki/gateway.h"

#include <atomic>
#include <future>
#include <thread>
#include <utility>

#include "common/string_util.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "net/http_server.h"
#include "rafiki/http_gateway.h"
#include "serving/rl_scheduler.h"
#include "support/http_client.h"

namespace rafiki::api {
namespace {

class GatewayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::SyntheticTaskOptions task;
    task.num_classes = 3;
    task.samples_per_class = 50;
    task.input_dim = 8;
    task.separation = 5.0;
    dataset_ = data::MakeSyntheticTask(task);
    ASSERT_TRUE(rafiki_.ImportDataset("t", dataset_).ok());
  }

  /// Extracts "key=..." from a response body.
  static std::string Field(const std::string& body, const std::string& key) {
    for (const std::string& pair : Split(body, '&')) {
      if (StartsWith(pair, key + "=")) return pair.substr(key.size() + 1);
    }
    return "";
  }

  Rafiki rafiki_;
  Gateway gateway_{&rafiki_};
  data::Dataset dataset_;
};

TEST_F(GatewayTest, ParseBasics) {
  auto r = Gateway::Parse("POST /train dataset=t&trials=4\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->method, "POST");
  EXPECT_EQ(r->path, "/train");
  EXPECT_EQ(r->params.at("dataset"), "t");
  EXPECT_EQ(r->params.at("trials"), "4");

  auto q = Gateway::Parse("POST /query?job=infer1\n0.5,1.5");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->path, "/query");
  EXPECT_EQ(q->params.at("job"), "infer1");
  EXPECT_EQ(q->body, "0.5,1.5");
}

TEST_F(GatewayTest, ParseRejectsMalformed) {
  EXPECT_FALSE(Gateway::Parse("").ok());
  EXPECT_FALSE(Gateway::Parse("GET").ok());
  EXPECT_FALSE(Gateway::Parse("GET nopath").ok());
  EXPECT_FALSE(Gateway::Parse("GET /x badparam").ok());
}

TEST_F(GatewayTest, ParseStripsTrailingCarriageReturn) {
  // CRLF request lines (what a real socket front-end sends) must not leak
  // '\r' into paths or parameter values.
  auto r = Gateway::Parse("POST /train dataset=t&trials=4\r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->path, "/train");
  EXPECT_EQ(r->params.at("trials"), "4");

  auto q = Gateway::Parse("GET /jobs/job0\r\n");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->path, "/jobs/job0");

  // Headless CRLF request (no body line).
  auto h = Gateway::Parse("GET /jobs/job0\r");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->path, "/jobs/job0");
}

TEST_F(GatewayTest, UnknownRouteIs404) {
  EXPECT_EQ(gateway_.Handle("GET /nope").status, 404);
  EXPECT_EQ(gateway_.Handle("POST /nope").status, 404);
}

TEST_F(GatewayTest, WrongMethodOnKnownPathIs405) {
  EXPECT_EQ(gateway_.Handle("POST /jobs/x").status, 405);
  EXPECT_EQ(gateway_.Handle("DELETE /jobs/x/metrics").status, 405);
  EXPECT_EQ(gateway_.Handle("GET /train dataset=t").status, 405);
  EXPECT_EQ(gateway_.Handle("GET /deploy job=x").status, 405);
  EXPECT_EQ(gateway_.Handle("GET /query job=x").status, 405);
  EXPECT_EQ(gateway_.Handle("PUT /undeploy job=x").status, 405);
}

TEST_F(GatewayTest, PercentDecodesParams) {
  auto r = Gateway::Parse("POST /train dataset=my%2Fset&note=a+b%21\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->params.at("dataset"), "my/set");
  EXPECT_EQ(r->params.at("note"), "a b!");
  // '+' decodes to space only in values; keys decode %XX too.
  auto k = Gateway::Parse("GET /jobs/j %6aob=x\n");
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(k->params.at("job"), "x");
}

TEST_F(GatewayTest, OversizedRequestsAre413) {
  std::string long_line =
      "GET /jobs/" + std::string(Gateway::kMaxRequestLine, 'x');
  EXPECT_EQ(gateway_.Handle(long_line).status, 413);
  std::string big_body = "POST /query job=x\n" +
                         std::string(Gateway::kMaxBodyBytes + 1, '1');
  EXPECT_EQ(gateway_.Handle(big_body).status, 413);
  // At the cap is still fine (parses, fails later on the bad feature list).
  std::string ok_body = "POST /query job=x\n" +
                        std::string(Gateway::kMaxBodyBytes, '1');
  EXPECT_NE(gateway_.Handle(ok_body).status, 413);
}

TEST_F(GatewayTest, TrainValidation) {
  EXPECT_EQ(gateway_.Handle("POST /train trials=4").status, 400);
  EXPECT_EQ(gateway_.Handle("POST /train dataset=ghost").status, 404);
  EXPECT_EQ(
      gateway_.Handle("POST /train dataset=t&advisor=alien").status, 400);
  EXPECT_EQ(gateway_.Handle("POST /train dataset=t&trials=-2").status, 400);
}

TEST_F(GatewayTest, TrainRejectsNonNumericAndBadRanges) {
  // strtoll without end-pointer checking used to turn these into 0
  // silently; they must be 400s.
  EXPECT_EQ(gateway_.Handle("POST /train dataset=t&trials=abc").status, 400);
  EXPECT_EQ(gateway_.Handle("POST /train dataset=t&trials=4x").status, 400);
  EXPECT_EQ(gateway_.Handle("POST /train dataset=t&epochs=abc").status, 400);
  EXPECT_EQ(gateway_.Handle("POST /train dataset=t&epochs=0").status, 400);
  EXPECT_EQ(gateway_.Handle("POST /train dataset=t&epochs=-3").status, 400);
  EXPECT_EQ(gateway_.Handle("POST /train dataset=t&workers=two").status, 400);
  EXPECT_EQ(gateway_.Handle("POST /train dataset=t&seed=1.5").status, 400);
  EXPECT_EQ(gateway_.Handle("POST /train dataset=t&trials=").status, 400);
  EXPECT_EQ(
      gateway_.Handle("POST /train dataset=t&trials=99999999999999999999")
          .status,
      400);
}

TEST_F(GatewayTest, FullLifecycleOverTheWireProtocol) {
  // The Figure 18 surface end-to-end: train -> poll -> deploy -> query ->
  // undeploy, all through request strings.
  GatewayResponse train = gateway_.Handle(
      "POST /train dataset=t&trials=4&epochs=6&workers=2&advisor=random");
  ASSERT_EQ(train.status, 200) << train.body;
  std::string job = Field(train.body, "job_id");
  ASSERT_FALSE(job.empty());

  // Poll until done.
  GatewayResponse info{0, ""};
  for (int i = 0; i < 20000; ++i) {
    info = gateway_.Handle("GET /jobs/" + job);
    ASSERT_EQ(info.status, 200) << info.body;
    if (Field(info.body, "done") == "1") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(Field(info.body, "done"), "1");
  EXPECT_EQ(Field(info.body, "trials"), "4");

  GatewayResponse deploy = gateway_.Handle("POST /deploy job=" + job);
  ASSERT_EQ(deploy.status, 200) << deploy.body;
  std::string infer = Field(deploy.body, "job_id");

  // Query the first dataset row through the text body.
  std::vector<std::string> fields;
  for (int64_t i = 0; i < dataset_.x.dim(1); ++i) {
    fields.push_back(std::to_string(dataset_.x.at(i)));
  }
  GatewayResponse query = gateway_.Handle("POST /query job=" + infer + "\n" +
                                          Join(fields, ","));
  ASSERT_EQ(query.status, 200) << query.body;
  std::string label = Field(query.body, "label");
  EXPECT_FALSE(label.empty());
  EXPECT_GE(std::stoi(label), 0);
  EXPECT_LT(std::stoi(label), 3);

  EXPECT_EQ(gateway_.Handle("POST /undeploy job=" + infer).status, 200);
  EXPECT_EQ(gateway_.Handle("POST /undeploy job=" + infer).status, 404);
  EXPECT_EQ(gateway_.Handle("POST /query job=" + infer + "\n1,2").status,
            404);
}

TEST_F(GatewayTest, QueryValidation) {
  EXPECT_EQ(gateway_.Handle("POST /query job=ghost\n1,2").status, 404);
  EXPECT_EQ(gateway_.Handle("POST /query job=x").status, 400);  // no body
  // Bad floats rejected before dispatch.
  EXPECT_EQ(gateway_.Handle("POST /query job=x\nabc,def").status, 400);
  EXPECT_EQ(gateway_.Handle("POST /query job=x\n1,,2").status, 400);
}

TEST_F(GatewayTest, DeployValidation) {
  EXPECT_EQ(gateway_.Handle("POST /deploy").status, 400);
  EXPECT_EQ(gateway_.Handle("POST /deploy job=ghost").status, 404);
}

TEST_F(GatewayTest, InferenceMetricsRoute) {
  // Deploy straight from a hand-built PS checkpoint (no training needed).
  ps::ModelCheckpoint ckpt;
  Tensor weight({4, 3});
  for (int64_t i = 0; i < 3; ++i) weight.at2(i, i) = 1.0f;
  ckpt.params.emplace_back("fc0/weight", weight);
  ckpt.params.emplace_back("fc0/bias", Tensor({1, 3}));
  ckpt.meta.accuracy = 0.9;
  ASSERT_TRUE(
      rafiki_.parameter_server().PutModel("study/fake/best", ckpt).ok());
  ModelHandle handle;
  handle.scope = "study/fake/best";
  handle.model_name = "mlp";
  handle.accuracy = 0.9;
  auto deployed = rafiki_.Deploy({handle});
  ASSERT_TRUE(deployed.ok());
  std::string infer = *deployed;

  // Fresh job: zero counters over the wire.
  GatewayResponse empty = gateway_.Handle("GET /jobs/" + infer + "/metrics");
  ASSERT_EQ(empty.status, 200) << empty.body;
  EXPECT_EQ(Field(empty.body, "arrived"), "0");

  GatewayResponse query =
      gateway_.Handle("POST /query job=" + infer + "\n0,1,0,0");
  ASSERT_EQ(query.status, 200) << query.body;
  EXPECT_EQ(Field(query.body, "label"), "1");

  GatewayResponse metrics = gateway_.Handle("GET /jobs/" + infer + "/metrics");
  ASSERT_EQ(metrics.status, 200) << metrics.body;
  EXPECT_EQ(Field(metrics.body, "arrived"), "1");
  EXPECT_EQ(Field(metrics.body, "processed"), "1");
  EXPECT_EQ(Field(metrics.body, "dropped"), "0");
  EXPECT_FALSE(Field(metrics.body, "mean_latency").empty());
  EXPECT_EQ(Field(metrics.body, "queue"), "0");
  // One processed request: every percentile equals that one latency.
  EXPECT_FALSE(Field(metrics.body, "p50").empty());
  EXPECT_EQ(Field(metrics.body, "p50"), Field(metrics.body, "p99"));
  EXPECT_GT(std::stod(Field(metrics.body, "p50")), 0.0);

  EXPECT_EQ(gateway_.Handle("GET /jobs/ghost/metrics").status, 404);
  EXPECT_EQ(gateway_.Handle("POST /undeploy job=" + infer).status, 200);
  EXPECT_EQ(gateway_.Handle("GET /jobs/" + infer + "/metrics").status, 404);
}

TEST_F(GatewayTest, JobScopedQueryRoute) {
  ps::ModelCheckpoint ckpt;
  Tensor weight({4, 3});
  for (int64_t i = 0; i < 3; ++i) weight.at2(i, i) = 1.0f;
  ckpt.params.emplace_back("fc0/weight", weight);
  ckpt.params.emplace_back("fc0/bias", Tensor({1, 3}));
  ckpt.meta.accuracy = 0.9;
  ASSERT_TRUE(
      rafiki_.parameter_server().PutModel("study/fake/best", ckpt).ok());
  ModelHandle handle;
  handle.scope = "study/fake/best";
  handle.model_name = "mlp";
  handle.accuracy = 0.9;
  auto deployed = rafiki_.Deploy({handle});
  ASSERT_TRUE(deployed.ok());

  // POST /jobs/<id>/query is the same data plane as POST /query?job=<id>.
  GatewayResponse query =
      gateway_.Handle("POST /jobs/" + *deployed + "/query\n0,1,0,0");
  ASSERT_EQ(query.status, 200) << query.body;
  EXPECT_EQ(Field(query.body, "label"), "1");

  EXPECT_EQ(gateway_.Handle("GET /jobs/" + *deployed + "/query").status,
            405);
  EXPECT_EQ(gateway_.Handle("POST /jobs//query\n0,1,0,0").status, 400);
  EXPECT_EQ(gateway_.Handle("POST /jobs/ghost/query\n0,1,0,0").status, 404);
  ASSERT_TRUE(rafiki_.Undeploy(*deployed).ok());
}

TEST_F(GatewayTest, DispatchAsyncCompletesQueryFromDispatcherThread) {
  ps::ModelCheckpoint ckpt;
  Tensor weight({4, 3});
  for (int64_t i = 0; i < 3; ++i) weight.at2(i, i) = 1.0f;
  ckpt.params.emplace_back("fc0/weight", weight);
  ckpt.params.emplace_back("fc0/bias", Tensor({1, 3}));
  ckpt.meta.accuracy = 0.9;
  ASSERT_TRUE(
      rafiki_.parameter_server().PutModel("study/fake/best", ckpt).ok());
  ModelHandle handle;
  handle.scope = "study/fake/best";
  handle.model_name = "mlp";
  handle.accuracy = 0.9;
  auto deployed = rafiki_.Deploy({handle});
  ASSERT_TRUE(deployed.ok());

  auto parsed = Gateway::Parse("POST /query job=" + *deployed + "\n0,0,1,0");
  ASSERT_TRUE(parsed.ok());
  std::promise<GatewayResponse> promise;
  std::future<GatewayResponse> future = promise.get_future();
  gateway_.DispatchAsync(*parsed, [&promise](GatewayResponse response) {
    promise.set_value(std::move(response));
  });
  GatewayResponse response = future.get();
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(Field(response.body, "label"), "2");

  // Control-plane routes complete inline (same answers as Dispatch).
  auto metrics_req =
      Gateway::Parse("GET /jobs/" + *deployed + "/metrics\n");
  ASSERT_TRUE(metrics_req.ok());
  GatewayResponse metrics;
  gateway_.DispatchAsync(*metrics_req, [&metrics](GatewayResponse r) {
    metrics = std::move(r);
  });
  EXPECT_EQ(metrics.status, 200) << metrics.body;
  EXPECT_EQ(Field(metrics.body, "processed"), "1");
  EXPECT_EQ(Field(metrics.body, "expired"), "0");

  // Async submission errors answer inline too: unknown job is a 404.
  auto ghost = Gateway::Parse("POST /query job=ghost\n1,2");
  ASSERT_TRUE(ghost.ok());
  GatewayResponse ghost_resp;
  gateway_.DispatchAsync(*ghost, [&ghost_resp](GatewayResponse r) {
    ghost_resp = std::move(r);
  });
  EXPECT_EQ(ghost_resp.status, 404);

  // Control POSTs block (undeploy joins the job's dispatchers), so they
  // complete on the gateway's control thread, never the caller's.
  auto undeploy = Gateway::Parse("POST /undeploy job=" + *deployed);
  ASSERT_TRUE(undeploy.ok());
  std::atomic<int> undeploy_calls{0};
  std::promise<std::pair<GatewayResponse, std::thread::id>> undeployed;
  gateway_.DispatchAsync(*undeploy, [&](GatewayResponse r) {
    if (undeploy_calls.fetch_add(1) == 0) {
      undeployed.set_value({std::move(r), std::this_thread::get_id()});
    }
  });
  auto [undeploy_resp, undeploy_thread] = undeployed.get_future().get();
  EXPECT_EQ(undeploy_resp.status, 200) << undeploy_resp.body;
  EXPECT_NE(undeploy_thread, std::this_thread::get_id());
  EXPECT_TRUE(rafiki_.InferenceMetrics(*deployed).status().IsNotFound());
  EXPECT_EQ(undeploy_calls.load(), 1);
}

TEST_F(GatewayTest, QueueDeadlineMapsTo504) {
  ps::ModelCheckpoint ckpt;
  Tensor weight({4, 3});
  for (int64_t i = 0; i < 3; ++i) weight.at2(i, i) = 1.0f;
  ckpt.params.emplace_back("fc0/weight", weight);
  ckpt.params.emplace_back("fc0/bias", Tensor({1, 3}));
  ckpt.meta.accuracy = 0.9;
  ASSERT_TRUE(
      rafiki_.parameter_server().PutModel("study/fake/best", ckpt).ok());
  ModelHandle handle;
  handle.scope = "study/fake/best";
  handle.model_name = "mlp";
  handle.accuracy = 0.9;
  serving::RuntimeOptions options;
  options.tau = 1e-9;  // unmeetable: every query expires in the queue
  options.expire_overdue = true;
  options.calibrate = false;
  auto deployed = rafiki_.Deploy({handle}, options);
  ASSERT_TRUE(deployed.ok());

  // Sync path: the gateway maps kDeadlineExceeded to HTTP 504.
  GatewayResponse sync_resp =
      gateway_.Handle("POST /query job=" + *deployed + "\n0,1,0,0");
  EXPECT_EQ(sync_resp.status, 504) << sync_resp.body;

  // Async path: same mapping through the continuation.
  auto parsed = Gateway::Parse("POST /jobs/" + *deployed + "/query\n0,1,0,0");
  ASSERT_TRUE(parsed.ok());
  std::promise<GatewayResponse> promise;
  std::future<GatewayResponse> future = promise.get_future();
  gateway_.DispatchAsync(*parsed, [&promise](GatewayResponse response) {
    promise.set_value(std::move(response));
  });
  EXPECT_EQ(future.get().status, 504);

  GatewayResponse metrics =
      gateway_.Handle("GET /jobs/" + *deployed + "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_EQ(Field(metrics.body, "expired"), "2");
  EXPECT_EQ(Field(metrics.body, "processed"), "0");
  ASSERT_TRUE(rafiki_.Undeploy(*deployed).ok());
}

TEST_F(GatewayTest, DeployPolicyParamValidatedBeforeJobLookup) {
  // A bad policy is a 400 even for an unknown job; a good one falls
  // through to the normal 404.
  EXPECT_EQ(gateway_.Handle("POST /deploy job=ghost&policy=bogus").status,
            400);
  EXPECT_EQ(gateway_.Handle("POST /deploy job=ghost&policy=rl").status, 404);
  EXPECT_EQ(gateway_.Handle("POST /deploy job=ghost&policy=greedy").status,
            404);
}

TEST_F(GatewayTest, MetricsExposePolicyGauges) {
  ps::ModelCheckpoint ckpt;
  Tensor weight({4, 3});
  for (int64_t i = 0; i < 3; ++i) weight.at2(i, i) = 1.0f;
  ckpt.params.emplace_back("fc0/weight", weight);
  ckpt.params.emplace_back("fc0/bias", Tensor({1, 3}));
  ckpt.meta.accuracy = 0.9;
  ASSERT_TRUE(
      rafiki_.parameter_server().PutModel("study/fake/best", ckpt).ok());
  ModelHandle handle;
  handle.scope = "study/fake/best";
  handle.model_name = "mlp";
  handle.accuracy = 0.9;
  serving::RuntimeOptions options;
  options.policy_factory = serving::MakeRlSchedulerFactory();
  auto deployed = rafiki_.Deploy({handle}, options);
  ASSERT_TRUE(deployed.ok());

  GatewayResponse query =
      gateway_.Handle("POST /query job=" + *deployed + "\n0,1,0,0");
  ASSERT_EQ(query.status, 200) << query.body;

  GatewayResponse metrics =
      gateway_.Handle("GET /jobs/" + *deployed + "/metrics");
  ASSERT_EQ(metrics.status, 200) << metrics.body;
  EXPECT_EQ(Field(metrics.body, "policy"), "rl");
  EXPECT_EQ(Field(metrics.body, "learn_steps"), "1");
  EXPECT_GT(std::stod(Field(metrics.body, "reward")), 0.0);
  EXPECT_NEAR(std::stod(Field(metrics.body, "accuracy_sum")), 0.9, 1e-6);
  EXPECT_EQ(Field(metrics.body, "reward_overdue"), "0");
  EXPECT_EQ(Field(metrics.body, "reward_pending"), "0");
  ASSERT_TRUE(rafiki_.Undeploy(*deployed).ok());
}

TEST_F(GatewayTest, HttpAdapterMapsQueueDeadlineTo504) {
  // The queue deadline surfaces as HTTP 504 through the front-door handler
  // over a real server + client round trip, as it does through Handle().
  ps::ModelCheckpoint ckpt;
  Tensor weight({4, 3});
  for (int64_t i = 0; i < 3; ++i) weight.at2(i, i) = 1.0f;
  ckpt.params.emplace_back("fc0/weight", weight);
  ckpt.params.emplace_back("fc0/bias", Tensor({1, 3}));
  ckpt.meta.accuracy = 0.9;
  ASSERT_TRUE(
      rafiki_.parameter_server().PutModel("study/fake/best", ckpt).ok());
  ModelHandle handle;
  handle.scope = "study/fake/best";
  handle.model_name = "mlp";
  handle.accuracy = 0.9;
  serving::RuntimeOptions options;
  options.tau = 1e-9;  // unmeetable: every query expires in the queue
  options.expire_overdue = true;
  options.calibrate = false;
  auto deployed = rafiki_.Deploy({handle}, options);
  ASSERT_TRUE(deployed.ok());
  const std::string target = "/query?job=" + *deployed;

  net::HttpServerOptions opts;
  opts.port = 0;
  opts.num_workers = 1;
  {
    net::HttpServer server(MakeGatewayAsyncHttpHandler(&gateway_), opts);
    ASSERT_TRUE(server.Start().ok());
    net::HttpClient client("127.0.0.1", server.port());
    auto status = client.RequestView("POST", target, "0,1,0,0");
    ASSERT_TRUE(status.ok()) << status.status().ToString();
    EXPECT_EQ(*status, 504) << client.body();
    server.Stop();
  }

  GatewayResponse metrics =
      gateway_.Handle("GET /jobs/" + *deployed + "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_EQ(Field(metrics.body, "expired"), "1");
  ASSERT_TRUE(rafiki_.Undeploy(*deployed).ok());
}

TEST_F(GatewayTest, ClusterMetricsRoute) {
  // Idle facade: the route answers with zeroed worker/ledger gauges.
  GatewayResponse idle = gateway_.Handle("GET /cluster/metrics");
  ASSERT_EQ(idle.status, 200) << idle.body;
  EXPECT_EQ(Field(idle.body, "workers_total"), "0");
  EXPECT_EQ(Field(idle.body, "trials_proposed"), "0");
  EXPECT_NE(Field(idle.body, "bus_endpoints"), "");
  EXPECT_EQ(gateway_.Handle("POST /cluster/metrics").status, 405);

  // A finished study leaves its worker containers and ledger visible.
  GatewayResponse train = gateway_.Handle(
      "POST /train dataset=t&trials=4&epochs=10&workers=2");
  ASSERT_EQ(train.status, 200);
  std::string job = Field(train.body, "job_id");
  for (int i = 0; i < 20000; ++i) {
    if (Field(gateway_.Handle("GET /jobs/" + job).body, "done") == "1") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  GatewayResponse after = gateway_.Handle("GET /cluster/metrics");
  ASSERT_EQ(after.status, 200) << after.body;
  EXPECT_EQ(Field(after.body, "workers_total"), "2");
  EXPECT_EQ(Field(after.body, "trials_proposed"), "4");
  EXPECT_EQ(Field(after.body, "trials_completed"), "4");
  EXPECT_EQ(Field(after.body, "trials_active"), "0");
}

TEST_F(GatewayTest, StatusMapping) {
  // FailedPrecondition (job still training) maps to 409.
  GatewayResponse train = gateway_.Handle(
      "POST /train dataset=t&trials=8&epochs=10&workers=1");
  ASSERT_EQ(train.status, 200);
  std::string job = Field(train.body, "job_id");
  GatewayResponse deploy = gateway_.Handle("POST /deploy job=" + job);
  // Either it already finished (200) or it's mid-training (409).
  EXPECT_TRUE(deploy.status == 200 || deploy.status == 409) << deploy.body;
  // Drain the job so the fixture tears down cleanly.
  for (int i = 0; i < 20000; ++i) {
    if (Field(gateway_.Handle("GET /jobs/" + job).body, "done") == "1") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace
}  // namespace rafiki::api
