// The live serving tier: concurrent Submit batching (Algorithm 3 on real
// requests), lifecycle safety (deploy/undeploy races), bounded-queue
// backpressure, and per-job metric conservation. The stress tests here are
// the ones the TSan CI matrix exists for.

#include "serving/inference_runtime.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "nn/layer.h"
#include "ps/parameter_server.h"
#include "rafiki/rafiki.h"
#include "serving/greedy_batch.h"
#include "serving/rl_scheduler.h"

namespace rafiki::serving {
namespace {

/// A deterministic servable: y = x W with W = I, so argmax(features) is the
/// predicted label. `negate` flips the sign (argmin wins) to build
/// disagreeing ensemble members.
ServableModel MakeIdentityModel(int64_t dim, double accuracy,
                                const std::string& name,
                                bool negate = false) {
  Rng rng(1);
  auto linear = std::make_unique<nn::Linear>(dim, dim, /*init_std=*/0.0f,
                                             rng, "fc0");
  Tensor& weight = linear->Params()[0]->value;
  for (int64_t i = 0; i < dim; ++i) {
    weight.at2(i, i) = negate ? -1.0f : 1.0f;
  }
  ServableModel model;
  model.net.Add(std::move(linear));
  model.accuracy = accuracy;
  model.name = name;
  return model;
}

Tensor OneHot(int64_t dim, int64_t hot) {
  Tensor t({1, dim});
  t.at(hot) = 1.0f;
  return t;
}

TEST(InferenceRuntimeTest, SingleSubmitServesCorrectLabel) {
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(4, 0.9, "id"));
  RuntimeOptions options;
  options.tau = 0.05;
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());

  auto submitted = runtime.Submit("j", OneHot(4, 2));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  Result<EnsemblePrediction> answer = submitted->get();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->label, 2);
  ASSERT_EQ(answer->votes.size(), 1u);
  EXPECT_EQ(answer->votes[0], 2);

  auto metrics = runtime.Metrics("j");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->arrived, 1);
  EXPECT_EQ(metrics->processed, 1);
  EXPECT_EQ(metrics->dropped, 0);
  EXPECT_GT(metrics->mean_latency, 0.0);
  ASSERT_TRUE(runtime.Undeploy("j").ok());
  EXPECT_TRUE(runtime.Metrics("j").status().IsNotFound());
}

TEST(InferenceRuntimeTest, SubmitValidatesShapeAndJob) {
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(4, 0.9, "id"));
  ASSERT_TRUE(runtime.Deploy("j", std::move(models)).ok());
  EXPECT_TRUE(runtime.Submit("ghost", OneHot(4, 0)).status().IsNotFound());
  EXPECT_TRUE(
      runtime.Submit("j", OneHot(7, 0)).status().IsInvalidArgument());
  Tensor rank3({2, 2, 2});
  EXPECT_TRUE(runtime.Submit("j", rank3).status().IsInvalidArgument());
  ASSERT_TRUE(runtime.Undeploy("j").ok());
}

TEST(InferenceRuntimeTest, BurstOfSubmitsFormsRealBatches) {
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(8, 0.9, "id"));
  RuntimeOptions options;
  options.tau = 0.25;  // roomy SLO so the whole burst queues before a flush
  options.batch_sizes = {1, 2, 4, 8, 16, 32};
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());

  constexpr int kRequests = 64;
  std::vector<std::future<Result<EnsemblePrediction>>> futures;
  for (int i = 0; i < kRequests; ++i) {
    auto submitted = runtime.Submit("j", OneHot(8, i % 8));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(*submitted));
  }
  for (int i = 0; i < kRequests; ++i) {
    Result<EnsemblePrediction> answer = futures[i].get();
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->label, i % 8) << "request " << i;
  }

  auto metrics = runtime.Metrics("j");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->arrived, kRequests);
  EXPECT_EQ(metrics->processed, kRequests);
  EXPECT_EQ(metrics->dropped, 0);
  // The point of the runtime: the burst is served in batches, not 64
  // single-request forwards.
  EXPECT_GT(metrics->max_batch, 1) << "no batching happened";
  EXPECT_LT(metrics->batches, kRequests);
  ASSERT_TRUE(runtime.Undeploy("j").ok());
}

TEST(InferenceRuntimeTest, ConcurrentSubmittersAllServedAndBatched) {
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(8, 0.9, "id"));
  RuntimeOptions options;
  options.tau = 0.05;  // tight SLO: partial batches flush on deadline
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int> correct{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&runtime, &correct, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int64_t hot = (t + i) % 8;
        auto submitted = runtime.Submit("j", OneHot(8, hot));
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        Result<EnsemblePrediction> answer = submitted->get();
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        if (answer->label == hot) ++correct;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(correct.load(), kThreads * kPerThread) << "wrong answers";

  auto metrics = runtime.Metrics("j");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->arrived, kThreads * kPerThread);
  EXPECT_EQ(metrics->processed, kThreads * kPerThread);  // nobody starved
  EXPECT_EQ(metrics->dropped, 0);
  // Concurrent waiters pile up while a deadline flush is pending, so real
  // multi-request batches must have formed.
  EXPECT_GT(metrics->max_batch, 1);
  EXPECT_GT(metrics->mean_batch, 1.0);
  ASSERT_TRUE(runtime.Undeploy("j").ok());
}

TEST(InferenceRuntimeTest, EnsembleMajorityVoteAndAccuracyTieBreak) {
  {
    // Two identity models outvote one negated model.
    InferenceRuntime runtime;
    std::vector<ServableModel> models;
    models.push_back(MakeIdentityModel(4, 0.6, "a"));
    models.push_back(MakeIdentityModel(4, 0.5, "b"));
    models.push_back(MakeIdentityModel(4, 0.9, "c", /*negate=*/true));
    ASSERT_TRUE(runtime.Deploy("e", std::move(models)).ok());
    auto submitted = runtime.Submit("e", OneHot(4, 1));
    ASSERT_TRUE(submitted.ok());
    Result<EnsemblePrediction> answer = submitted->get();
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer->label, 1);  // majority beats the accurate dissenter
    EXPECT_EQ(answer->votes.size(), 3u);
    ASSERT_TRUE(runtime.Undeploy("e").ok());
  }
  {
    // 1-1 tie: the paper's tie-break picks the more accurate model.
    InferenceRuntime runtime;
    std::vector<ServableModel> models;
    models.push_back(MakeIdentityModel(4, 0.5, "weak"));
    models.push_back(MakeIdentityModel(4, 0.9, "strong", /*negate=*/true));
    ASSERT_TRUE(runtime.Deploy("e", std::move(models)).ok());
    auto submitted = runtime.Submit("e", OneHot(4, 1));
    ASSERT_TRUE(submitted.ok());
    Result<EnsemblePrediction> answer = submitted->get();
    ASSERT_TRUE(answer.ok());
    // The negated identity ranks label 1 last; its argmax is 0.
    EXPECT_EQ(answer->label, 0) << "tie must break toward higher accuracy";
    ASSERT_TRUE(runtime.Undeploy("e").ok());
  }
}

TEST(InferenceRuntimeTest, BoundedQueueDropsWhenFull) {
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(4, 0.9, "id"));
  RuntimeOptions options;
  options.tau = 30.0;           // no deadline pressure during the test
  options.batch_sizes = {8, 16};  // min batch above capacity: nothing flushes
  options.queue_capacity = 4;
  options.calibrate = false;
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());

  std::vector<std::future<Result<EnsemblePrediction>>> queued;
  int rejected = 0;
  for (int i = 0; i < 6; ++i) {
    auto submitted = runtime.Submit("j", OneHot(4, 0));
    if (submitted.ok()) {
      queued.push_back(std::move(*submitted));
    } else {
      EXPECT_TRUE(submitted.status().IsUnavailable())
          << submitted.status().ToString();
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 2);
  EXPECT_EQ(queued.size(), 4u);

  auto metrics = runtime.Metrics("j");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->arrived, 6);
  EXPECT_EQ(metrics->dropped, 2);
  EXPECT_EQ(metrics->processed, 0);

  // Undeploy fails the queued requests and counts them dropped, closing
  // the books: arrived == processed + dropped.
  ASSERT_TRUE(runtime.Undeploy("j").ok());
  for (auto& future : queued) {
    EXPECT_TRUE(future.get().status().IsUnavailable());
  }
}

TEST(InferenceRuntimeTest, ConcurrentSubmitStormConservesAccounting) {
  // With many producers racing the submit path (and the bounded-queue
  // admission gate dropping under pressure), the books must still balance
  // exactly at quiescence:
  //
  //   arrived == processed + dropped + expired,  queue_depth == 0
  //
  // where every term is cross-checked against caller-side counts.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(4, 0.9, "id"));
  RuntimeOptions options;
  options.tau = 0.0005;  // flush aggressively so the storm makes progress
  options.queue_capacity = 16;  // small: the admission gate really drops
  options.calibrate = false;
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());

  std::atomic<long> accepted{0};
  std::atomic<long> rejected{0};
  std::atomic<long> served{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        auto submitted = runtime.Submit("j", OneHot(4, 1));
        if (!submitted.ok()) {
          ASSERT_TRUE(submitted.status().IsUnavailable())
              << submitted.status().ToString();
          ++rejected;
          continue;
        }
        ++accepted;
        // Resolve inline: keeps a lid on in-flight futures and guarantees
        // every accepted request is fully processed before the thread
        // exits (nothing is racing Undeploy here, so no drops past this
        // point).
        Result<EnsemblePrediction> answer = submitted->get();
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        ASSERT_EQ(answer->label, 1);
        ++served;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  auto metrics = runtime.Metrics("j");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->arrived, static_cast<long>(kThreads) * kPerThread);
  EXPECT_EQ(metrics->arrived, accepted.load() + rejected.load());
  EXPECT_EQ(metrics->processed, served.load());
  EXPECT_EQ(metrics->dropped, rejected.load());
  EXPECT_EQ(metrics->expired, 0);
  EXPECT_EQ(metrics->arrived,
            metrics->processed + metrics->dropped + metrics->expired);
  EXPECT_EQ(metrics->queue_depth, 0);
  EXPECT_GT(served.load(), 0);
  ASSERT_TRUE(runtime.Undeploy("j").ok());
}

TEST(InferenceRuntimeTest, ConcurrentQueryUndeployStress) {
  // Regression for the facade's old use-after-free: queries racing
  // undeploy must only ever observe clean errors. Run it under
  // -DRAFIKI_SANITIZE=thread to check the memory model too.
  InferenceRuntime runtime;
  constexpr int kRounds = 10;
  constexpr int kThreads = 6;
  for (int round = 0; round < kRounds; ++round) {
    std::string id = "stress" + std::to_string(round);
    std::vector<ServableModel> models;
    models.push_back(MakeIdentityModel(8, 0.9, "id"));
    RuntimeOptions options;
    options.tau = 0.01;
    ASSERT_TRUE(runtime.Deploy(id, std::move(models), options).ok());

    std::atomic<bool> gone{false};
    std::atomic<int> served{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&runtime, &id, &gone, &served] {
        while (!gone.load()) {
          auto submitted = runtime.Submit(id, OneHot(8, 3));
          if (!submitted.ok()) {
            ASSERT_TRUE(submitted.status().IsNotFound() ||
                        submitted.status().IsUnavailable())
                << submitted.status().ToString();
            continue;
          }
          Result<EnsemblePrediction> answer = submitted->get();
          if (answer.ok()) {
            ASSERT_EQ(answer->label, 3);
            ++served;
          } else {
            ASSERT_TRUE(answer.status().IsUnavailable())
                << answer.status().ToString();
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    ASSERT_TRUE(runtime.Undeploy(id).ok());
    gone.store(true);
    for (std::thread& t : threads) t.join();
    EXPECT_TRUE(runtime.Submit(id, OneHot(8, 0)).status().IsNotFound());
    EXPECT_GT(served.load(), 0) << "round " << round << " served nothing";
  }
}

TEST(InferenceRuntimeTest, RuntimeDestructorStopsLiveJobs) {
  std::future<Result<EnsemblePrediction>> orphan;
  {
    InferenceRuntime runtime;
    std::vector<ServableModel> models;
    models.push_back(MakeIdentityModel(4, 0.9, "id"));
    RuntimeOptions options;
    options.tau = 30.0;
    options.batch_sizes = {8};  // nothing flushes: request stays queued
    options.calibrate = false;
    ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());
    auto submitted = runtime.Submit("j", OneHot(4, 0));
    ASSERT_TRUE(submitted.ok());
    orphan = std::move(*submitted);
  }
  EXPECT_TRUE(orphan.get().status().IsUnavailable());
}

/// Facade-level regression: the original bug was Rafiki::QueryBatch
/// dereferencing an InferenceJob* after releasing mu_ while Undeploy
/// erased it. Deploy from a hand-built PS checkpoint (no training needed)
/// and race QueryBatch/Query against Undeploy.
TEST(RafikiServingLifecycleTest, QueryBatchRacingUndeployStaysClean) {
  api::Rafiki rafiki;
  ps::ModelCheckpoint ckpt;
  Tensor weight({4, 3});
  for (int64_t i = 0; i < 3; ++i) weight.at2(i, i) = 1.0f;
  ckpt.params.emplace_back("fc0/weight", weight);
  ckpt.params.emplace_back("fc0/bias", Tensor({1, 3}));
  ckpt.meta.accuracy = 0.9;
  ASSERT_TRUE(rafiki.parameter_server().PutModel("study/fake/best", ckpt).ok());
  api::ModelHandle handle;
  handle.scope = "study/fake/best";
  handle.model_name = "mlp";
  handle.accuracy = 0.9;

  Tensor rows({3, 4});
  rows.at2(0, 0) = 1.0f;
  rows.at2(1, 1) = 1.0f;
  rows.at2(2, 2) = 1.0f;

  constexpr int kRounds = 8;
  constexpr int kThreads = 4;
  for (int round = 0; round < kRounds; ++round) {
    serving::RuntimeOptions options;
    options.tau = 0.01;
    auto deployed = rafiki.Deploy({handle}, options);
    ASSERT_TRUE(deployed.ok()) << deployed.status().ToString();
    std::string id = *deployed;

    std::atomic<bool> gone{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&rafiki, &rows, &id, &gone] {
        while (!gone.load()) {
          auto batch = rafiki.QueryBatch(id, rows);
          if (batch.ok()) {
            ASSERT_EQ(batch->size(), 3u);
            EXPECT_EQ((*batch)[0].label, 0);
            EXPECT_EQ((*batch)[1].label, 1);
            EXPECT_EQ((*batch)[2].label, 2);
          } else {
            ASSERT_TRUE(batch.status().IsNotFound() ||
                        batch.status().IsUnavailable())
                << batch.status().ToString();
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(rafiki.Undeploy(id).ok());
    gone.store(true);
    for (std::thread& t : threads) t.join();
    EXPECT_TRUE(rafiki.Query(id, rows).status().IsNotFound());
  }
}

TEST(InferenceRuntimeTest, SubmitAsyncDeliversCallback) {
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(4, 0.9, "id"));
  RuntimeOptions options;
  options.tau = 0.05;
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());

  std::promise<Result<EnsemblePrediction>> promise;
  std::future<Result<EnsemblePrediction>> future = promise.get_future();
  Status submitted = runtime.SubmitAsync(
      "j", OneHot(4, 2), [&promise](Result<EnsemblePrediction> answer) {
        promise.set_value(std::move(answer));
      });
  ASSERT_TRUE(submitted.ok()) << submitted.ToString();
  Result<EnsemblePrediction> answer = future.get();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->label, 2);

  // Rejected submissions return a status and never run the callback.
  EXPECT_TRUE(runtime
                  .SubmitAsync("ghost", OneHot(4, 0),
                               [](Result<EnsemblePrediction>) { FAIL(); })
                  .IsNotFound());
  EXPECT_TRUE(runtime
                  .SubmitAsync("j", OneHot(7, 0),
                               [](Result<EnsemblePrediction>) { FAIL(); })
                  .IsInvalidArgument());
  ASSERT_TRUE(runtime.Undeploy("j").ok());
}

TEST(InferenceRuntimeTest, QueueDeadlineExpiresOverdueRequests) {
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(4, 0.9, "id"));
  RuntimeOptions options;
  // A tau no request can meet: everything must expire with
  // kDeadlineExceeded instead of being forwarded through the model.
  options.tau = 1e-9;
  options.expire_overdue = true;
  options.calibrate = false;
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());

  constexpr int kRequests = 16;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Status> outcomes;
  for (int i = 0; i < kRequests; ++i) {
    Status submitted = runtime.SubmitAsync(
        "j", OneHot(4, i % 4), [&](Result<EnsemblePrediction> answer) {
          std::lock_guard<std::mutex> lock(mu);
          outcomes.push_back(answer.status());
          cv.notify_all();
        });
    ASSERT_TRUE(submitted.ok()) << submitted.ToString();
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10), [&] {
      return outcomes.size() == kRequests;
    }));
    for (const Status& s : outcomes) {
      EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s.ToString();
    }
  }

  auto metrics = runtime.Metrics("j");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->arrived, kRequests);
  EXPECT_EQ(metrics->expired, kRequests);
  EXPECT_EQ(metrics->overdue, kRequests);  // expiries count as overdue
  EXPECT_EQ(metrics->processed, 0);
  EXPECT_EQ(metrics->dropped, 0);
  // Conservation with the expired term.
  EXPECT_EQ(metrics->arrived, metrics->processed + metrics->dropped +
                                  metrics->expired + metrics->queue_depth);
  ASSERT_TRUE(runtime.Undeploy("j").ok());
}

TEST(InferenceRuntimeTest, GenerousDeadlineDoesNotExpire) {
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(4, 0.9, "id"));
  RuntimeOptions options;
  options.tau = 30.0;  // nothing plausibly waits this long
  options.expire_overdue = true;
  // B = {1}: greedy dispatches the lone request at once instead of holding
  // it for a fuller batch until tau - delta.
  options.batch_sizes = {1};
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());
  auto submitted = runtime.Submit("j", OneHot(4, 1));
  ASSERT_TRUE(submitted.ok());
  Result<EnsemblePrediction> answer = submitted->get();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->label, 1);
  auto metrics = runtime.Metrics("j");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->expired, 0);
  EXPECT_EQ(metrics->processed, 1);
  ASSERT_TRUE(runtime.Undeploy("j").ok());
}

TEST(RafikiServingLifecycleTest, FacadeMetricsReportBatching) {
  api::Rafiki rafiki;
  ps::ModelCheckpoint ckpt;
  Tensor weight({4, 3});
  for (int64_t i = 0; i < 3; ++i) weight.at2(i, i) = 1.0f;
  ckpt.params.emplace_back("fc0/weight", weight);
  ckpt.params.emplace_back("fc0/bias", Tensor({1, 3}));
  ckpt.meta.accuracy = 0.9;
  ASSERT_TRUE(rafiki.parameter_server().PutModel("study/fake/best", ckpt).ok());
  api::ModelHandle handle;
  handle.scope = "study/fake/best";
  handle.model_name = "mlp";
  handle.accuracy = 0.9;

  auto deployed = rafiki.Deploy({handle});
  ASSERT_TRUE(deployed.ok());
  Tensor rows({40, 4});
  for (int64_t r = 0; r < 40; ++r) rows.at2(r, r % 3) = 1.0f;
  auto batch = rafiki.QueryBatch(*deployed, rows);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 40u);

  auto metrics = rafiki.InferenceMetrics(*deployed);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->arrived, 40);
  EXPECT_EQ(metrics->processed, 40);
  EXPECT_GT(metrics->max_batch, 1) << "bulk query did not batch";
  EXPECT_TRUE(rafiki.Undeploy(*deployed).ok());
  EXPECT_TRUE(rafiki.InferenceMetrics(*deployed).status().IsNotFound());
}

/// Forwards every policy call to a shared RlSchedulerPolicy, so a test can
/// keep inspecting the agent after the job (which owns the forwarder) is
/// undeployed. Safe: Undeploy joins the dispatcher, so the test's later
/// reads happen-after every Decide/Feedback.
class SharedRlPolicy : public SchedulerPolicy {
 public:
  explicit SharedRlPolicy(std::shared_ptr<RlSchedulerPolicy> inner)
      : inner_(std::move(inner)) {}
  ServingAction Decide(const ServingObs& obs) override {
    return inner_->Decide(obs);
  }
  void Feedback(const ServingObs& obs, const ServingAction& action,
                double reward) override {
    inner_->Feedback(obs, action, reward);
  }
  bool learns() const override { return true; }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<RlSchedulerPolicy> inner_;
};

TEST(InferenceRuntimeTest, PolicyFactoryReceivesCalibratedInit) {
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(4, 0.85, "id"));
  RuntimeOptions options;
  options.tau = 0.25;
  options.beta = 2.0;
  options.batch_sizes = {2, 8};
  options.calibrate = false;
  PolicyInit seen;
  options.policy_factory =
      [&seen](const PolicyInit& init) -> std::unique_ptr<SchedulerPolicy> {
    seen = init;
    return std::make_unique<GreedyBatchPolicy>(0,
                                               init.backoff_delta_fraction);
  };
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());
  EXPECT_EQ(seen.num_models, 1u);
  EXPECT_EQ(seen.batch_sizes, (std::vector<int64_t>{2, 8}));
  ASSERT_EQ(seen.accuracies.size(), 1u);
  EXPECT_DOUBLE_EQ(seen.accuracies[0], 0.85);
  EXPECT_DOUBLE_EQ(seen.tau, 0.25);
  EXPECT_DOUBLE_EQ(seen.beta, 2.0);
  ASSERT_TRUE(runtime.Undeploy("j").ok());

  // A factory returning no policy is a deploy-time error, not a crash.
  std::vector<ServableModel> models2;
  models2.push_back(MakeIdentityModel(4, 0.85, "id"));
  options.policy_factory = [](const PolicyInit&) {
    return std::unique_ptr<SchedulerPolicy>();
  };
  EXPECT_TRUE(runtime.Deploy("j2", std::move(models2), options)
                  .status()
                  .IsInvalidArgument());
}

TEST(InferenceRuntimeTest, RewardAccountingMatchesEq7OnCleanPath) {
  // With a generous tau nothing is overdue, so the cumulative Equation 7
  // reward must be exactly a * processed (and accuracy_sum a * processed),
  // independent of how the requests were batched.
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(4, 0.9, "id"));
  RuntimeOptions options;
  options.tau = 30.0;
  // B = {1}: greedy dispatches every request immediately (no wait-backoff),
  // so the test is fast and the batching split is fully determined.
  options.batch_sizes = {1};
  options.calibrate = false;
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());
  for (int i = 0; i < 10; ++i) {
    auto submitted = runtime.Submit("j", OneHot(4, i % 4));
    ASSERT_TRUE(submitted.ok());
    ASSERT_TRUE(submitted->get().ok());
  }
  auto metrics = runtime.Metrics("j");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->policy, "greedy");
  EXPECT_EQ(metrics->learn_steps, 0);  // greedy does not learn
  EXPECT_EQ(metrics->processed, 10);
  EXPECT_EQ(metrics->reward_overdue, 0);
  EXPECT_EQ(metrics->reward_pending_overdue, 0);
  EXPECT_NEAR(metrics->reward_sum, 0.9 * 10, 1e-9);
  EXPECT_NEAR(metrics->accuracy_sum, 0.9 * 10, 1e-9);
  ASSERT_TRUE(runtime.Undeploy("j").ok());
}

TEST(InferenceRuntimeTest, RlPolicyStormConservesAccountingAndExpiryReward) {
  // Satellite regression (live vs simulator reward accounting): under an
  // RL policy with expire_overdue, a 504-expired request must enter the
  // reward stream as overdue EXACTLY once — charged to the next dispatched
  // batch — never double-counted, never dropped. The invariant
  //   overdue == reward_overdue + reward_pending_overdue
  // holds at quiescence together with full conservation.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 400;
  // A wide model so batches take real time and queue waits genuinely trip
  // the deadline under the storm.
  constexpr int64_t kDim = 256;
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(kDim, 0.9, "wide"));
  RuntimeOptions options;
  options.tau = 0.002;
  options.expire_overdue = true;
  options.calibrate = false;
  options.policy_factory = MakeRlSchedulerFactory();
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());

  std::atomic<long> accepted{0};
  std::atomic<long> rejected{0};
  std::atomic<long> served{0};
  std::atomic<long> expired_seen{0};
  std::atomic<long> answered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        Status submitted = runtime.SubmitAsync(
            "j", OneHot(kDim, i % kDim),
            [&](Result<EnsemblePrediction> answer) {
              if (answer.ok()) {
                ++served;
              } else {
                EXPECT_EQ(answer.status().code(),
                          StatusCode::kDeadlineExceeded)
                    << answer.status().ToString();
                ++expired_seen;
              }
              ++answered;
            });
        if (submitted.ok()) {
          ++accepted;
        } else {
          ASSERT_TRUE(submitted.IsUnavailable()) << submitted.ToString();
          ++rejected;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Quiesce: every accepted request gets its continuation.
  for (int spin = 0; spin < 20000 && answered.load() < accepted.load();
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(answered.load(), accepted.load());

  auto metrics = runtime.Metrics("j");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->policy, "rl");
  EXPECT_EQ(metrics->arrived, static_cast<long>(kThreads) * kPerThread);
  EXPECT_EQ(metrics->processed, served.load());
  EXPECT_EQ(metrics->expired, expired_seen.load());
  EXPECT_EQ(metrics->dropped, rejected.load());
  EXPECT_EQ(metrics->queue_depth, 0);
  EXPECT_EQ(metrics->arrived,
            metrics->processed + metrics->dropped + metrics->expired);
  // The storm is designed to actually expire requests; if this ever goes
  // to zero the regression below is vacuous.
  EXPECT_GT(metrics->expired, 0);
  // Exactly-once expiry charging holds at this quiescent point even if the
  // storm expired everything (possible under sanitizer slowdown).
  EXPECT_EQ(metrics->overdue,
            metrics->reward_overdue + metrics->reward_pending_overdue);
  EXPECT_GE(metrics->reward_pending_overdue, 0);

  // Quiet trickle: an idle dispatcher answers a lone request well inside
  // tau regardless of how slow the build is, and that first dispatched
  // batch must charge the storm's expiry backlog into its reward — after
  // which NOTHING is left pending. Retries tolerate scheduler hiccups.
  bool trickled = false;
  for (int i = 0; i < 200 && !trickled; ++i) {
    auto one = runtime.Submit("j", OneHot(kDim, 0));
    ASSERT_TRUE(one.ok()) << one.status().ToString();
    trickled = one->get().ok();
  }
  ASSERT_TRUE(trickled) << "no request survived an idle dispatcher";

  metrics = runtime.Metrics("j");
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics->processed, 0);
  EXPECT_GT(metrics->learn_steps, 0);
  EXPECT_EQ(metrics->reward_pending_overdue, 0);
  EXPECT_EQ(metrics->overdue, metrics->reward_overdue);
  EXPECT_EQ(metrics->arrived,
            metrics->processed + metrics->dropped + metrics->expired);
  ASSERT_TRUE(runtime.Undeploy("j").ok());
}

TEST(InferenceRuntimeTest, RlSingleModelLiveConvergesToEq7Optimum) {
  // Satellite: |M| = 1 mask collapse (§7.2.1) on the LIVE runtime. With a
  // zero-latency profile and a generous tau nothing is overdue, so the
  // Equation 7 reward is a * min(b, queue) and the optimum at a full queue
  // of 8 is the largest batch. Train online (seeded exploration) against a
  // fixed arrival trace of 8-request rounds, then assert the greedy
  // (explore=false) action at a full-queue state converged to it.
  const std::vector<int64_t> kBatches = {1, 2, 4, 8};
  RlSchedulerOptions rl;
  rl.agent.seed = 11;
  rl.agent.update_every = 16;
  rl.agent.policy_lr = 5e-3;
  rl.agent.value_lr = 5e-3;
  rl.throughput_shaping = 0.0;  // pure Equation 7
  auto shared = std::make_shared<RlSchedulerPolicy>(
      /*num_models=*/1, kBatches, /*accuracy_table=*/nullptr, rl);

  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(4, 0.9, "id"));
  RuntimeOptions options;
  options.tau = 10.0;
  options.batch_sizes = kBatches;
  options.calibrate = false;
  options.policy_factory = [shared](const PolicyInit&) {
    return std::make_unique<SharedRlPolicy>(shared);
  };
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());

  constexpr int kRounds = 400;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<Result<EnsemblePrediction>>> futures;
    for (int i = 0; i < 8; ++i) {
      auto submitted = runtime.Submit("j", OneHot(4, i % 4));
      ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
      futures.push_back(std::move(*submitted));
    }
    for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  }
  auto metrics = runtime.Metrics("j");
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics->learn_steps, 100);
  EXPECT_GT(metrics->reward_sum, 0.0);
  ASSERT_TRUE(runtime.Undeploy("j").ok());  // joins the dispatcher

  // Evaluate the learned policy greedily at a full-queue state.
  shared->set_explore(false);
  std::vector<model::ModelProfile> profiles(1);  // zero-latency
  profiles[0].top1_accuracy = 0.9;
  ServingObs obs;
  obs.now = 1.0;
  obs.tau = 10.0;
  obs.batch_sizes = &kBatches;
  obs.models = &profiles;
  obs.queue_waits.assign(8, 0.001);
  obs.queue_len = 8;
  obs.busy_remaining.assign(1, 0.0);
  ServingAction action = shared->Decide(obs);
  ASSERT_TRUE(action.process);
  EXPECT_EQ(action.model_mask, 1u);
  EXPECT_EQ(action.batch_size, 8)
      << "did not converge to the Eq. 7 optimum batch";
}

TEST(InferenceRuntimeTest, RlPolicyHonorsModelSubsetSelection) {
  // A policy that selects a strict subset must only have those models run
  // (and vote): with model 0 an identity net and model 1 a negated one,
  // mask = 0b01 must answer argmax even though the negated model would
  // win an all-models accuracy tie-break.
  class FixedMaskPolicy : public SchedulerPolicy {
   public:
    ServingAction Decide(const ServingObs& obs) override {
      if (obs.queue_len == 0) return ServingAction{};
      return ServingAction{true, /*model_mask=*/1u, /*batch_size=*/1};
    }
    std::string name() const override { return "fixed_mask"; }
  };
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(4, 0.6, "id"));
  models.push_back(MakeIdentityModel(4, 0.99, "neg", /*negate=*/true));
  RuntimeOptions options;
  options.tau = 30.0;
  options.calibrate = false;
  options.policy_factory = [](const PolicyInit&) {
    return std::make_unique<FixedMaskPolicy>();
  };
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());
  auto submitted = runtime.Submit("j", OneHot(4, 2));
  ASSERT_TRUE(submitted.ok());
  Result<EnsemblePrediction> answer = submitted->get();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->label, 2);  // the negated model never voted
  ASSERT_EQ(answer->votes.size(), 1u);
  auto metrics = runtime.Metrics("j");
  ASSERT_TRUE(metrics.ok());
  // Reward uses the accuracy of the SELECTED subset (0.6), not the best
  // deployed model's.
  EXPECT_NEAR(metrics->accuracy_sum, 0.6, 1e-9);
  ASSERT_TRUE(runtime.Undeploy("j").ok());
}

TEST(InferenceRuntimeTest, PushBelowMinBatchWakesDispatcher) {
  // With min(B) = 4 a queue of 1–3 requests has no feasible batch, so each
  // push can change the decision and must wake the dispatcher. The policy
  // dispatches once 3 requests are queued; a dispatcher left asleep since
  // the first push would answer at its flush deadline, tau - delta = 1.8 s.
  class DispatchAtThreePolicy : public SchedulerPolicy {
   public:
    ServingAction Decide(const ServingObs& obs) override {
      if (obs.queue_len < 3) return ServingAction{};
      return ServingAction{true, /*model_mask=*/1u, /*batch_size=*/3};
    }
    std::string name() const override { return "dispatch_at_three"; }
  };
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(4, 0.9, "id"));
  RuntimeOptions options;
  options.batch_sizes = {4, 8};
  options.calibrate = false;
  options.tau = 2.0;
  options.policy_factory = [](const PolicyInit&) {
    return std::make_unique<DispatchAtThreePolicy>();
  };
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());

  auto start = std::chrono::steady_clock::now();
  std::vector<std::future<Result<EnsemblePrediction>>> answers;
  for (int64_t i = 0; i < 3; ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    auto submitted = runtime.Submit("j", OneHot(4, i));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    answers.push_back(std::move(*submitted));
  }
  for (int64_t i = 0; i < 3; ++i) {
    Result<EnsemblePrediction> answer = answers[static_cast<size_t>(i)].get();
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->label, i);
  }
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_LT(elapsed, 0.5)
      << "dispatcher slept through the pushes below min(B)";
  ASSERT_TRUE(runtime.Undeploy("j").ok());
}

}  // namespace
}  // namespace rafiki::serving
