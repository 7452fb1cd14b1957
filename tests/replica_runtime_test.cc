// The replicated serving plane (DESIGN.md §15): replica dispatchers that
// share one request queue per job, ReplicaController scale-up/down storms,
// the accuracy-variant downshift, and closed-loop liveness through the
// HTTP gateway. The storm tests assert the two book-keeping invariants —
// exact conservation (arrived == processed + dropped + expired + queued)
// and exactly-once 504 charging (overdue == reward_overdue +
// reward_pending_overdue) — while the controller is actively resizing;
// the TSan/ASan CI matrix runs them too.

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "gtest/gtest.h"
#include "net/http_server.h"
#include "net/loadgen.h"
#include "net/socket.h"
#include "nn/layer.h"
#include "ps/parameter_server.h"
#include "rafiki/http_gateway.h"
#include "serving/greedy_batch.h"
#include "serving/inference_runtime.h"
#include "support/blocking_socket.h"

namespace rafiki::serving {
namespace {

/// A deterministic servable: y = x W with W = I, so argmax(features) is
/// the predicted label.
ServableModel MakeIdentityModel(int64_t dim, double accuracy,
                                const std::string& name) {
  Rng rng(1);
  auto linear = std::make_unique<nn::Linear>(dim, dim, /*init_std=*/0.0f,
                                             rng, "fc0");
  Tensor& weight = linear->Params()[0]->value;
  for (int64_t i = 0; i < dim; ++i) weight.at2(i, i) = 1.0f;
  ServableModel model;
  model.net.Add(std::move(linear));
  model.accuracy = accuracy;
  model.name = name;
  return model;
}

/// A compute-heavy servable (labels are arbitrary): slows the dispatch
/// loop enough that the queue builds up and the controller has real
/// backlog to work against.
ServableModel MakeHeavyModel(int64_t dim, int64_t hidden, double accuracy,
                             const std::string& name) {
  Rng rng(7);
  ServableModel model;
  model.net = nn::MakeMlp({dim, hidden, dim}, /*init_std=*/0.05f,
                          /*dropout=*/0.0f, rng);
  model.accuracy = accuracy;
  model.name = name;
  model.input_dim = dim;
  return model;
}

Tensor OneHot(int64_t dim, int64_t hot) {
  Tensor t({1, dim});
  t.at(hot) = 1.0f;
  return t;
}

InferenceJobMetrics MustMetrics(InferenceRuntime& runtime,
                                const std::string& job) {
  auto metrics = runtime.Metrics(job);
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
  return metrics.ok() ? *metrics : InferenceJobMetrics{};
}

/// The 504 charging invariant must hold at EVERY metrics observation, not
/// just at quiescence: expiries and their reward charges are folded under
/// the same per-replica mutex hold Metrics reads through.
void ExpectChargingInvariant(const InferenceJobMetrics& m) {
  EXPECT_EQ(m.overdue, m.reward_overdue + m.reward_pending_overdue)
      << "overdue=" << m.overdue << " charged=" << m.reward_overdue
      << " pending=" << m.reward_pending_overdue;
}

// ControllerStep, tick by tick: the controller's hysteresis with no
// threads and no clock. Times are exact binary fractions of a second.
ControllerLimits StepLimits(size_t min_replicas, size_t max_replicas,
                            int max_level) {
  ControllerLimits limits;
  limits.min_replicas = min_replicas;
  limits.max_replicas = max_replicas;
  limits.max_level = max_level;
  limits.max_batch = 4;
  limits.dwell = 0.25;
  return limits;
}

TEST(ControllerStepTest, ScalesUpOnlyPastAFullBatchPerReplicaAfterTheDwell) {
  ControllerLimits limits = StepLimits(1, 4, 0);
  ControllerState state;  // last resize at t = 0
  ControllerTick tick;
  tick.active = 2;
  tick.queued = 2 * 4;  // exactly one full batch per replica: no pressure
  for (int i = 1; i <= 32; ++i) {
    tick.now = i / 16.0;
    EXPECT_EQ(ControllerStep(tick, limits, &state).resize, 0) << tick.now;
  }
  state = ControllerState{};
  tick.queued = 2 * 4 + 1;
  for (double now : {0.0625, 0.125, 0.1875}) {  // inside the dwell
    tick.now = now;
    EXPECT_EQ(ControllerStep(tick, limits, &state).resize, 0) << now;
  }
  tick.now = 0.25;
  EXPECT_EQ(ControllerStep(tick, limits, &state).resize, 1);
  EXPECT_EQ(state.last_resize, 0.25);
  // The next scale-up waits out a whole dwell again.
  tick.active = 3;
  tick.queued = 100;
  tick.now = 0.4375;
  EXPECT_EQ(ControllerStep(tick, limits, &state).resize, 0);
  tick.now = 0.5;
  EXPECT_EQ(ControllerStep(tick, limits, &state).resize, 1);
  // At max_replicas no backlog grows the set.
  tick.active = 4;
  tick.queued = 1000;
  tick.now = 2.0;
  EXPECT_EQ(ControllerStep(tick, limits, &state).resize, 0);
}

TEST(ControllerStepTest, ScalesDownOnlyAfterThreeLowTicksAndTheDwell) {
  ControllerLimits limits = StepLimits(1, 4, 0);
  ControllerState state;
  ControllerTick tick;
  // 3 replicas: low means queued + inflight <= 0.25 * 2 * 4 = 2.
  tick.active = 3;
  tick.queued = 1;
  tick.inflight = 1;
  // Low from the first tick, but the dwell since t = 0 holds it back.
  for (double now : {0.0625, 0.125, 0.1875}) {
    tick.now = now;
    EXPECT_EQ(ControllerStep(tick, limits, &state).resize, 0) << now;
  }
  tick.now = 0.25;
  EXPECT_EQ(ControllerStep(tick, limits, &state).resize, -1);

  // 2 replicas: low means queued + inflight <= 1. Past the dwell, two low
  // ticks are not enough, and a high tick restarts the count.
  tick.active = 2;
  tick.inflight = 0;
  int resized_at = 0;
  const int64_t queued[] = {1, 1, 5, 0, 1, 1};
  for (int i = 0; i < 6; ++i) {
    tick.now = 1.0 + i / 16.0;
    tick.queued = queued[i];
    if (ControllerStep(tick, limits, &state).resize == -1) resized_at = i;
  }
  EXPECT_EQ(resized_at, 5) << "scale-down after the third consecutive low";
  // At min_replicas nothing shrinks.
  tick.active = 1;
  tick.queued = 0;
  for (int i = 1; i <= 16; ++i) {
    tick.now = 2.0 + i / 16.0;
    EXPECT_EQ(ControllerStep(tick, limits, &state).resize, 0);
  }
}

TEST(ControllerStepTest, AlternatingPressureInsideTheDwellNeverResizes) {
  ControllerLimits limits = StepLimits(1, 64, 0);
  ControllerState state;
  ControllerTick tick;
  tick.active = 2;
  // 15 ticks inside the dwell that alternate a flood with an idle queue.
  for (int i = 1; i < 16; ++i) {
    tick.now = i / 64.0;
    tick.queued = i % 2 == 1 ? 1000 : 0;
    EXPECT_EQ(ControllerStep(tick, limits, &state).resize, 0) << tick.now;
  }
  // Kept up for much longer, it scales up at most once per dwell and never
  // down: the idle ticks never line up three in a row.
  double last_up = 0.0;
  for (int i = 16; i < 512; ++i) {
    tick.now = i / 64.0;
    tick.queued = i % 2 == 1 ? 1000 : 0;
    int resize = ControllerStep(tick, limits, &state).resize;
    EXPECT_GE(resize, 0) << tick.now;
    if (resize == 1) {
      EXPECT_GE(tick.now - last_up, limits.dwell);
      last_up = tick.now;
    }
  }
  EXPECT_GT(last_up, 0.0);
}

TEST(ControllerStepTest, DownshiftsOnlyMaxedOutAfterThreeHighOverdueTicks) {
  ControllerLimits limits = StepLimits(1, 2, /*max_level=*/2);
  ControllerTick tick;
  tick.inflight = 8;  // keeps the scale-down count out of the picture
  // Every tick 10 requests complete, 5 of them overdue: rate 0.5 > 0.2.
  auto overdue_tick = [&](ControllerState* state, double now) {
    tick.now = now;
    tick.completed += 10;
    tick.overdue += 5;
    return ControllerStep(tick, limits, state).shift;
  };
  // Below max_replicas, sustained overdue pressure never downshifts.
  ControllerState spare;
  tick.active = 1;
  for (int i = 1; i <= 16; ++i) EXPECT_EQ(overdue_tick(&spare, i / 4.0), 0);

  // Maxed out: the first two high ticks wait, the third downshifts.
  ControllerState state;
  tick.active = 2;
  EXPECT_EQ(overdue_tick(&state, 1.0), 0);
  EXPECT_EQ(overdue_tick(&state, 1.0625), 0);
  // A tick with no completions carries no rate and keeps the count.
  tick.now = 1.09375;
  EXPECT_EQ(ControllerStep(tick, limits, &state).shift, 0);
  EXPECT_EQ(overdue_tick(&state, 1.125), 1);
  tick.level = 1;
  // The next level needs three more high ticks and the dwell.
  EXPECT_EQ(overdue_tick(&state, 1.1875), 0);
  EXPECT_EQ(overdue_tick(&state, 1.25), 0);
  EXPECT_EQ(overdue_tick(&state, 1.3125), 0);  // three, inside the dwell
  EXPECT_EQ(overdue_tick(&state, 1.375), 1);   // dwell over
  // The last level keeps one model: nothing further to drop.
  tick.level = 2;
  for (int i = 1; i <= 16; ++i) {
    EXPECT_EQ(overdue_tick(&state, 2.0 + i / 4.0), 0);
  }
}

TEST(ControllerStepTest, UpshiftsAfterFiveQuietTicksAndTwiceTheDwell) {
  ControllerLimits limits = StepLimits(1, 1, /*max_level=*/1);
  ControllerTick tick;
  tick.active = 1;
  tick.level = 1;
  // A quiet tick: 10 completions, none overdue, at most a full batch
  // (4) queued per replica.
  auto quiet_tick = [&](ControllerState* state, double now, int64_t queued) {
    tick.now = now;
    tick.queued = queued;
    tick.completed += 10;
    return ControllerStep(tick, limits, state).shift;
  };
  ControllerState state;  // last shift at t = 0
  // The fifth quiet tick comes at 0.3125 s; 2 x dwell holds until 0.5 s.
  for (int i = 1; i < 8; ++i) {
    EXPECT_EQ(quiet_tick(&state, i / 16.0, 4), 0) << i;
  }
  EXPECT_EQ(quiet_tick(&state, 0.5, 4), -1);

  // Long after the dwell: four quiet ticks, then one with more than a full
  // batch queued, restart the count.
  state = ControllerState{};
  for (int i = 0; i < 4; ++i) EXPECT_EQ(quiet_tick(&state, 5.0 + i, 4), 0);
  EXPECT_EQ(quiet_tick(&state, 9.0, 5), 0);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(quiet_tick(&state, 10.0 + i, 0), 0);
  EXPECT_EQ(quiet_tick(&state, 14.0, 0), -1);
  // At level 0 there is nothing to restore.
  tick.level = 0;
  for (int i = 0; i < 8; ++i) EXPECT_EQ(quiet_tick(&state, 20.0 + i, 0), 0);
}

TEST(ReplicaRuntimeTest, StaticReplicasServeCorrectlyAndAggregate) {
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(8, 0.9, "id"));
  RuntimeOptions options;
  options.tau = 0.05;  // short batch-fill waits keep the test fast
  options.replicas = 3;
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());

  auto first = MustMetrics(runtime, "j");
  EXPECT_EQ(first.replicas, 3);
  EXPECT_EQ(first.replicas_peak, 3);
  ASSERT_EQ(first.replica_gauges.size(), 3u);

  constexpr int kPerThread = 64;
  constexpr int kThreads = 4;
  std::atomic<int> wrong{0};
  std::atomic<int> callbacks{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        int64_t hot = (t * kPerThread + i) % 8;
        auto submitted = runtime.Submit("j", OneHot(8, hot));
        ASSERT_TRUE(submitted.ok());
        auto answer = submitted->get();
        ++callbacks;
        ASSERT_TRUE(answer.ok());
        if (answer->label != hot) ++wrong;
      }
    });
  }
  for (auto& p : producers) p.join();

  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(callbacks.load(), kThreads * kPerThread);
  auto metrics = MustMetrics(runtime, "j");
  EXPECT_EQ(metrics.arrived, kThreads * kPerThread);
  EXPECT_EQ(metrics.processed, kThreads * kPerThread);
  EXPECT_EQ(metrics.dropped, 0);
  EXPECT_EQ(metrics.queue_depth, 0);
  // The per-replica gauge rows add up to the aggregate exactly.
  int64_t per_replica = 0;
  for (const ReplicaGauges& g : metrics.replica_gauges) {
    per_replica += g.processed;
  }
  EXPECT_EQ(per_replica, metrics.processed);
  ExpectChargingInvariant(metrics);
  ASSERT_TRUE(runtime.Undeploy("j").ok());
}

TEST(ReplicaRuntimeTest, PolicyFactorySeesReplicaIndices) {
  std::atomic<int> built{0};
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(4, 0.9, "id"));
  RuntimeOptions options;
  options.replicas = 3;
  options.policy_factory =
      [&](const PolicyInit& init) -> std::unique_ptr<SchedulerPolicy> {
    ++built;
    return std::make_unique<GreedyBatchPolicy>(0,
                                               init.backoff_delta_fraction);
  };
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());
  // Deploy validates the factory once, then builds one policy per started
  // replica: each replica owns its policy.
  EXPECT_EQ(built.load(), 1 + 3);
  EXPECT_EQ(MustMetrics(runtime, "j").replicas, 3);
  ASSERT_TRUE(runtime.Undeploy("j").ok());
}

TEST(ReplicaRuntimeTest, ReplicasShareOneQueue) {
  // Both replicas batch from the job's one queue: a burst of max(B)
  // requests is one full batch at once, not two half batches that each
  // wait out the SLO on a replica of their own.
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeIdentityModel(8, 0.9, "id"));
  RuntimeOptions options;
  options.tau = 2.0;
  options.batch_sizes = {1, 2, 4, 8, 16, 32};
  options.replicas = 2;
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());

  constexpr int kRequests = 32;
  auto start = std::chrono::steady_clock::now();
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
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_LT(elapsed, 0.5);

  auto metrics = MustMetrics(runtime, "j");
  EXPECT_EQ(metrics.batches, 1);
  EXPECT_EQ(metrics.max_batch, kRequests);
  EXPECT_EQ(metrics.processed, kRequests);
  ASSERT_TRUE(runtime.Undeploy("j").ok());
}

TEST(ReplicaRuntimeTest, AutoscaleStormConservesAndCharges504ExactlyOnce) {
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  models.push_back(MakeHeavyModel(32, 512, 0.9, "heavy"));
  RuntimeOptions options;
  options.tau = 0.01;
  options.expire_overdue = true;  // 504 path active during resizes
  options.batch_sizes = {1, 2, 4};
  options.queue_capacity = 512;
  options.replicas = 1;
  options.min_replicas = 1;
  options.max_replicas = 4;
  options.autoscale = true;
  options.autoscale_dwell = 0.02;
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());

  std::atomic<int64_t> accepted{0};
  std::atomic<int64_t> ok_answers{0};
  std::atomic<int64_t> deadline_504{0};
  std::atomic<int64_t> other_status{0};
  std::atomic<bool> stop{false};

  constexpr int kThreads = 4;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(static_cast<uint64_t>(100 + t));
      while (!stop.load(std::memory_order_relaxed)) {
        // Bursty open-loop-ish offered load: floods to force scale-up,
        // brief pauses so some 504s and some clean completions both occur.
        for (int i = 0; i < 40 && !stop.load(std::memory_order_relaxed);
             ++i) {
          Status submitted = runtime.SubmitAsync(
              "j", OneHot(32, rng.Next64() % 32),
              [&](Result<EnsemblePrediction> answer) {
                if (answer.ok()) {
                  ++ok_answers;
                } else if (answer.status().code() ==
                           StatusCode::kDeadlineExceeded) {
                  ++deadline_504;
                } else {
                  ++other_status;
                }
              });
          if (submitted.ok()) ++accepted;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }

  // While the storm runs and the controller resizes, both invariants must
  // hold at every observation point.
  auto storm_end = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(1500);
  while (std::chrono::steady_clock::now() < storm_end) {
    auto m = MustMetrics(runtime, "j");
    ExpectChargingInvariant(m);
    EXPECT_GE(m.replicas, 1);
    EXPECT_LE(m.replicas, 4);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop = true;
  for (auto& p : producers) p.join();

  // Quiesce: every accepted request resolves (processed or expired).
  auto drain_deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  InferenceJobMetrics m;
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    m = MustMetrics(runtime, "j");
  } while (m.queue_depth > 0 &&
           std::chrono::steady_clock::now() < drain_deadline);
  EXPECT_EQ(m.queue_depth, 0);

  // The controller actually resized: the storm must have pushed past one
  // replica.
  EXPECT_GT(m.replicas_peak, 1);
  EXPECT_GE(m.scale_ups, 1);

  // Exactly-once completion: one callback per accepted request, and the
  // callback totals match the runtime's own books.
  EXPECT_EQ(ok_answers.load() + deadline_504.load() + other_status.load(),
            accepted.load());
  EXPECT_EQ(other_status.load(), 0);
  EXPECT_EQ(m.processed, ok_answers.load());
  EXPECT_EQ(m.expired, deadline_504.load());

  // Exact conservation at quiescence, with the 504 charge books closed.
  EXPECT_EQ(m.arrived, m.processed + m.dropped + m.expired + m.queue_depth);
  ExpectChargingInvariant(m);

  // With the load gone the controller must shrink back toward min (the
  // scale-DOWN half of the storm: retiring replicas re-routes or finishes
  // their queues without breaking any of the above).
  auto shrink_deadline = std::chrono::steady_clock::now() +
                         std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < shrink_deadline) {
    m = MustMetrics(runtime, "j");
    ExpectChargingInvariant(m);
    if (m.scale_downs >= 1 && m.replicas == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(m.scale_downs, 1);
  EXPECT_EQ(m.replicas, 1);
  EXPECT_EQ(m.arrived, m.processed + m.dropped + m.expired + m.queue_depth);

  ASSERT_TRUE(runtime.Undeploy("j").ok());
}

TEST(ReplicaRuntimeTest, VariantDownshiftTradesAccuracyForLatency) {
  InferenceRuntime runtime;
  std::vector<ServableModel> models;
  // Slow accurate model + fast cheap model: level 1 drops the slow one.
  models.push_back(MakeHeavyModel(16, 2048, 0.95, "slow"));
  models.push_back(MakeIdentityModel(16, 0.60, "fast"));
  RuntimeOptions options;
  options.tau = 0.002;  // nearly everything is overdue while "slow" runs
  options.batch_sizes = {1, 2, 4};
  options.queue_capacity = 512;
  options.replicas = 1;
  options.max_replicas = 1;  // horizontal scaling exhausted from the start
  options.autoscale = true;  // the controller also drives the variant ladder
  options.autoscale_dwell = 0.02;
  ASSERT_TRUE(runtime.Deploy("j", std::move(models), options).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> accepted{0};
  std::atomic<int64_t> callbacks{0};
  std::thread producer([&] {
    Rng rng(3);
    while (!stop.load(std::memory_order_relaxed)) {
      // Bursts keep a deep standing queue, so queueing delay (not compute)
      // pushes nearly every completion past the 2 ms tau.
      for (int i = 0; i < 256 && !stop.load(std::memory_order_relaxed);
           ++i) {
        Status submitted = runtime.SubmitAsync(
            "j", OneHot(16, rng.Next64() % 16),
            [&](Result<EnsemblePrediction>) { ++callbacks; });
        if (submitted.ok()) ++accepted;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // Sustained overdue pressure with no replica headroom must downshift the
  // variant within the bound.
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::seconds(15);
  InferenceJobMetrics m;
  while (std::chrono::steady_clock::now() < deadline) {
    m = MustMetrics(runtime, "j");
    ExpectChargingInvariant(m);
    if (m.variant_level >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop = true;
  producer.join();
  EXPECT_GE(m.variant_level, 1);
  EXPECT_GE(m.variant_shifts, 1);

  // Quiesce and close the books: exactly one callback per accepted
  // request even across the variant shift.
  auto drain_deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    m = MustMetrics(runtime, "j");
  } while (m.queue_depth > 0 &&
           std::chrono::steady_clock::now() < drain_deadline);
  EXPECT_EQ(m.queue_depth, 0);
  EXPECT_EQ(callbacks.load(), accepted.load());
  EXPECT_EQ(m.arrived, m.processed + m.dropped + m.expired + m.queue_depth);
  ExpectChargingInvariant(m);
  ASSERT_TRUE(runtime.Undeploy("j").ok());
}

/// Reads until `want` responses parsed (or peer close); returns
/// (status, body) pairs in wire order.
std::vector<std::pair<int, std::string>> ReadResponses(int fd, size_t want) {
  std::vector<std::pair<int, std::string>> out;
  std::string buffered;
  net::HttpResponseParser parser;
  char buf[4096];
  while (out.size() < want) {
    Result<size_t> n = net::RecvSome(fd, buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    buffered.append(buf, *n);
    for (;;) {
      size_t consumed = parser.Feed(buffered.data(), buffered.size());
      buffered.erase(0, consumed);
      if (!parser.done()) break;
      out.emplace_back(parser.status(), parser.body());
      parser = net::HttpResponseParser();
      if (buffered.empty()) break;
    }
  }
  return out;
}

std::string Field(const std::string& body, const std::string& key) {
  for (const std::string& pair : Split(body, '&')) {
    if (StartsWith(pair, key + "=")) return pair.substr(key.size() + 1);
  }
  return "";
}

constexpr int64_t kHttpDim = 8;

/// Stores an 8 -> 8 identity MLP in the service's parameter server and
/// deploys it with `options`; returns the job id.
Result<std::string> DeployIdentityJob(api::Rafiki& service,
                                      const RuntimeOptions& options) {
  ps::ModelCheckpoint ckpt;
  Tensor weight({kHttpDim, kHttpDim});
  for (int64_t i = 0; i < kHttpDim; ++i) weight.at2(i, i) = 1.0f;
  ckpt.params.emplace_back("fc0/weight", weight);
  ckpt.params.emplace_back("fc0/bias", Tensor({1, kHttpDim}));
  ckpt.meta.accuracy = 0.9;
  RAFIKI_RETURN_IF_ERROR(
      service.parameter_server().PutModel("serve/replica-test/best", ckpt));
  api::ModelHandle handle;
  handle.scope = "serve/replica-test/best";
  handle.model_name = "mlp";
  handle.accuracy = 0.9;
  return service.Deploy({handle}, options);
}

TEST(ReplicaRuntimeTest, PipelinedHttpResponsesStayInSubmitOrder) {
  // Requests pipelined on one connection come back in submit order even
  // when their batches execute on different replicas. The HTTP data plane
  // sequences responses per connection; this drives it end-to-end through
  // a multi-replica job.
  api::Rafiki service;
  constexpr int64_t kDim = kHttpDim;
  RuntimeOptions serve_opts;
  serve_opts.tau = 0.5;
  serve_opts.batch_sizes = {1};  // maximal interleaving across replicas
  serve_opts.replicas = 2;
  auto deployed = DeployIdentityJob(service, serve_opts);
  ASSERT_TRUE(deployed.ok()) << deployed.status().ToString();

  api::Gateway gateway(&service);
  net::HttpServerOptions opts;
  opts.num_workers = 1;
  opts.max_pipeline = 64;
  net::HttpServer server(api::MakeGatewayAsyncHttpHandler(&gateway), opts);
  ASSERT_TRUE(server.Start().ok());

  for (int round = 0; round < 4; ++round) {
    auto sock = net::ConnectTcp("127.0.0.1", server.port(), 10.0);
    ASSERT_TRUE(sock.ok());
    constexpr size_t kPipelined = 32;
    std::string wire;
    for (size_t i = 0; i < kPipelined; ++i) {
      std::string body;
      for (int64_t d = 0; d < kDim; ++d) {
        body += (static_cast<size_t>(d) == i % kDim) ? "1" : "0";
        if (d + 1 < kDim) body += ",";
      }
      wire += "POST /query?job=" + *deployed + " HTTP/1.1\r\n" +
              "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
              body;
    }
    ASSERT_TRUE(net::WriteFull(sock->fd(), wire.data(), wire.size()).ok());
    auto responses = ReadResponses(sock->fd(), kPipelined);
    ASSERT_EQ(responses.size(), kPipelined) << "round " << round;
    for (size_t i = 0; i < kPipelined; ++i) {
      EXPECT_EQ(responses[i].first, 200) << responses[i].second;
      // The label identifies the request, so order is provable from the
      // wire: response i must answer request i.
      EXPECT_EQ(Field(responses[i].second, "label"),
                std::to_string(i % kDim))
          << "round " << round << " position " << i;
    }
  }

  auto metrics = service.InferenceMetrics(*deployed);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->replicas, 2);
  EXPECT_EQ(metrics->arrived,
            metrics->processed + metrics->dropped + metrics->expired +
                metrics->queue_depth);
  server.Stop();
}

TEST(ReplicaRuntimeTest, ClosedLoopRunsLeaveNoRequestBehind) {
  // Liveness: every request a 256-connection closed loop sends through the
  // async gateway to a 2-replica job gets its response on the wire within
  // the run. A reply stranded between the dispatcher's completion and the
  // event loop's flush would surface as a loadgen error at its hard stop.
  api::Rafiki service;
  RuntimeOptions serve_opts;
  serve_opts.replicas = 2;
  auto deployed = DeployIdentityJob(service, serve_opts);
  ASSERT_TRUE(deployed.ok()) << deployed.status().ToString();

  api::Gateway gateway(&service);
  net::HttpServerOptions opts;
  opts.num_workers = 2;
  opts.max_inflight = 1024;
  opts.listen_backlog = 1024;  // all 256 connections SYN at once
  net::HttpServer server(api::MakeGatewayAsyncHttpHandler(&gateway), opts);
  ASSERT_TRUE(server.Start().ok());

  net::LoadGenOptions load;
  load.port = server.port();
  load.method = "POST";
  load.target = "/jobs/" + *deployed + "/query";
  load.body = "0,1,0,0,0,0,0,0";
  load.open_loop = false;
  load.connections = 256;
  load.duration_seconds = 0.5;
  load.tau = 10.0;
  for (int run = 0; run < 3; ++run) {
    net::LoadGenReport report = net::RunLoadGen(load);
    EXPECT_EQ(report.errors, 0) << "run " << run << ": " << report.ToString();
    EXPECT_EQ(report.completed, report.arrived) << "run " << run;
    EXPECT_GT(report.completed, 0) << "run " << run;
  }
  server.Stop();

  net::HttpServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_total, stats.responses_total);
  auto metrics = service.InferenceMetrics(*deployed);
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->arrived,
            metrics->processed + metrics->dropped + metrics->expired +
                metrics->queue_depth);
}

}  // namespace
}  // namespace rafiki::serving
