#include <cmath>

#include "common/ring_deque.h"
#include "gtest/gtest.h"
#include "model/profile.h"
#include "serving/greedy_batch.h"
#include "serving/reward.h"
#include "serving/rl_scheduler.h"
#include "serving/simulator.h"
#include "serving/sine_arrival.h"

namespace rafiki::serving {
namespace {

std::vector<model::ModelProfile> SingleModel() {
  return {model::FindProfile("inception_v3").value()};
}

std::vector<model::ModelProfile> TripleModels() {
  return {model::FindProfile("inception_v3").value(),
          model::FindProfile("inception_v4").value(),
          model::FindProfile("inception_resnet_v2").value()};
}

ServingObs MakeObs(const std::vector<model::ModelProfile>& models,
                   const std::vector<int64_t>& batch_sizes, size_t queue_len,
                   double oldest_wait, double tau = 0.56) {
  static std::vector<int64_t> b;
  static std::vector<model::ModelProfile> m;
  b = batch_sizes;
  m = models;
  ServingObs obs;
  obs.tau = tau;
  obs.batch_sizes = &b;
  obs.models = &m;
  obs.queue_len = queue_len;
  if (queue_len > 0) obs.queue_waits = {oldest_wait};
  obs.busy_remaining.assign(models.size(), 0.0);
  return obs;
}

/// A queued request on virtual time.
struct Arrival {
  double arrival = 0.0;
};

/// Answers every decision with one fixed action and counts the decisions.
class FixedActionPolicy : public SchedulerPolicy {
 public:
  explicit FixedActionPolicy(ServingAction action) : action_(action) {}
  ServingAction Decide(const ServingObs& obs) override {
    ++decisions;
    seen_len = obs.queue_len;
    return action_;
  }
  std::string name() const override { return "fixed"; }

  int decisions = 0;
  size_t seen_len = 0;

 private:
  ServingAction action_;
};

ServingObs StepObs(double tau) {
  static const std::vector<int64_t> kB{1, 2, 4, 8};
  static const std::vector<model::ModelProfile> kModels(1);
  ServingObs obs;
  obs.tau = tau;
  obs.batch_sizes = &kB;
  obs.models = &kModels;
  obs.busy_remaining.assign(1, 0.0);
  return obs;
}

TEST(DispatchStepTest, ExpiresExactlyThePrefixOlderThanTau) {
  RingDeque<Arrival> queue;
  // At now = 2 with tau = 1 the waits are 2, 1.5, 1, 0.5 and 1.8: the first
  // two are older than tau, the third is exactly tau (not expired), and
  // the stale fifth is not part of the prefix.
  for (double arrival : {0.0, 0.5, 1.0, 1.5, 0.2}) {
    queue.push_back(Arrival{arrival});
  }
  FixedActionPolicy policy(ServingAction{true, 1u, 8});
  ServingObs obs = StepObs(/*tau=*/1.0);
  DispatchStep step = StepDispatch(policy, queue, 2.0, /*expire=*/true, &obs);
  EXPECT_EQ(step.expire, 2u);
  EXPECT_EQ(step.take, 0);
  EXPECT_EQ(policy.decisions, 0) << "an expiring step decides nothing";
  EXPECT_EQ(queue.size(), 5u) << "the step only counts; the caller pops";

  // Without expiry the same queue goes straight to the policy.
  step = StepDispatch(policy, queue, 2.0, /*expire=*/false, &obs);
  EXPECT_EQ(step.expire, 0u);
  EXPECT_EQ(policy.decisions, 1);

  // Once the caller removed the prefix, the next step decides.
  queue.pop_front();
  queue.pop_front();
  step = StepDispatch(policy, queue, 2.0, /*expire=*/true, &obs);
  EXPECT_EQ(step.expire, 0u);
  EXPECT_EQ(policy.decisions, 2);
  EXPECT_EQ(policy.seen_len, 3u);
  EXPECT_EQ(step.take, 3);
}

TEST(DispatchStepTest, ClampsTheBatchToTheQueue) {
  RingDeque<Arrival> queue;
  for (int i = 0; i < 3; ++i) queue.push_back(Arrival{0.0});
  ServingObs obs = StepObs(/*tau=*/1.0);
  struct Case {
    ServingAction action;
    int64_t take;
  };
  for (const Case& c : {Case{{true, 1u, 8}, 3}, Case{{true, 1u, 2}, 2},
                        Case{{true, 1u, 3}, 3}, Case{{true, 1u, 0}, 0},
                        Case{{true, 1u, -4}, 0}, Case{{false, 1u, 8}, 0}}) {
    FixedActionPolicy policy(c.action);
    DispatchStep step =
        StepDispatch(policy, queue, 0.5, /*expire=*/false, &obs);
    EXPECT_EQ(step.take, c.take) << "batch " << c.action.batch_size;
    // The action itself is kept for Feedback.
    EXPECT_EQ(step.action.batch_size, c.action.batch_size);
  }
  EXPECT_EQ(queue.size(), 3u);
}

TEST(DispatchStepTest, ObservesAtMost64Waits) {
  FixedActionPolicy policy(ServingAction{});
  ServingObs obs = StepObs(/*tau=*/10.0);
  RingDeque<Arrival> queue;
  for (int i = 0; i < 10; ++i) queue.push_back(Arrival{0.01 * i});
  StepDispatch(policy, queue, 2.0, /*expire=*/false, &obs);
  EXPECT_EQ(obs.queue_len, 10u);
  EXPECT_EQ(obs.queue_waits.size(), 10u);
  for (int i = 10; i < 100; ++i) queue.push_back(Arrival{0.01 * i});
  StepDispatch(policy, queue, 2.0, /*expire=*/false, &obs);
  EXPECT_EQ(obs.queue_len, 100u);
  ASSERT_EQ(obs.queue_waits.size(), kMaxObservedWaits);
  EXPECT_EQ(kMaxObservedWaits, 64u);
  // Oldest first, measured from `now`.
  EXPECT_DOUBLE_EQ(obs.queue_waits.front(), 2.0);
  EXPECT_DOUBLE_EQ(obs.queue_waits.back(), 2.0 - 0.01 * 63);
}

TEST(SineArrivalTest, CalibrationMatchesEquations) {
  SineArrivalProcess arrivals(/*target_rate=*/272.0, /*period=*/280.0, 1);
  // Equation 9: peak is 1.1 * target.
  EXPECT_NEAR(arrivals.peak_rate(), 1.1 * 272.0, 1e-6);
  // Equation 8: rate above target for 20% of the cycle.
  EXPECT_NEAR(arrivals.FractionAboveTarget(), 0.2, 0.01);
  // Trough is non-negative.
  EXPECT_GE(arrivals.offset() - arrivals.gamma(), 0.0);
}

TEST(SineArrivalTest, ArrivalsIntegrateToExpectedCount) {
  SineArrivalProcess arrivals(100.0, 50.0, 2, /*noise_stddev=*/0.1);
  int64_t total = 0;
  double t = 0.0, dt = 0.05;
  for (int i = 0; i < 2000; ++i, t += dt) {
    total += arrivals.Arrivals(t, dt);
  }
  // 100 s of mean-rate ~57.6% of peak... integrate the analytic rate.
  double expected = 0.0;
  for (int i = 0; i < 2000; ++i) {
    expected += arrivals.Rate(i * dt) * dt;
  }
  EXPECT_NEAR(static_cast<double>(total), expected, expected * 0.05);
}

TEST(SineArrivalTest, NoiseIsSeedDeterministic) {
  SineArrivalProcess a(100.0, 50.0, 7);
  SineArrivalProcess b(100.0, 50.0, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Arrivals(i * 0.1, 0.1), b.Arrivals(i * 0.1, 0.1));
  }
}

TEST(LargestFeasibleBatchTest, PicksFloorBatch) {
  std::vector<int64_t> B{16, 32, 48, 64};
  EXPECT_EQ(LargestFeasibleBatch(B, 70), 64);
  EXPECT_EQ(LargestFeasibleBatch(B, 64), 64);
  EXPECT_EQ(LargestFeasibleBatch(B, 40), 32);
  EXPECT_EQ(LargestFeasibleBatch(B, 16), 16);
  EXPECT_EQ(LargestFeasibleBatch(B, 10), 0);
  EXPECT_EQ(LargestFeasibleBatch(B, 0), 0);
}

TEST(GreedyBatchTest, FullQueueDispatchesMaxBatch) {
  GreedyBatchPolicy policy(0);
  auto obs = MakeObs(SingleModel(), {16, 32, 48, 64}, 100, 0.01);
  ServingAction a = policy.Decide(obs);
  EXPECT_TRUE(a.process);
  EXPECT_EQ(a.batch_size, 64);
  EXPECT_EQ(a.model_mask, 1u);
}

TEST(GreedyBatchTest, ShortQueueWaitsUntilDeadline) {
  GreedyBatchPolicy policy(0);
  // 20 requests, fresh: c(16)=0.07 + 0 + 0.056 < 0.56 -> wait.
  auto obs = MakeObs(SingleModel(), {16, 32, 48, 64}, 20, 0.0);
  EXPECT_FALSE(policy.Decide(obs).process);
  // Same queue but the oldest is about to overdue -> flush 16.
  obs = MakeObs(SingleModel(), {16, 32, 48, 64}, 20, 0.5);
  ServingAction a = policy.Decide(obs);
  EXPECT_TRUE(a.process);
  EXPECT_EQ(a.batch_size, 16);
}

TEST(GreedyBatchTest, PartialFlushBelowMinBatch) {
  GreedyBatchPolicy policy(0);
  // 5 requests (below min B) and deadline pressure -> flush 5.
  auto obs = MakeObs(SingleModel(), {16, 32, 48, 64}, 5, 0.54);
  ServingAction a = policy.Decide(obs);
  EXPECT_TRUE(a.process);
  EXPECT_EQ(a.batch_size, 5);
}

TEST(GreedyBatchTest, BusyModelWaits) {
  GreedyBatchPolicy policy(0);
  auto obs = MakeObs(SingleModel(), {16, 32, 48, 64}, 100, 0.5);
  obs.busy_remaining[0] = 0.1;
  EXPECT_FALSE(policy.Decide(obs).process);
}

TEST(GreedyBatchTest, EmptyQueueWaits) {
  GreedyBatchPolicy policy(0);
  auto obs = MakeObs(SingleModel(), {16, 32, 48, 64}, 0, 0.0);
  EXPECT_FALSE(policy.Decide(obs).process);
}

TEST(SyncEnsembleTest, SelectsAllModels) {
  SyncEnsembleGreedyPolicy policy;
  auto obs = MakeObs(TripleModels(), {16, 32, 48, 64}, 100, 0.01);
  ServingAction a = policy.Decide(obs);
  EXPECT_TRUE(a.process);
  EXPECT_EQ(a.model_mask, 0b111u);
  // One busy model blocks the synchronous ensemble.
  obs.busy_remaining[2] = 0.2;
  EXPECT_FALSE(policy.Decide(obs).process);
}

TEST(AsyncNoEnsembleTest, RoundRobinsOverFreeModels) {
  AsyncNoEnsemblePolicy policy;
  auto obs = MakeObs(TripleModels(), {16, 32, 48, 64}, 200, 0.01);
  ServingAction a1 = policy.Decide(obs);
  ServingAction a2 = policy.Decide(obs);
  ServingAction a3 = policy.Decide(obs);
  EXPECT_TRUE(a1.process && a2.process && a3.process);
  EXPECT_NE(a1.model_mask, a2.model_mask);
  EXPECT_NE(a2.model_mask, a3.model_mask);
  // Single-model masks only (no ensemble).
  for (uint32_t m : {a1.model_mask, a2.model_mask, a3.model_mask}) {
    EXPECT_EQ(__builtin_popcount(m), 1);
  }
}

TEST(AsyncNoEnsembleTest, SkipsBusyModels) {
  AsyncNoEnsemblePolicy policy;
  auto obs = MakeObs(TripleModels(), {16, 32, 48, 64}, 200, 0.01);
  obs.busy_remaining[0] = 1.0;
  ServingAction a = policy.Decide(obs);
  EXPECT_TRUE(a.process);
  EXPECT_NE(a.model_mask, 0b001u);
}

TEST(RewardTest, Equation7Values) {
  EXPECT_DOUBLE_EQ(BatchReward(0.8, 64, 0, 1.0), 0.8 * 64);
  EXPECT_DOUBLE_EQ(BatchReward(0.8, 64, 10, 1.0), 0.8 * 54);
  // beta = 0 ignores overdues entirely (Figure 16 ablation).
  EXPECT_DOUBLE_EQ(BatchReward(0.8, 64, 10, 0.0), 0.8 * 64);
  EXPECT_DOUBLE_EQ(BatchReward(0.8, 16, 32, 2.0), 0.8 * (16 - 64));
}

TEST(RlSchedulerTest, ActionSpaceSizeMatchesPaper) {
  // (2^|M| - 1) * |B| (§5.2).
  RlSchedulerOptions options;
  RlSchedulerPolicy single(1, {16, 32, 48, 64}, nullptr, options);
  EXPECT_EQ(single.num_actions(), 4);
  model::EnsembleAccuracyTable table(TripleModels(),
                                     model::PredictionSimOptions{}, 2000);
  RlSchedulerPolicy multi(3, {16, 32, 48, 64}, &table, options);
  EXPECT_EQ(multi.num_actions(), 7 * 4);
}

TEST(RlSchedulerTest, StateFeaturization) {
  RlSchedulerOptions options;
  options.queue_feature_len = 4;
  model::EnsembleAccuracyTable table(TripleModels(),
                                     model::PredictionSimOptions{}, 2000);
  RlSchedulerPolicy policy(3, {16, 32}, &table, options);
  // 4 waits + 1 len + 3*2 c(m,b) + 3 busy = 14.
  EXPECT_EQ(policy.state_dim(), 14);
  auto obs = MakeObs(TripleModels(), {16, 32}, 2, 0.28);
  obs.queue_waits = {0.28, 0.14};
  obs.busy_remaining = {0.0, 0.28, 0.56};
  std::vector<double> f = policy.Featurize(obs);
  ASSERT_EQ(f.size(), 14u);
  EXPECT_NEAR(f[0], 0.5, 1e-9);   // 0.28 / tau
  EXPECT_NEAR(f[1], 0.25, 1e-9);  // 0.14 / tau
  EXPECT_NEAR(f[2], 0.0, 1e-9);   // padding
  EXPECT_NEAR(f[13], 1.0, 1e-9);  // busy 0.56 / tau
}

TEST(RlSchedulerTest, SingleModelOmitsModelStatus) {
  // §7.2.1: "the state is the same except the model related status is
  // removed".
  RlSchedulerOptions options;
  options.queue_feature_len = 8;
  RlSchedulerPolicy policy(1, {16, 32, 48, 64}, nullptr, options);
  EXPECT_EQ(policy.state_dim(), 9);  // 8 waits + queue len only
}

TEST(RlSchedulerTest, EmptyQueueNeverProcesses) {
  RlSchedulerOptions options;
  RlSchedulerPolicy policy(1, {16, 32, 48, 64}, nullptr, options);
  auto obs = MakeObs(SingleModel(), {16, 32, 48, 64}, 0, 0.0);
  EXPECT_FALSE(policy.Decide(obs).process);
}

TEST(RlSchedulerTest, SingleModelConvergesToEq7OptimumOnVirtualTime) {
  // RlSingleModelLiveConvergesToEq7Optimum's scenario run through the
  // dispatch step on virtual time: a zero-latency profile and tau = 10 s,
  // so nothing is overdue and the Equation 7 reward is a * min(b, queue);
  // the optimum at a full queue of 8 is the largest batch. Each of 400
  // rounds queues 8 arrivals and dispatches until the queue is empty, as
  // the live dispatcher does. No threads, no clock: every seed converges.
  const std::vector<int64_t> kBatches = {1, 2, 4, 8};
  std::vector<model::ModelProfile> profiles(1);  // zero-latency
  profiles[0].top1_accuracy = 0.9;
  for (uint64_t seed = 11; seed <= 20; ++seed) {
    RlSchedulerOptions rl;
    rl.agent.seed = seed;
    rl.agent.update_every = 16;
    rl.agent.policy_lr = 5e-3;
    rl.agent.value_lr = 5e-3;
    rl.throughput_shaping = 0.0;  // pure Equation 7
    RlSchedulerPolicy policy(1, kBatches, /*accuracy_table=*/nullptr, rl);
    ServingObs obs;
    obs.tau = 10.0;
    obs.batch_sizes = &kBatches;
    obs.models = &profiles;
    obs.busy_remaining.assign(1, 0.0);

    RingDeque<Arrival> queue;
    double now = 0.0;
    int64_t learn_steps = 0;
    for (int round = 0; round < 400; ++round) {
      for (int i = 0; i < 8; ++i) queue.push_back(Arrival{now});
      while (!queue.empty()) {
        now += 1e-3;
        DispatchStep step =
            StepDispatch(policy, queue, now, /*expire=*/false, &obs);
        ASSERT_GT(step.take, 0) << "RL waited on a non-empty queue";
        for (int64_t i = 0; i < step.take; ++i) queue.pop_front();
        policy.Feedback(obs, step.action,
                        BatchReward(0.9, step.take, /*overdue_count=*/0,
                                    /*beta=*/1.0));
        ++learn_steps;
      }
    }
    EXPECT_GT(learn_steps, 400);

    // Evaluate the learned policy greedily at a full-queue state.
    policy.set_explore(false);
    obs.queue_waits.assign(8, 0.001);
    obs.queue_len = 8;
    ServingAction action = policy.Decide(obs);
    ASSERT_TRUE(action.process);
    EXPECT_EQ(action.model_mask, 1u);
    EXPECT_EQ(action.batch_size, 8)
        << "seed " << seed << " did not converge to the Eq. 7 optimum";
  }
}

TEST(SimulatorTest, ConservationOfRequests) {
  ServingSimOptions options;
  options.duration_seconds = 120.0;
  ServingSimulator sim(SingleModel(), nullptr, options);
  SineArrivalProcess arrivals(250.0, 140.0, 3);
  GreedyBatchPolicy policy(0);
  ServingMetrics m = sim.Run(policy, arrivals);
  EXPECT_GT(m.total_arrived, 0);
  // Exact conservation: arrived = processed + dropped + residual queue.
  EXPECT_EQ(m.total_arrived,
            m.total_processed + m.total_dropped + m.total_residual);
  EXPECT_GE(m.total_processed,
            static_cast<int64_t>(0.9 * static_cast<double>(m.total_arrived)));
  EXPECT_FALSE(m.windows.empty());
}

TEST(SimulatorTest, OverloadAccountingBalancesExactly) {
  // Saturating load with a tiny queue forces drops AND a residual queue,
  // exercising both fixed accounting paths: the overflow metrics bucket
  // (batches completing past the horizon) folded into the last window, and
  // the end-of-run residual counted as overdue.
  ServingSimOptions options;
  options.duration_seconds = 60.0;
  options.queue_capacity = 200;
  ServingSimulator sim(SingleModel(), nullptr, options);
  // Single inception_v3 caps out at ~272 req/s at b = 64.
  SineArrivalProcess arrivals(500.0, 70.0, 11);
  GreedyBatchPolicy policy(0);
  ServingMetrics m = sim.Run(policy, arrivals);

  EXPECT_GT(m.total_dropped, 0) << "test load should overflow the queue";
  EXPECT_GT(m.total_residual, 0) << "test load should leave a residual";
  EXPECT_EQ(m.total_arrived,
            m.total_processed + m.total_dropped + m.total_residual);

  int64_t window_arrived = 0;
  int64_t window_processed = 0;
  int64_t window_overdue = 0;
  for (const WindowSample& w : m.windows) {
    window_arrived += w.arrived;
    window_processed += w.processed;
    window_overdue += w.overdue;
  }
  EXPECT_EQ(window_arrived, m.total_arrived);
  EXPECT_EQ(window_processed, m.total_processed)
      << "overflow bucket was not folded into the last window";
  EXPECT_EQ(window_overdue, m.total_overdue + m.total_dropped);
}

TEST(SimulatorTest, UnderloadHasFewOverdue) {
  ServingSimOptions options;
  options.duration_seconds = 200.0;
  ServingSimulator sim(SingleModel(), nullptr, options);
  // 100 req/s is far below the 272 req/s capacity.
  SineArrivalProcess arrivals(100.0, 140.0, 4);
  GreedyBatchPolicy policy(0);
  ServingMetrics m = sim.Run(policy, arrivals);
  EXPECT_LT(m.OverdueFraction(), 0.05);
  EXPECT_LT(m.mean_latency, options.tau);
}

TEST(SimulatorTest, ThroughputCappedByModel) {
  ServingSimOptions options;
  options.duration_seconds = 150.0;
  ServingSimulator sim(SingleModel(), nullptr, options);
  // Double the sustainable rate: processing must cap near 278 req/s.
  SineArrivalProcess arrivals(550.0, 140.0, 5);
  GreedyBatchPolicy policy(0);
  ServingMetrics m = sim.Run(policy, arrivals);
  double processed_rate = static_cast<double>(m.total_processed) /
                          options.duration_seconds;
  EXPECT_LT(processed_rate, 290.0);
  EXPECT_GT(processed_rate, 250.0);
}

TEST(SimulatorTest, SyncEnsembleAccuracyIsConstant) {
  model::EnsembleAccuracyTable table(TripleModels(),
                                     model::PredictionSimOptions{}, 5000);
  ServingSimOptions options;
  options.duration_seconds = 100.0;
  ServingSimulator sim(TripleModels(), &table, options);
  SineArrivalProcess arrivals(128.0, 280.0, 6);
  SyncEnsembleGreedyPolicy policy;
  ServingMetrics m = sim.Run(policy, arrivals);
  // Figure 14a: the all-models baseline has one fixed accuracy.
  double expected = table.Accuracy(0b111);
  for (const WindowSample& w : m.windows) {
    if (w.processed_per_sec > 0) {
      EXPECT_NEAR(w.mean_accuracy, expected, 1e-9);
    }
  }
}

TEST(SimulatorTest, AsyncBaselineHasHigherThroughputLowerAccuracy) {
  model::EnsembleAccuracyTable table(TripleModels(),
                                     model::PredictionSimOptions{}, 5000);
  ServingSimOptions options;
  options.duration_seconds = 150.0;

  ServingSimulator sim1(TripleModels(), &table, options);
  SineArrivalProcess a1(500.0, 280.0, 7);
  AsyncNoEnsemblePolicy async_policy;
  ServingMetrics async_m = sim1.Run(async_policy, a1);

  ServingSimulator sim2(TripleModels(), &table, options);
  SineArrivalProcess a2(500.0, 280.0, 7);
  SyncEnsembleGreedyPolicy sync_policy;
  ServingMetrics sync_m = sim2.Run(sync_policy, a2);

  // At overload, async (no ensemble) processes more but less accurately.
  EXPECT_GT(async_m.total_processed, sync_m.total_processed);
  EXPECT_LT(async_m.mean_accuracy, sync_m.mean_accuracy);
}

TEST(SimulatorTest, RlLearnsToAvoidLeftoverOverdue) {
  // The Figure 13 effect: at min-throughput arrivals the greedy policy
  // leaves sub-batch requests to overdue; the RL scheduler learns to flush
  // them. Train, then compare a fresh evaluation run.
  ServingSimOptions options;
  options.duration_seconds = 400.0;
  auto model = SingleModel();
  double min_rate = 16.0 / model[0].BatchLatency(16);

  ServingSimulator greedy_sim(model, nullptr, options);
  SineArrivalProcess a1(min_rate, 280.0, 8);
  GreedyBatchPolicy greedy(0);
  ServingMetrics greedy_m = greedy_sim.Run(greedy, a1);

  RlSchedulerOptions rl_options;
  RlSchedulerPolicy rl(1, options.batch_sizes, nullptr, rl_options);
  ServingSimOptions train = options;
  train.duration_seconds = 2000.0;
  ServingSimulator train_sim(model, nullptr, train);
  SineArrivalProcess a2(min_rate, 280.0, 9);
  train_sim.Run(rl, a2);

  ServingSimulator eval_sim(model, nullptr, options);
  SineArrivalProcess a3(min_rate, 280.0, 10);
  ServingMetrics rl_m = eval_sim.Run(rl, a3);

  EXPECT_LE(rl_m.total_overdue, greedy_m.total_overdue)
      << "trained RL should not have more overdue than greedy at low rate";
}

}  // namespace
}  // namespace rafiki::serving
