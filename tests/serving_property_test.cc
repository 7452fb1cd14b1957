// Parameterized property sweeps over the serving stack: conservation and
// bound invariants that must hold for every policy at every load level.

#include <cmath>
#include <map>
#include <set>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "model/profile.h"
#include "serving/greedy_batch.h"
#include "serving/inference_runtime.h"
#include "serving/rl_scheduler.h"
#include "serving/simulator.h"
#include "serving/sine_arrival.h"

namespace rafiki::serving {
namespace {

std::vector<model::ModelProfile> Triple() {
  return {model::FindProfile("inception_v3").value(),
          model::FindProfile("inception_v4").value(),
          model::FindProfile("inception_resnet_v2").value()};
}

/// The map-based majority vote the runtime used before it voted on
/// scratch buffers, kept as the oracle.
std::vector<EnsemblePrediction> MapVoteOracle(
    const std::vector<std::vector<int64_t>>& votes,
    const std::vector<double>& accuracies) {
  size_t rows = votes[0].size();
  std::vector<EnsemblePrediction> out(rows);
  for (size_t r = 0; r < rows; ++r) {
    std::map<int64_t, int> counts;
    EnsemblePrediction& p = out[r];
    for (const std::vector<int64_t>& model_votes : votes) {
      p.votes.push_back(model_votes[r]);
      ++counts[model_votes[r]];
    }
    int best_votes = 0;
    for (const auto& [label, n] : counts) best_votes = std::max(best_votes, n);
    double best_acc = -1.0;
    for (size_t m = 0; m < votes.size(); ++m) {
      int64_t label = votes[m][r];
      if (counts[label] == best_votes && accuracies[m] > best_acc) {
        best_acc = accuracies[m];
        p.label = label;
      }
    }
  }
  return out;
}

TEST(MajorityVoteProperty, MatchesTheMapOracle) {
  // Few classes make ties common, and accuracies drawn from a short list
  // repeat, so the tie-break's "first most accurate" order is exercised.
  Rng rng(20261021);
  const double kAccuracies[] = {0.5, 0.7, 0.7, 0.9, 0.9, 0.95};
  for (int trial = 0; trial < 2000; ++trial) {
    auto models = static_cast<size_t>(rng.UniformInt(1, 31));
    auto rows = static_cast<size_t>(rng.UniformInt(1, 64));
    int64_t classes = rng.UniformInt(2, 4);
    std::vector<std::vector<int64_t>> votes(models,
                                            std::vector<int64_t>(rows));
    std::vector<double> accuracies(models);
    for (size_t m = 0; m < models; ++m) {
      accuracies[m] = kAccuracies[rng.UniformInt(0, 5)];
      for (int64_t& label : votes[m]) label = rng.UniformInt(0, classes - 1);
    }
    std::vector<EnsemblePrediction> want = MapVoteOracle(votes, accuracies);
    std::vector<EnsemblePrediction> got = MajorityVoteRows(votes, accuracies);
    ASSERT_EQ(got.size(), want.size());
    for (size_t r = 0; r < rows; ++r) {
      ASSERT_EQ(got[r].label, want[r].label)
          << "trial " << trial << " row " << r << " models " << models;
      ASSERT_EQ(got[r].votes, want[r].votes) << "trial " << trial;
    }
  }
}

/// (policy kind, load as a fraction of the 3-model max throughput).
using Config = std::tuple<int, double>;

class ServingSweepTest : public ::testing::TestWithParam<Config> {};

TEST_P(ServingSweepTest, ConservationAndBounds) {
  auto [policy_kind, load] = GetParam();
  auto models = Triple();
  model::EnsembleAccuracyTable table(models, model::PredictionSimOptions{},
                                     4000);
  ServingSimOptions options;
  options.duration_seconds = 200.0;
  options.queue_capacity = 3000;
  ServingSimulator sim(models, &table, options);
  double rate = load * model::MaxThroughput(models, 64);
  SineArrivalProcess arrivals(rate, 280.0, 97);

  std::unique_ptr<SchedulerPolicy> policy;
  switch (policy_kind) {
    case 0:
      policy = std::make_unique<SyncEnsembleGreedyPolicy>();
      break;
    case 1:
      policy = std::make_unique<AsyncNoEnsemblePolicy>();
      break;
    default: {
      RlSchedulerOptions rl_options;
      policy = std::make_unique<RlSchedulerPolicy>(3, options.batch_sizes,
                                                   &table, rl_options);
    }
  }
  ServingMetrics m = sim.Run(*policy, arrivals);

  // Exact conservation: every arrived request is processed, dropped, or
  // still queued at the horizon (the residual, counted as overdue).
  EXPECT_EQ(m.total_arrived,
            m.total_processed + m.total_dropped + m.total_residual);
  EXPECT_GE(m.total_processed, 0);
  EXPECT_GE(m.total_residual, 0);
  // Overdue is a subset of processed plus the never-served residual.
  EXPECT_LE(m.total_overdue, m.total_processed + m.total_residual);
  // Accuracy of any served mix is within the single-model/ensemble hull.
  if (m.total_processed > 0) {
    double lo = 1.0, hi = 0.0;
    for (uint32_t mask = 1; mask < 8; ++mask) {
      lo = std::min(lo, table.Accuracy(mask));
      hi = std::max(hi, table.Accuracy(mask));
    }
    EXPECT_GE(m.mean_accuracy, lo - 1e-9);
    EXPECT_LE(m.mean_accuracy, hi + 1e-9);
    EXPECT_GE(m.mean_latency, 0.0);
  }
  // Window series agree with the run totals exactly: the overflow bucket
  // (batches completing past the horizon) is folded into the last window
  // and the raw counts back the rates.
  int64_t window_arrived = 0;
  int64_t window_processed = 0;
  int64_t window_overdue = 0;
  for (const WindowSample& w : m.windows) {
    EXPECT_GE(w.arrived, 0);
    EXPECT_GE(w.processed, 0);
    EXPECT_GE(w.overdue, 0);
    EXPECT_DOUBLE_EQ(w.processed_per_sec,
                     static_cast<double>(w.processed) /
                         options.metrics_window);
    window_arrived += w.arrived;
    window_processed += w.processed;
    window_overdue += w.overdue;
  }
  EXPECT_EQ(window_arrived, m.total_arrived);
  EXPECT_EQ(window_processed, m.total_processed)
      << "window accounting lost a batch";
  // Window overdue includes queue drops; run totals keep them separate.
  EXPECT_EQ(window_overdue, m.total_overdue + m.total_dropped);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesTimesLoads, ServingSweepTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0.2, 0.7, 1.2)));

class SineSweepTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SineSweepTest, CalibrationHoldsAcrossRatesAndPeriods) {
  auto [rate, period] = GetParam();
  SineArrivalProcess arrivals(rate, period, 7);
  // Equation 9: peak = 1.1 * target; Equation 8: 20% of cycle above it.
  EXPECT_NEAR(arrivals.peak_rate(), 1.1 * rate, 1e-9 * rate);
  EXPECT_NEAR(arrivals.FractionAboveTarget(), 0.2, 0.01);
  // Rate never negative anywhere in the cycle.
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(arrivals.Rate(period * i / 200.0), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RatesTimesPeriods, SineSweepTest,
    ::testing::Combine(::testing::Values(50.0, 272.0, 572.0),
                       ::testing::Values(50.0, 280.0, 1000.0)));

class GreedyInvariantTest : public ::testing::TestWithParam<size_t> {};

TEST_P(GreedyInvariantTest, NeverOverdrawsQueueOrBusyModels) {
  size_t queue_len = GetParam();
  static std::vector<int64_t> batches{16, 32, 48, 64};
  static std::vector<model::ModelProfile> models = Triple();
  for (int busy_mask = 0; busy_mask < 8; ++busy_mask) {
    for (double wait : {0.0, 0.2, 0.5, 1.0}) {
      ServingObs obs;
      obs.tau = 0.56;
      obs.batch_sizes = &batches;
      obs.models = &models;
      obs.queue_len = queue_len;
      if (queue_len > 0) obs.queue_waits = {wait};
      obs.busy_remaining = {busy_mask & 1 ? 0.3 : 0.0,
                            busy_mask & 2 ? 0.3 : 0.0,
                            busy_mask & 4 ? 0.3 : 0.0};
      SyncEnsembleGreedyPolicy sync;
      AsyncNoEnsemblePolicy async;
      GreedyBatchPolicy single(0);
      for (SchedulerPolicy* p :
           std::initializer_list<SchedulerPolicy*>{&sync, &async, &single}) {
        ServingAction a = p->Decide(obs);
        if (!a.process) continue;
        EXPECT_LE(a.batch_size, static_cast<int64_t>(queue_len))
            << p->name() << " overdraws the queue";
        EXPECT_NE(a.model_mask, 0u);
        for (size_t m = 0; m < 3; ++m) {
          if (a.model_mask & (1u << m)) {
            EXPECT_EQ(obs.busy_remaining[m], 0.0)
                << p->name() << " dispatched to a busy model";
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(QueueLengths, GreedyInvariantTest,
                         ::testing::Values(0, 1, 5, 16, 40, 64, 200));

TEST(PushWakesPropertyTest, APushThatSleepsNeverChangesThePlan) {
  // A dispatcher that Algorithm 3 told to wait sleeps until flush_in
  // unless a push wakes it. So every push PushWakes lets sleep must leave
  // PlanGreedy's batch and flush_in exactly as they were. c(b) grows with
  // b, so a push below min(B) that slept would show as an earlier
  // flush_in.
  Rng rng(31);
  int64_t sleeping = 0;
  int64_t changed = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::set<int64_t> sizes;
    int64_t min_b = rng.UniformInt(1, 32);
    sizes.insert(min_b);
    for (int64_t k = rng.UniformInt(0, 4); k > 0; --k) {
      sizes.insert(min_b + rng.UniformInt(1, 64));
    }
    const std::vector<int64_t> batch_sizes(sizes.begin(), sizes.end());
    std::vector<model::ModelProfile> models(
        static_cast<size_t>(rng.UniformInt(1, 3)));
    for (model::ModelProfile& m : models) {
      m.latency_intercept = rng.Uniform(0.0, 0.01);
      m.latency_slope = rng.Uniform(1e-4, 2e-3);
    }
    auto mask = static_cast<uint32_t>(
        rng.UniformInt(1, (int64_t{1} << models.size()) - 1));
    const double tau = rng.Uniform(0.05, 1.0);
    const double delta = 0.1 * tau;

    // A queue of len requests, oldest first, then one push at the same
    // instant: the new request waits 0.
    auto len = static_cast<size_t>(rng.UniformInt(1, *sizes.rbegin() + 8));
    ServingObs before;
    before.tau = tau;
    before.batch_sizes = &batch_sizes;
    before.models = &models;
    before.queue_len = len;
    double wait = rng.Uniform(0.0, tau);
    for (size_t i = 0; i < std::min(len, kMaxObservedWaits); ++i) {
      before.queue_waits.push_back(wait);
      wait = rng.Uniform(0.0, wait);
    }
    ServingObs after = before;
    after.queue_len = len + 1;
    if (after.queue_waits.size() < kMaxObservedWaits) {
      after.queue_waits.push_back(0.0);
    }
    if (PushWakes(batch_sizes, len + 1)) continue;

    ++sleeping;
    GreedyPlan plan = PlanGreedy(before, mask, delta);
    GreedyPlan next = PlanGreedy(after, mask, delta);
    if (plan.batch != next.batch || plan.flush_in != next.flush_in) ++changed;
  }
  RecordProperty("pushes_that_slept", std::to_string(sleeping));
  EXPECT_GT(sleeping, 5000);
  EXPECT_EQ(changed, 0) << "of " << sleeping << " pushes that slept";
}

}  // namespace
}  // namespace rafiki::serving
