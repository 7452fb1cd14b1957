#include "serving/simulator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/ring_deque.h"
#include "serving/reward.h"

namespace rafiki::serving {
namespace {

/// Per-window accumulators flushed into WindowSample points.
struct WindowAccum {
  int64_t arrived = 0;
  int64_t processed = 0;
  int64_t overdue = 0;
  double accuracy_sum = 0.0;
  double reward_sum = 0.0;
  int64_t batches = 0;
};

/// A queued request; only its arrival time matters to the scheduler.
struct Queued {
  double arrival = 0.0;
};

}  // namespace

ServingSimulator::ServingSimulator(
    std::vector<model::ModelProfile> models,
    const model::EnsembleAccuracyTable* accuracy_table,
    ServingSimOptions options)
    : models_(std::move(models)),
      accuracy_table_(accuracy_table),
      options_(std::move(options)) {
  RAFIKI_CHECK(!models_.empty());
  RAFIKI_CHECK(!options_.batch_sizes.empty());
  if (models_.size() > 1) {
    RAFIKI_CHECK(accuracy_table != nullptr);
  }
}

ServingMetrics ServingSimulator::Run(SchedulerPolicy& policy,
                                     SineArrivalProcess& arrivals) {
  const double dt = options_.decision_interval;
  const double duration = options_.duration_seconds;
  const size_t num_models = models_.size();
  const auto num_windows = static_cast<size_t>(
      std::ceil(duration / options_.metrics_window));
  RAFIKI_CHECK_GE(num_windows, 1u) << "run must span at least one window";

  RingDeque<Queued> queue;
  std::vector<double> busy_until(num_models, 0.0);
  std::vector<WindowAccum> windows(num_windows + 1);
  ServingMetrics metrics;
  double latency_sum = 0.0;
  ServingObs obs;  // capacity reused across decisions
  obs.tau = options_.tau;
  obs.batch_sizes = &options_.batch_sizes;
  obs.models = &models_;
  obs.busy_remaining.resize(num_models);

  auto window_of = [&](double t) {
    auto w = static_cast<size_t>(t / options_.metrics_window);
    return std::min(w, num_windows);
  };

  for (double t = 0.0; t < duration; t += dt) {
    // 1. New arrivals. Beyond the queue's capacity they are dropped, which
    // is overdue by construction (no response within tau).
    int64_t n = arrivals.Arrivals(t, dt);
    int64_t dropped = 0;
    for (int64_t i = 0; i < n; ++i) {
      if (queue.size() >= options_.queue_capacity) {
        ++dropped;
      } else {
        queue.push_back(Queued{t});
      }
    }
    metrics.total_arrived += n;
    windows[window_of(t)].arrived += n;
    windows[window_of(t)].overdue += dropped;
    metrics.total_dropped += dropped;

    // 2. Decision sweep: at most one dispatch per model per instant.
    for (size_t sweep = 0; sweep < num_models; ++sweep) {
      if (queue.empty()) break;
      for (size_t m = 0; m < num_models; ++m) {
        obs.busy_remaining[m] = std::max(0.0, busy_until[m] - t);
      }
      DispatchStep step =
          StepDispatch(policy, queue, t, /*expire=*/false, &obs);
      const ServingAction& action = step.action;
      if (step.take == 0 || action.model_mask == 0) break;

      // The simulator enforces physical constraints: selected models must
      // be free (the step already clamped the batch to the queue).
      bool any_busy = false;
      for (size_t m = 0; m < num_models; ++m) {
        if ((action.model_mask & (1u << m)) && obs.busy_remaining[m] > 0.0) {
          any_busy = true;
        }
      }
      if (any_busy) break;  // a busy model cannot take the batch: wait

      // Dispatch: every selected model processes the batch; the ensemble
      // response is gated by the slowest selected model (§5.2).
      int64_t b_eff = step.take;
      double completion = t;
      for (size_t m = 0; m < num_models; ++m) {
        if (!(action.model_mask & (1u << m))) continue;
        busy_until[m] = t + models_[m].BatchLatency(b_eff);
        completion = std::max(completion, busy_until[m]);
      }

      double accuracy =
          accuracy_table_ != nullptr
              ? accuracy_table_->Accuracy(action.model_mask)
              : models_.front().top1_accuracy;

      int64_t overdue = 0;
      for (int64_t i = 0; i < b_eff; ++i) {
        double latency = completion - queue.front().arrival;
        queue.pop_front();
        latency_sum += latency;
        if (latency > options_.tau) ++overdue;
      }

      double reward = BatchReward(accuracy, b_eff, overdue, options_.beta);
      policy.Feedback(obs, action, reward);

      WindowAccum& w = windows[window_of(completion)];
      w.processed += b_eff;
      w.overdue += overdue;
      w.accuracy_sum += accuracy * static_cast<double>(b_eff);
      w.reward_sum += reward;
      ++w.batches;

      metrics.total_processed += b_eff;
      metrics.total_overdue += overdue;
      metrics.mean_accuracy += accuracy * static_cast<double>(b_eff);
      metrics.total_reward += reward;
    }
  }

  // Requests still queued at end-of-run never got a response within tau:
  // count them as overdue and charge them to the final window.
  auto residual = static_cast<int64_t>(queue.size());
  metrics.total_residual = residual;
  metrics.total_overdue += residual;
  windows[num_windows - 1].overdue += residual;

  // Batches whose completion time landed past `duration` were accumulated
  // in the overflow bucket; fold it into the last window so window sums
  // and run totals agree.
  if (windows[num_windows].arrived != 0 || windows[num_windows].processed != 0 ||
      windows[num_windows].overdue != 0 || windows[num_windows].batches != 0) {
    WindowAccum& last = windows[num_windows - 1];
    const WindowAccum& overflow = windows[num_windows];
    last.arrived += overflow.arrived;
    last.processed += overflow.processed;
    last.overdue += overflow.overdue;
    last.accuracy_sum += overflow.accuracy_sum;
    last.reward_sum += overflow.reward_sum;
    last.batches += overflow.batches;
  }

  // Flush windows into samples.
  for (size_t w = 0; w < num_windows; ++w) {
    const WindowAccum& acc = windows[w];
    WindowSample s;
    s.t_begin = static_cast<double>(w) * options_.metrics_window;
    s.arrived = acc.arrived;
    s.processed = acc.processed;
    s.overdue = acc.overdue;
    s.arrived_per_sec =
        static_cast<double>(acc.arrived) / options_.metrics_window;
    s.processed_per_sec =
        static_cast<double>(acc.processed) / options_.metrics_window;
    s.overdue_per_sec =
        static_cast<double>(acc.overdue) / options_.metrics_window;
    s.mean_accuracy = acc.processed == 0
                          ? 0.0
                          : acc.accuracy_sum /
                                static_cast<double>(acc.processed);
    s.mean_reward = acc.batches == 0
                        ? 0.0
                        : acc.reward_sum / static_cast<double>(acc.batches);
    metrics.windows.push_back(s);
  }
  if (metrics.total_processed > 0) {
    metrics.mean_accuracy /= static_cast<double>(metrics.total_processed);
    metrics.mean_latency =
        latency_sum / static_cast<double>(metrics.total_processed);
  }
  return metrics;
}

}  // namespace rafiki::serving
