#include "serving/greedy_batch.h"

#include <algorithm>

#include "common/logging.h"

namespace rafiki::serving {

int64_t LargestFeasibleBatch(const std::vector<int64_t>& batch_sizes,
                             size_t queue_len) {
  int64_t best = 0;
  for (int64_t b : batch_sizes) {
    if (b <= static_cast<int64_t>(queue_len)) best = std::max(best, b);
  }
  return best;
}

GreedyPlan PlanGreedy(const ServingObs& obs, uint32_t mask, double delta) {
  GreedyPlan plan;
  if (obs.queue_len == 0) return plan;
  int64_t max_b = *std::max_element(obs.batch_sizes->begin(),
                                    obs.batch_sizes->end());
  int64_t b = LargestFeasibleBatch(*obs.batch_sizes, obs.queue_len);
  if (b == 0) b = static_cast<int64_t>(obs.queue_len);  // below min(B)
  double c = 0.0;
  for (size_t m = 0; m < obs.models->size(); ++m) {
    if (mask & (1u << m)) c = std::max(c, (*obs.models)[m].BatchLatency(b));
  }
  double oldest_wait = obs.queue_waits.empty() ? 0.0 : obs.queue_waits[0];
  plan.flush_in = obs.tau - delta - c - oldest_wait;
  if (static_cast<int64_t>(obs.queue_len) >= max_b ||  // Alg. 3 line 3-5
      c + oldest_wait + delta >= obs.tau) {            // Alg. 3 line 8-10
    plan.batch = b;
  }
  return plan;
}

bool PushWakes(const std::vector<int64_t>& batch_sizes, size_t len) {
  int64_t min_b = *std::min_element(batch_sizes.begin(), batch_sizes.end());
  if (len < static_cast<size_t>(min_b)) return true;
  for (int64_t b : batch_sizes) {
    if (static_cast<size_t>(b) == len) return true;
  }
  return false;
}

GreedyBatchPolicy::GreedyBatchPolicy(size_t model_index,
                                     double backoff_delta_fraction)
    : model_index_(model_index), backoff_fraction_(backoff_delta_fraction) {}

ServingAction GreedyBatchPolicy::Decide(const ServingObs& obs) {
  RAFIKI_CHECK(obs.batch_sizes != nullptr && obs.models != nullptr);
  RAFIKI_CHECK_LT(model_index_, obs.models->size());
  if (obs.queue_len == 0) return {};
  if (obs.busy_remaining[model_index_] > 0.0) return {};  // model busy
  uint32_t mask = 1u << model_index_;
  GreedyPlan plan = PlanGreedy(obs, mask, backoff_fraction_ * obs.tau);
  if (plan.batch == 0) return {};
  return ServingAction{true, mask, plan.batch};
}

SyncEnsembleGreedyPolicy::SyncEnsembleGreedyPolicy(
    double backoff_delta_fraction)
    : backoff_fraction_(backoff_delta_fraction) {}

ServingAction SyncEnsembleGreedyPolicy::Decide(const ServingObs& obs) {
  if (obs.queue_len == 0) return {};
  size_t n = obs.models->size();
  // Synchronous: every model must be free.
  for (size_t i = 0; i < n; ++i) {
    if (obs.busy_remaining[i] > 0.0) return {};
  }
  uint32_t all = (1u << n) - 1;
  GreedyPlan plan = PlanGreedy(obs, all, backoff_fraction_ * obs.tau);
  if (plan.batch == 0) return {};
  return ServingAction{true, all, plan.batch};
}

AsyncNoEnsemblePolicy::AsyncNoEnsemblePolicy(double backoff_delta_fraction)
    : backoff_fraction_(backoff_delta_fraction) {}

ServingAction AsyncNoEnsemblePolicy::Decide(const ServingObs& obs) {
  if (obs.queue_len == 0) return {};
  size_t n = obs.models->size();
  // Round-robin over FREE models so different batches land on different
  // models concurrently (maximum throughput, no ensembling). The first
  // free model decides: if its deadline test says wait, the others would
  // decide the same (shared queue).
  for (size_t probe = 0; probe < n; ++probe) {
    size_t i = (next_model_ + probe) % n;
    if (obs.busy_remaining[i] > 0.0) continue;
    uint32_t mask = 1u << i;
    GreedyPlan plan = PlanGreedy(obs, mask, backoff_fraction_ * obs.tau);
    if (plan.batch == 0) return {};
    next_model_ = (i + 1) % n;
    return ServingAction{true, mask, plan.batch};
  }
  return {};
}

}  // namespace rafiki::serving
