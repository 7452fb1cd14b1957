#ifndef RAFIKI_SERVING_GREEDY_BATCH_H_
#define RAFIKI_SERVING_GREEDY_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serving/policy.h"

namespace rafiki::serving {

/// Largest batch size in B that is <= queue_len; 0 when queue_len is below
/// min(B) (Algorithm 3 line 7).
int64_t LargestFeasibleBatch(const std::vector<int64_t>& batch_sizes,
                             size_t queue_len);

/// Algorithm 3's plan for the models in `mask`.
struct GreedyPlan {
  /// Requests to flush now; 0 waits.
  int64_t batch = 0;
  /// Seconds until c_mask(b) + w(q_0) + delta reaches tau, for the batch b
  /// Algorithm 3 considers; a waiting dispatcher sleeps this long.
  double flush_in = 0.0;
};

/// Algorithm 3 over one observation, the one copy every greedy policy and
/// the runtime's flush wait use:
///
///   b = max(B)
///   if len(q) >= b:            infer(q_{:b})
///   else:
///     b = max{b in B, b <= len(q)}
///     if c(b) + w(q_0) + delta >= tau:  infer(q_{:b})
///
/// c is the slowest model in `mask`: an ensemble answers when its last
/// member does. When the queue is shorter than min(B) the queue itself is
/// the batch, flushed once the oldest request is about to overdue — these
/// leftover flushes are the overdue spikes the paper attributes to "the
/// mismatch of the queue size and the batch size" (Figures 13/14c).
GreedyPlan PlanGreedy(const ServingObs& obs, uint32_t mask, double delta);

/// Whether a push that leaves `len` requests queued can change
/// PlanGreedy's batch or flush_in. While the queue is shorter than min(B)
/// the queue itself is the batch, so every push moves the flush deadline
/// earlier, and at a size in B a larger batch becomes feasible. Between
/// sizes in B a waiting dispatcher's flush deadline covers the rest, and
/// the RL policy never waits on a non-empty queue. With 1 in B this wakes
/// at length 1 and at the sizes in B only.
bool PushWakes(const std::vector<int64_t>& batch_sizes, size_t len);

/// Algorithm 3 for a single inference model. delta is the AIMD-style
/// back-off constant (delta = 0.1 * tau in the paper).
class GreedyBatchPolicy : public SchedulerPolicy {
 public:
  /// `model_index` selects which catalog entry this node serves.
  GreedyBatchPolicy(size_t model_index,
                    double backoff_delta_fraction = kBackoffDeltaFraction);

  ServingAction Decide(const ServingObs& obs) override;
  std::string name() const override { return "greedy"; }

 private:
  size_t model_index_;
  double backoff_fraction_;
};

/// §7.2.2 baseline 1: runs ALL models synchronously on every batch
/// (maximum-accuracy ensemble) with greedy batch sizing; the batch latency
/// is the slowest model's c(m, b).
class SyncEnsembleGreedyPolicy : public SchedulerPolicy {
 public:
  explicit SyncEnsembleGreedyPolicy(
      double backoff_delta_fraction = kBackoffDeltaFraction);

  ServingAction Decide(const ServingObs& obs) override;
  std::string name() const override { return "sync_ensemble_greedy"; }

 private:
  double backoff_fraction_;
};

/// §7.2.2 baseline 2: no ensembling — each batch goes to one (free) model,
/// round-robin, with greedy batch sizing per that model's latency.
class AsyncNoEnsemblePolicy : public SchedulerPolicy {
 public:
  explicit AsyncNoEnsemblePolicy(
      double backoff_delta_fraction = kBackoffDeltaFraction);

  ServingAction Decide(const ServingObs& obs) override;
  std::string name() const override { return "async_no_ensemble"; }

 private:
  double backoff_fraction_;
  size_t next_model_ = 0;
};

}  // namespace rafiki::serving

#endif  // RAFIKI_SERVING_GREEDY_BATCH_H_
