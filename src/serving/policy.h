#ifndef RAFIKI_SERVING_POLICY_H_
#define RAFIKI_SERVING_POLICY_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/ring_deque.h"
#include "model/profile.h"

namespace rafiki::serving {

/// Algorithm 3's back-off constant: delta = kBackoffDeltaFraction * tau
/// (0.1 * tau in the paper).
constexpr double kBackoffDeltaFraction = 0.1;

/// Most queue waits one decision observes: the §5.2 queue-status vector
/// before padding (the RL state reads the first 20).
constexpr size_t kMaxObservedWaits = 64;

/// What a scheduling policy observes at a decision point — the paper's
/// state (§5.2): the queue status (waiting time of each queued request) and
/// the model status (c(m, b) for every model and batch size, plus the time
/// left for each model to finish its dispatched requests).
struct ServingObs {
  double tau = 0.0;                            // latency SLO
  const std::vector<int64_t>* batch_sizes = nullptr;      // B
  const std::vector<model::ModelProfile>* models = nullptr;  // M
  std::vector<double> queue_waits;             // oldest first, un-padded
  size_t queue_len = 0;
  std::vector<double> busy_remaining;          // per model, seconds (>= 0)
};

/// A scheduling decision: which models (ensemble selection bit-vector v)
/// process the next batch of which size. `process == false` waits.
struct ServingAction {
  bool process = false;
  uint32_t model_mask = 0;
  int64_t batch_size = 0;
};

/// Interface shared by the greedy policy (Algorithm 3), the two baselines
/// of §7.2.2, and the RL scheduler.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  virtual ServingAction Decide(const ServingObs& obs) = 0;

  /// Reward feedback (Equation 7) for the action returned by the matching
  /// Decide call; no-op for non-learning policies. Only ever invoked for
  /// dispatch actions (process == true), with the same obs Decide saw.
  virtual void Feedback(const ServingObs& obs, const ServingAction& action,
                        double reward) {}

  /// True for policies whose Feedback() updates an agent (drives the
  /// learn_steps metric; lets callers know a warm-up phase is meaningful).
  virtual bool learns() const { return false; }

  virtual std::string name() const = 0;
};

/// Deploy-time view handed to a PolicyFactory: everything needed to size a
/// per-job policy. `profiles` points at the job's calibrated c(m, b) table
/// and is only guaranteed valid for the duration of the factory call —
/// policies receive the live profiles again through every ServingObs.
struct PolicyInit {
  size_t num_models = 0;
  std::vector<int64_t> batch_sizes;            // B
  const std::vector<model::ModelProfile>* profiles = nullptr;
  double backoff_delta_fraction = kBackoffDeltaFraction;
};

/// Builds the per-job scheduling policy at deploy time. The returned
/// policy is owned by the job and called exclusively from its dispatcher
/// thread (Decide and Feedback both), so it needs no internal locking.
using PolicyFactory =
    std::function<std::unique_ptr<SchedulerPolicy>(const PolicyInit&)>;

/// What one dispatch step decided.
struct DispatchStep {
  /// Queue-front requests already older than tau. When nonzero the step
  /// made no decision: the caller expires them and steps again.
  size_t expire = 0;
  ServingAction action;
  /// The action's batch clamped to the queue: take this many from the
  /// front now; 0 waits.
  int64_t take = 0;
};

/// One scheduling decision over a FIFO queue whose elements carry their
/// `arrival` time. The live dispatcher runs it on wall time and the
/// simulator on virtual time. It reads no clock and takes no lock: the
/// caller passes `now` and holds whatever guards `queue`. The caller sets
/// `obs`'s tau, B, profiles and busy times; the step refills its queue
/// status and hands it to `policy.Decide`. With `expire`, requests older
/// than tau at the front are reported before any decision.
template <typename Request>
DispatchStep StepDispatch(SchedulerPolicy& policy,
                          const RingDeque<Request>& queue, double now,
                          bool expire, ServingObs* obs) {
  DispatchStep step;
  if (expire) {
    while (step.expire < queue.size() &&
           now - queue[step.expire].arrival > obs->tau) {
      ++step.expire;
    }
    if (step.expire > 0) return step;
  }
  obs->queue_len = queue.size();
  obs->queue_waits.clear();
  size_t observed = std::min(queue.size(), kMaxObservedWaits);
  for (size_t i = 0; i < observed; ++i) {
    double wait = now - queue[i].arrival;
    RAFIKI_CHECK_GE(wait, 0.0) << "stale queue-wait feature";
    obs->queue_waits.push_back(wait);
  }
  step.action = policy.Decide(*obs);
  if (step.action.process) {
    step.take = std::clamp<int64_t>(step.action.batch_size, 0,
                                    static_cast<int64_t>(queue.size()));
  }
  return step;
}

}  // namespace rafiki::serving

#endif  // RAFIKI_SERVING_POLICY_H_
