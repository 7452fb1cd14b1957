#ifndef RAFIKI_SERVING_RL_SCHEDULER_H_
#define RAFIKI_SERVING_RL_SCHEDULER_H_

#include <memory>
#include <string>
#include <vector>

#include "model/prediction_sim.h"
#include "rl/actor_critic.h"
#include "serving/policy.h"

namespace rafiki::serving {

/// The paper's RL scheduler (§5.2): an actor-critic agent whose
///  * state is the queue status (per-request waiting times, padded/
///    truncated to a fixed length) concatenated with the model status
///    (c(m, b) for all m in M, b in B, and each model's remaining busy
///    time);
///  * action jointly selects the model subset v (ensemble bit-vector,
///    v = 0 excluded) and the batch size b — an action space of size
///    (2^|M| - 1) * |B|;
///  * reward is Equation 7, normalized to keep gradients well-scaled.
///
/// For the single-model experiments (Figures 10/13) construct it with
/// |M| = 1: the mask collapses and only the batch size is learned, with the
/// model-status features removed from the state as §7.2.1 describes.
struct RlSchedulerOptions {
  /// Queue-status feature length (pad with 0 / truncate, §5.2).
  int queue_feature_len = 20;
  rl::ActorCriticOptions agent;
  /// Drain-rate shaping added to the AGENT's reward (never to the reported
  /// Equation 7 metrics). Needed for learnability at overload: once the
  /// backlog exceeds tau, every request of every action is overdue and
  /// Equation 7 is identically zero, so the policy gradient vanishes
  /// exactly when the scheduler must learn to drain (Figure 15's max-rate
  /// regime). The bonus is self-gating: it only counts requests that were
  /// ALREADY overdue when dispatched (o_pre), scaled by how fast the
  /// chosen ensemble clears them relative to the fastest single model:
  ///   shaped = Eq7 + shaping * o_pre * (c_fastest(b) / c(v, b)).
  /// For healthy queues o_pre = 0 and the reward is exactly Equation 7;
  /// when drowned it implements Equation 5's minimize-exceeding-time
  /// objective (the only good left for doomed requests is draining them
  /// quickly).
  double throughput_shaping = 0.5;
  bool explore = true;
};

class RlSchedulerPolicy : public SchedulerPolicy {
 public:
  /// `accuracy_table` provides a(M[v]) (Figure 6 surrogate accuracies);
  /// may be null when |M| == 1 (single-model accuracy is constant and
  /// drops out of the decision).
  RlSchedulerPolicy(size_t num_models, std::vector<int64_t> batch_sizes,
                    const model::EnsembleAccuracyTable* accuracy_table,
                    RlSchedulerOptions options);

  ServingAction Decide(const ServingObs& obs) override;
  void Feedback(const ServingObs& obs, const ServingAction& action,
                double reward) override;
  bool learns() const override { return true; }
  std::string name() const override { return "rl"; }

  /// Normalizes an Equation 7 reward into roughly [-beta, 1].
  double NormalizeReward(double raw_reward) const;

  int num_actions() const { return num_actions_; }
  int state_dim() const { return state_dim_; }
  rl::ActorCritic& agent() { return *agent_; }

  /// Toggles exploration (benches train with it on, then evaluate the
  /// learned policy greedily).
  void set_explore(bool explore) { options_.explore = explore; }

  /// Builds the §5.2 state feature vector (public for tests).
  std::vector<double> Featurize(const ServingObs& obs) const;

  /// Transfers ownership of the accuracy table the constructor was pointed
  /// at (used by MakeRlSchedulerFactory, which builds the table and the
  /// policy together).
  void OwnAccuracyTable(std::shared_ptr<const model::EnsembleAccuracyTable> t) {
    owned_table_ = std::move(t);
  }

 private:
  ServingAction DecodeAction(int action) const;
  int EncodeAction(const ServingAction& action) const;

  size_t num_models_;
  std::vector<int64_t> batch_sizes_;
  const model::EnsembleAccuracyTable* accuracy_table_;
  std::shared_ptr<const model::EnsembleAccuracyTable> owned_table_;
  RlSchedulerOptions options_;
  int num_actions_;
  int state_dim_;
  std::unique_ptr<rl::ActorCritic> agent_;
  double max_batch_;
};

/// RuntimeOptions::policy_factory adapter: builds a per-job RL scheduler
/// from the deploy-time PolicyInit. For |M| > 1 it Monte-Carlo-estimates
/// and owns the a(M[v]) surrogate table (Figure 6) over the calibrated
/// profiles; for |M| = 1 the mask collapses per §7.2.1 and no table is
/// needed.
PolicyFactory MakeRlSchedulerFactory(RlSchedulerOptions options = {});

}  // namespace rafiki::serving

#endif  // RAFIKI_SERVING_RL_SCHEDULER_H_
