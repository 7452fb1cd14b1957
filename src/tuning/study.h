#ifndef RAFIKI_TUNING_STUDY_H_
#define RAFIKI_TUNING_STUDY_H_

#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/bus.h"
#include "cluster/node_manager.h"
#include "common/rng.h"
#include "ps/parameter_store.h"
#include "storage/blob_store.h"
#include "trainer/trainable.h"
#include "tuning/trial_advisor.h"

namespace rafiki::tuning {

/// The paper's `HyperConf`: configuration of one hyper-parameter study.
struct StudyConfig {
  /// Stop criterion: total finished trials (conf.stop(num) in Alg. 1/2).
  int64_t max_trials = 50;
  /// Stop early once this validation performance is reached.
  double target_performance = 2.0;  // >1 disables
  /// Epoch budget per trial.
  int max_epochs_per_trial = 40;

  /// Collaborative tuning (Algorithm 2) on/off; off = plain Study (Alg. 1).
  bool collaborative = false;
  /// Publish gate: worker checkpoints go to the PS when its report beats
  /// the best-so-far by more than delta (Alg. 2 line 8). Sized to the
  /// task's head-room (§4.2.2: 0.1% for MNIST, 0.5% for CIFAR-10).
  double delta = 0.005;

  /// Alpha-greedy warm-start schedule (§4.2.2): a new trial initializes
  /// randomly with probability alpha, from the best PS checkpoint with
  /// probability 1 - alpha; alpha decays per issued trial.
  double alpha_init = 0.8;
  double alpha_decay = 0.9;
  double alpha_min = 0.05;

  /// Master-side early stopping (Alg. 2 line 11): a trial is stopped when
  /// its reports improve by less than `early_stop_min_delta` for
  /// `early_stop_patience` consecutive epochs.
  int early_stop_patience = 5;
  double early_stop_min_delta = 0.002;

  /// Number of workers the master waits to retire before finishing.
  int num_workers = 1;

  /// Master state checkpoint cadence, in processed events (§6.3 failure
  /// recovery); 0 disables.
  int checkpoint_every_events = 32;
};

/// One finished trial as recorded by the master.
struct TrialRecord {
  int64_t trial_id = -1;
  double performance = 0.0;
  int epochs = 0;
  bool warm_started = false;
  std::string worker;
  /// Cumulative training epochs across the study when this trial finished
  /// (the x-axis of Figures 8c / 9c).
  int64_t cumulative_epochs = 0;
  /// Simulated wall-clock when this trial finished (max over workers of
  /// per-worker simulated seconds — the x-axis of Figure 11b).
  double sim_seconds = 0.0;
};

/// Best-so-far progress samples for plotting tuning curves.
struct ProgressPoint {
  int64_t cumulative_epochs = 0;
  double sim_seconds = 0.0;
  double best_performance = 0.0;
};

/// Aggregate study outcome.
struct StudyStats {
  std::vector<TrialRecord> trials;
  std::vector<ProgressPoint> progress;
  double best_performance = 0.0;
  Trial best_trial;
  int64_t total_epochs = 0;
  double sim_seconds = 0.0;
};

/// The master's trial ledger (§6.3 recovery accounting). Invariant while
/// the master stays alive: proposed == completed + lost + active, where a
/// trial is "lost" when its worker was killed mid-trial and re-requested
/// work after restarting. At a clean study end, active == 0, so
/// proposed == completed + lost — the balance smoke tests assert after
/// injected worker kills. Checkpoint lag can under-count around a master
/// restart (trials proposed after the last checkpoint are unaccounted).
struct TrialLedger {
  int64_t proposed = 0;
  int64_t completed = 0;
  int64_t lost = 0;
  int64_t active = 0;

  bool operator==(const TrialLedger&) const = default;
};

/// The master of Algorithms 1 and 2: an event loop over the message bus
/// that hands trials to workers via the TrialAdvisor, collects reports,
/// and answers each one with a verdict: publish the checkpoint (kPut),
/// early-stop the trial (kStop) or train on (kContinue). Under Algorithm 1
/// it also answers each kFinish (kPut for the best trial, else kContinue).
/// It periodically checkpoints its own state for failure recovery.
class StudyMaster {
 public:
  /// `checkpoint_store` may be null (no master checkpointing).
  StudyMaster(std::string study_name, StudyConfig config,
              TrialAdvisor* advisor, cluster::Bus* bus,
              storage::BlobStore* checkpoint_store);

  /// Endpoint the workers talk to.
  std::string endpoint() const { return "study/" + study_name_ + "/master"; }
  /// PS scope holding the current best checkpoint ("the W in the parameter
  /// server" of §4.2.2).
  std::string best_scope() const { return "study/" + study_name_ + "/best"; }

  /// Runs the event loop until the stop criterion is met and all workers
  /// have been retired, the container is killed, or its mailbox closes.
  /// Registers/removes its own endpoint.
  void Run(cluster::CancelToken& token);

  /// Restores state from the latest master checkpoint, if present; used
  /// when the manager restarts a failed master (§6.3).
  Status RestoreFromCheckpoint();

  const StudyStats& stats() const { return stats_; }
  double current_alpha() const { return alpha_; }

  /// Thread-safe snapshot of the trial ledger (readable while Run loops,
  /// e.g. by the /cluster/metrics route).
  TrialLedger ledger() const {
    TrialLedger ledger;
    ledger.proposed = proposed_.load(std::memory_order_relaxed);
    ledger.completed = completed_.load(std::memory_order_relaxed);
    ledger.lost = lost_.load(std::memory_order_relaxed);
    ledger.active = active_.load(std::memory_order_relaxed);
    return ledger;
  }

 private:
  struct WorkerProgress {
    double best = -1.0;
    int stale_epochs = 0;
    int64_t trial_id = -1;
  };

  bool StopCriterion() const;
  void HandleRequest(const cluster::Message& msg);
  void HandleReport(const cluster::Message& msg);
  void HandleFinish(const cluster::Message& msg);
  /// Sends `verdict` for `msg`'s trial back to its sender.
  void Reply(const cluster::Message& msg, cluster::MessageType verdict);
  void SaveCheckpointIfDue();
  Status SaveCheckpoint() const;

  std::string study_name_;
  StudyConfig config_;
  TrialAdvisor* advisor_;
  cluster::Bus* bus_;
  storage::BlobStore* checkpoint_store_;

  // Ledger gauges: atomics so metrics can read them mid-run.
  std::atomic<int64_t> proposed_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> lost_{0};
  std::atomic<int64_t> active_{0};

  int64_t num_finished_ = 0;
  double best_p_ = 0.0;  // CoStudy's best_p (Alg. 2 line 1)
  double alpha_;
  /// Workers mid-trial, keyed by endpoint. A report or finish that matches
  /// no entry is stale: its trial was lost (the worker restarted, or a
  /// predecessor master issued it).
  std::map<std::string, WorkerProgress> active_trials_;
  std::set<std::string> retired_workers_;
  std::map<std::string, double> worker_sim_seconds_;
  int events_since_checkpoint_ = 0;
  StudyStats stats_;
};

/// A tuning worker: requests trials, trains them epoch by epoch with the
/// TrainerFactory, reports each epoch and waits for the master's verdict
/// before training on, so a kPut publishes the epoch that earned it.
/// Stateless across trials (§6.3), so the manager can kill and restart it
/// freely: once its CancelToken is cancelled it sends nothing more.
class StudyWorker {
 public:
  StudyWorker(std::string study_name, std::string worker_name,
              StudyConfig config, trainer::TrainerFactory* factory,
              cluster::Bus* bus, ps::ParameterStore* ps, uint64_t seed);

  std::string endpoint() const {
    return "study/" + study_name_ + "/worker/" + worker_name_;
  }

  /// Runs until the master sends kNoMoreTrials or the container is killed.
  void Run(cluster::CancelToken& token);

 private:
  std::string master_endpoint() const {
    return "study/" + study_name_ + "/master";
  }
  std::string best_scope() const { return "study/" + study_name_ + "/best"; }

  void PublishCheckpoint(trainer::Trainable& trainable, double performance);
  /// Blocks for the next message from the master. nullopt once the token is
  /// cancelled (a kShutdown cancels it), this worker's mailbox closes, the
  /// master's endpoint disappears, or the master stays silent for 10 s.
  std::optional<cluster::Message> AwaitMaster(cluster::CancelToken& token);
  /// AwaitMaster, skipping messages that are not a verdict on `trial_id`.
  std::optional<cluster::Message> AwaitVerdict(int64_t trial_id,
                                               cluster::CancelToken& token);

  std::string study_name_;
  std::string worker_name_;
  StudyConfig config_;
  trainer::TrainerFactory* factory_;
  cluster::Bus* bus_;
  ps::ParameterStore* ps_;
  Rng rng_;
  double sim_seconds_ = 0.0;
};

/// Convenience driver: launches one master and `num_workers` workers as
/// containers, waits for completion, and returns the study statistics.
StudyStats RunStudy(const std::string& study_name, StudyConfig config,
                    TrialAdvisor* advisor, trainer::TrainerFactory* factory,
                    cluster::Bus* bus, ps::ParameterStore* ps,
                    storage::BlobStore* checkpoint_store, int num_workers,
                    uint64_t seed);

}  // namespace rafiki::tuning

#endif  // RAFIKI_TUNING_STUDY_H_
