#ifndef RAFIKI_SERVING_INFERENCE_RUNTIME_H_
#define RAFIKI_SERVING_INFERENCE_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/ring_deque.h"
#include "common/stats.h"
#include "model/profile.h"
#include "nn/net.h"
#include "serving/policy.h"
#include "tensor/tensor.h"

namespace rafiki::serving {

/// One deployed model: a real network plus the metadata the ensemble vote
/// and the batching policy need.
struct ServableModel {
  nn::Net net;
  /// Validation accuracy; used for the paper's best-accuracy tie-break and
  /// reported as the profile's top-1 accuracy.
  double accuracy = 0.0;
  std::string name = "model";
  /// Expected feature dimension; 0 derives it from the first rank-2
  /// parameter tensor (a Linear weight [in, out]).
  int64_t input_dim = 0;
};

/// Serving configuration of one inference job (the knobs of §5 / Alg. 3).
/// Algorithm 3's delta is kBackoffDeltaFraction * tau, Equation 7's beta is
/// kRewardBeta, and the replica controller's thresholds are the constants
/// next to ControllerStep.
struct RuntimeOptions {
  /// Latency SLO tau, seconds. Requests answered later than this count as
  /// overdue (they are still answered — the SLO is soft, as in the paper).
  double tau = 0.02;
  /// Candidate batch sizes B.
  std::vector<int64_t> batch_sizes = {1, 2, 4, 8, 16, 32};
  /// Bounded request queue; submissions beyond it are rejected
  /// (kUnavailable) and counted as dropped.
  size_t queue_capacity = 4096;
  /// Measure c(m, b) with real forwards at deploy time so the policy sees
  /// calibrated latency profiles; OFF uses zero-latency profiles (the
  /// policy then flushes purely on queue waiting time).
  bool calibrate = true;
  /// When ON, a request whose queue wait alone already exceeds tau is
  /// completed early with kDeadlineExceeded (the gateway maps it to HTTP
  /// 504) instead of occupying batch capacity for an answer that is
  /// already overdue. Counted in both `overdue` and `expired`. OFF by
  /// default: the paper's SLO is soft, so the classic behaviour is to
  /// answer late rather than not at all.
  bool expire_overdue = false;
  /// Pluggable scheduling-policy hook: when set, each replica's policy is
  /// built from it at deploy/scale-up time (e.g. MakeRlSchedulerFactory)
  /// and drives every dispatch decision on that replica; when null the
  /// paper's greedy Algorithm 3 (single model) / sync-ensemble greedy
  /// (|M| > 1) is used. Each policy instance runs exclusively on its
  /// replica's dispatcher thread.
  PolicyFactory policy_factory;

  /// --- Replicated serving plane (DESIGN.md §15) ---
  /// Initial number of replica dispatchers. Each replica owns clones of
  /// every deployed net, a latency profile copy, and a policy instance;
  /// all of them take their batches from the job's one request queue.
  int replicas = 1;
  /// Autoscaling bounds. max_replicas == 0 defaults to
  /// max(replicas, min_replicas). Replica slots up to max_replicas are
  /// addressable for the job's whole life (nets are cloned lazily on first
  /// activation), so max_replicas bounds peak memory.
  int min_replicas = 1;
  int max_replicas = 0;
  /// ON starts a ReplicaController thread that resizes the replica set
  /// within [min_replicas, max_replicas] from queue pressure and, once
  /// horizontal scaling is exhausted, downshifts the ensemble variant
  /// (drops the slowest models) under sustained overdue pressure —
  /// accuracy traded for latency, with hysteresis both ways (ControllerStep).
  bool autoscale = false;
  /// Minimum time between two resize (or variant-shift) actions: the
  /// hysteresis dwell that prevents flapping.
  double autoscale_dwell = 0.25;
};

/// Equation 7's accuracy/latency balance beta in the realized reward the
/// runtime feeds back through SchedulerPolicy::Feedback.
constexpr double kRewardBeta = 1.0;

/// --- The replica controller (DESIGN.md §15) ---
/// Controller tick period, seconds.
constexpr double kControllerTick = 0.02;
/// Scale up when queued > kScaleUpPressure * active * max(B): the backlog
/// exceeds what the active replicas clear in one full batch each.
constexpr double kScaleUpPressure = 1.0;
/// Scale down when queued + inflight stays at or below
/// kScaleDownPressure * (active - 1) * max(B) for kScaleDownTicks
/// consecutive ticks: the remaining replicas absorb the load with slack.
constexpr double kScaleDownPressure = 0.25;
constexpr int kScaleDownTicks = 3;
/// Variant downshift when the per-tick overdue fraction (d overdue /
/// d completions) exceeds kDownshiftOverdueRate for kDownshiftTicks ticks
/// while the replica set is maxed out; upshift restores accuracy after
/// kUpshiftTicks ticks below kUpshiftOverdueRate with at most a full batch
/// per replica queued.
constexpr double kDownshiftOverdueRate = 0.20;
constexpr int kDownshiftTicks = 3;
constexpr double kUpshiftOverdueRate = 0.02;
constexpr int kUpshiftTicks = 5;

/// What the controller reads at one tick.
struct ControllerTick {
  double now = 0.0;         // seconds on the job clock
  size_t active = 0;        // running replicas
  int64_t queued = 0;       // requests in the job's queue
  int64_t inflight = 0;     // requests in the active replicas' batches
  int64_t overdue = 0;      // lifetime overdue over every replica
  int64_t completed = 0;    // lifetime processed + expired
  int level = 0;            // current accuracy variant
};

/// The controller's fixed bounds for one job.
struct ControllerLimits {
  size_t min_replicas = 1;
  size_t max_replicas = 1;
  int max_level = 0;        // deepest variant: deployed models - 1
  int64_t max_batch = 1;    // max(B)
  double dwell = 0.25;      // RuntimeOptions::autoscale_dwell
};

/// Hysteresis carried from one tick to the next.
struct ControllerState {
  double last_resize = 0.0;
  double last_shift = 0.0;
  int low_ticks = 0;
  int high_overdue_ticks = 0;
  int low_overdue_ticks = 0;
  int64_t prev_overdue = 0;
  int64_t prev_completed = 0;
};

/// One tick's action: resize +1 starts a replica and -1 retires the
/// highest; shift +1 drops the next slowest model and -1 restores one.
struct ControllerAction {
  int resize = 0;
  int shift = 0;
};

/// The replica controller's decision for one tick: horizontal scaling and
/// the accuracy-variant ladder, each with its dwell and consecutive-tick
/// hysteresis. Reads no clock and takes no lock; `tick.now` is the only
/// time it sees.
ControllerAction ControllerStep(const ControllerTick& tick,
                                const ControllerLimits& limits,
                                ControllerState* state);

/// Point-in-time gauges of one serving replica, read under the same mutex
/// hold as its processed counter.
struct ReplicaGauges {
  /// Slot index; slots keep their lifetime counters across scale-down, so
  /// an inactive slot still reports what it processed while it ran.
  int64_t replica = 0;
  bool active = false;
  /// Size of the batch this replica is executing (0 when idle).
  int64_t inflight = 0;
  int64_t processed = 0;
};

/// Per-job serving counters (the live analogue of ServingMetrics).
/// Conservation: at any quiescent point arrived == processed + dropped +
/// expired + queued, and after Undeploy arrived == processed + dropped +
/// expired — summed over every replica the job ever ran.
struct InferenceJobMetrics {
  int64_t arrived = 0;
  int64_t processed = 0;
  /// Served (or expired) later than tau after submission.
  int64_t overdue = 0;
  /// Rejected at a full queue plus requests failed by Undeploy.
  int64_t dropped = 0;
  /// Completed early with kDeadlineExceeded because the queue wait already
  /// exceeded tau (only with RuntimeOptions::expire_overdue).
  int64_t expired = 0;
  int64_t batches = 0;
  int64_t max_batch = 0;
  double mean_batch = 0.0;    // processed / batches
  double mean_latency = 0.0;  // seconds, submission -> response
  /// Requests waiting in the job's queue at the moment Metrics() was read.
  int64_t queue_depth = 0;
  /// Latency percentiles over all processed requests (log-bucketed
  /// histogram, so values are quantized to bucket midpoints).
  double p50_latency = 0.0;
  double p95_latency = 0.0;
  double p99_latency = 0.0;
  /// Scheduling-policy gauges. `reward_sum` accumulates the realized
  /// Equation 7 reward a(M[v]) * (b - beta * overdue) per dispatched
  /// batch; `accuracy_sum` accumulates a(M[v]) * b (so a window's mean
  /// served accuracy is delta(accuracy_sum) / delta(processed));
  /// `learn_steps` counts Feedback deliveries to learning policies.
  /// Expiry accounting: an expired (504) request is charged to the reward
  /// of the NEXT batch its replica dispatches, exactly once —
  /// `reward_overdue` counts overdue already charged,
  /// `reward_pending_overdue` expiries awaiting their charge; at any
  /// quiescent point overdue == reward_overdue + reward_pending_overdue.
  std::string policy;
  int64_t learn_steps = 0;
  double reward_sum = 0.0;
  double accuracy_sum = 0.0;
  int64_t reward_overdue = 0;
  int64_t reward_pending_overdue = 0;
  /// Replicated-plane gauges: currently active replica dispatchers, the
  /// lifetime peak, controller resize counts, and the current accuracy
  /// variant (0 = full ensemble; level L drops the L slowest models).
  int64_t replicas = 0;
  int64_t replicas_peak = 0;
  int64_t scale_ups = 0;
  int64_t scale_downs = 0;
  /// Always 0: replicas share one queue, so there is nothing to steal.
  /// Kept for readers that still report it.
  int64_t steals = 0;
  int64_t variant_level = 0;
  int64_t variant_shifts = 0;
  /// One entry per replica slot ever activated, in slot order.
  std::vector<ReplicaGauges> replica_gauges;
};

/// Majority-vote answer with per-model transparency (§5.2 / Figure 6).
struct EnsemblePrediction {
  int64_t label = -1;
  /// One label per model that voted — the policy-selected subset, which is
  /// every deployed model under the default greedy policies.
  std::vector<int64_t> votes;
};

/// Majority vote over per-model row labels with the paper's best-accuracy
/// tie-break. `votes[m][r]` is model m's label for row r; `accuracies[m]`
/// breaks ties toward the most accurate model. Exposed for tests.
std::vector<EnsemblePrediction> MajorityVoteRows(
    const std::vector<std::vector<int64_t>>& votes,
    const std::vector<double>& accuracies);

/// The live serving tier: owns deployed models, accepts concurrent
/// `Submit` calls, and answers them from per-job replica dispatcher
/// threads that form batches with the paper's greedy policy (Algorithm 3;
/// the sync-ensemble variant when several models are deployed) against the
/// latency SLO tau.
///
/// Ownership / threading model (see DESIGN.md §15 "Replicated serving
/// plane"):
///  * Jobs live behind `std::shared_ptr`; callers, dispatchers, and the
///    controller hold snapshots, so `Undeploy` can never free a job under
///    a concurrent query.
///  * The registry mutex only guards the id -> job map. Each job has one
///    request queue in arrival order, guarded by the job's queue mutex
///    together with admission, the capacity gate, the `arrived`/`dropped`
///    counters, and the stopping flags. Every replica dispatcher takes its
///    batches from that queue.
///  * Each replica owns deep clones of every net (`nn::Net` is stateful
///    during Forward), its own policy instance, and its own mutex-guarded
///    stats. Forward passes, continuations, and policy feedback run outside
///    the queue mutex.
///  * A `ReplicaController` thread (opt-in) resizes the replica set within
///    [min, max] and downshifts the ensemble variant under sustained
///    overdue pressure. Retiring a replica only stops its dispatcher; the
///    requests it did not take stay in the queue for the others.
///  * `Undeploy` stops the controller, marks the job stopping (every later
///    Submit gets NotFound), joins the dispatchers, and fails whatever is
///    still queued with kUnavailable, counted as dropped.
class InferenceRuntime {
 public:
  /// Continuation invoked exactly once with the request's outcome.
  /// Runs on a replica dispatcher thread — it must be fast (hand heavy
  /// work elsewhere) and must NOT call Undeploy or destroy the runtime
  /// (the dispatcher would join itself). The answer lives in the
  /// dispatcher's scratch and is only valid during the call.
  using Callback = std::function<void(const Result<EnsemblePrediction>&)>;

  InferenceRuntime() = default;
  ~InferenceRuntime();

  InferenceRuntime(const InferenceRuntime&) = delete;
  InferenceRuntime& operator=(const InferenceRuntime&) = delete;

  /// Deploys `models` as job `job_id` and starts its replica dispatchers
  /// (and controller, with autoscale). AlreadyExists if the id is taken.
  Result<std::string> Deploy(const std::string& job_id,
                             std::vector<ServableModel> models,
                             RuntimeOptions options = {});

  /// Stops the controller and every dispatcher, fails queued requests
  /// (kUnavailable) and releases the job. NotFound for unknown ids. Safe
  /// to race with Submit.
  Status Undeploy(const std::string& job_id);

  /// Enqueues one request (a row of `dim` features) with a continuation:
  /// `done` is invoked from a replica dispatcher thread when the batch
  /// containing the request completes (or when it expires / is failed by
  /// Undeploy). The submitting thread never waits for the batch; it only
  /// holds the job's queue mutex for the push, during which the row is
  /// copied into a pooled [1, dim] row, so `features` may go away on
  /// return. This is the one submit path: Submit and QueryBatch call it.
  /// A non-OK return means the request was NOT enqueued and `done` will
  /// never run: NotFound (unknown/undeploying job), Unavailable (queue
  /// full; retryable), InvalidArgument (wrong feature dimension).
  /// Once enqueued, `done` runs exactly once with either a prediction,
  /// kDeadlineExceeded (queue wait > tau, with expire_overdue), or
  /// kUnavailable (job undeployed while queued).
  Status SubmitAsync(std::string_view job_id, std::span<const float> features,
                     Callback done);

  /// Future-based wrapper over SubmitAsync for callers that want to block;
  /// `features` is [dim] or [1, dim].
  Result<std::future<Result<EnsemblePrediction>>> Submit(
      std::string_view job_id, const Tensor& features);

  /// Synchronous convenience for bulk callers: submits every row of
  /// `features` [n, dim] through the batched path and waits for all
  /// answers. Fails with the first error Submit returns for a row, such as
  /// Unavailable on a full queue; rows already queued are still answered.
  Result<std::vector<EnsemblePrediction>> QueryBatch(std::string_view job_id,
                                                     const Tensor& features);

  /// Live counters of one job, aggregated over all its replicas.
  Result<InferenceJobMetrics> Metrics(std::string_view job_id) const;

  /// Ids of currently deployed jobs.
  std::vector<std::string> Jobs() const;

 private:
  struct Pending {
    Tensor features;  // a pooled [1, dim] row
    Callback done;    // invoked exactly once, on some dispatcher thread
    double arrival = 0.0;  // job-clock seconds
  };

  /// A replica dispatcher's reusable buffers, sized when its slot is
  /// created for a full batch, so executing a batch allocates nothing.
  struct Scratch {
    std::vector<Pending> batch;  // the requests taken, then expired ones
    Tensor input;                // [b, dim] rows of the batch
    std::vector<nn::Workspace> ws;  // one per model: Forward's activations
    /// Per selected model, its argmax label of each row; the first
    /// `voters` entries of both vectors vote.
    std::vector<std::vector<int64_t>> votes;
    std::vector<double> vote_accuracies;
    std::vector<Result<EnsemblePrediction>> answers;  // one per row
  };

  /// Lifetime counters one replica dispatcher accumulates, guarded by the
  /// replica's mutex. They survive scale-down (slots are never destroyed),
  /// so job aggregates stay exact across any resize history.
  struct ReplicaStats {
    int64_t processed = 0;
    int64_t overdue = 0;
    int64_t expired = 0;
    int64_t batches = 0;
    int64_t max_batch = 0;
    int64_t learn_steps = 0;
    double reward_sum = 0.0;
    double accuracy_sum = 0.0;
    int64_t reward_overdue = 0;
    int64_t reward_pending_overdue = 0;
    double latency_sum = 0.0;
    LatencyHistogram latency_hist;
  };

  /// One replica dispatcher: its net clones, profile copy, policy, and
  /// stats. Constructed once (lazily, at first activation) and then reused
  /// across scale-down/up cycles: the thread is restarted and the policy
  /// retains its learned state.
  struct Replica {
    size_t index = 0;
    /// This replica is being retired. Guarded by the job's queue mutex.
    bool stopping = false;
    /// Size of the batch currently executing.
    std::atomic<int64_t> inflight{0};
    /// Expiries awaiting their Equation 7 charge when the dispatcher last
    /// exited; reloaded on restart so the exactly-once charge survives a
    /// scale-down/up cycle. Dispatcher-only (threads are joined between).
    int64_t expired_carry = 0;
    std::vector<ServableModel> models;          // deep clones, this thread only
    std::vector<model::ModelProfile> profiles;  // copy of job calibration
    std::unique_ptr<SchedulerPolicy> policy;    // this thread only
    Scratch scratch;                            // this thread only
    std::thread dispatcher;
    std::mutex mu;  // guards stats
    ReplicaStats stats;
  };

  struct Job {
    std::string id;
    RuntimeOptions opts;
    int64_t input_dim = 0;
    size_t min_replicas = 1;
    size_t max_replicas = 1;
    /// Pristine models as deployed; never served, only cloned when a
    /// replica slot is first activated. Calibration ran on these once.
    std::vector<ServableModel> prototypes;
    std::vector<model::ModelProfile> profiles;  // calibrated c(m, b)
    std::vector<double> accuracies;
    /// variant_masks[L] = deployed-model bit-mask with the L slowest
    /// models (by full-batch latency) removed; level 0 is the full
    /// ensemble and the last level keeps only the fastest model.
    std::vector<uint32_t> variant_masks;
    std::chrono::steady_clock::time_point epoch;
    std::string policy_name;

    /// Fixed-size slot table (max_replicas entries, never resized after
    /// Deploy). slots[i] is constructed at most once — publication is
    /// ordered by `created` — and never destroyed while the job lives, so
    /// Metrics and the controller can traverse it without a lock.
    std::vector<std::unique_ptr<Replica>> slots;
    /// Running replicas: slots [0, active). Only Deploy, the controller,
    /// and StopJob write it (mutually serialized).
    std::atomic<size_t> active{0};
    /// Constructed slots: [0, created) are safe to dereference.
    std::atomic<size_t> created{0};
    /// Current accuracy variant level, applied by every replica at batch
    /// execution time.
    std::atomic<int> variant_level{0};

    /// The job's request queue, oldest first, and everything admission
    /// touches. `queue.size()` is the "queued" term of the conservation
    /// identity.
    std::mutex queue_mu;
    std::condition_variable queue_cv;  // dispatchers wait here
    RingDeque<Pending> queue;
    /// Rows handed back by the dispatchers, for SubmitAsync to fill; at
    /// most queue_capacity of them are kept.
    std::vector<Tensor> spare_rows;
    int64_t arrived = 0;
    int64_t dropped = 0;
    bool stopping = false;  // Undeploy

    /// ReplicaController plumbing (autoscale only).
    std::thread controller;
    std::mutex ctl_mu;
    std::condition_variable ctl_cv;
    bool ctl_stop = false;

    std::mutex mu;  // guards the controller-written gauges below
    int64_t replicas_peak = 0;
    int64_t scale_ups = 0;
    int64_t scale_downs = 0;
    int64_t variant_shifts = 0;

    double NowSeconds() const {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           epoch)
          .count();
    }
  };

  std::shared_ptr<Job> FindJob(std::string_view job_id) const;
  static void StopJob(Job& job);
  /// Builds the policy instance for one replica (factory or greedy
  /// default).
  static std::unique_ptr<SchedulerPolicy> MakePolicy(const Job& job);
  /// Activates slot `index` (== job->active): constructs it on first use
  /// (net clones, policy), starts its dispatcher thread, then publishes the
  /// new active count. Caller must be the only lifecycle writer (Deploy
  /// before threads exist, else the controller).
  static void StartReplica(const std::shared_ptr<Job>& job, size_t index);
  /// Retires the highest active slot: flags it and joins its dispatcher.
  /// Same caller constraint as StartReplica.
  static void RetireReplica(Job& job, size_t index);
  static void ReplicaLoop(const std::shared_ptr<Job>& job, Replica* self);
  static void ControllerLoop(const std::shared_ptr<Job>& job);
  /// Runs the batch in the replica's scratch on its clones of the models
  /// selected by `model_mask`, answers its continuations, and folds the
  /// realized Equation 7 reward — including `expired_unrewarded`
  /// not-yet-charged expiries — into the replica stats in one atomic
  /// update. Returns the reward for the policy's Feedback.
  static double ProcessBatch(Job& job, Replica& self, uint32_t model_mask,
                             int64_t expired_unrewarded);
  /// Called under the queue mutex: moves the rows of `batch` to the job's
  /// spare rows, keeping at most queue_capacity of them.
  static void RecycleRows(Job& job, std::vector<Pending>* batch);
  /// a(M[v]) in the realized reward: the most accurate selected model
  /// (exact for |M| = 1, a lower bound for a larger ensemble).
  static double EnsembleAccuracy(const Job& job, uint32_t model_mask);

  mutable std::mutex mu_;  // guards jobs_ only
  std::map<std::string, std::shared_ptr<Job>, std::less<>> jobs_;
};

}  // namespace rafiki::serving

#endif  // RAFIKI_SERVING_INFERENCE_RUNTIME_H_
