#include "serving/inference_runtime.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "serving/greedy_batch.h"
#include "serving/reward.h"

namespace rafiki::serving {
namespace {

/// Derives the feature dimension of a model: explicit override first, else
/// the leading dimension of the first rank-2 parameter (a Linear weight is
/// [in, out]).
int64_t DeriveInputDim(ServableModel& model) {
  if (model.input_dim > 0) return model.input_dim;
  for (nn::ParamTensor* p : model.net.Params()) {
    if (p->value.rank() == 2) return p->value.dim(0);
  }
  return 0;
}

/// Times one forward of a zeros batch, seconds. The batch is cold data, so
/// this measures the same compute path live requests take.
double TimeForward(nn::Net& net, int64_t batch, int64_t dim) {
  Tensor input({batch, dim});
  auto begin = std::chrono::steady_clock::now();
  net.Forward(input, /*train=*/false);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

/// Fits the affine latency model c(b) = intercept + slope * b from timed
/// forwards at b = 1 and b = max(B), as the paper does from its two
/// calibration points (§5.1). Two repetitions each, keeping the minimum,
/// to shed first-touch noise.
model::ModelProfile CalibrateProfile(ServableModel& model, int64_t dim,
                                     int64_t max_batch, bool calibrate) {
  model::ModelProfile profile;
  profile.name = model.name;
  profile.top1_accuracy = model.accuracy;
  if (!calibrate || dim <= 0) return profile;  // zero-latency profile
  double c1 = TimeForward(model.net, 1, dim);
  c1 = std::min(c1, TimeForward(model.net, 1, dim));
  double cb = c1;
  if (max_batch > 1) {
    cb = TimeForward(model.net, max_batch, dim);
    cb = std::min(cb, TimeForward(model.net, max_batch, dim));
  }
  double slope = max_batch > 1
                     ? (cb - c1) / static_cast<double>(max_batch - 1)
                     : 0.0;
  slope = std::max(slope, 0.0);
  profile.latency_slope = slope;
  profile.latency_intercept = std::max(c1 - slope, 0.0);
  return profile;
}

/// variant_masks[L] drops the L slowest models (by latency at the largest
/// batch size) from the full ensemble — the controller's accuracy-for-
/// latency ladder. The last level keeps only the fastest model.
std::vector<uint32_t> BuildVariantMasks(
    const std::vector<model::ModelProfile>& profiles, int64_t max_batch) {
  size_t n = profiles.size();
  std::vector<size_t> by_slowest(n);
  for (size_t i = 0; i < n; ++i) by_slowest[i] = i;
  std::stable_sort(by_slowest.begin(), by_slowest.end(),
                   [&](size_t a, size_t b) {
                     return profiles[a].BatchLatency(max_batch) >
                            profiles[b].BatchLatency(max_batch);
                   });
  uint32_t mask = (1u << static_cast<uint32_t>(n)) - 1u;
  std::vector<uint32_t> masks;
  masks.reserve(n);
  for (size_t level = 0; level < n; ++level) {
    masks.push_back(mask);
    mask &= ~(1u << static_cast<uint32_t>(by_slowest[level]));
  }
  return masks;
}

/// A push wakes a dispatcher only when it can change Algorithm 3's
/// decision: while the queue is shorter than min(B) the effective batch is
/// the queue itself, so every push moves the flush deadline earlier, and at
/// a size in B a larger batch becomes feasible. Between sizes in B a
/// waiting dispatcher's flush deadline covers the rest, and the RL policy
/// never waits on a non-empty queue. With 1 in B this wakes at length 1
/// and at the sizes in B only.
bool PushWakes(const std::vector<int64_t>& batch_sizes, size_t len) {
  int64_t min_b = *std::min_element(batch_sizes.begin(), batch_sizes.end());
  if (len < static_cast<size_t>(min_b)) return true;
  for (int64_t b : batch_sizes) {
    if (static_cast<size_t>(b) == len) return true;
  }
  return false;
}

/// Consecutive-tick thresholds for the controller's hysteresis (on top of
/// the dwell time): sustained signals, not single-tick spikes.
constexpr int kScaleDownTicks = 3;
constexpr int kDownshiftTicks = 3;
constexpr int kUpshiftTicks = 5;

}  // namespace

std::vector<EnsemblePrediction> MajorityVoteRows(
    const std::vector<std::vector<int64_t>>& votes,
    const std::vector<double>& accuracies) {
  RAFIKI_CHECK(!votes.empty());
  RAFIKI_CHECK_EQ(votes.size(), accuracies.size());
  size_t rows = votes[0].size();
  std::vector<EnsemblePrediction> out(rows);
  for (size_t r = 0; r < rows; ++r) {
    std::map<int64_t, int> counts;
    EnsemblePrediction& p = out[r];
    p.votes.reserve(votes.size());
    for (const std::vector<int64_t>& model_votes : votes) {
      RAFIKI_CHECK_EQ(model_votes.size(), rows);
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

InferenceRuntime::~InferenceRuntime() {
  std::map<std::string, std::shared_ptr<Job>> jobs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs.swap(jobs_);
  }
  for (auto& [id, job] : jobs) StopJob(*job);
}

std::unique_ptr<SchedulerPolicy> InferenceRuntime::MakePolicy(
    const Job& job, size_t replica_index) {
  if (job.opts.policy_factory != nullptr) {
    PolicyInit init;
    init.num_models = job.prototypes.size();
    init.batch_sizes = job.opts.batch_sizes;
    init.accuracies = job.accuracies;
    init.profiles = &job.profiles;
    init.tau = job.opts.tau;
    init.beta = job.opts.beta;
    init.backoff_delta_fraction = job.opts.backoff_delta_fraction;
    init.replica_index = replica_index;
    init.num_replicas = job.max_replicas;
    return job.opts.policy_factory(init);
  }
  if (job.prototypes.size() == 1) {
    return std::make_unique<GreedyBatchPolicy>(
        /*model_index=*/0, job.opts.backoff_delta_fraction);
  }
  return std::make_unique<SyncEnsembleGreedyPolicy>(
      job.opts.backoff_delta_fraction);
}

Result<std::string> InferenceRuntime::Deploy(const std::string& job_id,
                                             std::vector<ServableModel> models,
                                             RuntimeOptions options) {
  if (job_id.empty()) return Status::InvalidArgument("empty job id");
  if (models.empty()) return Status::InvalidArgument("no models to deploy");
  if (models.size() > 31) {
    return Status::InvalidArgument("at most 31 models per ensemble");
  }
  if (options.tau <= 0.0) return Status::InvalidArgument("tau must be > 0");
  if (options.batch_sizes.empty()) {
    return Status::InvalidArgument("batch_sizes must be non-empty");
  }
  for (int64_t b : options.batch_sizes) {
    if (b <= 0) return Status::InvalidArgument("batch sizes must be positive");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue capacity must be positive");
  }
  if (options.replicas < 1 || options.min_replicas < 1) {
    return Status::InvalidArgument("replicas and min_replicas must be >= 1");
  }
  if (options.max_replicas < 0) {
    return Status::InvalidArgument("max_replicas must be >= 0");
  }

  auto job = std::make_shared<Job>();
  job->id = job_id;
  job->opts = options;
  job->prototypes = std::move(models);
  job->epoch = std::chrono::steady_clock::now();
  job->min_replicas = static_cast<size_t>(options.min_replicas);
  job->max_replicas =
      options.max_replicas > 0
          ? static_cast<size_t>(options.max_replicas)
          : std::max<size_t>(static_cast<size_t>(options.replicas),
                             job->min_replicas);
  if (job->max_replicas < job->min_replicas) {
    return Status::InvalidArgument("max_replicas < min_replicas");
  }
  if (job->max_replicas > 64) {
    return Status::InvalidArgument("at most 64 replicas per job");
  }
  size_t initial = std::clamp(static_cast<size_t>(options.replicas),
                              job->min_replicas, job->max_replicas);

  job->input_dim = DeriveInputDim(job->prototypes.front());
  if (job->input_dim <= 0) {
    return Status::InvalidArgument(
        StrFormat("cannot derive input dim of model '%s'",
                  job->prototypes.front().name.c_str()));
  }
  int64_t max_b = *std::max_element(options.batch_sizes.begin(),
                                    options.batch_sizes.end());
  for (ServableModel& m : job->prototypes) {
    int64_t dim = DeriveInputDim(m);
    if (dim != job->input_dim) {
      return Status::InvalidArgument(
          StrFormat("model '%s' input dim %lld != %lld", m.name.c_str(),
                    static_cast<long long>(dim),
                    static_cast<long long>(job->input_dim)));
    }
    job->profiles.push_back(
        CalibrateProfile(m, job->input_dim, max_b, options.calibrate));
    job->accuracies.push_back(m.accuracy);
  }
  job->variant_masks = BuildVariantMasks(job->profiles, max_b);
  {
    // Validate the factory once before committing the job: a factory that
    // yields no policy is a deploy-time error, not a scale-up surprise.
    std::unique_ptr<SchedulerPolicy> probe = MakePolicy(*job, 0);
    if (probe == nullptr) {
      return Status::InvalidArgument("policy_factory returned no policy");
    }
    job->policy_name = probe->name();
  }
  job->slots.resize(job->max_replicas);

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (jobs_.count(job_id) > 0) {
      return Status::AlreadyExists(
          StrFormat("inference job '%s' already deployed", job_id.c_str()));
    }
    jobs_[job_id] = job;
  }
  for (size_t i = 0; i < initial; ++i) StartReplica(job, i);
  if (options.autoscale) {
    job->controller = std::thread([job] { ControllerLoop(job); });
  }
  return job_id;
}

std::shared_ptr<InferenceRuntime::Job> InferenceRuntime::FindJob(
    const std::string& job_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(job_id);
  return it == jobs_.end() ? nullptr : it->second;
}

Status InferenceRuntime::Undeploy(const std::string& job_id) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) {
      return Status::NotFound(
          StrFormat("no inference job '%s'", job_id.c_str()));
    }
    job = std::move(it->second);
    jobs_.erase(it);
  }
  StopJob(*job);
  return Status::OK();
}

void InferenceRuntime::StartReplica(const std::shared_ptr<Job>& job,
                                    size_t index) {
  Replica* r;
  if (job->created.load(std::memory_order_relaxed) <= index) {
    auto fresh = std::make_unique<Replica>();
    fresh->index = index;
    fresh->models.reserve(job->prototypes.size());
    for (const ServableModel& proto : job->prototypes) {
      ServableModel clone;
      clone.net = proto.net.Clone();
      clone.accuracy = proto.accuracy;
      clone.name = proto.name;
      clone.input_dim = job->input_dim;
      fresh->models.push_back(std::move(clone));
    }
    fresh->profiles = job->profiles;
    fresh->policy = MakePolicy(*job, index);
    RAFIKI_CHECK(fresh->policy != nullptr);  // validated at Deploy
    job->slots[index] = std::move(fresh);
    r = job->slots[index].get();
    // Publish the slot before Metrics may traverse it.
    job->created.store(index + 1, std::memory_order_release);
  } else {
    // Re-activating a slot retired earlier: its previous dispatcher was
    // joined, so nothing else touches the flag. Policy state (e.g. a
    // learned RL agent) carries over.
    r = job->slots[index].get();
    r->stopping = false;
  }
  r->dispatcher = std::thread([job, r] { ReplicaLoop(job, r); });
  job->active.store(index + 1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->replicas_peak =
        std::max(job->replicas_peak, static_cast<int64_t>(index + 1));
  }
}

void InferenceRuntime::RetireReplica(Job& job, size_t index) {
  Replica& r = *job.slots[index];
  job.active.store(index, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(job.queue_mu);
    r.stopping = true;
  }
  // Every dispatcher wakes: the retiring one to exit, the others to pick
  // up whatever it was waiting on.
  job.queue_cv.notify_all();
  if (r.dispatcher.joinable()) r.dispatcher.join();
}

void InferenceRuntime::StopJob(Job& job) {
  // Stop the controller first so no resize can race the teardown; after
  // the join, this thread is the only lifecycle writer.
  if (job.controller.joinable()) {
    {
      std::lock_guard<std::mutex> lock(job.ctl_mu);
      job.ctl_stop = true;
    }
    job.ctl_cv.notify_all();
    job.controller.join();
  }
  {
    std::lock_guard<std::mutex> lock(job.queue_mu);
    job.stopping = true;
  }
  job.queue_cv.notify_all();
  size_t created = job.created.load(std::memory_order_acquire);
  for (size_t i = 0; i < created; ++i) {
    if (job.slots[i]->dispatcher.joinable()) job.slots[i]->dispatcher.join();
  }
  job.active.store(0, std::memory_order_release);
  // The requests still queued arrived but will never be served: fail them
  // as dropped (keeps arrived == processed + dropped + expired). Nothing
  // can enqueue past `stopping`, so the queue is final here.
  std::vector<Pending> left;
  {
    std::lock_guard<std::mutex> lock(job.queue_mu);
    job.dropped += static_cast<int64_t>(job.queue.size());
    left.reserve(job.queue.size());
    while (!job.queue.empty()) {
      left.push_back(std::move(job.queue.front()));
      job.queue.pop_front();
    }
  }
  for (Pending& p : left) {
    p.done(Status::Unavailable(
        StrFormat("inference job '%s' undeployed", job.id.c_str())));
  }
}

Status InferenceRuntime::SubmitAsync(const std::string& job_id,
                                     Tensor features, Callback done) {
  if (done == nullptr) {
    return Status::InvalidArgument("SubmitAsync requires a callback");
  }
  std::shared_ptr<Job> job = FindJob(job_id);
  if (job == nullptr) {
    return Status::NotFound(StrFormat("no inference job '%s'",
                                      job_id.c_str()));
  }
  if (features.rank() == 1) features.Reshape({1, features.numel()});
  if (features.rank() != 2 || features.dim(0) != 1) {
    return Status::InvalidArgument("features must be [dim] or [1, dim]");
  }
  if (features.dim(1) != job->input_dim) {
    return Status::InvalidArgument(
        StrFormat("feature dim %lld != model input dim %lld",
                  static_cast<long long>(features.dim(1)),
                  static_cast<long long>(job->input_dim)));
  }

  Pending pending;
  pending.features = std::move(features);
  pending.done = std::move(done);
  bool stopping = false;
  size_t len = 0;
  {
    std::lock_guard<std::mutex> lock(job->queue_mu);
    stopping = job->stopping;
    if (!stopping) {
      ++job->arrived;
      if (job->queue.size() >= job->opts.queue_capacity) {
        ++job->dropped;
      } else {
        // Stamped under the lock, so the queue stays in arrival order.
        pending.arrival = job->NowSeconds();
        job->queue.push_back(std::move(pending));
        len = job->queue.size();
      }
    }
  }
  if (stopping) {
    return Status::NotFound(
        StrFormat("inference job '%s' is undeploying", job_id.c_str()));
  }
  if (len == 0) {
    return Status::Unavailable(
        StrFormat("inference job '%s' queue full", job_id.c_str()));
  }
  if (PushWakes(job->opts.batch_sizes, len)) job->queue_cv.notify_one();
  return Status::OK();
}

Result<std::future<Result<EnsemblePrediction>>> InferenceRuntime::Submit(
    const std::string& job_id, Tensor features) {
  auto promise =
      std::make_shared<std::promise<Result<EnsemblePrediction>>>();
  std::future<Result<EnsemblePrediction>> future = promise->get_future();
  RAFIKI_RETURN_IF_ERROR(SubmitAsync(
      job_id, std::move(features),
      [promise](Result<EnsemblePrediction> answer) {
        promise->set_value(std::move(answer));
      }));
  return future;
}

Result<std::vector<EnsemblePrediction>> InferenceRuntime::QueryBatch(
    const std::string& job_id, const Tensor& features) {
  if (features.rank() != 2) {
    return Status::InvalidArgument("features must be [batch, dim]");
  }
  int64_t rows = features.dim(0);
  int64_t dim = features.dim(1);
  std::vector<std::future<Result<EnsemblePrediction>>> futures;
  futures.reserve(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    Tensor row({1, dim});
    std::memcpy(row.data(), features.data() + r * dim,
                static_cast<size_t>(dim) * sizeof(float));
    // Backpressure: a full queue is retryable; give the dispatchers a
    // bounded amount of time to drain before giving up on the whole batch.
    int attempts = 0;
    for (;;) {
      Result<std::future<Result<EnsemblePrediction>>> submitted =
          Submit(job_id, std::move(row));
      if (submitted.ok()) {
        futures.push_back(std::move(*submitted));
        break;
      }
      if (!submitted.status().IsUnavailable() || ++attempts > 2000) {
        return submitted.status();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      Tensor retry({1, dim});
      std::memcpy(retry.data(), features.data() + r * dim,
                  static_cast<size_t>(dim) * sizeof(float));
      row = std::move(retry);
    }
  }
  std::vector<EnsemblePrediction> out;
  out.reserve(futures.size());
  for (auto& future : futures) {
    Result<EnsemblePrediction> answer = future.get();
    if (!answer.ok()) return answer.status();
    out.push_back(std::move(*answer));
  }
  return out;
}

Result<InferenceJobMetrics> InferenceRuntime::Metrics(
    const std::string& job_id) const {
  std::shared_ptr<Job> job = FindJob(job_id);
  if (job == nullptr) {
    return Status::NotFound(StrFormat("no inference job '%s'",
                                      job_id.c_str()));
  }
  InferenceJobMetrics stats;
  stats.policy = job->policy_name;
  {
    std::lock_guard<std::mutex> lock(job->mu);
    stats.replicas_peak = job->replicas_peak;
    stats.scale_ups = job->scale_ups;
    stats.scale_downs = job->scale_downs;
    stats.variant_shifts = job->variant_shifts;
  }
  {
    std::lock_guard<std::mutex> lock(job->queue_mu);
    stats.arrived = job->arrived;
    stats.dropped = job->dropped;
    stats.queue_depth = static_cast<int64_t>(job->queue.size());
  }
  stats.variant_level = job->variant_level.load(std::memory_order_relaxed);
  size_t active = job->active.load(std::memory_order_acquire);
  size_t created = job->created.load(std::memory_order_acquire);
  stats.replicas = static_cast<int64_t>(active);
  double latency_sum = 0.0;
  LatencyHistogram hist;
  stats.replica_gauges.reserve(created);
  for (size_t i = 0; i < created; ++i) {
    Replica& r = *job->slots[i];
    // One mutex hold per replica covers its gauge row plus the aggregate
    // fold, so each row is an internally consistent snapshot.
    std::lock_guard<std::mutex> lock(r.mu);
    ReplicaGauges g;
    g.replica = static_cast<int64_t>(i);
    g.active = i < active;
    g.inflight = r.inflight.load(std::memory_order_relaxed);
    g.processed = r.stats.processed;
    stats.replica_gauges.push_back(g);
    stats.processed += r.stats.processed;
    stats.overdue += r.stats.overdue;
    stats.expired += r.stats.expired;
    stats.batches += r.stats.batches;
    stats.max_batch = std::max(stats.max_batch, r.stats.max_batch);
    stats.learn_steps += r.stats.learn_steps;
    stats.reward_sum += r.stats.reward_sum;
    stats.accuracy_sum += r.stats.accuracy_sum;
    stats.reward_overdue += r.stats.reward_overdue;
    stats.reward_pending_overdue += r.stats.reward_pending_overdue;
    latency_sum += r.stats.latency_sum;
    hist.Merge(r.stats.latency_hist);
  }
  if (stats.batches > 0) {
    stats.mean_batch = static_cast<double>(stats.processed) /
                       static_cast<double>(stats.batches);
  }
  if (stats.processed > 0) {
    stats.mean_latency = latency_sum / static_cast<double>(stats.processed);
    stats.p50_latency = hist.P50();
    stats.p95_latency = hist.P95();
    stats.p99_latency = hist.P99();
  }
  return stats;
}

std::vector<std::string> InferenceRuntime::Jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(id);
  return out;
}

void InferenceRuntime::ReplicaLoop(const std::shared_ptr<Job>& job,
                                   Replica* self) {
  const RuntimeOptions& opts = job->opts;
  const double delta = opts.backoff_delta_fraction * opts.tau;
  RingDeque<Pending>& queue = job->queue;
  std::vector<Pending> expired;  // scratch, capacity reused
  ServingObs obs;                // capacity reused across decisions
  obs.tau = opts.tau;
  obs.batch_sizes = &opts.batch_sizes;
  obs.models = &self->profiles;
  // This replica is the only executor of its clones and runs batches
  // synchronously, so every model is free at decision time.
  obs.busy_remaining.assign(self->profiles.size(), 0.0);
  // Expiries not yet folded into a reward: Equation 7 charges overdue at
  // batch completion, so an expired (504) request is charged against the
  // NEXT batch this replica dispatches — exactly once. The carry persists
  // across a scale-down/up cycle of this slot.
  int64_t expired_unrewarded = self->expired_carry;

  std::unique_lock<std::mutex> lock(job->queue_mu);
  while (!self->stopping && !job->stopping) {
    if (queue.empty()) {
      job->queue_cv.wait(lock, [&] {
        return !queue.empty() || self->stopping || job->stopping;
      });
      continue;
    }
    double now = job->NowSeconds();
    if (opts.expire_overdue) {
      // Queue-deadline: a request already older than tau cannot possibly
      // meet the SLO — answer it kDeadlineExceeded now instead of letting
      // it occupy batch capacity. The queue is in arrival order, so the
      // scan stops at the first fresh request.
      while (!queue.empty() && now - queue.front().arrival > opts.tau) {
        expired.push_back(std::move(queue.front()));
        queue.pop_front();
      }
      if (!expired.empty()) {
        lock.unlock();
        auto n = static_cast<int64_t>(expired.size());
        expired_unrewarded += n;
        {
          std::lock_guard<std::mutex> stats_lock(self->mu);
          self->stats.expired += n;
          self->stats.overdue += n;
          self->stats.reward_pending_overdue += n;
        }
        for (Pending& p : expired) {
          p.done(Status::DeadlineExceeded(
              StrFormat("queue wait exceeded tau=%.6fs", opts.tau)));
        }
        expired.clear();
        lock.lock();
        continue;
      }
    }
    // Arrivals are stamped under the queue mutex this thread holds, and
    // the clock is monotonic, so no wait is negative.
    obs.now = now;
    obs.queue_len = queue.size();
    size_t wait_count = std::min<size_t>(queue.size(), 64);
    obs.queue_waits.clear();
    for (size_t i = 0; i < wait_count; ++i) {
      double wait = now - queue[i].arrival;
#ifndef NDEBUG
      RAFIKI_CHECK_GE(wait, 0.0) << "stale queue-wait feature";
#endif
      obs.queue_waits.push_back(wait);
    }

    ServingAction action = self->policy->Decide(obs);
    int64_t b = std::min<int64_t>(action.batch_size,
                                  static_cast<int64_t>(queue.size()));
    if (!action.process || b <= 0) {
      // Algorithm 3 said wait: sleep until the oldest request would trip
      // the deadline flush (c(b_eff) + w(q_0) + delta >= tau), or until a
      // push that can change the decision wakes us. Every wake, spurious
      // ones included, re-runs the decision above.
      int64_t feasible =
          LargestFeasibleBatch(opts.batch_sizes, obs.queue_len);
      int64_t effective =
          feasible > 0 ? feasible : static_cast<int64_t>(obs.queue_len);
      double worst_latency = 0.0;
      for (const model::ModelProfile& m : self->profiles) {
        worst_latency = std::max(worst_latency, m.BatchLatency(effective));
      }
      double until_flush =
          opts.tau - delta - worst_latency - obs.queue_waits[0];
      job->queue_cv.wait_for(
          lock, std::chrono::duration<double>(std::max(until_flush, 100e-6)));
      continue;
    }

    std::vector<Pending> batch;
    batch.reserve(static_cast<size_t>(b));
    for (int64_t i = 0; i < b; ++i) {
      batch.push_back(std::move(queue.front()));
      queue.pop_front();
    }
    bool left_behind = !queue.empty();
    self->inflight.store(b, std::memory_order_relaxed);
    lock.unlock();
    // The requests left behind need a decision of their own.
    if (left_behind) job->queue_cv.notify_one();
    // Sanitize the mask for execution (the policy's own action object is
    // preserved for Feedback, which re-encodes it): the controller's
    // variant, a subset of the deployed models, bounds it, so bits beyond
    // the deployed models are dropped and, under a downshift, the slowest
    // models do not run even if the policy selected only them. An empty
    // result runs the whole variant (the full ensemble at level 0).
    int level = std::clamp(
        job->variant_level.load(std::memory_order_relaxed), 0,
        static_cast<int>(job->variant_masks.size()) - 1);
    uint32_t variant = job->variant_masks[static_cast<size_t>(level)];
    uint32_t exec = action.model_mask & variant;
    if (exec == 0) exec = variant;
    double reward =
        ProcessBatch(*job, *self, std::move(batch), exec, expired_unrewarded);
    self->inflight.store(0, std::memory_order_relaxed);
    expired_unrewarded = 0;
    // Online learning from the realized outcome (no-op for greedy): runs
    // on this dispatcher thread, after the stats fold, so Metrics readers
    // never see a batch whose reward is missing.
    self->policy->Feedback(obs, action, reward);
    lock.lock();
  }
  self->expired_carry = expired_unrewarded;
}

void InferenceRuntime::ControllerLoop(const std::shared_ptr<Job>& job) {
  const RuntimeOptions& opts = job->opts;
  const int64_t max_b = *std::max_element(opts.batch_sizes.begin(),
                                          opts.batch_sizes.end());
  const auto max_level =
      static_cast<int>(job->variant_masks.size()) - 1;
  double last_resize = job->NowSeconds();
  double last_shift = last_resize;
  int low_ticks = 0;
  int high_overdue_ticks = 0;
  int low_overdue_ticks = 0;
  int64_t prev_overdue = 0;
  int64_t prev_completed = 0;

  std::unique_lock<std::mutex> lock(job->ctl_mu);
  for (;;) {
    job->ctl_cv.wait_for(lock,
                         std::chrono::duration<double>(opts.autoscale_interval),
                         [&] { return job->ctl_stop; });
    if (job->ctl_stop) break;
    lock.unlock();

    size_t active = job->active.load(std::memory_order_acquire);
    int64_t queued;
    {
      std::lock_guard<std::mutex> queue_lock(job->queue_mu);
      queued = static_cast<int64_t>(job->queue.size());
    }
    int64_t inflight = 0;
    for (size_t i = 0; i < active; ++i) {
      inflight += job->slots[i]->inflight.load(std::memory_order_relaxed);
    }
    double now = job->NowSeconds();

    // Horizontal scaling, with hysteresis: a dwell between resizes, and
    // scale-down additionally requires several consecutive low ticks.
    auto up_at = static_cast<int64_t>(opts.scale_up_pressure *
                                      static_cast<double>(active) *
                                      static_cast<double>(max_b));
    auto down_at = static_cast<int64_t>(
        opts.scale_down_pressure * static_cast<double>(active - 1) *
        static_cast<double>(max_b));
    if (active < job->max_replicas && queued > up_at &&
        now - last_resize >= opts.autoscale_dwell) {
      StartReplica(job, active);
      {
        std::lock_guard<std::mutex> stats_lock(job->mu);
        ++job->scale_ups;
      }
      last_resize = now;
      low_ticks = 0;
    } else if (active > job->min_replicas) {
      if (queued + inflight <= down_at) {
        ++low_ticks;
      } else {
        low_ticks = 0;
      }
      if (low_ticks >= kScaleDownTicks &&
          now - last_resize >= opts.autoscale_dwell) {
        RetireReplica(*job, active - 1);
        {
          std::lock_guard<std::mutex> stats_lock(job->mu);
          ++job->scale_downs;
        }
        last_resize = now;
        low_ticks = 0;
      }
    } else {
      low_ticks = 0;
    }

    // Accuracy-for-latency variant ladder (Loki-style): once horizontal
    // scaling is exhausted and the overdue fraction stays high, drop the
    // slowest models; restore them when pressure stays low.
    if (max_level > 0) {
      int64_t overdue = 0;
      int64_t completed = 0;
      size_t created = job->created.load(std::memory_order_acquire);
      for (size_t i = 0; i < created; ++i) {
        Replica& r = *job->slots[i];
        std::lock_guard<std::mutex> stats_lock(r.mu);
        overdue += r.stats.overdue;
        completed += r.stats.processed + r.stats.expired;
      }
      int64_t d_over = overdue - prev_overdue;
      int64_t d_comp = completed - prev_completed;
      prev_overdue = overdue;
      prev_completed = completed;
      if (d_comp > 0) {
        double rate = static_cast<double>(d_over) /
                      static_cast<double>(d_comp);
        if (rate > opts.downshift_overdue_rate) {
          ++high_overdue_ticks;
          low_overdue_ticks = 0;
        } else if (rate < opts.upshift_overdue_rate &&
                   queued <= static_cast<int64_t>(active) * max_b) {
          ++low_overdue_ticks;
          high_overdue_ticks = 0;
        } else {
          high_overdue_ticks = 0;
          low_overdue_ticks = 0;
        }
      }
      int level = job->variant_level.load(std::memory_order_relaxed);
      if (level < max_level && high_overdue_ticks >= kDownshiftTicks &&
          active >= job->max_replicas &&
          now - last_shift >= opts.autoscale_dwell) {
        job->variant_level.store(level + 1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> stats_lock(job->mu);
          ++job->variant_shifts;
        }
        last_shift = now;
        high_overdue_ticks = 0;
      } else if (level > 0 && low_overdue_ticks >= kUpshiftTicks &&
                 now - last_shift >= 2.0 * opts.autoscale_dwell) {
        job->variant_level.store(level - 1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> stats_lock(job->mu);
          ++job->variant_shifts;
        }
        last_shift = now;
        low_overdue_ticks = 0;
      }
    }

    lock.lock();
  }
}

double InferenceRuntime::EnsembleAccuracy(const Job& job, uint32_t mask) {
  if (job.opts.ensemble_accuracy != nullptr) {
    return job.opts.ensemble_accuracy(mask);
  }
  double best = 0.0;
  for (size_t m = 0; m < job.accuracies.size(); ++m) {
    if (mask & (1u << m)) best = std::max(best, job.accuracies[m]);
  }
  return best;
}

double InferenceRuntime::ProcessBatch(Job& job, Replica& self,
                                      std::vector<Pending> batch,
                                      uint32_t model_mask,
                                      int64_t expired_unrewarded) {
  auto b = static_cast<int64_t>(batch.size());
  Tensor features({b, job.input_dim});
  for (int64_t r = 0; r < b; ++r) {
    std::memcpy(features.data() + r * job.input_dim,
                batch[static_cast<size_t>(r)].features.data(),
                static_cast<size_t>(job.input_dim) * sizeof(float));
  }

  // Only the models the policy (and variant) selected run — on this
  // replica's own clones; the vote and its accuracy tie-break are over
  // that subset.
  std::vector<std::vector<int64_t>> votes;
  std::vector<double> vote_accuracies;
  votes.reserve(self.models.size());
  for (size_t m = 0; m < self.models.size(); ++m) {
    if ((model_mask & (1u << m)) == 0) continue;
    Tensor logits = self.models[m].net.Forward(features, /*train=*/false);
    votes.push_back(logits.ArgmaxRows());
    vote_accuracies.push_back(job.accuracies[m]);
  }
  std::vector<EnsemblePrediction> answers =
      MajorityVoteRows(votes, vote_accuracies);

  double completion = job.NowSeconds();
  int64_t overdue = 0;
  double latency_sum = 0.0;
  for (const Pending& p : batch) {
    double latency = completion - p.arrival;
    latency_sum += latency;
    if (latency > job.opts.tau) ++overdue;
  }
  // Realized Equation 7 reward for this dispatch: the batch's own overdue
  // completions plus any expiries on this replica since its previous
  // batch, each charged exactly once.
  double accuracy = EnsembleAccuracy(job, model_mask);
  int64_t charged = overdue + expired_unrewarded;
  double reward = BatchReward(accuracy, b, charged, job.opts.beta);
  {
    std::lock_guard<std::mutex> lock(self.mu);
    self.stats.processed += b;
    self.stats.overdue += overdue;
    ++self.stats.batches;
    self.stats.max_batch = std::max(self.stats.max_batch, b);
    self.stats.reward_sum += reward;
    self.stats.accuracy_sum += accuracy * static_cast<double>(b);
    self.stats.reward_overdue += charged;
    self.stats.reward_pending_overdue -= expired_unrewarded;
    if (self.policy->learns()) ++self.stats.learn_steps;
    self.stats.latency_sum += latency_sum;
    for (const Pending& p : batch) {
      self.stats.latency_hist.Add(completion - p.arrival);
    }
  }
  // Invoke continuations after the counters: a caller resumed by its
  // callback immediately sees its own request reflected in Metrics().
  for (int64_t r = 0; r < b; ++r) {
    batch[static_cast<size_t>(r)].done(
        std::move(answers[static_cast<size_t>(r)]));
  }
  return reward;
}

}  // namespace rafiki::serving
