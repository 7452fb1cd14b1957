#include "probes.h"

#include <algorithm>

#include "serving/greedy_batch.h"
#include "trace.h"

namespace perfbench {
namespace {

using rafiki::serving::SchedulerPolicy;
using rafiki::serving::ServingAction;
using rafiki::serving::ServingObs;

std::atomic<uint64_t> g_tuning_parent{0};

uint64_t TuningParent() { return g_tuning_parent.load(); }

class TimedPolicy : public SchedulerPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<SchedulerPolicy> inner)
      : inner_(std::move(inner)) {}

  ServingAction Decide(const ServingObs& obs) override {
    int64_t t0 = NowNs();
    ServingAction action = inner_->Decide(obs);
    int64_t t1 = NowNs();
    // The runtime dispatches only a positive batch of what is queued.
    bool dispatch = action.process &&
                    std::min<int64_t>(action.batch_size,
                                      static_cast<int64_t>(obs.queue_len)) > 0;
    GlobalTracer().Record(SpanName::kDecide, t0, t1, 0, 0, dispatch ? 1 : 0);
    if (dispatch) decided_ns_ = t1;
    return action;
  }

  void Feedback(const ServingObs& obs, const ServingAction& action,
                double reward) override {
    int64_t t0 = NowNs();
    Tracer& tracer = GlobalTracer();
    if (decided_ns_ != 0) {
      auto b = std::min<int64_t>(action.batch_size,
                                 static_cast<int64_t>(obs.queue_len));
      tracer.Record(SpanName::kBatch, decided_ns_, t0, 0, 0,
                    static_cast<double>(b));
      decided_ns_ = 0;
    }
    inner_->Feedback(obs, action, reward);
    tracer.Record(SpanName::kFeedback, t0, NowNs());
  }

  bool learns() const override { return inner_->learns(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<SchedulerPolicy> inner_;
  int64_t decided_ns_ = 0;  // dispatcher thread only
};

class TimedTrainable : public rafiki::trainer::Trainable {
 public:
  explicit TimedTrainable(std::unique_ptr<rafiki::trainer::Trainable> inner)
      : inner_(std::move(inner)) {}

  rafiki::Status InitRandom(const rafiki::tuning::Trial& trial) override {
    return inner_->InitRandom(trial);
  }
  rafiki::Status InitFromCheckpoint(
      const rafiki::tuning::Trial& trial,
      const rafiki::ps::ModelCheckpoint& ckpt) override {
    int64_t t0 = NowNs();
    rafiki::Status status = inner_->InitFromCheckpoint(trial, ckpt);
    GlobalTracer().Record(SpanName::kInitCkpt, t0, NowNs(), 0,
                          TuningParent());
    return status;
  }
  rafiki::Result<double> TrainEpoch() override {
    int64_t t0 = NowNs();
    rafiki::Result<double> out = inner_->TrainEpoch();
    GlobalTracer().Record(SpanName::kEpoch, t0, NowNs(), 0, TuningParent());
    return out;
  }
  rafiki::ps::ModelCheckpoint Checkpoint() const override {
    int64_t t0 = NowNs();
    rafiki::ps::ModelCheckpoint ckpt = inner_->Checkpoint();
    GlobalTracer().Record(SpanName::kCheckpoint, t0, NowNs(), 0,
                          TuningParent());
    return ckpt;
  }
  double EpochCostSeconds() const override {
    return inner_->EpochCostSeconds();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<rafiki::trainer::Trainable> inner_;
};

double CheckpointBytes(const rafiki::ps::ModelCheckpoint& ckpt) {
  double bytes = 0.0;
  for (const auto& [name, tensor] : ckpt.params) {
    bytes += static_cast<double>(tensor.numel()) * sizeof(float);
  }
  return bytes;
}

bool IsWorkerEndpoint(const std::string& name) {
  return name.find("/worker/") != std::string::npos;
}

}  // namespace

rafiki::serving::PolicyFactory TimedPolicyFactory(
    rafiki::serving::PolicyFactory inner) {
  return [inner](const rafiki::serving::PolicyInit& init)
             -> std::unique_ptr<SchedulerPolicy> {
    std::unique_ptr<SchedulerPolicy> policy;
    if (inner != nullptr) {
      policy = inner(init);
    } else if (init.num_models == 1) {
      policy = std::make_unique<rafiki::serving::GreedyBatchPolicy>(
          /*model_index=*/0, init.backoff_delta_fraction);
    } else {
      policy = std::make_unique<rafiki::serving::SyncEnsembleGreedyPolicy>(
          init.backoff_delta_fraction);
    }
    return std::make_unique<TimedPolicy>(std::move(policy));
  };
}

void SetTuningParent(uint64_t span_id) { g_tuning_parent.store(span_id); }

std::optional<rafiki::tuning::Trial> TimedAdvisor::Next(
    const std::string& worker) {
  int64_t t0 = NowNs();
  std::optional<rafiki::tuning::Trial> trial = inner_->Next(worker);
  GlobalTracer().Record(SpanName::kAdvisorNext, t0, NowNs(), 0,
                        TuningParent(), trial.has_value() ? 1 : 0);
  return trial;
}

void TimedAdvisor::Collect(const std::string& worker, double performance,
                           const rafiki::tuning::Trial& trial) {
  int64_t t0 = NowNs();
  inner_->Collect(worker, performance, trial);
  GlobalTracer().Record(SpanName::kAdvisorCollect, t0, NowNs(), 0,
                        TuningParent());
}

std::unique_ptr<rafiki::trainer::Trainable> TimedTrainerFactory::Create(
    const rafiki::tuning::Trial& trial) {
  return std::make_unique<TimedTrainable>(inner_->Create(trial));
}

rafiki::Status TimedStore::PutModel(const std::string& scope,
                                    const rafiki::ps::ModelCheckpoint& ckpt) {
  int64_t t0 = NowNs();
  rafiki::Status status = inner_->PutModel(scope, ckpt);
  GlobalTracer().Record(SpanName::kPsPut, t0, NowNs(), 0, TuningParent(),
                        CheckpointBytes(ckpt));
  return status;
}

rafiki::Result<rafiki::ps::ModelCheckpoint> TimedStore::GetModel(
    const std::string& scope) {
  int64_t t0 = NowNs();
  rafiki::Result<rafiki::ps::ModelCheckpoint> out = inner_->GetModel(scope);
  GlobalTracer().Record(SpanName::kPsGet, t0, NowNs(), 0, TuningParent(),
                        out.ok() ? CheckpointBytes(*out) : 0.0);
  return out;
}

rafiki::Status TimedBus::Send(const std::string& to,
                              rafiki::cluster::Message message) {
  int64_t t0 = NowNs();
  rafiki::Status status = inner_->Send(to, std::move(message));
  GlobalTracer().Record(SpanName::kBusSend, t0, NowNs(), 0, TuningParent());
  return status;
}

std::optional<rafiki::cluster::Message> TimedBus::Receive(
    const std::string& name) {
  int64_t t0 = NowNs();
  std::optional<rafiki::cluster::Message> msg = inner_->Receive(name);
  if (IsWorkerEndpoint(name)) {
    GlobalTracer().Record(SpanName::kBusWait, t0, NowNs(), 0, TuningParent());
  }
  return msg;
}

std::optional<rafiki::cluster::Message> TimedBus::ReceiveFor(
    const std::string& name, std::chrono::milliseconds timeout) {
  int64_t t0 = NowNs();
  std::optional<rafiki::cluster::Message> msg =
      inner_->ReceiveFor(name, timeout);
  if (IsWorkerEndpoint(name)) {
    GlobalTracer().Record(SpanName::kBusWait, t0, NowNs(), 0, TuningParent());
  }
  return msg;
}

}  // namespace perfbench
