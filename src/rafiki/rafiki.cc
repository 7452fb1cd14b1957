#include "rafiki/rafiki.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "common/string_util.h"
#include "storage/serialize.h"
#include "trainer/real_trainer.h"

namespace rafiki::api {
namespace {

/// Default hyper-parameter space for the built-in MLP trainer: the paper's
/// group-3 optimization knobs (Table 1, §7.1.1) plus one architecture knob.
std::unique_ptr<tuning::HyperSpace> MakeDefaultSpace() {
  auto space = std::make_unique<tuning::HyperSpace>();
  RAFIKI_CHECK_OK(space->AddRangeKnob("learning_rate",
                                      tuning::KnobDtype::kFloat, 1e-3, 0.5,
                                      /*log_scale=*/true));
  RAFIKI_CHECK_OK(
      space->AddRangeKnob("momentum", tuning::KnobDtype::kFloat, 0.0, 0.99));
  RAFIKI_CHECK_OK(space->AddRangeKnob("weight_decay",
                                      tuning::KnobDtype::kFloat, 1e-6, 1e-2,
                                      /*log_scale=*/true));
  RAFIKI_CHECK_OK(
      space->AddRangeKnob("dropout", tuning::KnobDtype::kFloat, 0.0, 0.5));
  RAFIKI_CHECK_OK(space->AddRangeKnob("init_std", tuning::KnobDtype::kFloat,
                                      1e-2, 0.5, /*log_scale=*/true));
  RAFIKI_CHECK_OK(
      space->AddNumericCategoricalKnob("hidden_units", {32, 64, 128}));
  return space;
}

}  // namespace

Result<nn::Net> BuildMlpFromCheckpoint(const ps::ModelCheckpoint& ckpt) {
  // Collect fcN/weight + fcN/bias pairs in layer order.
  std::map<int, const Tensor*> weights;
  std::map<int, const Tensor*> biases;
  for (const auto& [name, tensor] : ckpt.params) {
    int layer = -1;
    char kind[16] = {0};
    if (std::sscanf(name.c_str(), "fc%d/%15s", &layer, kind) == 2) {
      if (std::string(kind) == "weight") weights[layer] = &tensor;
      if (std::string(kind) == "bias") biases[layer] = &tensor;
    }
  }
  if (weights.empty()) {
    return Status::InvalidArgument("checkpoint has no fc layers");
  }
  nn::Net net;
  Rng rng(0);
  int count = 0;
  int total = static_cast<int>(weights.size());
  for (const auto& [layer, weight] : weights) {
    auto bias_it = biases.find(layer);
    if (bias_it == biases.end()) {
      return Status::InvalidArgument(
          StrFormat("checkpoint missing bias for fc%d", layer));
    }
    if (weight->rank() != 2) {
      return Status::InvalidArgument("weight tensor must be rank 2");
    }
    auto linear = std::make_unique<nn::Linear>(
        weight->dim(0), weight->dim(1), /*init_std=*/0.0f, rng,
        StrFormat("fc%d", layer));
    std::vector<nn::ParamTensor*> params = linear->Params();
    params[0]->value = *weight;
    params[1]->value = *bias_it->second;
    net.Add(std::move(linear));
    if (++count < total) {
      net.Add(std::make_unique<nn::Relu>(StrFormat("relu%d", layer)));
    }
  }
  return net;
}

Rafiki::Rafiki() : registry_(model::TaskRegistry::BuiltIn()) {}

Rafiki::~Rafiki() { manager_.Shutdown(); }

Result<std::string> Rafiki::ImportDataset(const std::string& name,
                                          const data::Dataset& dataset) {
  if (name.empty()) return Status::InvalidArgument("empty dataset name");
  if (dataset.size() == 0) return Status::InvalidArgument("empty dataset");
  std::string key = "datasets/" + name;
  RAFIKI_RETURN_IF_ERROR(store_.Put(key, storage::SerializeDataset(dataset)));
  return key;
}

Result<data::Dataset> Rafiki::DownloadDataset(const std::string& name) {
  std::string key = StartsWith(name, "datasets/") ? name : "datasets/" + name;
  RAFIKI_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, store_.Get(key));
  return storage::DeserializeDataset(bytes);
}

Result<std::string> Rafiki::Train(const TrainConfig& config) {
  RAFIKI_ASSIGN_OR_RETURN(data::Dataset dataset,
                          DownloadDataset(config.dataset));
  if (!config.output_shape.empty() &&
      config.output_shape[0] != dataset.num_classes) {
    return Status::InvalidArgument(
        StrFormat("output shape %lld != dataset classes %lld",
                  static_cast<long long>(config.output_shape[0]),
                  static_cast<long long>(dataset.num_classes)));
  }

  std::lock_guard<std::mutex> lock(mu_);
  std::string job_id = StrFormat("job%lld",
                                 static_cast<long long>(next_job_++));
  auto job = std::make_unique<TrainJob>();
  job->config = config;
  job->space = MakeDefaultSpace();

  Rng rng(config.seed);
  data::DataSplits splits = data::SplitDataset(dataset, 0.7, 0.15, rng);
  job->train_split = std::move(splits.train);
  job->val_split = std::move(splits.validation);

  switch (config.advisor) {
    case AdvisorKind::kRandomSearch:
      job->advisor = std::make_unique<tuning::RandomSearchAdvisor>(
          job->space.get(), config.hyper.max_trials, config.seed);
      break;
    case AdvisorKind::kGridSearch:
      job->advisor = std::make_unique<tuning::GridSearchAdvisor>(
          job->space.get(), /*points_per_knob=*/2);
      break;
    case AdvisorKind::kBayesOpt: {
      tuning::BayesOptOptions options;
      options.max_trials = config.hyper.max_trials;
      options.seed = config.seed;
      job->advisor = std::make_unique<tuning::BayesOptAdvisor>(
          job->space.get(), options);
      break;
    }
  }

  trainer::RealTrainerOptions trainer_options;
  trainer_options.seed = config.seed;
  job->factory = std::make_unique<trainer::RealTrainerFactory>(
      &job->train_split, &job->val_split, trainer_options);

  tuning::StudyConfig hyper = config.hyper;
  hyper.num_workers = config.num_workers;
  job->master = std::make_unique<tuning::StudyMaster>(
      job_id, hyper, job->advisor.get(), &bus_, &store_);
  tuning::StudyMaster* master = job->master.get();
  RAFIKI_RETURN_IF_ERROR(manager_.StartContainer(
      job_id + "/master",
      [master](cluster::CancelToken& token) { master->Run(token); }));

  Rng seeds(config.seed + 1);
  for (int i = 0; i < config.num_workers; ++i) {
    job->workers.push_back(std::make_unique<tuning::StudyWorker>(
        job_id, StrFormat("w%d", i), hyper, job->factory.get(), &bus_, &ps_,
        seeds.Fork().Next64()));
    tuning::StudyWorker* worker = job->workers.back().get();
    RAFIKI_RETURN_IF_ERROR(manager_.StartContainer(
        StrFormat("%s/worker/%d", job_id.c_str(), i),
        [worker](cluster::CancelToken& token) { worker->Run(token); }));
  }

  train_jobs_[job_id] = std::move(job);
  return job_id;
}

Result<Rafiki::TrainJob*> Rafiki::FindTrainJob(const std::string& job_id) {
  auto it = train_jobs_.find(job_id);
  if (it == train_jobs_.end()) {
    return Status::NotFound(StrFormat("no job '%s'", job_id.c_str()));
  }
  return it->second.get();
}

Result<JobInfo> Rafiki::GetJobInfo(const std::string& job_id) {
  std::lock_guard<std::mutex> lock(mu_);
  RAFIKI_ASSIGN_OR_RETURN(TrainJob * job, FindTrainJob(job_id));
  JobInfo info;
  info.job_id = job_id;
  info.done = job->done || !manager_.IsRunning(job_id + "/master");
  if (info.done) {
    job->done = true;
    const tuning::StudyStats& stats = job->master->stats();
    info.best_performance = stats.best_performance;
    info.best_trial = stats.best_trial;
    info.trials_finished = static_cast<int64_t>(stats.trials.size());
  }
  return info;
}

Result<JobInfo> Rafiki::WaitJob(const std::string& job_id) {
  // Blocks on the master container's exit. NotFound means it was already
  // reaped (or the job is unknown, which GetJobInfo reports).
  Status waited = manager_.WaitContainer(job_id + "/master");
  if (!waited.ok() && !waited.IsNotFound()) return waited;
  return GetJobInfo(job_id);
}

Result<std::vector<ModelHandle>> Rafiki::GetModels(
    const std::string& job_id) {
  RAFIKI_ASSIGN_OR_RETURN(JobInfo info, GetJobInfo(job_id));
  if (!info.done) {
    return Status::FailedPrecondition(
        StrFormat("job '%s' still training", job_id.c_str()));
  }
  std::string scope = "study/" + job_id + "/best";
  RAFIKI_ASSIGN_OR_RETURN(ps::ModelCheckpoint ckpt, ps_.GetModel(scope));
  ModelHandle handle;
  handle.scope = scope;
  handle.model_name = "mlp";
  handle.accuracy = ckpt.meta.accuracy;
  return std::vector<ModelHandle>{handle};
}

Result<std::string> Rafiki::Deploy(const std::vector<ModelHandle>& models) {
  return Deploy(models, serving::RuntimeOptions{});
}

Result<std::string> Rafiki::Deploy(const std::vector<ModelHandle>& models,
                                   const serving::RuntimeOptions& options) {
  if (models.empty()) return Status::InvalidArgument("no models to deploy");
  std::vector<serving::ServableModel> servables;
  servables.reserve(models.size());
  for (const ModelHandle& handle : models) {
    // Instant deployment: parameters come straight from the PS (§3).
    RAFIKI_ASSIGN_OR_RETURN(ps::ModelCheckpoint ckpt,
                            ps_.GetModel(handle.scope));
    RAFIKI_ASSIGN_OR_RETURN(nn::Net net, BuildMlpFromCheckpoint(ckpt));
    serving::ServableModel servable;
    servable.net = std::move(net);
    servable.accuracy =
        handle.accuracy > 0.0 ? handle.accuracy : ckpt.meta.accuracy;
    servable.name = handle.model_name;
    servables.push_back(std::move(servable));
  }
  std::string job_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_id = StrFormat("infer%lld", static_cast<long long>(next_job_++));
  }
  return runtime_.Deploy(job_id, std::move(servables), options);
}

Result<std::vector<Prediction>> Rafiki::QueryBatch(
    std::string_view inference_job_id, const Tensor& features) {
  return runtime_.QueryBatch(inference_job_id, features);
}

Result<Prediction> Rafiki::Query(std::string_view inference_job_id,
                                 const Tensor& features) {
  RAFIKI_ASSIGN_OR_RETURN(auto future,
                          runtime_.Submit(inference_job_id, features));
  return future.get();
}

Status Rafiki::QueryAsync(std::string_view inference_job_id,
                          std::span<const float> features,
                          serving::InferenceRuntime::Callback done) {
  if (done == nullptr) {
    return Status::InvalidArgument("QueryAsync requires a callback");
  }
  return runtime_.SubmitAsync(inference_job_id, features, std::move(done));
}

Status Rafiki::Undeploy(const std::string& inference_job_id) {
  return runtime_.Undeploy(inference_job_id);
}

Result<serving::InferenceJobMetrics> Rafiki::InferenceMetrics(
    const std::string& inference_job_id) {
  return runtime_.Metrics(inference_job_id);
}

ClusterMetrics Rafiki::GetClusterMetrics() {
  ClusterMetrics out;
  for (const std::string& name : manager_.ListContainers()) {
    if (name.find("/worker/") == std::string::npos) continue;
    ++out.workers_total;
    if (manager_.IsRunning(name)) ++out.workers_alive;
    out.worker_restarts += manager_.RestartCount(name);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, job] : train_jobs_) {
      tuning::TrialLedger ledger = job->master->ledger();
      out.trials_proposed += ledger.proposed;
      out.trials_completed += ledger.completed;
      out.trials_lost += ledger.lost;
      out.trials_active += ledger.active;
    }
  }
  out.bus = bus_.Stats();
  return out;
}

}  // namespace rafiki::api
