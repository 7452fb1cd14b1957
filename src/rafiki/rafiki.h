#ifndef RAFIKI_RAFIKI_RAFIKI_H_
#define RAFIKI_RAFIKI_RAFIKI_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/message_bus.h"
#include "cluster/node_manager.h"
#include "common/result.h"
#include "data/dataset.h"
#include "model/registry.h"
#include "nn/net.h"
#include "ps/parameter_server.h"
#include "serving/inference_runtime.h"
#include "storage/blob_store.h"
#include "tuning/bayes_opt.h"
#include "tuning/study.h"

namespace rafiki::api {

/// Search algorithm used by a training job's TrialAdvisor.
enum class AdvisorKind { kRandomSearch, kGridSearch, kBayesOpt };

/// Configuration of one training job — the facade equivalent of the
/// Figure 2 train.py snippet (task, dataset, input/output shapes, and the
/// HyperConf tuning options).
struct TrainConfig {
  std::string task = "ImageClassification";
  std::string dataset;        // handle returned by ImportDataset
  Shape input_shape;          // e.g. {32} feature dim or {3, 32, 32}
  Shape output_shape;         // e.g. {10} classes
  tuning::StudyConfig hyper;  // HyperConf
  AdvisorKind advisor = AdvisorKind::kRandomSearch;
  int num_workers = 2;
  uint64_t seed = 1;
};

/// A deployable trained model: the PS scope holding its parameters plus its
/// validation accuracy (what `rafiki.get_models(job_id)` returns).
struct ModelHandle {
  std::string scope;       // parameter-server scope
  std::string model_name;  // architecture identifier
  double accuracy = 0.0;
};

/// Status of a submitted job.
struct JobInfo {
  std::string job_id;
  bool done = false;
  double best_performance = 0.0;
  tuning::Trial best_trial;
  int64_t trials_finished = 0;
};

/// Tuning-plane gauges across every training job (GET /cluster/metrics):
/// worker-container liveness and restarts, the summed trial ledger, and
/// the message-bus counters.
struct ClusterMetrics {
  int64_t workers_alive = 0;    // worker containers currently running
  int64_t workers_total = 0;    // worker containers ever started
  int64_t worker_restarts = 0;  // summed container restart counts
  int64_t trials_proposed = 0;
  int64_t trials_completed = 0;
  int64_t trials_lost = 0;
  int64_t trials_active = 0;  // trials in flight right now
  cluster::BusStats bus;
};

/// One inference answer.
struct Prediction {
  int64_t label = -1;
  /// Labels voted by each deployed model (ensemble transparency).
  std::vector<int64_t> votes;
};

/// The Rafiki service facade (Figure 2): dataset import into distributed
/// storage, training jobs with distributed hyper-parameter tuning, instant
/// deployment of the trained parameters from the parameter server, and
/// query serving with ensemble modeling.
///
/// One instance owns the shared substrate of §3: the HDFS stand-in
/// (BlobStore), the parameter server, the message bus and the node manager
/// — training and inference deliberately share them (the paper's "unified
/// system architecture ... avoids technical debts").
class Rafiki {
 public:
  Rafiki();
  ~Rafiki();

  /// Datasets ---------------------------------------------------------------

  /// Uploads a dataset into storage (rafiki.import_images). Returns the
  /// dataset handle.
  Result<std::string> ImportDataset(const std::string& name,
                                    const data::Dataset& dataset);
  /// Fetches a dataset back (rafiki.download).
  Result<data::Dataset> DownloadDataset(const std::string& name);

  /// Training ----------------------------------------------------------------

  /// Submits a training job; returns the job id immediately, training runs
  /// on background containers (Figure 2: job.run() -> job_id).
  Result<std::string> Train(const TrainConfig& config);

  /// Polls job progress.
  Result<JobInfo> GetJobInfo(const std::string& job_id);

  /// Blocks until the job finishes; returns the final info.
  Result<JobInfo> WaitJob(const std::string& job_id);

  /// Deployable models of a finished training job, best first
  /// (rafiki.get_models).
  Result<std::vector<ModelHandle>> GetModels(const std::string& job_id);

  /// Inference ----------------------------------------------------------------

  /// Deploys an ensemble of trained models for serving; returns the
  /// inference job id (rafiki.Inference(models).run()). Parameters are
  /// fetched from the PS — instant deployment after training (§3). The
  /// deployed job is served by the batched inference runtime with default
  /// RuntimeOptions; the overload takes explicit serving options (SLO tau,
  /// candidate batch sizes, queue capacity).
  Result<std::string> Deploy(const std::vector<ModelHandle>& models);
  Result<std::string> Deploy(const std::vector<ModelHandle>& models,
                             const serving::RuntimeOptions& options);

  /// Serves one request (rafiki.query): the request is enqueued into the
  /// job's bounded queue, batched by the greedy policy (Algorithm 3)
  /// against the latency SLO, and answered with the ensemble majority vote
  /// and the paper's best-accuracy tie-break.
  Result<Prediction> Query(const std::string& inference_job_id,
                           const Tensor& features);

  /// Continuation-based variant of Query: `done` runs on the job's
  /// dispatcher thread when the batch containing the request completes
  /// (or when it expires / the job is undeployed). A non-OK return means
  /// the request was not enqueued and `done` will never run. `done` must
  /// not call Undeploy or destroy this Rafiki.
  Status QueryAsync(const std::string& inference_job_id, Tensor features,
                    std::function<void(Result<Prediction>)> done);

  /// Batch variant: rows go through the same batched runtime path, and a
  /// full queue fails the call Unavailable, as QueryAsync does.
  Result<std::vector<Prediction>> QueryBatch(
      const std::string& inference_job_id, const Tensor& features);

  /// Tears down a deployed inference job; in-flight queued requests fail
  /// with kUnavailable.
  Status Undeploy(const std::string& inference_job_id);

  /// Live serving counters of a deployed job (arrived / processed /
  /// overdue / dropped / batch stats / mean latency).
  Result<serving::InferenceJobMetrics> InferenceMetrics(
      const std::string& inference_job_id);

  /// Live tuning-plane gauges: worker containers alive / restarted, the
  /// trial ledger summed over all training jobs, and bus counters.
  ClusterMetrics GetClusterMetrics();

  /// Shared substrate (exposed for tests and advanced use).
  ps::ParameterServer& parameter_server() { return ps_; }
  storage::BlobStore& blob_store() { return store_; }
  const model::TaskRegistry& registry() const { return registry_; }
  serving::InferenceRuntime& inference_runtime() { return runtime_; }

 private:
  struct TrainJob {
    TrainConfig config;
    std::unique_ptr<tuning::HyperSpace> space;
    std::unique_ptr<tuning::TrialAdvisor> advisor;
    std::unique_ptr<trainer::TrainerFactory> factory;
    std::unique_ptr<tuning::StudyMaster> master;
    std::vector<std::unique_ptr<tuning::StudyWorker>> workers;
    data::Dataset train_split;
    data::Dataset val_split;
    bool done = false;
  };

  Result<TrainJob*> FindTrainJob(const std::string& job_id);

  std::mutex mu_;  // guards train_jobs_ and next_job_
  storage::BlobStore store_;
  ps::ParameterServer ps_;
  cluster::MessageBus bus_;
  cluster::NodeManager manager_;
  model::TaskRegistry registry_;
  /// Thread-safe serving tier: owns deployed models behind shared_ptr
  /// snapshots, so Query/Undeploy races are safe by construction.
  serving::InferenceRuntime runtime_;
  std::map<std::string, std::unique_ptr<TrainJob>> train_jobs_;
  int64_t next_job_ = 0;
};

/// Rebuilds an inference-only MLP from a checkpoint's parameter shapes
/// (fc0/weight [in, h0], fc1/weight [h0, h1], ...). Exposed for tests.
Result<nn::Net> BuildMlpFromCheckpoint(const ps::ModelCheckpoint& ckpt);

}  // namespace rafiki::api

#endif  // RAFIKI_RAFIKI_RAFIKI_H_
