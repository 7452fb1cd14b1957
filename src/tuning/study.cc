#include "tuning/study.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/string_util.h"

namespace rafiki::tuning {

using cluster::Message;
using cluster::MessageType;

namespace {

/// Longest single block in Bus::ReceiveFor. Between slices a wait re-checks
/// its CancelToken, so a container kill takes effect within one slice.
constexpr std::chrono::milliseconds kWaitSlice{10};
/// How long a worker waits on a master that is still registered but silent
/// (it died between receiving a message and replying, across processes).
constexpr std::chrono::seconds kReplyDeadline{10};

}  // namespace

StudyMaster::StudyMaster(std::string study_name, StudyConfig config,
                         TrialAdvisor* advisor, cluster::Bus* bus,
                         storage::BlobStore* checkpoint_store)
    : study_name_(std::move(study_name)),
      config_(config),
      advisor_(advisor),
      bus_(bus),
      checkpoint_store_(checkpoint_store),
      alpha_(config.alpha_init) {
  RAFIKI_CHECK(advisor != nullptr);
  RAFIKI_CHECK(bus != nullptr);
}

bool StudyMaster::StopCriterion() const {
  if (num_finished_ >= config_.max_trials) return true;
  if (stats_.best_performance >= config_.target_performance) return true;
  return false;
}

void StudyMaster::HandleRequest(const Message& msg) {
  // A kRequest from a worker we believe is mid-trial means the worker was
  // killed and restarted (stateless recovery, §6.3): its previous trial is
  // lost; just hand out a new one.
  if (active_trials_.erase(msg.from) > 0) {
    lost_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_sub(1, std::memory_order_relaxed);
  }

  std::optional<Trial> trial;
  if (!StopCriterion()) trial = advisor_->Next(msg.from);
  if (!trial.has_value()) {
    Message reply;
    reply.type = MessageType::kNoMoreTrials;
    reply.from = endpoint();
    bus_->Send(msg.from, std::move(reply));
    retired_workers_.insert(msg.from);
    return;
  }
  Message reply;
  reply.type = MessageType::kTrial;
  reply.from = endpoint();
  reply.trial_id = trial->id();
  reply.str_fields["trial"] = trial->Encode();
  reply.num_fields["alpha"] = alpha_;
  bus_->Send(msg.from, std::move(reply));
  proposed_.fetch_add(1, std::memory_order_relaxed);
  active_.fetch_add(1, std::memory_order_relaxed);
  active_trials_[msg.from] = WorkerProgress{-1.0, 0, trial->id()};
  // Decay alpha once per issued trial (§4.2.2).
  alpha_ = std::max(config_.alpha_min, alpha_ * config_.alpha_decay);
}

void StudyMaster::Reply(const Message& msg, MessageType verdict) {
  Message reply;
  reply.type = verdict;
  reply.from = endpoint();
  reply.trial_id = msg.trial_id;
  // A failed send means the worker died; its trial is written off when it
  // re-requests.
  bus_->Send(msg.from, std::move(reply));
}

void StudyMaster::HandleReport(const Message& msg) {
  auto active = active_trials_.find(msg.from);
  if (active == active_trials_.end() ||
      active->second.trial_id != msg.trial_id) {
    // A trial this master does not track is already counted lost: end it.
    Reply(msg, MessageType::kStop);
    return;
  }
  Result<Trial> trial = Trial::Decode(msg.str_fields.count("trial")
                                          ? msg.str_fields.at("trial")
                                          : "");
  if (!trial.ok()) {
    RAFIKI_LOG(WARNING) << "ignoring malformed report from " << msg.from;
    Reply(msg, MessageType::kContinue);
    return;
  }
  advisor_->Collect(msg.from, msg.performance, trial.value());

  auto sim_it = msg.num_fields.find("sim_seconds");
  if (sim_it != msg.num_fields.end()) {
    worker_sim_seconds_[msg.from] = sim_it->second;
  }

  // Progress tracking for curves (Figures 8c/9c/11b).
  stats_.total_epochs += 1;
  if (msg.performance > stats_.best_performance) {
    stats_.best_performance = msg.performance;
    stats_.best_trial = trial.value();
  }
  double wall = 0.0;
  for (const auto& [w, s] : worker_sim_seconds_) wall = std::max(wall, s);
  stats_.sim_seconds = wall;
  stats_.progress.push_back(
      ProgressPoint{stats_.total_epochs, wall, stats_.best_performance});

  WorkerProgress& wp = active->second;
  bool improved = msg.performance > wp.best + config_.early_stop_min_delta;
  if (improved) {
    wp.best = msg.performance;
    wp.stale_epochs = 0;
  } else {
    ++wp.stale_epochs;
  }

  // Algorithm 2 lines 8-12: delta-gated publication, else early stop. Plain
  // Study never shares checkpoints mid-trial but still early-stops (§7.1:
  // "we run each trial with early stopping").
  MessageType verdict = MessageType::kContinue;
  if (config_.collaborative && msg.performance - best_p_ > config_.delta) {
    verdict = MessageType::kPut;
    best_p_ = msg.performance;
  } else if (wp.stale_epochs >= config_.early_stop_patience) {
    verdict = MessageType::kStop;
  }
  Reply(msg, verdict);
}

void StudyMaster::HandleFinish(const Message& msg) {
  auto active = active_trials_.find(msg.from);
  if (active == active_trials_.end() ||
      active->second.trial_id != msg.trial_id) {
    // The trial is already counted lost; do not count it twice.
    if (!config_.collaborative) Reply(msg, MessageType::kContinue);
    return;
  }
  active_trials_.erase(active);
  ++num_finished_;
  completed_.fetch_add(1, std::memory_order_relaxed);
  active_.fetch_sub(1, std::memory_order_relaxed);

  Result<Trial> trial = Trial::Decode(msg.str_fields.count("trial")
                                          ? msg.str_fields.at("trial")
                                          : "");
  if (trial.ok()) {
    advisor_->Collect(msg.from, msg.performance, trial.value());
    if (msg.performance > stats_.best_performance) {
      stats_.best_performance = msg.performance;
      stats_.best_trial = trial.value();
    }
  }

  auto sim_it = msg.num_fields.find("sim_seconds");
  if (sim_it != msg.num_fields.end()) {
    worker_sim_seconds_[msg.from] = sim_it->second;
  }
  double wall = 0.0;
  for (const auto& [w, s] : worker_sim_seconds_) wall = std::max(wall, s);
  stats_.sim_seconds = wall;

  TrialRecord rec;
  rec.trial_id = msg.trial_id;
  rec.performance = msg.performance;
  auto epochs_it = msg.num_fields.find("epochs");
  rec.epochs = epochs_it == msg.num_fields.end()
                   ? 0
                   : static_cast<int>(epochs_it->second);
  auto warm_it = msg.num_fields.find("warm_started");
  rec.warm_started =
      warm_it != msg.num_fields.end() && warm_it->second > 0.5;
  rec.worker = msg.from;
  rec.cumulative_epochs = stats_.total_epochs;
  rec.sim_seconds = wall;
  stats_.trials.push_back(rec);

  if (!config_.collaborative) {
    // Algorithm 1 lines 15-17: publish the parameters of the best finished
    // trial so inference can deploy instantly.
    Reply(msg, advisor_->IsBest(msg.from) ? MessageType::kPut
                                          : MessageType::kContinue);
  }
}

Status StudyMaster::SaveCheckpoint() const {
  if (checkpoint_store_ == nullptr) {
    return Status::FailedPrecondition("no checkpoint store");
  }
  // Small state blob (§6.3): finished count, best perf, alpha, the trial
  // ledger, and the best trial.
  std::string s = StrFormat(
      "%lld|%.17g|%.17g|%.17g|%lld|%lld|",
      static_cast<long long>(num_finished_), stats_.best_performance,
      best_p_, alpha_,
      static_cast<long long>(proposed_.load(std::memory_order_relaxed)),
      static_cast<long long>(lost_.load(std::memory_order_relaxed)));
  s += stats_.best_trial.Encode();
  return checkpoint_store_->Put("study/" + study_name_ + "/master_ckpt",
                                std::vector<uint8_t>(s.begin(), s.end()));
}

Status StudyMaster::RestoreFromCheckpoint() {
  if (checkpoint_store_ == nullptr) {
    return Status::FailedPrecondition("no checkpoint store");
  }
  auto blob = checkpoint_store_->Get("study/" + study_name_ + "/master_ckpt");
  if (!blob.ok()) return blob.status();
  std::string s(blob.value().begin(), blob.value().end());
  std::vector<std::string> parts = Split(s, '|');
  if (parts.size() < 7) return Status::InvalidArgument("bad master ckpt");
  num_finished_ = std::strtoll(parts[0].c_str(), nullptr, 10);
  stats_.best_performance = std::strtod(parts[1].c_str(), nullptr);
  best_p_ = std::strtod(parts[2].c_str(), nullptr);
  alpha_ = std::strtod(parts[3].c_str(), nullptr);
  proposed_.store(std::strtoll(parts[4].c_str(), nullptr, 10),
                  std::memory_order_relaxed);
  int64_t lost = std::strtoll(parts[5].c_str(), nullptr, 10);
  completed_.store(num_finished_, std::memory_order_relaxed);
  // Trials in flight when the predecessor died are presumed lost: their
  // workers abandon them once sends to the dead master fail, then
  // re-request as unknown workers (the restored active set is empty).
  int64_t in_flight = proposed_.load(std::memory_order_relaxed) -
                      num_finished_ - lost;
  lost_.store(lost + std::max<int64_t>(0, in_flight),
              std::memory_order_relaxed);
  active_.store(0, std::memory_order_relaxed);
  // The trial encoding itself contains a '|'; rejoin the tail.
  std::string trial_enc = parts[6];
  for (size_t i = 7; i < parts.size(); ++i) trial_enc += "|" + parts[i];
  Result<Trial> trial = Trial::Decode(trial_enc);
  if (trial.ok()) stats_.best_trial = trial.value();
  return Status::OK();
}

void StudyMaster::SaveCheckpointIfDue() {
  if (checkpoint_store_ == nullptr || config_.checkpoint_every_events <= 0) {
    return;
  }
  if (++events_since_checkpoint_ >= config_.checkpoint_every_events) {
    events_since_checkpoint_ = 0;
    Status s = SaveCheckpoint();
    if (!s.ok()) {
      RAFIKI_LOG(WARNING) << "master checkpoint failed: " << s.ToString();
    }
  }
}

void StudyMaster::Run(cluster::CancelToken& token) {
  Status reg = bus_->RegisterEndpoint(endpoint());
  if (!reg.ok() && reg.code() != StatusCode::kAlreadyExists) {
    RAFIKI_LOG(ERROR) << "master cannot register: " << reg.ToString();
    return;
  }
  // Event loop of Algorithms 1/2: block for the next message.
  while (!token.cancelled()) {
    if (static_cast<int>(retired_workers_.size()) >= config_.num_workers &&
        active_trials_.empty()) {
      break;
    }
    std::optional<Message> msg = bus_->ReceiveFor(endpoint(), kWaitSlice);
    if (!msg.has_value()) {
      if (bus_->EndpointClosed(endpoint())) break;  // the bus shut down
      continue;
    }
    switch (msg->type) {
      case MessageType::kRequest:
        HandleRequest(*msg);
        break;
      case MessageType::kReport:
        HandleReport(*msg);
        break;
      case MessageType::kFinish:
        HandleFinish(*msg);
        break;
      case MessageType::kShutdown:
        bus_->RemoveEndpoint(endpoint());
        return;
      default:
        RAFIKI_LOG(WARNING) << "master ignoring " << msg->DebugString();
    }
    SaveCheckpointIfDue();
  }
  if (checkpoint_store_ != nullptr) SaveCheckpoint();
  bus_->RemoveEndpoint(endpoint());
}

StudyWorker::StudyWorker(std::string study_name, std::string worker_name,
                         StudyConfig config, trainer::TrainerFactory* factory,
                         cluster::Bus* bus, ps::ParameterStore* ps,
                         uint64_t seed)
    : study_name_(std::move(study_name)),
      worker_name_(std::move(worker_name)),
      config_(config),
      factory_(factory),
      bus_(bus),
      ps_(ps),
      rng_(seed) {
  RAFIKI_CHECK(factory != nullptr);
  RAFIKI_CHECK(bus != nullptr);
  RAFIKI_CHECK(ps != nullptr);
}

void StudyWorker::PublishCheckpoint(trainer::Trainable& trainable,
                                    double performance) {
  ps::ModelCheckpoint ckpt = trainable.Checkpoint();
  ckpt.meta.accuracy = performance;
  ckpt.meta.owner = "study/" + study_name_;
  ckpt.meta.visibility = ps::Visibility::kPrivate;
  Status s = ps_->PutModel(best_scope(), ckpt);
  if (!s.ok()) {
    RAFIKI_LOG(WARNING) << worker_name_
                        << " checkpoint publish failed: " << s.ToString();
  }
}

std::optional<Message> StudyWorker::AwaitMaster(cluster::CancelToken& token) {
  auto deadline = std::chrono::steady_clock::now() + kReplyDeadline;
  while (!token.cancelled()) {
    std::optional<Message> msg = bus_->ReceiveFor(endpoint(), kWaitSlice);
    if (msg.has_value()) {
      if (msg->type != MessageType::kShutdown) return msg;
      token.Cancel();
      break;
    }
    if (bus_->EndpointClosed(endpoint()) ||
        !bus_->HasEndpoint(master_endpoint()) ||
        std::chrono::steady_clock::now() > deadline) {
      break;
    }
  }
  return std::nullopt;
}

std::optional<Message> StudyWorker::AwaitVerdict(int64_t trial_id,
                                                 cluster::CancelToken& token) {
  while (std::optional<Message> msg = AwaitMaster(token)) {
    bool verdict = msg->type == MessageType::kPut ||
                   msg->type == MessageType::kStop ||
                   msg->type == MessageType::kContinue;
    if (verdict && msg->trial_id == trial_id) return msg;
  }
  return std::nullopt;
}

void StudyWorker::Run(cluster::CancelToken& token) {
  Status reg = bus_->RegisterEndpoint(endpoint());
  if (!reg.ok() && reg.code() != StatusCode::kAlreadyExists) {
    RAFIKI_LOG(ERROR) << "worker cannot register: " << reg.ToString();
    return;
  }

  while (!token.cancelled()) {
    // Ask for work. The master may not have registered its endpoint yet
    // (container start-up order is unspecified, as with real pods); retry
    // briefly.
    bool sent = false;
    for (int attempt = 0; attempt < 20000 && !token.cancelled(); ++attempt) {
      Message req;
      req.type = MessageType::kRequest;
      req.from = endpoint();
      if (bus_->Send(master_endpoint(), std::move(req)).ok()) {
        sent = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (!sent) break;

    // Wait for the assignment, skipping verdicts on a trial this worker
    // wrote off. No reply (the master died) means re-request.
    std::optional<Message> reply;
    do {
      reply = AwaitMaster(token);
    } while (reply.has_value() && reply->type != MessageType::kTrial &&
             reply->type != MessageType::kNoMoreTrials);
    if (!reply.has_value()) {
      if (token.cancelled() || bus_->EndpointClosed(endpoint())) break;
      continue;
    }
    if (reply->type == MessageType::kNoMoreTrials) break;
    Result<Trial> assignment = Trial::Decode(reply->str_fields["trial"]);
    if (!assignment.ok()) continue;
    Trial trial = std::move(assignment).value();
    auto alpha_it = reply->num_fields.find("alpha");
    double alpha = alpha_it == reply->num_fields.end() ? 1.0 : alpha_it->second;
    trial.Set("__alpha", KnobValue(alpha));

    // Build the trainable and choose initialization (alpha-greedy,
    // §4.2.2): random with probability alpha, else warm start from the
    // study's best checkpoint in the PS when one exists.
    std::unique_ptr<trainer::Trainable> trainable = factory_->Create(trial);
    bool warm_started = false;
    if (config_.collaborative && !rng_.Bernoulli(alpha)) {
      Result<ps::ModelCheckpoint> best = ps_->GetModel(best_scope());
      if (best.ok()) {
        Status s = trainable->InitFromCheckpoint(trial, best.value());
        warm_started = s.ok();
        if (!s.ok()) {
          RAFIKI_LOG(WARNING) << "warm start failed: " << s.ToString();
        }
      }
    }
    if (!warm_started) {
      Status s = trainable->InitRandom(trial);
      if (!s.ok()) {
        // Invalid trial (e.g. out-of-domain knob): finish it at chance
        // level without training, so one bad configuration cannot wedge
        // the study.
        RAFIKI_LOG(WARNING) << "init failed: " << s.ToString();
        trainable.reset();
      }
    }

    // Train epoch by epoch. Each report waits for the master's verdict:
    // kPut publishes this epoch's parameters, kStop ends the trial. With no
    // verdict (the master died) the trial is written off: the master counts
    // it lost when this worker re-requests.
    double trial_best = 0.0;
    int epochs = 0;
    bool written_off = false;
    while (trainable != nullptr && epochs < config_.max_epochs_per_trial) {
      Result<double> perf = trainable->TrainEpoch();
      if (token.cancelled()) break;
      if (!perf.ok()) {
        RAFIKI_LOG(WARNING) << "epoch failed: " << perf.status().ToString();
        break;
      }
      ++epochs;
      sim_seconds_ += trainable->EpochCostSeconds();
      trial_best = std::max(trial_best, perf.value());

      Message report;
      report.type = MessageType::kReport;
      report.from = endpoint();
      report.trial_id = trial.id();
      report.performance = perf.value();
      report.str_fields["trial"] = trial.Encode();
      report.num_fields["epoch"] = epochs;
      report.num_fields["sim_seconds"] = sim_seconds_;
      std::optional<Message> verdict;
      if (bus_->Send(master_endpoint(), std::move(report)).ok()) {
        verdict = AwaitVerdict(trial.id(), token);
      }
      if (!verdict.has_value()) {
        written_off = true;
        break;
      }
      if (verdict->type == MessageType::kStop) break;
      if (verdict->type == MessageType::kPut) {
        PublishCheckpoint(*trainable, perf.value());
      }
    }
    // A killed worker sends nothing more.
    if (token.cancelled()) break;
    if (written_off) continue;

    Message fin;
    fin.type = MessageType::kFinish;
    fin.from = endpoint();
    fin.trial_id = trial.id();
    fin.performance = trial_best;
    fin.str_fields["trial"] = trial.Encode();
    fin.num_fields["epochs"] = epochs;
    fin.num_fields["warm_started"] = warm_started ? 1.0 : 0.0;
    fin.num_fields["sim_seconds"] = sim_seconds_;
    bool finished = bus_->Send(master_endpoint(), std::move(fin)).ok();

    if (finished && !config_.collaborative) {
      // Algorithm 1: the master answers the finish with kPut when this
      // trial is the best so far.
      std::optional<Message> verdict = AwaitVerdict(trial.id(), token);
      if (verdict.has_value() && verdict->type == MessageType::kPut &&
          trainable != nullptr) {
        PublishCheckpoint(*trainable, trial_best);
      }
    }
  }
  bus_->RemoveEndpoint(endpoint());
}

StudyStats RunStudy(const std::string& study_name, StudyConfig config,
                    TrialAdvisor* advisor, trainer::TrainerFactory* factory,
                    cluster::Bus* bus, ps::ParameterStore* ps,
                    storage::BlobStore* checkpoint_store, int num_workers,
                    uint64_t seed) {
  RAFIKI_CHECK_GT(num_workers, 0);
  config.num_workers = num_workers;
  StudyMaster master(study_name, config, advisor, bus, checkpoint_store);

  cluster::NodeManager manager;
  RAFIKI_CHECK_OK(manager.StartContainer(
      "master/" + study_name,
      [&master](cluster::CancelToken& token) { master.Run(token); }));
  Rng seeds(seed);
  std::vector<std::unique_ptr<StudyWorker>> workers;
  for (int i = 0; i < num_workers; ++i) {
    workers.push_back(std::make_unique<StudyWorker>(
        study_name, StrFormat("w%d", i), config, factory, bus, ps,
        seeds.Fork().Next64()));
    StudyWorker* w = workers.back().get();
    RAFIKI_CHECK_OK(manager.StartContainer(
        StrFormat("worker/%s/%d", study_name.c_str(), i),
        [w](cluster::CancelToken& token) { w->Run(token); }));
  }
  for (int i = 0; i < num_workers; ++i) {
    manager.WaitContainer(StrFormat("worker/%s/%d", study_name.c_str(), i));
  }
  manager.WaitContainer("master/" + study_name);
  return master.stats();
}

}  // namespace rafiki::tuning
