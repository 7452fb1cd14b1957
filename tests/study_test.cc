#include <chrono>
#include <memory>
#include <thread>

#include "cluster/message_bus.h"
#include "gtest/gtest.h"
#include "ps/parameter_server.h"
#include "storage/blob_store.h"
#include "trainer/surrogate.h"
#include "tuning/bayes_opt.h"
#include "tuning/study.h"
#include "tuning/trial_advisor.h"

namespace rafiki::tuning {
namespace {

/// The CIFAR-10 group-3 space of §7.1.1 (optimization hyper-parameters).
HyperSpace MakeOptimizerSpace() {
  HyperSpace space;
  EXPECT_TRUE(space.AddRangeKnob("learning_rate", KnobDtype::kFloat, 1e-4,
                                 1.0, /*log_scale=*/true)
                  .ok());
  EXPECT_TRUE(
      space.AddRangeKnob("momentum", KnobDtype::kFloat, 0.0, 0.999).ok());
  EXPECT_TRUE(space.AddRangeKnob("weight_decay", KnobDtype::kFloat, 1e-6,
                                 1e-1, /*log_scale=*/true)
                  .ok());
  EXPECT_TRUE(space.AddRangeKnob("dropout", KnobDtype::kFloat, 0.0, 0.7).ok());
  EXPECT_TRUE(space.AddRangeKnob("init_std", KnobDtype::kFloat, 1e-3, 1.0,
                                 /*log_scale=*/true)
                  .ok());
  return space;
}

StudyConfig FastConfig(bool collaborative) {
  StudyConfig config;
  config.max_trials = 12;
  config.max_epochs_per_trial = 12;
  config.collaborative = collaborative;
  config.delta = 0.005;
  config.alpha_init = 0.7;
  config.alpha_decay = 0.85;
  config.early_stop_patience = 3;
  return config;
}

TEST(StudyTest, PlainStudyFinishesAllTrials) {
  HyperSpace space = MakeOptimizerSpace();
  RandomSearchAdvisor advisor(&space, 12, /*seed=*/1);
  trainer::SurrogateFactory factory(trainer::SurrogateOptions{});
  cluster::MessageBus bus;
  ps::ParameterServer ps;
  StudyStats stats = RunStudy("plain", FastConfig(false), &advisor, &factory,
                              &bus, &ps, nullptr, /*num_workers=*/2,
                              /*seed=*/7);
  EXPECT_EQ(stats.trials.size(), 12u);
  EXPECT_GT(stats.best_performance, 0.2);
  EXPECT_GT(stats.total_epochs, 0);
  // Plain study never warm-starts.
  for (const TrialRecord& t : stats.trials) {
    EXPECT_FALSE(t.warm_started);
  }
}

TEST(StudyTest, PlainStudyPublishesBestModelToPs) {
  HyperSpace space = MakeOptimizerSpace();
  RandomSearchAdvisor advisor(&space, 8, /*seed=*/2);
  trainer::SurrogateFactory factory(trainer::SurrogateOptions{});
  cluster::MessageBus bus;
  ps::ParameterServer ps;
  StudyStats stats = RunStudy("pub", FastConfig(false), &advisor, &factory,
                              &bus, &ps, nullptr, 1, 7);
  // The best finished trial's parameters must be in the PS for instant
  // deployment (Algorithm 1 line 15-17).
  auto best = ps.GetModel("study/pub/best");
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  EXPECT_GT(best->meta.accuracy, 0.0);
  EXPECT_FALSE(best->params.empty());
}

TEST(StudyTest, CoStudyWarmStartsSomeTrials) {
  HyperSpace space = MakeOptimizerSpace();
  RandomSearchAdvisor advisor(&space, 16, /*seed=*/3);
  trainer::SurrogateFactory factory(trainer::SurrogateOptions{});
  cluster::MessageBus bus;
  ps::ParameterServer ps;
  StudyConfig config = FastConfig(true);
  config.max_trials = 16;
  StudyStats stats = RunStudy("co", config, &advisor, &factory, &bus, &ps,
                              nullptr, 2, 7);
  EXPECT_EQ(stats.trials.size(), 16u);
  int warm = 0;
  for (const TrialRecord& t : stats.trials) warm += t.warm_started ? 1 : 0;
  EXPECT_GT(warm, 0) << "alpha-greedy should warm start some trials";
}

TEST(StudyTest, TargetPerformanceStopsEarly) {
  HyperSpace space = MakeOptimizerSpace();
  RandomSearchAdvisor advisor(&space, 1000, /*seed=*/4);
  trainer::SurrogateFactory factory(trainer::SurrogateOptions{});
  cluster::MessageBus bus;
  ps::ParameterServer ps;
  StudyConfig config = FastConfig(false);
  config.max_trials = 1000;
  config.target_performance = 0.3;  // trivially reachable
  StudyStats stats = RunStudy("tgt", config, &advisor, &factory, &bus, &ps,
                              nullptr, 2, 7);
  EXPECT_LT(static_cast<int64_t>(stats.trials.size()), 1000);
  EXPECT_GE(stats.best_performance, 0.3);
}

TEST(StudyTest, EarlyStoppingLimitsEpochs) {
  HyperSpace space = MakeOptimizerSpace();
  RandomSearchAdvisor advisor(&space, 6, /*seed=*/5);
  trainer::SurrogateFactory factory(trainer::SurrogateOptions{});
  cluster::MessageBus bus;
  ps::ParameterServer ps;
  StudyConfig config = FastConfig(false);
  config.max_trials = 6;
  config.max_epochs_per_trial = 200;
  config.early_stop_patience = 3;
  StudyStats stats = RunStudy("es", config, &advisor, &factory, &bus, &ps,
                              nullptr, 1, 7);
  ASSERT_EQ(stats.trials.size(), 6u);
  // The surrogate plateaus; early stopping must cut well below 200 epochs.
  for (const TrialRecord& t : stats.trials) {
    EXPECT_LT(t.epochs, 120) << "trial " << t.trial_id;
  }
}

TEST(StudyTest, MasterCheckpointRoundTrips) {
  HyperSpace space = MakeOptimizerSpace();
  RandomSearchAdvisor advisor(&space, 5, /*seed=*/6);
  trainer::SurrogateFactory factory(trainer::SurrogateOptions{});
  cluster::MessageBus bus;
  ps::ParameterServer ps;
  storage::BlobStore store;
  StudyConfig config = FastConfig(false);
  config.max_trials = 5;
  config.checkpoint_every_events = 1;
  StudyStats stats = RunStudy("ckpt", config, &advisor, &factory, &bus, &ps,
                              &store, 1, 7);
  ASSERT_TRUE(store.Exists("study/ckpt/master_ckpt"));

  // A recovered master restores the best performance seen so far (§6.3).
  RandomSearchAdvisor advisor2(&space, 5, 6);
  StudyMaster recovered("ckpt", config, &advisor2, &bus, &store);
  ASSERT_TRUE(recovered.RestoreFromCheckpoint().ok());
  EXPECT_DOUBLE_EQ(recovered.stats().best_performance,
                   stats.best_performance);
}

/// A master that is slow to decide: every Collect takes about 2 ms.
class SlowCollectAdvisor : public TrialAdvisor {
 public:
  explicit SlowCollectAdvisor(TrialAdvisor* inner) : inner_(inner) {}
  std::optional<Trial> Next(const std::string& worker) override {
    return inner_->Next(worker);
  }
  void Collect(const std::string& worker, double performance,
               const Trial& trial) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    inner_->Collect(worker, performance, trial);
  }
  bool IsBest(const std::string& worker) const override {
    return inner_->IsBest(worker);
  }
  std::optional<TrialResult> BestTrial() const override {
    return inner_->BestTrial();
  }
  std::vector<TrialResult> Results() const override {
    return inner_->Results();
  }
  std::string name() const override { return inner_->name(); }

 private:
  TrialAdvisor* inner_;
};

TEST(StudyTest, SlowMasterStillPublishesTheEpochThatEarnedKPut) {
  // With delta = 0 every new best report earns a kPut. The worker waits
  // for each verdict, so the last kPut publishes the best epoch's
  // parameters even when the master takes milliseconds to answer.
  HyperSpace space = MakeOptimizerSpace();
  RandomSearchAdvisor random(&space, 4, /*seed=*/8);
  SlowCollectAdvisor advisor(&random);
  trainer::SurrogateFactory factory(trainer::SurrogateOptions{});
  cluster::MessageBus bus;
  ps::ParameterServer ps;
  StudyConfig config = FastConfig(true);
  config.max_trials = 4;
  config.max_epochs_per_trial = 6;
  config.delta = 0.0;
  StudyStats stats = RunStudy("slow", config, &advisor, &factory, &bus, &ps,
                              nullptr, /*num_workers=*/1, 7);
  ASSERT_EQ(stats.trials.size(), 4u);
  auto best = ps.GetModel("study/slow/best");
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  EXPECT_EQ(best->meta.accuracy, stats.best_performance);
}

TEST(StudyTest, CoStudyBeatsStudyOnSurrogate) {
  // The headline Figure 8 effect, in miniature: at an equal trial budget,
  // collaborative tuning reaches at least the plain study's accuracy
  // (warm starts push past the early-stopping plateau).
  HyperSpace space = MakeOptimizerSpace();
  trainer::SurrogateFactory factory1(trainer::SurrogateOptions{});
  trainer::SurrogateFactory factory2(trainer::SurrogateOptions{});
  cluster::MessageBus bus;

  StudyConfig config = FastConfig(false);
  config.max_trials = 24;
  config.early_stop_patience = 4;
  // One worker per study keeps the trial -> worker assignment (and thus
  // the warm-start sequence) deterministic; with two racing workers the
  // comparison depends on thread scheduling and flakes under suite load.
  RandomSearchAdvisor a1(&space, 24, /*seed=*/11);
  ps::ParameterServer ps1;
  StudyStats plain = RunStudy("cmp_plain", config, &a1, &factory1, &bus,
                              &ps1, nullptr, 1, 7);

  config.collaborative = true;
  RandomSearchAdvisor a2(&space, 24, /*seed=*/11);
  ps::ParameterServer ps2;
  StudyStats costudy = RunStudy("cmp_co", config, &a2, &factory2, &bus, &ps2,
                                nullptr, 1, 7);

  EXPECT_GE(costudy.best_performance + 0.02, plain.best_performance);
}

TEST(StudyTest, BayesOptAdvisorDrivesStudy) {
  HyperSpace space = MakeOptimizerSpace();
  BayesOptOptions options;
  options.max_trials = 10;
  options.num_init_random = 4;
  options.candidates_per_step = 64;
  BayesOptAdvisor advisor(&space, options);
  trainer::SurrogateFactory factory(trainer::SurrogateOptions{});
  cluster::MessageBus bus;
  ps::ParameterServer ps;
  StudyConfig config = FastConfig(false);
  config.max_trials = 10;
  StudyStats stats = RunStudy("bo", config, &advisor, &factory, &bus, &ps,
                              nullptr, 2, 7);
  EXPECT_EQ(stats.trials.size(), 10u);
  EXPECT_GT(stats.best_performance, 0.2);
}

}  // namespace
}  // namespace rafiki::tuning
