// Cross-module integration tests beyond the facade e2e suite:
//  * CoStudy over the REAL MLP trainer with an architecture knob, so warm
//    starts must shape-match across different hidden widths through the
//    parameter server (§4.2.2's architecture-tuning scenario);
//  * Conv2D training on the synthetic image task;
//  * the facade with every advisor kind.

#include <memory>

#include "cluster/message_bus.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "nn/loss.h"
#include "nn/net.h"
#include "nn/sgd.h"
#include "ps/parameter_server.h"
#include "rafiki/rafiki.h"
#include "trainer/real_trainer.h"
#include "tuning/study.h"
#include "tuning/trial_advisor.h"

namespace rafiki {
namespace {

TEST(IntegrationTest, CoStudyWithArchitectureKnobOnRealTrainer) {
  data::SyntheticTaskOptions task;
  task.num_classes = 3;
  task.samples_per_class = 60;
  task.input_dim = 12;
  task.separation = 4.0;
  data::Dataset all = data::MakeSyntheticTask(task);
  Rng rng(3);
  data::DataSplits splits = data::SplitDataset(all, 0.7, 0.3, rng);

  tuning::HyperSpace space;
  ASSERT_TRUE(space.AddRangeKnob("learning_rate", tuning::KnobDtype::kFloat,
                                 5e-3, 0.3, /*log_scale=*/true)
                  .ok());
  ASSERT_TRUE(space.AddRangeKnob("init_std", tuning::KnobDtype::kFloat,
                                 1e-2, 0.3, /*log_scale=*/true)
                  .ok());
  // Architecture knob: warm starts across widths exercise shape-matched
  // parameter reuse (mismatched layers keep their random init).
  ASSERT_TRUE(
      space.AddNumericCategoricalKnob("hidden_units", {16, 32, 64}).ok());

  tuning::RandomSearchAdvisor advisor(&space, 10, 5);
  trainer::RealTrainerOptions trainer_options;
  trainer::RealTrainerFactory factory(&splits.train, &splits.validation,
                                      trainer_options);
  cluster::MessageBus bus;
  ps::ParameterServer ps;
  tuning::StudyConfig config;
  config.max_trials = 10;
  config.max_epochs_per_trial = 6;
  config.collaborative = true;
  config.alpha_init = 0.5;  // warm start aggressively
  config.alpha_decay = 0.8;
  tuning::StudyStats stats =
      tuning::RunStudy("arch", config, &advisor, &factory, &bus, &ps,
                       nullptr, /*num_workers=*/2, /*seed=*/9);

  EXPECT_EQ(stats.trials.size(), 10u);
  EXPECT_GT(stats.best_performance, 0.6);
  int warm = 0;
  for (const auto& t : stats.trials) warm += t.warm_started;
  EXPECT_GT(warm, 0);
  // The PS holds the winning checkpoint for instant deployment.
  EXPECT_TRUE(ps.GetModel("study/arch/best").ok());
}

TEST(IntegrationTest, ConvNetLearnsImages) {
  data::SyntheticImageOptions image_options;
  image_options.num_classes = 3;
  image_options.samples_per_class = 30;
  image_options.channels = 1;
  image_options.height = 8;
  image_options.width = 8;
  image_options.noise = 0.2;
  data::Dataset images = data::MakeSyntheticImages(image_options);

  Rng rng(11);
  nn::Net net;
  net.Add(std::make_unique<nn::Conv2D>(1, 4, 3, /*padding=*/1, 0.2f, rng));
  net.Add(std::make_unique<nn::Relu>());
  net.Add(std::make_unique<nn::Flatten>());
  net.Add(std::make_unique<nn::Linear>(4 * 8 * 8, 3, 0.1f, rng));

  nn::SgdOptions sgd_options;
  sgd_options.learning_rate = 0.05;
  sgd_options.momentum = 0.9;
  nn::Sgd sgd(sgd_options);

  // Evaluate before.
  Tensor eval = images.x;
  double before = nn::Accuracy(net.Forward(eval, false), images.labels);

  data::BatchIterator batches(images, 16, Rng(13));
  for (int epoch = 0; epoch < 8; ++epoch) {
    batches.Reset();
    Tensor x;
    std::vector<int64_t> labels;
    while (batches.Next(&x, &labels)) {
      net.ZeroGrad();
      nn::LossResult loss = nn::SoftmaxCrossEntropy(net.Forward(x, true),
                                                    labels);
      net.Backward(loss.grad);
      sgd.Step(net.Params());
    }
  }
  double after = nn::Accuracy(net.Forward(eval, false), images.labels);
  EXPECT_GT(after, before + 0.2) << before << " -> " << after;
  EXPECT_GT(after, 0.8);
}

class AdvisorKindTest
    : public ::testing::TestWithParam<api::AdvisorKind> {};

TEST_P(AdvisorKindTest, FacadeTrainsWithEveryAdvisor) {
  api::Rafiki rafiki;
  data::SyntheticTaskOptions task;
  task.num_classes = 3;
  task.samples_per_class = 50;
  task.input_dim = 10;
  task.separation = 5.0;
  ASSERT_TRUE(
      rafiki.ImportDataset("t", data::MakeSyntheticTask(task)).ok());
  api::TrainConfig config;
  config.dataset = "t";
  config.input_shape = {10};
  config.output_shape = {3};
  config.hyper.max_trials = 4;
  config.hyper.max_epochs_per_trial = 6;
  config.num_workers = 2;
  config.advisor = GetParam();
  auto job = rafiki.Train(config);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  auto info = rafiki.WaitJob(*job);
  ASSERT_TRUE(info.ok());
  EXPECT_GT(info->best_performance, 0.4);
  EXPECT_GE(info->trials_finished, 4);
}

INSTANTIATE_TEST_SUITE_P(AllAdvisors, AdvisorKindTest,
                         ::testing::Values(api::AdvisorKind::kRandomSearch,
                                           api::AdvisorKind::kGridSearch,
                                           api::AdvisorKind::kBayesOpt));

TEST(IntegrationTest, PsSpillToleratesStudyTraffic) {
  // Run a study against a PS backed by a cold store, spill everything,
  // then verify instant deployment still works (cold params promote back).
  storage::BlobStore cold;
  ps::ParameterServer ps(&cold);
  tuning::HyperSpace space;
  ASSERT_TRUE(space.AddRangeKnob("learning_rate", tuning::KnobDtype::kFloat,
                                 1e-3, 0.3, true)
                  .ok());
  tuning::RandomSearchAdvisor advisor(&space, 4, 17);
  data::SyntheticTaskOptions task;
  task.num_classes = 2;
  task.samples_per_class = 40;
  task.input_dim = 8;
  task.separation = 5.0;
  data::Dataset all = data::MakeSyntheticTask(task);
  Rng rng(19);
  data::DataSplits splits = data::SplitDataset(all, 0.7, 0.3, rng);
  trainer::RealTrainerFactory factory(&splits.train, &splits.validation,
                                      trainer::RealTrainerOptions{});
  cluster::MessageBus bus;
  tuning::StudyConfig config;
  config.max_trials = 4;
  config.max_epochs_per_trial = 4;
  tuning::RunStudy("spill", config, &advisor, &factory, &bus, &ps, nullptr,
                   1, 23);
  ASSERT_GT(ps.num_entries(), 0u);
  ps.SpillCold(/*min_accesses=*/1000000);  // force-spill everything
  EXPECT_EQ(ps.num_hot_entries(), 0u);
  auto ckpt = ps.GetModel("study/spill/best");
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  auto net = api::BuildMlpFromCheckpoint(*ckpt);
  ASSERT_TRUE(net.ok());
}

}  // namespace
}  // namespace rafiki
