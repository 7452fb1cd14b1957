// Domain example 3: the inference service's scheduling layer on its own.
// Deploys the paper's 3-ConvNet ensemble behind a latency SLO and compares
// three schedulers on the same sine-modulated request stream:
//   * sync-all-models greedy (max accuracy baseline),
//   * async no-ensemble greedy (max throughput baseline),
//   * the RL scheduler that picks model subsets AND batch sizes.
//
// Run: ./build/examples/example_inference_scheduling

#include <cstdio>

#include "model/prediction_sim.h"
#include "model/profile.h"
#include "model/registry.h"
#include "serving/greedy_batch.h"
#include "serving/rl_scheduler.h"
#include "serving/simulator.h"
#include "serving/sine_arrival.h"

int main() {
  using namespace rafiki;  // NOLINT

  // Model selection (§4.1): pick 3 accurate-but-diverse architectures
  // from the task registry... then override with the paper's exact set so
  // the numbers line up with §7.2.2.
  model::TaskRegistry registry = model::TaskRegistry::BuiltIn();
  auto diverse = registry.SelectDiverse("ImageClassification", 3);
  RAFIKI_CHECK_OK(diverse.status());
  std::printf("registry's diverse pick: ");
  for (const auto& m : *diverse) std::printf("%s ", m.name.c_str());
  std::printf("\npaper's set: inception_v3 inception_v4 "
              "inception_resnet_v2\n\n");

  std::vector<model::ModelProfile> models{
      model::FindProfile("inception_v3").value(),
      model::FindProfile("inception_v4").value(),
      model::FindProfile("inception_resnet_v2").value()};
  model::EnsembleAccuracyTable table(models, model::PredictionSimOptions{},
                                     20000);
  std::printf("surrogate ensemble accuracies: v3=%.3f v4=%.3f ir2=%.3f "
              "all=%.3f\n\n",
              table.Accuracy(0b001), table.Accuracy(0b010),
              table.Accuracy(0b100), table.Accuracy(0b111));

  serving::ServingSimOptions options;
  options.tau = 0.56;
  options.duration_seconds = 600.0;
  const double rate = 250.0;  // between r_l=128 and r_u=578
  const double period = 500.0 * options.tau;

  auto report = [](const char* name,
                   const serving::ServingMetrics& metrics) {
    std::printf("%-22s processed=%7lld overdue=%6.2f%% accuracy=%.4f "
                "latency=%.3fs\n",
                name, static_cast<long long>(metrics.total_processed),
                100.0 * metrics.OverdueFraction(), metrics.mean_accuracy,
                metrics.mean_latency);
  };

  {
    serving::ServingSimulator sim(models, &table, options);
    serving::SineArrivalProcess arrivals(rate, period, 1);
    serving::SyncEnsembleGreedyPolicy policy;
    report("sync-all greedy", sim.Run(policy, arrivals));
  }
  {
    serving::ServingSimulator sim(models, &table, options);
    serving::SineArrivalProcess arrivals(rate, period, 1);
    serving::AsyncNoEnsemblePolicy policy;
    report("async no-ensemble", sim.Run(policy, arrivals));
  }
  {
    serving::RlSchedulerPolicy rl(3, options.batch_sizes, &table, {});
    // Train online for a while, then measure.
    serving::ServingSimOptions train = options;
    train.duration_seconds = 4000.0;
    serving::ServingSimulator train_sim(models, &table, train);
    serving::SineArrivalProcess train_arrivals(rate, period, 2);
    train_sim.Run(rl, train_arrivals);
    serving::ServingSimulator sim(models, &table, options);
    serving::SineArrivalProcess arrivals(rate, period, 1);
    report("rl scheduler", sim.Run(rl, arrivals));
  }

  std::printf("\nAt %.0f req/s the sync ensemble (capacity 128/s) drowns, "
              "the async baseline keeps up at single-model accuracy, and "
              "RL finds the middle ground: ensembles when the sine is low, "
              "sheds models when it peaks.\n", rate);
  return 0;
}
