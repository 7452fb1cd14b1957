// Reproduces Figure 15: multiple-model inference with MAX-rate arrivals
// (r_u = 572 requests/second). Baseline 2: all models run asynchronously,
// one model per batch (no ensembling, maximum throughput) vs the RL
// scheduler.
//
// Expected shape (paper): RL achieves BOTH better accuracy (it ensembles
// when the rate allows) and fewer overdue requests than the baseline; at
// peak rate it uses fewer models per batch to keep throughput up.

#include <cstdio>

#include "bench/serving_bench.h"

int main() {
  using namespace rafiki;         // NOLINT
  using namespace rafiki::bench;  // NOLINT

  auto models = TripleModelSet();
  model::EnsembleAccuracyTable table(models, model::PredictionSimOptions{},
                                     40000);
  const double r_max = model::MaxThroughput(models, 64);
  const double kEval = 1500.0;

  std::printf("M = 3 models, r_u = %.0f req/s; single-model accuracies: "
              "%.4f / %.4f / %.4f\n",
              r_max, table.Accuracy(0b001), table.Accuracy(0b010),
              table.Accuracy(0b100));

  serving::ServingSimulator async_sim(models, &table,
                                      PaperSimOptions(kEval));
  serving::SineArrivalProcess async_arrivals(r_max, PaperPeriod(), 35);
  serving::AsyncNoEnsemblePolicy async_policy;
  serving::ServingMetrics async_m =
      async_sim.Run(async_policy, async_arrivals);

  serving::RlSchedulerPolicy rl(3, {16, 32, 48, 64}, &table, {});
  serving::ServingMetrics rl_m =
      TrainThenEvalRl(rl, models, &table, r_max, /*train_seconds=*/8000.0,
                      kEval, /*beta=*/1.0, /*seed=*/36);

  Section("Figure 15a/c: async no-ensemble baseline (max rate)");
  PrintServingSeries("async", async_m, /*stride=*/10);
  Section("Figure 15b/d: RL scheduler (max rate)");
  PrintServingSeries("rl", rl_m, /*stride=*/10);

  Section("Paper-vs-measured (Figure 15)");
  PrintServingSummary("async", async_m);
  PrintServingSummary("rl", rl_m);
  std::printf("accuracy: async=%.4f rl=%.4f (paper: RL higher)\n",
              async_m.mean_accuracy, rl_m.mean_accuracy);
  std::printf("overdue rate: async=%.2f%% rl=%.2f%% (paper: RL fewer)\n",
              100.0 * async_m.OverdueFraction(),
              100.0 * rl_m.OverdueFraction());
  return 0;
}
