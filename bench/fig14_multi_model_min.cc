// Reproduces Figure 14: multiple-model inference (inception_v3 +
// inception_v4 + inception_resnet_v2) with MIN-rate arrivals
// (r_l = 128 requests/second). Baseline 1: run ALL models synchronously on
// each batch (greedy batch sizing) vs the RL scheduler that picks both the
// model subset and the batch size.
//
// Expected shape (paper):
//  (a) baseline accuracy is FIXED at a(all models);
//  (b) RL accuracy is high when the arrival rate is low and dips when the
//      rate is high (it sheds models to keep up);
//  (c/d) overdue counts are small at this low rate; the baseline's few
//      overdues come from the queue-size/batch-size mismatch.

#include <cstdio>

#include "bench/serving_bench.h"

int main() {
  using namespace rafiki;         // NOLINT
  using namespace rafiki::bench;  // NOLINT

  auto models = TripleModelSet();
  model::EnsembleAccuracyTable table(models, model::PredictionSimOptions{},
                                     40000);
  const double r_min = model::MinThroughput(models, 64);
  const double kEval = 1500.0;

  std::printf("M = {inception_v3, inception_v4, inception_resnet_v2}, "
              "r_l = %.0f req/s; a(all) = %.4f\n",
              r_min, table.Accuracy(0b111));

  serving::ServingSimulator sync_sim(models, &table, PaperSimOptions(kEval));
  serving::SineArrivalProcess sync_arrivals(r_min, PaperPeriod(), 25);
  serving::SyncEnsembleGreedyPolicy sync_policy;
  serving::ServingMetrics sync_m = sync_sim.Run(sync_policy, sync_arrivals);

  serving::RlSchedulerPolicy rl(3, {16, 32, 48, 64}, &table, {});
  serving::ServingMetrics rl_m =
      TrainThenEvalRl(rl, models, &table, r_min, /*train_seconds=*/8000.0,
                      kEval, /*beta=*/1.0, /*seed=*/26);

  Section("Figure 14a/c: sync-all-models greedy baseline (min rate)");
  PrintServingSeries("sync", sync_m, /*stride=*/10);
  Section("Figure 14b/d: RL scheduler (min rate)");
  PrintServingSeries("rl", rl_m, /*stride=*/10);

  Section("Paper-vs-measured (Figure 14)");
  PrintServingSummary("sync", sync_m);
  PrintServingSummary("rl", rl_m);
  std::printf("accuracy: sync fixed at %.4f; RL mean %.4f varying with the "
              "rate (paper: RL high when rate low, lower when rate high)\n",
              sync_m.mean_accuracy, rl_m.mean_accuracy);
  // RL accuracy should vary across windows (model-selection adaptivity).
  double lo = 1.0, hi = 0.0;
  for (const auto& w : rl_m.windows) {
    if (w.processed_per_sec <= 0) continue;
    lo = std::min(lo, w.mean_accuracy);
    hi = std::max(hi, w.mean_accuracy);
  }
  std::printf("RL per-window accuracy range: [%.4f, %.4f] (adaptive; sync "
              "range is a single point)\n", lo, hi);
  return 0;
}
