// Reproduces Figure 16: effect of beta in the Equation 7 reward
//   a(M[v]) * (b - beta * |overdue|)
// on the RL scheduler, with min-rate arrivals (as in the paper).
//
// Expected shape (paper): beta = 0 ignores latency, so accuracy is higher
// but many requests overdue; beta = 1 trades a little accuracy for far
// fewer overdue requests.

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

  struct Run {
    double beta;
    serving::ServingMetrics metrics;
  };
  std::vector<Run> runs;
  for (double beta : {0.0, 1.0}) {
    serving::RlSchedulerPolicy rl(3, {16, 32, 48, 64}, &table, {});
    runs.push_back({beta, TrainThenEvalRl(rl, models, &table, r_min,
                                          /*train_seconds=*/8000.0, kEval,
                                          beta, /*seed=*/46)});
  }

  for (const Run& r : runs) {
    Section("Figure 16, beta = " + std::to_string(r.beta));
    PrintServingSeries("rl_b" + std::to_string(static_cast<int>(r.beta)),
                       r.metrics, /*stride=*/10);
  }

  Section("Paper-vs-measured (Figure 16)");
  for (const Run& r : runs) {
    std::printf("beta=%.0f: accuracy=%.4f overdue=%lld (%.2f%%)\n", r.beta,
                r.metrics.mean_accuracy,
                static_cast<long long>(r.metrics.total_overdue),
                100.0 * r.metrics.OverdueFraction());
  }
  std::printf("(paper: beta=0 -> higher accuracy, many overdue; "
              "beta=1 -> fewer overdue, slightly lower accuracy)\n");
  return 0;
}
