// Reproduces Figure 10: single inference model (inception_v3) with the
// request arrival rate calibrated to the MAXIMUM throughput
// r_u = 64 / c(64) ~ 272 requests/second. Compares the greedy batching
// policy (Algorithm 3) against the RL batch-size scheduler; prints the
// processed-requests/second series against the arrival rate.
//
// Expected shape (paper): both policies track the arrival rate; during the
// 20%-of-cycle overload the processed rate caps at the model's maximum
// throughput; after training, RL performs like greedy at high rate and
// slightly better at low rate.

#include <cstdio>

#include "bench/serving_bench.h"

int main() {
  using namespace rafiki;         // NOLINT
  using namespace rafiki::bench;  // NOLINT

  auto models = SingleModelSet();
  const double ru = models[0].Throughput(64);  // max throughput (§5.1)
  const double kEval = 1500.0;

  std::printf("inception_v3: max throughput r_u = %.0f req/s, tau = 0.56 s,"
              " B = {16,32,48,64}, T = %.0f s\n", ru, PaperPeriod());

  // Greedy (Algorithm 3).
  serving::ServingSimulator greedy_sim(models, nullptr,
                                       PaperSimOptions(kEval));
  serving::SineArrivalProcess greedy_arrivals(ru, PaperPeriod(), 5);
  serving::GreedyBatchPolicy greedy(0);
  serving::ServingMetrics greedy_m = greedy_sim.Run(greedy, greedy_arrivals);

  // RL: train online, then evaluate (the paper plots RL after it has been
  // running for a long time).
  serving::RlSchedulerPolicy rl(1, {16, 32, 48, 64}, nullptr, {});
  serving::ServingMetrics rl_m =
      TrainThenEvalRl(rl, models, nullptr, ru, /*train_seconds=*/6000.0,
                      kEval, /*beta=*/1.0, /*seed=*/6);

  Section("Figure 10: requests/second over time (max-rate arrivals)");
  PrintServingSeries("greedy", greedy_m, /*stride=*/10);
  PrintServingSeries("rl", rl_m, /*stride=*/10);

  Section("Paper-vs-measured (Figure 10)");
  PrintServingSummary("greedy", greedy_m);
  PrintServingSummary("rl", rl_m);
  double greedy_rate = static_cast<double>(greedy_m.total_processed) / kEval;
  double rl_rate = static_cast<double>(rl_m.total_processed) / kEval;
  std::printf("mean processed rate: greedy=%.1f rl=%.1f req/s (paper: both "
              "track the arrival rate, capped near %.0f at peaks)\n",
              greedy_rate, rl_rate, ru);
  return 0;
}
