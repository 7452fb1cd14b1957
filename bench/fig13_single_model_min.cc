// Reproduces Figure 13: single inference model (inception_v3) with the
// arrival rate calibrated to the MINIMUM throughput
// r_l = 16 / c(16) ~ 228 requests/second.
//
// Expected shape (paper): fewer overdue requests than Figure 10 overall;
// RL beats greedy at BOTH high and low rate here, because greedy's
// queue-length/batch-size mismatch leaves sub-batch leftovers to overdue
// while RL learns to flush them.

#include <cstdio>

#include "bench/serving_bench.h"

int main() {
  using namespace rafiki;         // NOLINT
  using namespace rafiki::bench;  // NOLINT

  auto models = SingleModelSet();
  const double rl_rate = models[0].Throughput(16);  // min throughput
  const double kEval = 1500.0;

  std::printf("inception_v3: min throughput r_l = %.0f req/s\n", rl_rate);

  serving::ServingSimulator greedy_sim(models, nullptr,
                                       PaperSimOptions(kEval));
  serving::SineArrivalProcess greedy_arrivals(rl_rate, PaperPeriod(), 15);
  serving::GreedyBatchPolicy greedy(0);
  serving::ServingMetrics greedy_m = greedy_sim.Run(greedy, greedy_arrivals);

  serving::RlSchedulerPolicy rl(1, {16, 32, 48, 64}, nullptr, {});
  serving::ServingMetrics rl_m =
      TrainThenEvalRl(rl, models, nullptr, rl_rate, /*train_seconds=*/6000.0,
                      kEval, /*beta=*/1.0, /*seed=*/16);

  Section("Figure 13: requests/second over time (min-rate arrivals)");
  PrintServingSeries("greedy", greedy_m, /*stride=*/10);
  PrintServingSeries("rl", rl_m, /*stride=*/10);

  Section("Paper-vs-measured (Figure 13)");
  PrintServingSummary("greedy", greedy_m);
  PrintServingSummary("rl", rl_m);
  std::printf("overdue: greedy=%lld rl=%lld (paper: RL better at both high "
              "and low rate; fewer overdue than Figure 10 overall)\n",
              static_cast<long long>(greedy_m.total_overdue),
              static_cast<long long>(rl_m.total_overdue));
  return 0;
}
