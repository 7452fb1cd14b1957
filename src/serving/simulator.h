#ifndef RAFIKI_SERVING_SIMULATOR_H_
#define RAFIKI_SERVING_SIMULATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model/prediction_sim.h"
#include "model/profile.h"
#include "serving/policy.h"
#include "serving/sine_arrival.h"

namespace rafiki::serving {

/// Discrete-event serving-node simulator (§7.2's "environment simulator").
/// Virtual time advances in fixed decision intervals; a 1500-simulated-
/// second experiment completes in well under a minute of real time while
/// running the identical dispatch step (StepDispatch) and policy code a
/// wall-clock deployment would.
struct ServingSimOptions {
  /// Latency SLO tau; §7.2.1 uses 2 * c_inception_v3(64) = 0.56 s.
  double tau = 0.56;
  /// Candidate batch sizes B (significant-difference spacing, §5.1).
  std::vector<int64_t> batch_sizes = {16, 32, 48, 64};
  double duration_seconds = 1500.0;
  /// Time between decision sweeps.
  double decision_interval = 0.02;
  /// Metrics aggregation window (one plotted point per window).
  double metrics_window = 10.0;
  /// Equation 7 balance between accuracy and overdue penalty.
  double beta = 1.0;
  /// Arrivals beyond this many queued requests are dropped ("new requests
  /// have to be dropped", §7.2).
  size_t queue_capacity = 20000;
};

/// One aggregated metrics window (a point on the Figures 10/13-16 curves).
/// The raw counts back the per-second rates exactly; batches completing
/// after the run's end are folded into the final window, so
/// sum(windows[i].processed) == ServingMetrics::total_processed.
struct WindowSample {
  double t_begin = 0.0;
  int64_t arrived = 0;
  int64_t processed = 0;
  int64_t overdue = 0;           // includes queue drops and end residual
  double arrived_per_sec = 0.0;
  double processed_per_sec = 0.0;
  double overdue_per_sec = 0.0;  // includes queue drops
  double mean_accuracy = 0.0;    // surrogate accuracy of processed requests
  double mean_reward = 0.0;      // Equation 7 per dispatched batch
};

/// Full-run aggregates. Conservation invariants (asserted in tests):
///   total_arrived == total_processed + total_dropped + total_residual
///   sum(windows[i].processed) == total_processed
///   sum(windows[i].overdue) == total_overdue + total_dropped
struct ServingMetrics {
  std::vector<WindowSample> windows;
  int64_t total_arrived = 0;
  int64_t total_processed = 0;
  /// Requests answered later than tau, plus the end-of-run residual (queued
  /// requests that never got served are overdue by construction).
  int64_t total_overdue = 0;
  int64_t total_dropped = 0;
  /// Requests still queued when the run ended.
  int64_t total_residual = 0;
  double mean_accuracy = 0.0;
  double mean_latency = 0.0;
  double total_reward = 0.0;

  double OverdueFraction() const {
    return total_processed == 0
               ? 0.0
               : static_cast<double>(total_overdue) /
                     static_cast<double>(total_processed);
  }
};

class ServingSimulator {
 public:
  /// `accuracy_table` supplies a(M[v]); null is allowed for single-model
  /// runs (the model's own top-1 accuracy is used).
  ServingSimulator(std::vector<model::ModelProfile> models,
                   const model::EnsembleAccuracyTable* accuracy_table,
                   ServingSimOptions options);

  /// Runs one experiment: `policy` schedules, `arrivals` drives load.
  ServingMetrics Run(SchedulerPolicy& policy, SineArrivalProcess& arrivals);

  const std::vector<model::ModelProfile>& models() const { return models_; }
  const ServingSimOptions& options() const { return options_; }

 private:
  std::vector<model::ModelProfile> models_;
  const model::EnsembleAccuracyTable* accuracy_table_;
  ServingSimOptions options_;
};

}  // namespace rafiki::serving

#endif  // RAFIKI_SERVING_SIMULATOR_H_
