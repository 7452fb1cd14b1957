#ifndef RAFIKI_PERFBENCH_WORKLOADS_H_
#define RAFIKI_PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/net.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans ("" = not written).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run produced. `end_to_end` is filled by untraced runs,
/// `per_layer` by traced runs; `detail` holds the workload's own named
/// figures and the conservation ledgers, printed on the report line.
struct Outcome {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> detail;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Checks that did not hold; any entry makes the run incorrect.
  std::vector<std::string> violations;

  void Check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
};

/// serve_closed_tiny, serve_sine_ensemble, serve_sine_rl.
bool IsServeWorkload(const std::string& name);
void RunServe(const RunOptions& options, Outcome* out);

/// tune_costudy.
bool IsTuneWorkload(const std::string& name);
void RunTune(const RunOptions& options, Outcome* out);

/// Quantile q in [0, 1] of `v` (nearest rank; 0 for an empty sample).
template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  auto k = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

template <typename T>
double Mean(const std::vector<T>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const T& x : v) sum += static_cast<double>(x);
  return sum / static_cast<double>(v.size());
}

/// Process CPU time (user + system) in microseconds, context switches
/// (voluntary + involuntary), and peak resident set in MB.
struct ProcUsage {
  double cpu_us = 0.0;
  double ctx_switches = 0.0;
  double max_rss_mb = 0.0;
};
ProcUsage ReadProcUsage();

/// Nanosecond durations of `v` expressed in microseconds.
std::vector<double> ToMicros(const std::vector<int64_t>& ns);

/// Median over 200 repetitions of one inference-mode Forward of every net
/// in `nets` on a `batch` x `input_dim` input, in microseconds.
double ForwardMicros(std::vector<rafiki::nn::Net>& nets, int64_t input_dim,
                     int64_t batch);

}  // namespace perfbench

#endif  // RAFIKI_PERFBENCH_WORKLOADS_H_
