// rafiki_perfbench: one run of one benchmark workload.
//
//   rafiki_perfbench --workload serve_closed_tiny --seed 1 --seconds 10
//       --trace 0 [--trace-out spans.jsonl] [--commit <id>]
//
// Prints a `stamp` line (host, build, commit, seed), a `report` line (the
// workload's own named figures and ledgers), and as the last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>

#include "trace.h"
#include "workloads.h"

#ifndef RAFIKI_PERFBENCH_BUILD_TYPE
#define RAFIKI_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

ProcUsage ReadProcUsage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  u.cpu_us = us(ru.ru_utime) + us(ru.ru_stime);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

std::vector<double> ToMicros(const std::vector<int64_t>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (int64_t v : ns) out.push_back(static_cast<double>(v) / 1e3);
  return out;
}

double ForwardMicros(std::vector<rafiki::nn::Net>& nets, int64_t input_dim,
                     int64_t batch) {
  rafiki::Tensor x({batch, input_dim});
  for (int64_t i = 0; i < x.numel(); ++i) x.data()[i] = 0.01f * (i % 17);
  std::vector<int64_t> samples;
  for (int rep = 0; rep < 200; ++rep) {
    int64_t t0 = NowNs();
    for (rafiki::nn::Net& net : nets) {
      rafiki::Tensor y = net.Forward(x, /*train=*/false);
      if (y.numel() == 0) std::abort();
    }
    samples.push_back(NowNs() - t0);
  }
  return Quantile(ToMicros(samples), 0.5);
}

namespace {

/// Every per-layer metric a traced run prints. A workload measures the
/// layers it drives; the rest read 0 (the layer did no work), and the
/// report line lists which ones were measured.
const Metric kPerLayer[] = {
    {"net.inbound_p50_us", 0.0, "us"},
    {"net.inbound_p99_us", 0.0, "us"},
    {"net.return_p50_us", 0.0, "us"},
    {"net.requests", 0.0, "count"},
    {"net.responses", 0.0, "count"},
    {"net.inflight_peak", 0.0, "count"},
    {"rafiki.dispatch_p50_us", 0.0, "us"},
    {"rafiki.dispatch_p99_us", 0.0, "us"},
    {"serving.latency_p50_us", 0.0, "us"},
    {"serving.latency_p99_us", 0.0, "us"},
    {"serving.mean_batch", 0.0, "count"},
    {"serving.batches", 0.0, "count"},
    {"serving.expired", 0.0, "count"},
    {"serving.overdue", 0.0, "count"},
    {"serving.dropped", 0.0, "count"},
    {"serving.steals", 0.0, "count"},
    {"serving.learn_steps", 0.0, "count"},
    {"serving.queue_depth_mean", 0.0, "count"},
    {"serving.queue_depth_max", 0.0, "count"},
    {"serving.decide_us", 0.0, "us"},
    {"serving.decisions", 0.0, "count"},
    {"serving.wait_decisions_share", 0.0, "share"},
    {"serving.batch_exec_p50_us", 0.0, "us"},
    {"serving.batch_exec_p99_us", 0.0, "us"},
    {"serving.dispatcher_busy_share", 0.0, "share"},
    {"serving.feedback_us", 0.0, "us"},
    {"nn.forward_b1_us", 0.0, "us"},
    {"nn.forward_b32_us", 0.0, "us"},
    {"tuning.next_p50_us", 0.0, "us"},
    {"tuning.next_max_us", 0.0, "us"},
    {"tuning.collect_us", 0.0, "us"},
    {"tuning.trials", 0.0, "count"},
    {"tuning.early_stopped_share", 0.0, "share"},
    {"tuning.warm_start_share", 0.0, "share"},
    {"trainer.epoch_p50_ms", 0.0, "ms"},
    {"trainer.epochs", 0.0, "count"},
    {"trainer.busy_share", 0.0, "share"},
    {"trainer.init_ckpt_p50_us", 0.0, "us"},
    {"trainer.checkpoint_p50_us", 0.0, "us"},
    {"ps.put_p50_us", 0.0, "us"},
    {"ps.get_p50_us", 0.0, "us"},
    {"ps.puts", 0.0, "count"},
    {"ps.gets", 0.0, "count"},
    {"ps.put_mb", 0.0, "MB"},
    {"cluster.send_p50_us", 0.0, "us"},
    {"cluster.messages", 0.0, "count"},
    {"cluster.worker_wait_share", 0.0, "share"},
    {"proc.cpu_us_per_op", 0.0, "us/op"},
    {"proc.ctx_switches_per_op", 0.0, "count/op"},
    {"client.lag_p99_us", 0.0, "us"},
    {"trace.overhead_share", 0.0, "share"},
    {"trace.spans", 0.0, "count"},
    {"trace.client_self_p50_us", 0.0, "us"},
    {"trace.study_self_share", 0.0, "share"},
};

const char* Flag(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i ? ", " : "") + JsonString(metrics[i].name) +
           ": {\"value\": " + buf +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Fixed thread settings: kernels and trainers run single-threaded, so the
  // service's own threads (event loops, dispatchers, study workers) are the
  // only parallelism and runs stay comparable.
  ::setenv("RAFIKI_NUM_THREADS", "1", 1);

  RunOptions o;
  const char* workload = Flag(argc, argv, "--workload");
  const char* seed = Flag(argc, argv, "--seed");
  const char* seconds = Flag(argc, argv, "--seconds");
  const char* trace = Flag(argc, argv, "--trace");
  if (workload == nullptr || seed == nullptr || seconds == nullptr) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "[--trace 0|1] [--trace-out <path>] [--commit <id>]\n",
                 argv[0]);
    return 2;
  }
  o.workload = workload;
  o.seed = std::strtoull(seed, nullptr, 10);
  o.seconds = std::strtod(seconds, nullptr);
  o.trace = trace != nullptr && std::strcmp(trace, "1") == 0;
  if (const char* v = Flag(argc, argv, "--trace-out")) o.trace_out = v;
  const char* commit = Flag(argc, argv, "--commit");
  if (!(o.seconds > 0.0) || o.seconds > 120.0) {
    std::fprintf(stderr, "--seconds must be in (0, 120]\n");
    return 2;
  }
  bool serve = IsServeWorkload(o.workload);
  if (!serve && !IsTuneWorkload(o.workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }

  std::printf(
      "stamp {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"cpu\": %s, \"build_type\": %s, "
      "\"commit\": %s}\n",
      JsonString(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      o.seconds, o.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN),
      JsonString(CpuModel()).c_str(),
      JsonString(RAFIKI_PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(commit ? commit : "unknown").c_str());
  std::fflush(stdout);

  Outcome out;
  if (serve) {
    RunServe(o, &out);
  } else {
    RunTune(o, &out);
  }

  std::vector<Metric> metrics = out.end_to_end;
  std::string measured;
  if (o.trace) {
    std::set<std::string> known;
    metrics.clear();
    for (const Metric& listed : kPerLayer) {
      known.insert(listed.name);
      Metric m = listed;
      for (const Metric& got : out.per_layer) {
        if (got.name != listed.name) continue;
        out.Check(got.unit == listed.unit, "unit of " + got.name);
        m.value = got.value;
        measured += (measured.empty() ? "" : ", ") + JsonString(got.name);
      }
      metrics.push_back(m);
    }
    for (const Metric& got : out.per_layer) {
      out.Check(known.count(got.name) > 0, "unlisted metric " + got.name);
    }
  }
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      out.Check(false, "non-finite metric " + m.name);
      m.value = 0.0;
    }
  }
  std::string violations;
  for (const std::string& v : out.violations) {
    std::fprintf(stderr, "check failed: %s\n", v.c_str());
    violations += (violations.empty() ? "" : ", ") + JsonString(v);
  }
  std::printf("report {\"detail\": %s, \"measured\": [%s], \"violations\": [%s]}\n",
              JsonMetrics(out.detail).c_str(), measured.c_str(),
              violations.c_str());
  bool correct = out.violations.empty() && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, out.attempted)),
              static_cast<long long>(out.failed), JsonMetrics(metrics).c_str());
  std::fflush(stdout);
  return 0;
}
