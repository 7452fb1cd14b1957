// rafiki_rl_experiment: the live Figure 12/13 A/B. Runs the SAME sine load
// (Equations 8-9) over real TCP against two fresh deployments — one under
// the paper's greedy policy (Algorithm 3), one under the §5.2 actor-critic
// scheduler learning online from realized Equation 7 rewards — and emits
// per-window overdue-vs-accuracy lines plus a final reward comparison.
//
//   ./build/examples/rafiki_rl_experiment --rate=450 --period=15
//       --seconds=30 --warmup=30 --tau-ms=40   (one line)
//
// Output (machine-parseable):
//   arm policy=<p> window t=<s> arrived= processed= expired= overdue=
//     reward= accuracy= queue=          (server-side, one line per window)
//   window t=... deadline=...           (client-side loadgen view)
//   arm policy=<p> total reward= peak_reward= overdue= expired= ...
//   ab reward_greedy= reward_rl= peak_greedy= peak_rl= winner=<p>
//
// The warmup phase replays the same sine before the measured phase and is
// excluded from the totals — the RL arm uses it to learn (its learn steps
// carry over; the greedy arm's warmup just equalizes cache/calibration
// state). EXPERIMENTS.md documents the repro settings.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "net/loadgen.h"
#include "rafiki/http_gateway.h"
#include "serving/rl_scheduler.h"
#include "serving/sine_arrival.h"

namespace {

using rafiki::Tensor;

struct Flags {
  double rate = 450.0;       // r* of Equations 8-9
  double period = 15.0;      // sine period T, seconds
  double seconds = 30.0;     // measured duration per arm
  double warmup = 30.0;      // unmeasured learning phase per arm
  double window = 1.0;       // aggregation window, seconds
  int64_t tau_ms = 40;       // serving SLO
  int64_t dim = 16;          // input feature dim
  int64_t hidden = 2048;     // hidden width (drives c(m, b))
  int64_t models = 1;        // 1 = mask collapse (§7.2.1); up to 3
  int64_t connections = 8;   // open-loop client connections
  uint64_t seed = 7;
};

const char* FlagValue(int argc, char** argv, const char* name) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (rafiki::StartsWith(argv[i], prefix)) return argv[i] + prefix.size();
  }
  return nullptr;
}

double FlagDouble(int argc, char** argv, const char* name, double fallback) {
  const char* v = FlagValue(argc, argv, name);
  return v != nullptr ? std::atof(v) : fallback;
}

/// One window sampled from the server-side job metrics.
struct ArmWindow {
  double t = 0.0;
  int64_t arrived = 0;
  int64_t processed = 0;
  int64_t expired = 0;
  int64_t overdue = 0;
  double reward = 0.0;
  double accuracy = 0.0;  // mean a(M[v]) over the window's batches
};

struct ArmResult {
  std::string policy;
  std::vector<ArmWindow> windows;
  double reward = 0.0;
  double peak_reward = 0.0;  // reward summed over the high-arrival windows
  int64_t processed = 0;
  int64_t overdue = 0;
  int64_t expired = 0;
  int64_t learn_steps = 0;
  bool conserved = false;
};

/// Deploys `flags.models` MLPs (larger hidden width = slower and more
/// accurate, the paper's catalog shape) and returns the inference job id.
std::string DeployArm(rafiki::api::Rafiki& service, const Flags& flags,
                      const std::string& policy) {
  std::vector<rafiki::api::ModelHandle> handles;
  for (int64_t m = 0; m < flags.models; ++m) {
    int64_t hidden = flags.hidden << m;  // 1x, 2x, 4x
    double accuracy = 0.90 - 0.05 * static_cast<double>(flags.models - 1 - m);
    rafiki::ps::ModelCheckpoint ckpt;
    // fc0 spreads the one-hot input across the hidden layer; fc1 reduces to
    // 3 classes. Weights are deterministic and non-zero so the forward pass
    // costs what a real MLP of this width costs.
    Tensor w0({flags.dim, hidden});
    for (int64_t i = 0; i < flags.dim; ++i) {
      for (int64_t j = 0; j < hidden; ++j) {
        w0.at2(i, j) = 0.01f * static_cast<float>((i + j) % 7);
      }
    }
    Tensor w1({hidden, 3});
    for (int64_t i = 0; i < hidden; ++i) {
      w1.at2(i, i % 3) = 0.1f;
    }
    ckpt.params.emplace_back("fc0/weight", w0);
    ckpt.params.emplace_back("fc0/bias", Tensor({1, hidden}));
    ckpt.params.emplace_back("fc1/weight", w1);
    ckpt.params.emplace_back("fc1/bias", Tensor({1, 3}));
    ckpt.meta.accuracy = accuracy;
    std::string scope =
        rafiki::StrFormat("rl_experiment/m%lld/best", static_cast<long long>(m));
    RAFIKI_CHECK_OK(service.parameter_server().PutModel(scope, ckpt));
    rafiki::api::ModelHandle handle;
    handle.scope = scope;
    handle.model_name = rafiki::StrFormat("mlp%lld", static_cast<long long>(m));
    handle.accuracy = accuracy;
    handles.push_back(handle);
  }

  rafiki::serving::RuntimeOptions options;
  options.tau = static_cast<double>(flags.tau_ms) / 1000.0;
  options.expire_overdue = true;
  if (policy == "rl") {
    rafiki::serving::RlSchedulerOptions rl;
    rl.agent.seed = flags.seed;
    options.policy_factory = rafiki::serving::MakeRlSchedulerFactory(rl);
  }
  auto deployed = service.Deploy(handles, options);
  RAFIKI_CHECK_OK(deployed.status());
  return *deployed;
}

ArmResult RunArm(const Flags& flags, const std::string& policy) {
  rafiki::api::Rafiki service;
  std::string job = DeployArm(service, flags, policy);

  rafiki::api::Gateway gateway(&service);
  rafiki::net::HttpServerOptions server_opts;
  server_opts.port = 0;  // ephemeral
  server_opts.num_workers = 2;
  server_opts.max_inflight = 8192;
  rafiki::net::HttpServer server(
      rafiki::api::MakeGatewayAsyncHttpHandler(&gateway), server_opts);
  RAFIKI_CHECK_OK(server.Start());

  std::string body = "1";
  for (int64_t i = 1; i < flags.dim; ++i) body += ",0";
  rafiki::net::LoadGenOptions load;
  load.port = server.port();
  load.method = "POST";
  load.target = "/jobs/" + job + "/query";
  load.body = body;
  load.target_rate = flags.rate;
  load.sine_period = flags.period;
  load.connections = static_cast<int>(flags.connections);
  load.tau = static_cast<double>(flags.tau_ms) / 1000.0;
  load.window_seconds = flags.window;
  load.seed = flags.seed;

  // Unmeasured warmup over the same sine: the RL arm learns here.
  if (flags.warmup > 0.0) {
    load.duration_seconds = flags.warmup;
    rafiki::net::RunLoadGen(load);
  }
  auto base = service.InferenceMetrics(job);
  RAFIKI_CHECK_OK(base.status());

  // Server-side sampler: one overdue-vs-accuracy line per window.
  ArmResult result;
  result.policy = policy;
  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    auto prev = *base;
    double t = 0.0;
    while (sampling.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::duration<double>(flags.window));
      auto now = service.InferenceMetrics(job);
      if (!now.ok()) break;
      t += flags.window;
      ArmWindow w;
      w.t = t;
      w.arrived = now->arrived - prev.arrived;
      w.processed = now->processed - prev.processed;
      w.expired = now->expired - prev.expired;
      w.overdue = now->overdue - prev.overdue;
      w.reward = now->reward_sum - prev.reward_sum;
      w.accuracy = w.processed > 0
                       ? (now->accuracy_sum - prev.accuracy_sum) /
                             static_cast<double>(w.processed)
                       : 0.0;
      std::printf(
          "arm policy=%s window t=%.0f arrived=%lld processed=%lld "
          "expired=%lld overdue=%lld reward=%.1f accuracy=%.4f queue=%lld\n",
          policy.c_str(), w.t, static_cast<long long>(w.arrived),
          static_cast<long long>(w.processed),
          static_cast<long long>(w.expired),
          static_cast<long long>(w.overdue), w.reward, w.accuracy,
          static_cast<long long>(now->queue_depth));
      result.windows.push_back(w);
      prev = *now;
    }
  });

  load.duration_seconds = flags.seconds;
  load.seed = flags.seed + 1;  // fresh noise, same sine
  rafiki::net::LoadGenReport report = rafiki::net::RunLoadGen(load);
  sampling.store(false, std::memory_order_relaxed);
  sampler.join();
  std::printf("%s", report.ToString().c_str());

  server.Stop();
  auto final_metrics = service.InferenceMetrics(job);
  RAFIKI_CHECK_OK(final_metrics.status());
  result.reward = final_metrics->reward_sum - base->reward_sum;
  result.processed = final_metrics->processed - base->processed;
  result.overdue = final_metrics->overdue - base->overdue;
  result.expired = final_metrics->expired - base->expired;
  result.learn_steps = final_metrics->learn_steps;
  result.conserved =
      final_metrics->arrived ==
      final_metrics->processed + final_metrics->dropped +
          final_metrics->expired + final_metrics->queue_depth;

  // "Overload peak" = the windows the SCHEDULE put above r* (Equation 8's
  // fifth of each cycle). Membership comes from the noise-free sine, not
  // from observed arrivals: a slow arm back-pressures the open-loop client
  // on this shared core and would otherwise flatten its own peak out of
  // existence, making the arms incomparable.
  rafiki::serving::SineArrivalProcess schedule(flags.rate, flags.period,
                                               flags.seed,
                                               /*noise_stddev=*/0.0);
  for (const ArmWindow& w : result.windows) {
    double midpoint = w.t - flags.window / 2.0;
    if (schedule.Rate(midpoint) >= flags.rate) {
      result.peak_reward += w.reward;
    }
  }
  std::printf(
      "arm policy=%s total reward=%.1f peak_reward=%.1f processed=%lld "
      "overdue=%lld expired=%lld learn_steps=%lld conservation_ok=%d\n",
      policy.c_str(), result.reward, result.peak_reward,
      static_cast<long long>(result.processed),
      static_cast<long long>(result.overdue),
      static_cast<long long>(result.expired),
      static_cast<long long>(result.learn_steps), result.conserved ? 1 : 0);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.rate = FlagDouble(argc, argv, "rate", flags.rate);
  flags.period = FlagDouble(argc, argv, "period", flags.period);
  flags.seconds = FlagDouble(argc, argv, "seconds", flags.seconds);
  flags.warmup = FlagDouble(argc, argv, "warmup", flags.warmup);
  flags.window = FlagDouble(argc, argv, "window", flags.window);
  flags.tau_ms =
      static_cast<int64_t>(FlagDouble(argc, argv, "tau-ms", 40));
  flags.dim = static_cast<int64_t>(FlagDouble(argc, argv, "dim", 16));
  flags.hidden =
      static_cast<int64_t>(FlagDouble(argc, argv, "hidden", 2048));
  flags.models = static_cast<int64_t>(FlagDouble(argc, argv, "models", 1));
  flags.connections =
      static_cast<int64_t>(FlagDouble(argc, argv, "connections", 8));
  flags.seed = static_cast<uint64_t>(FlagDouble(argc, argv, "seed", 7));
  if (flags.models < 1 || flags.models > 3) {
    std::fprintf(stderr, "--models must be 1..3\n");
    return 2;
  }

  std::printf(
      "rl_experiment rate=%.0f period=%.0f seconds=%.0f warmup=%.0f "
      "tau_ms=%lld dim=%lld hidden=%lld models=%lld seed=%llu\n",
      flags.rate, flags.period, flags.seconds, flags.warmup,
      static_cast<long long>(flags.tau_ms),
      static_cast<long long>(flags.dim),
      static_cast<long long>(flags.hidden),
      static_cast<long long>(flags.models),
      static_cast<unsigned long long>(flags.seed));

  ArmResult greedy = RunArm(flags, "greedy");
  ArmResult rl = RunArm(flags, "rl");

  const char* winner = rl.reward >= greedy.reward ? "rl" : "greedy";
  std::printf(
      "ab reward_greedy=%.1f reward_rl=%.1f peak_greedy=%.1f peak_rl=%.1f "
      "winner=%s\n",
      greedy.reward, rl.reward, greedy.peak_reward, rl.peak_reward, winner);
  return greedy.conserved && rl.conserved ? 0 : 1;
}
