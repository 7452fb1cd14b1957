// rafiki_serve: the real service front door. Wires the Rafiki facade +
// request gateway onto the epoll HTTP server and serves the Figure 18
// surface over actual TCP:
//
//   ./build/examples/rafiki_serve --port=8080
//   curl 'http://127.0.0.1:8080/jobs/<infer>/metrics'
//   curl -d '0,1,0,0' 'http://127.0.0.1:8080/query?job=<infer>'
//
// On startup it imports a synthetic dataset (name "demo", for /train) and
// auto-deploys a small hand-built MLP so /query and /jobs/<id>/metrics work
// immediately; the startup lines
//   dataset=demo
//   infer_job=<id> input_dim=<d> policy=<greedy|rl>
//   listening port=<p> workers=<n>
// are machine-parseable (scripts/smoke_serve.sh relies on them), as are the
// drain-time "job metrics ..." and "conservation ... ok=1" lines. SIGINT or
// SIGTERM triggers a graceful drain-then-stop.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "common/string_util.h"
#include "data/dataset.h"
#include "rafiki/http_gateway.h"
#include "serving/rl_scheduler.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop = true; }

int64_t FlagInt(int argc, char** argv, const char* name, int64_t fallback) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (rafiki::StartsWith(argv[i], prefix)) {
      return std::atoll(argv[i] + prefix.size());
    }
  }
  return fallback;
}

std::string FlagString(int argc, char** argv, const char* name,
                       const char* fallback) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (rafiki::StartsWith(argv[i], prefix)) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  auto port = static_cast<uint16_t>(FlagInt(argc, argv, "port", 0));
  auto workers = static_cast<int>(FlagInt(argc, argv, "workers", 2));
  auto max_inflight =
      static_cast<size_t>(FlagInt(argc, argv, "max-inflight", 256));
  // Serving SLO tau in milliseconds; queries queued longer than this are
  // answered 504 instead of occupying batch capacity. --tau-ms=0 disables
  // the queue deadline (soft SLO at the default tau) instead of tripping
  // the runtime's tau > 0 validation.
  int64_t tau_ms = FlagInt(argc, argv, "tau-ms", 50);
  // --policy=greedy|rl selects the dispatch policy of the auto-deployed
  // job: the paper's greedy Algorithm 3 or the §5.2 actor-critic scheduler
  // learning online from realized Equation 7 rewards.
  std::string policy = FlagString(argc, argv, "policy", "greedy");
  if (policy != "greedy" && policy != "rl") {
    std::fprintf(stderr, "--policy must be greedy|rl, got '%s'\n",
                 policy.c_str());
    return 2;
  }
  // --replicas=N caps the job at N dispatcher replicas; static by default
  // (all N start immediately). --autoscale=1 instead starts at one replica
  // and lets the ReplicaController grow/shrink within [1, N] from queue
  // pressure (its dwell is shortened so short smoke storms can trip it).
  int64_t replicas = FlagInt(argc, argv, "replicas", 1);
  bool autoscale = FlagInt(argc, argv, "autoscale", 0) != 0;
  if (replicas < 1 || replicas > 64) {
    std::fprintf(stderr, "--replicas must be in [1, 64]\n");
    return 2;
  }
  constexpr int64_t kInputDim = 4;
  constexpr int64_t kClasses = 3;

  rafiki::api::Rafiki service;

  // Dataset for /train over the wire.
  rafiki::data::SyntheticTaskOptions task;
  task.num_classes = 3;
  task.samples_per_class = 50;
  task.input_dim = 8;
  task.separation = 5.0;
  RAFIKI_CHECK_OK(
      service.ImportDataset("demo", rafiki::data::MakeSyntheticTask(task))
          .status());
  std::printf("dataset=demo\n");

  // Auto-deploy a hand-built identity-ish MLP (kInputDim -> kClasses) from
  // a PS checkpoint, so the serving surface is live without training first.
  rafiki::ps::ModelCheckpoint ckpt;
  rafiki::Tensor weight({kInputDim, kClasses});
  for (int64_t i = 0; i < kClasses; ++i) weight.at2(i, i) = 1.0f;
  ckpt.params.emplace_back("fc0/weight", weight);
  ckpt.params.emplace_back("fc0/bias", rafiki::Tensor({1, kClasses}));
  ckpt.meta.accuracy = 0.9;
  RAFIKI_CHECK_OK(
      service.parameter_server().PutModel("serve/builtin/best", ckpt));
  rafiki::api::ModelHandle handle;
  handle.scope = "serve/builtin/best";
  handle.model_name = "mlp";
  handle.accuracy = 0.9;
  rafiki::serving::RuntimeOptions serve_opts;
  if (tau_ms > 0) {
    serve_opts.tau = static_cast<double>(tau_ms) / 1000.0;
    serve_opts.expire_overdue = true;
  }
  if (policy == "rl") {
    serve_opts.policy_factory = rafiki::serving::MakeRlSchedulerFactory();
  }
  serve_opts.max_replicas = static_cast<int>(replicas);
  if (autoscale) {
    serve_opts.autoscale = true;
    serve_opts.replicas = 1;
    serve_opts.min_replicas = 1;
    serve_opts.autoscale_dwell = 0.1;
  } else {
    serve_opts.replicas = static_cast<int>(replicas);
  }
  auto deployed = service.Deploy({handle}, serve_opts);
  RAFIKI_CHECK_OK(deployed.status());
  std::printf("infer_job=%s input_dim=%lld policy=%s replicas=%lld "
              "autoscale=%d\n",
              deployed->c_str(), static_cast<long long>(kInputDim),
              policy.c_str(), static_cast<long long>(replicas),
              autoscale ? 1 : 0);

  rafiki::api::Gateway gateway(&service);
  rafiki::net::HttpServerOptions opts;
  opts.port = port;
  opts.num_workers = workers;
  opts.max_inflight = max_inflight;
  // The handler is built before the server it reports on, so the metrics
  // route's gauge source goes through a late-bound pointer cell.
  auto server_cell = std::make_shared<rafiki::net::HttpServer*>(nullptr);
  rafiki::api::ServerStatsFn server_stats = [server_cell] {
    rafiki::net::HttpServer* server = *server_cell;
    return server ? server->stats() : rafiki::net::HttpServerStats{};
  };
  rafiki::net::HttpServer server(
      rafiki::api::MakeGatewayAsyncHttpHandler(&gateway, server_stats), opts);
  *server_cell = &server;
  RAFIKI_CHECK_OK(server.Start());
  std::printf("listening port=%u workers=%d\n", server.port(), workers);
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::printf("draining...\n");
  std::fflush(stdout);
  server.Stop();
  rafiki::net::HttpServerStats stats = server.stats();
  std::printf(
      "served requests=%llu responses=%llu handled=%llu overload_503=%llu "
      "draining_503=%llu parse_errors=%llu connections=%llu "
      "inflight_peak=%llu\n",
      static_cast<unsigned long long>(stats.requests_total),
      static_cast<unsigned long long>(stats.responses_total),
      static_cast<unsigned long long>(stats.handled),
      static_cast<unsigned long long>(stats.rejected_overload),
      static_cast<unsigned long long>(stats.rejected_draining),
      static_cast<unsigned long long>(stats.parse_errors),
      static_cast<unsigned long long>(stats.accepted_connections),
      static_cast<unsigned long long>(stats.inflight_peak));
  auto metrics = service.InferenceMetrics(*deployed);
  if (metrics.ok()) {
    std::printf(
        "job metrics arrived=%lld processed=%lld expired=%lld "
        "batches=%lld mean_batch=%.3f max_batch=%lld policy=%s "
        "learn_steps=%lld reward=%.3f\n",
        static_cast<long long>(metrics->arrived),
        static_cast<long long>(metrics->processed),
        static_cast<long long>(metrics->expired),
        static_cast<long long>(metrics->batches), metrics->mean_batch,
        static_cast<long long>(metrics->max_batch),
        metrics->policy.c_str(),
        static_cast<long long>(metrics->learn_steps), metrics->reward_sum);
    std::printf(
        "replica metrics replicas=%lld peak=%lld scale_ups=%lld "
        "scale_downs=%lld variant_level=%lld\n",
        static_cast<long long>(metrics->replicas),
        static_cast<long long>(metrics->replicas_peak),
        static_cast<long long>(metrics->scale_ups),
        static_cast<long long>(metrics->scale_downs),
        static_cast<long long>(metrics->variant_level));
    // The books must close after the drain: every arrival is processed,
    // dropped, expired, or still queued (nothing lost, nothing double
    // counted). smoke_serve.sh asserts ok=1.
    bool conserved =
        metrics->arrived == metrics->processed + metrics->dropped +
                                metrics->expired + metrics->queue_depth;
    std::printf(
        "conservation arrived=%lld processed=%lld dropped=%lld "
        "expired=%lld queued=%lld ok=%d\n",
        static_cast<long long>(metrics->arrived),
        static_cast<long long>(metrics->processed),
        static_cast<long long>(metrics->dropped),
        static_cast<long long>(metrics->expired),
        static_cast<long long>(metrics->queue_depth), conserved ? 1 : 0);
  }
  return 0;
}
