// The serving workloads: the Rafiki facade behind the async HTTP gateway,
// driven over loopback TCP by the benchmark's own client.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <thread>
#include <unordered_map>

#include "client.h"
#include "data/dataset.h"
#include "net/http_server.h"
#include "probes.h"
#include "rafiki/gateway.h"
#include "rafiki/http_gateway.h"
#include "rafiki/rafiki.h"
#include "serving/rl_scheduler.h"
#include "trace.h"
#include "trainer/real_trainer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rafiki::Tensor;
namespace api = rafiki::api;
namespace net = rafiki::net;
namespace ps = rafiki::ps;
namespace serving = rafiki::serving;

/// SLO tau of rafiki_serve. Queue expiry stays off (the runtime's default,
/// the paper's soft SLO): a late answer is still an answer and counts
/// against slo_attainment, while a 504 would count as a failed operation.
constexpr double kTau = 0.05;
/// Sine period of the open-loop workloads: four periods per 10 s window.
constexpr double kPeriodS = 2.5;
/// r* of the sine workloads (requests/s). The peak 1.1 r* sits near 70% of
/// the two-replica ensemble's closed-loop capacity on the reference host
/// (see perfbench/README.md).
constexpr double kRateStar = 10000.0;
/// Hidden widths of the three-model ensemble (256-d input, 10 classes).
constexpr int64_t kEnsembleWidths[] = {512, 1024, 2048};
constexpr int64_t kEnsembleDim = 256;
constexpr int kEnsembleEpochs = 2;
/// Rows whose top-2 logit margin is below this are near-ties: batched and
/// single-row arithmetic may order them differently, so they are not sent.
constexpr float kTieMargin = 1e-3f;

/// Client shape of every serving workload: 4 keep-alive connections (one
/// per core of the reference host); in closed loop 8 requests pipelined
/// on each. The spread of p99 between seeds (interquartile range / median)
/// was 30% at 4 x 64, 10-22% at 4 x 16 and 6% at 4 x 8.
constexpr int kConnections = 4;
constexpr int kDepth = 8;

struct ServeWorkload {
  bool ensemble = false;
  bool rl = false;
  int replicas = 1;
  bool open_loop = false;
  int setups = 3;  // set-ups per untraced run; setup_s is their median
  /// Load run after set-up before the measured window. Counted in setup_s
  /// only for the learning scheduler, whose warm-up is part of readiness.
  double warmup_s = 0.5;
  bool warmup_counts = false;
  /// Traced runs record request spans for every n-th request id.
  uint64_t trace_every = 1;
};

ServeWorkload Lookup(const std::string& name) {
  ServeWorkload w;
  if (name == "serve_closed_tiny") {
    w.setups = 15;
    w.trace_every = 16;
  } else {
    w.ensemble = true;
    w.rl = name == "serve_sine_rl";
    w.replicas = 2;
    w.open_loop = true;
    if (w.rl) {
      w.warmup_s = 2.0;
      w.warmup_counts = true;
    }
  }
  return w;
}

net::HttpServerOptions ServerOptions() {
  net::HttpServerOptions o;
  o.num_workers = 2;
  o.num_handler_threads = 1;
  o.inline_handlers = true;  // the async gateway handler never blocks
  o.max_inflight = 1024;
  o.max_pipeline = 128;
  return o;
}

/// One running service: facade, deployed job, gateway and HTTP server.
struct Stack {
  std::unique_ptr<api::Rafiki> rafiki;
  std::string job;
  std::unique_ptr<api::Gateway> gateway;
  std::unique_ptr<net::HttpServer> server;
  std::vector<ps::ModelCheckpoint> ckpts;
  std::vector<double> accuracies;
  rafiki::data::Dataset test;

  ~Stack() { TearDown(); }

  void TearDown() {
    if (server) server->Stop();
    if (rafiki && !job.empty()) (void)rafiki->Undeploy(job);
    server.reset();
    gateway.reset();
    rafiki.reset();
    job.clear();
  }
};

std::vector<api::ModelHandle> PutTiny(Stack* s) {
  // The 4 -> 3 identity MLP of rafiki_serve: forward cost is ~zero.
  ps::ModelCheckpoint ckpt;
  Tensor weight({4, 3});
  for (int64_t i = 0; i < 3; ++i) weight.at2(i, i) = 1.0f;
  ckpt.params.emplace_back("fc0/weight", weight);
  ckpt.params.emplace_back("fc0/bias", Tensor({1, 3}));
  ckpt.meta.accuracy = 0.9;
  RAFIKI_CHECK_OK(s->rafiki->parameter_server().PutModel("bench/tiny", ckpt));
  s->ckpts = {ckpt};
  s->accuracies = {0.9};
  return {api::ModelHandle{"bench/tiny", "mlp", 0.9}};
}

/// Trains the three ensemble members with the repository's SGD trainer on
/// a fixed synthetic task and publishes them to the facade's PS.
std::vector<api::ModelHandle> TrainEnsemble(Stack* s) {
  rafiki::data::SyntheticTaskOptions task;
  task.num_classes = 10;
  task.samples_per_class = 200;
  task.input_dim = kEnsembleDim;
  task.separation = 3.0;
  task.seed = 2018;
  rafiki::Rng split_rng(2018);
  rafiki::data::DataSplits splits = rafiki::data::SplitDataset(
      rafiki::data::MakeSyntheticTask(task), 0.7, 0.15, split_rng);
  rafiki::trainer::RealTrainerOptions options;
  options.seed = 2018;
  rafiki::trainer::RealTrainerFactory factory(&splits.train,
                                              &splits.validation, options);
  std::vector<api::ModelHandle> handles;
  s->ckpts.clear();
  s->accuracies.clear();
  int64_t id = 0;
  for (int64_t width : kEnsembleWidths) {
    rafiki::tuning::Trial trial(id++);
    trial.Set("hidden_units", rafiki::tuning::KnobValue(width));
    trial.Set("learning_rate", rafiki::tuning::KnobValue(0.05));
    trial.Set("momentum", rafiki::tuning::KnobValue(0.9));
    trial.Set("weight_decay", rafiki::tuning::KnobValue(1e-4));
    trial.Set("init_std", rafiki::tuning::KnobValue(0.05));
    std::unique_ptr<rafiki::trainer::Trainable> model = factory.Create(trial);
    RAFIKI_CHECK_OK(model->InitRandom(trial));
    double accuracy = 0.0;
    for (int e = 0; e < kEnsembleEpochs; ++e) {
      rafiki::Result<double> acc = model->TrainEpoch();
      RAFIKI_CHECK_OK(acc.status());
      accuracy = *acc;
    }
    ps::ModelCheckpoint ckpt = model->Checkpoint();
    ckpt.meta.accuracy = accuracy;
    std::string scope = "bench/mlp" + std::to_string(width);
    RAFIKI_CHECK_OK(s->rafiki->parameter_server().PutModel(scope, ckpt));
    handles.push_back(
        api::ModelHandle{scope, "mlp" + std::to_string(width), accuracy});
    s->ckpts.push_back(std::move(ckpt));
    s->accuracies.push_back(accuracy);
  }
  s->test = std::move(splits.test);
  return handles;
}

void BuildStack(const ServeWorkload& w, bool decorated, uint64_t trace_every,
                Stack* s) {
  s->rafiki = std::make_unique<api::Rafiki>();
  std::vector<api::ModelHandle> handles =
      w.ensemble ? TrainEnsemble(s) : PutTiny(s);
  serving::RuntimeOptions opts;
  opts.tau = kTau;
  opts.replicas = w.replicas;
  opts.max_replicas = w.replicas;
  serving::PolicyFactory policy =
      w.rl ? serving::MakeRlSchedulerFactory() : nullptr;
  opts.policy_factory = decorated ? TimedPolicyFactory(policy) : policy;
  rafiki::Result<std::string> job = s->rafiki->Deploy(handles, opts);
  RAFIKI_CHECK_OK(job.status());
  s->job = *job;
  s->gateway = std::make_unique<api::Gateway>(s->rafiki.get());
  net::HttpServer::AsyncHandler handler =
      api::MakeGatewayAsyncHttpHandler(s->gateway.get());
  if (decorated) {
    handler = [inner = std::move(handler), trace_every](
                  const net::HttpRequest& request,
                  net::HttpServer::ResponseWriter writer) {
      int64_t t0 = NowNs();
      inner(request, std::move(writer));
      int64_t t1 = NowNs();
      const std::string* rid = request.FindHeader("x-rid");
      uint64_t id = rid == nullptr ? 0 : std::strtoull(rid->c_str(), nullptr, 10);
      if (id % trace_every == 0) {
        GlobalTracer().Record(SpanName::kHandler, t0, t1, id, /*parent=*/id);
      }
    };
  }
  s->server = std::make_unique<net::HttpServer>(handler, ServerOptions());
  RAFIKI_CHECK_OK(s->server->Start());
}

/// Query rows with their reference answers, computed in-process from the
/// deployed checkpoints: BuildMlpFromCheckpoint + Net::Forward per model,
/// MajorityVoteRows per model subset. Features are formatted as they go on
/// the wire and parsed back, so the reference sees the server's inputs.
std::vector<QueryRow> BuildRows(const Stack& s, const Tensor& features,
                                const std::vector<int64_t>& truth) {
  int64_t n = features.dim(0);
  int64_t d = features.dim(1);
  std::vector<std::string> bodies(static_cast<size_t>(n));
  Tensor wire({n, d});
  for (int64_t r = 0; r < n; ++r) {
    std::string& body = bodies[static_cast<size_t>(r)];
    char buf[32];
    for (int64_t c = 0; c < d; ++c) {
      std::snprintf(buf, sizeof(buf), "%.6g", features.at2(r, c));
      if (c > 0) body.push_back(',');
      body += buf;
      wire.at2(r, c) = std::strtof(buf, nullptr);
    }
  }
  size_t m = s.ckpts.size();
  std::vector<std::vector<int64_t>> labels(m);
  std::vector<bool> tie(static_cast<size_t>(n), false);
  for (size_t i = 0; i < m; ++i) {
    rafiki::Result<rafiki::nn::Net> built =
        api::BuildMlpFromCheckpoint(s.ckpts[i]);
    RAFIKI_CHECK_OK(built.status());
    Tensor logits = built->Forward(wire, /*train=*/false);
    labels[i] = logits.ArgmaxRows();
    for (int64_t r = 0; r < n; ++r) {
      float top = -1e30f;
      float second = -1e30f;
      for (int64_t c = 0; c < logits.dim(1); ++c) {
        float v = logits.at2(r, c);
        if (v > top) {
          second = top;
          top = v;
        } else if (v > second) {
          second = v;
        }
      }
      if (top - second < kTieMargin) tie[static_cast<size_t>(r)] = true;
    }
  }
  uint32_t full = (1u << m) - 1;
  std::vector<std::vector<int64_t>> mask_labels(full + 1);
  for (uint32_t mask = 1; mask <= full; ++mask) {
    std::vector<std::vector<int64_t>> votes;
    std::vector<double> accs;
    for (size_t i = 0; i < m; ++i) {
      if (mask & (1u << i)) {
        votes.push_back(labels[i]);
        accs.push_back(s.accuracies[i]);
      }
    }
    for (const serving::EnsemblePrediction& p :
         serving::MajorityVoteRows(votes, accs)) {
      mask_labels[mask].push_back(p.label);
    }
  }
  std::vector<QueryRow> rows;
  for (int64_t r = 0; r < n; ++r) {
    auto ri = static_cast<size_t>(r);
    if (tie[ri]) continue;
    QueryRow row;
    row.body = std::move(bodies[ri]);
    row.truth = truth[ri];
    for (size_t i = 0; i < m; ++i) row.model_labels.push_back(labels[i][ri]);
    row.mask_label.assign(full + 1, -1);
    for (uint32_t mask = 1; mask <= full; ++mask) {
      row.mask_label[mask] = mask_labels[mask][ri];
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<QueryRow> RowsFor(const ServeWorkload& w, const Stack& s) {
  if (w.ensemble) return BuildRows(s, s.test.x, s.test.labels);
  // Tiny identity model: uniform features, ground truth = argmax of the
  // first three (what the identity weights compute). Fixed, like the model.
  constexpr int64_t kRows = 4096;
  Tensor x({kRows, 4});
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<float> u(-1.0f, 1.0f);
  std::vector<int64_t> truth(kRows);
  for (int64_t r = 0; r < kRows; ++r) {
    for (int64_t c = 0; c < 4; ++c) x.at2(r, c) = u(rng);
    int64_t best = 0;
    for (int64_t c = 1; c < 3; ++c) {
      if (x.at2(r, c) > x.at2(r, best)) best = c;
    }
    truth[static_cast<size_t>(r)] = best;
  }
  return BuildRows(s, x, truth);
}

struct Phase {
  LoadResult load;
  serving::InferenceJobMetrics before;
  serving::InferenceJobMetrics after;
  net::HttpServerStats server_before;
  net::HttpServerStats server_after;
  ProcUsage usage_before;
  ProcUsage usage_after;
  std::vector<double> queue_depths;  // polled while the window ran
};

LoadSpec SpecFor(const ServeWorkload& w, const Stack& s, double window_s,
                 uint64_t seed) {
  LoadSpec spec;
  spec.port = s.server->port();
  spec.path = "/jobs/" + s.job + "/query";
  spec.connections = kConnections;
  spec.window_s = window_s;
  spec.tau_s = kTau;
  spec.seed = seed;
  spec.open_loop = w.open_loop;
  spec.depth = kDepth;
  spec.slot_s = spec.open_loop ? kPeriodS : 1.0;
  if (spec.open_loop) {
    spec.send_offsets_ns = SineSchedule(kRateStar, kPeriodS, window_s, seed);
  }
  return spec;
}

serving::InferenceJobMetrics JobMetrics(Stack& s) {
  rafiki::Result<serving::InferenceJobMetrics> m =
      s.rafiki->InferenceMetrics(s.job);
  RAFIKI_CHECK_OK(m.status());
  return *m;
}

/// Conservation holds at quiescent points, and a reply can reach the client
/// just before its batch is folded into the runtime's counters: read the
/// metrics until the books close (bounded at one second).
serving::InferenceJobMetrics QuiescentMetrics(Stack& s) {
  serving::InferenceJobMetrics m = JobMetrics(s);
  for (int i = 0; i < 100; ++i) {
    if (m.arrived == m.processed + m.dropped + m.expired + m.queue_depth) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    m = JobMetrics(s);
  }
  return m;
}

Phase Measure(Stack& s, const LoadSpec& spec,
              const std::vector<QueryRow>& rows, const AnswerRule& rule,
              bool poll_queue) {
  Phase p;
  p.before = JobMetrics(s);
  p.server_before = s.server->stats();
  std::atomic<bool> stop{false};
  std::thread poller;
  if (poll_queue) {
    poller = std::thread([&] {
      while (!stop.load()) {
        p.queue_depths.push_back(
            static_cast<double>(JobMetrics(s).queue_depth));
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  p.usage_before = ReadProcUsage();
  std::string error;
  bool ran = RunLoad(spec, rows, rule, &p.load, &error);
  p.usage_after = ReadProcUsage();
  stop.store(true);
  if (poller.joinable()) poller.join();
  RAFIKI_CHECK(ran) << error;
  p.after = QuiescentMetrics(s);
  p.server_after = s.server->stats();
  return p;
}

/// Runs the workload's own load for its warm-up time; only the answers'
/// correctness is checked.
void WarmUp(const ServeWorkload& w, const RunOptions& o, const Stack& s,
            const std::vector<QueryRow>& rows, uint64_t* rid, Outcome* out) {
  LoadSpec spec = SpecFor(w, s, w.warmup_s, o.seed ^ 0x5eed);
  spec.first_rid = *rid;
  AnswerRule rule{static_cast<int>(s.ckpts.size()), w.rl};
  LoadResult warm;
  std::string error;
  RAFIKI_CHECK(RunLoad(spec, rows, rule, &warm, &error)) << error;
  *rid = warm.next_rid;
  out->Check(warm.Balanced() && warm.wrong == 0, "warm-up answered wrong");
}

/// Runs set-up once: builds the stack, computes the reference rows on first
/// use (outside the timing), then waits for the first answers and, for the
/// learning scheduler, runs its warm-up. Returns the set-up seconds; adds
/// the probe requests still unanswered when it ended to `probe_stalled`.
double SetUp(const ServeWorkload& w, const RunOptions& o, bool decorated,
             Stack* s, std::vector<QueryRow>* rows, uint64_t* rid,
             int64_t* probe_stalled, Outcome* out) {
  int64_t t0 = NowNs();
  BuildStack(w, decorated, w.trace_every, s);
  int64_t t1 = NowNs();
  if (rows->empty()) *rows = RowsFor(w, *s);
  int64_t t2 = NowNs();
  AnswerRule rule{static_cast<int>(s->ckpts.size()), w.rl};

  // Ready = the first answer to one full batch (32 = max(B), which
  // Algorithm 3 flushes at once) is back. Only the first is awaited: on a
  // lone connection the rest can stall behind the reactor's lost wakeup
  // until unrelated traffic arrives.
  LoadSpec probe = SpecFor(w, *s, 5.0, o.seed ^ 0x9e3779b9);
  probe.open_loop = false;
  probe.connections = 1;
  probe.depth = 32;
  probe.max_requests = 32;
  probe.stop_after_answers = 1;
  probe.first_rid = *rid;
  LoadResult ready;
  std::string error;
  RAFIKI_CHECK(RunLoad(probe, *rows, rule, &ready, &error)) << error;
  *rid = ready.next_rid;
  out->Check(ready.correct >= 1 && ready.wrong == 0,
             "readiness probe answered wrong");
  *probe_stalled += ready.unanswered;

  if (w.warmup_counts) WarmUp(w, o, *s, *rows, rid, out);
  return static_cast<double>((NowNs() - t0) - (t2 - t1)) / 1e9;
}

/// Ledger checks shared by every phase: the client's books and the
/// runtime's conservation identity.
void CheckPhase(const Phase& p, Outcome* out) {
  const LoadResult& l = p.load;
  out->Check(l.Balanced(), "client ledger does not balance");
  out->Check(l.wrong == 0, "wrong answers: " + std::to_string(l.wrong));
  const serving::InferenceJobMetrics& m = p.after;
  out->Check(m.arrived == m.processed + m.dropped + m.expired + m.queue_depth,
             "runtime conservation arrived == processed + dropped + expired "
             "+ queued does not hold");
}

net::HttpServerStats CheckServerBalance(Stack& s, Outcome* out) {
  s.server->Stop();
  net::HttpServerStats st = s.server->stats();
  out->Check(st.requests_total == st.responses_total,
             "server requests_total != responses_total");
  return st;
}

/// Whole-slot medians of throughput, latency percentiles and SLO
/// attainment: one stalled slot moves a run's figures by a rank, not by its
/// size.
struct SlotFigures {
  double rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double slo = 0.0;
};

SlotFigures MedianOverSlots(const LoadResult& l) {
  size_t full = static_cast<size_t>(l.window_s / l.slot_s + 1e-9);
  size_t n = std::clamp<size_t>(full, 1, l.slot_sent.size());
  std::vector<double> rps, p50, p99, slo;
  for (size_t k = 0; k < n; ++k) {
    rps.push_back(static_cast<double>(l.slot_correct[k]) / l.slot_s);
    p50.push_back(l.slot_latency[k].P50() * 1e3);
    p99.push_back(l.slot_latency[k].P99() * 1e3);
    slo.push_back(static_cast<double>(l.slot_in_tau[k]) /
                  std::max<double>(1.0, static_cast<double>(l.slot_sent[k])));
  }
  return {Quantile(rps, 0.5), Quantile(p50, 0.5), Quantile(p99, 0.5),
          Quantile(slo, 0.5)};
}

int64_t Failed(const LoadResult& l) {
  return l.wrong + l.status_503 + l.status_504 + l.other_status +
         l.transport_errors + l.unanswered;
}

void AddLedger(const Phase& p, const net::HttpServerStats& server,
               int64_t probe_stalled, Outcome* out) {
  const LoadResult& l = p.load;
  const serving::InferenceJobMetrics& m = p.after;
  auto add = [&](const char* name, double v) {
    out->detail.push_back({name, v, "count"});
  };
  // Readiness-probe requests left unanswered (see SetUp): the lost-wakeup
  // stall, visible here rather than in the measured window's ledger.
  add("setup.probe_stalled", static_cast<double>(probe_stalled));
  add("server.requests_total", static_cast<double>(server.requests_total));
  add("server.responses_total", static_cast<double>(server.responses_total));
  add("client.sent", static_cast<double>(l.sent));
  add("client.correct", static_cast<double>(l.correct));
  add("client.wrong", static_cast<double>(l.wrong));
  add("client.status_503", static_cast<double>(l.status_503));
  add("client.status_504", static_cast<double>(l.status_504));
  add("client.other_status", static_cast<double>(l.other_status));
  add("client.transport_errors", static_cast<double>(l.transport_errors));
  add("client.unanswered", static_cast<double>(l.unanswered));
  // The same stall at the window's end: replies that went out only after
  // the drain nudged their connection (see client.cc).
  add("client.drain_nudges", static_cast<double>(l.drain_nudges));
  add("client.answers_after_nudge",
      static_cast<double>(l.answers_after_nudge));
  add("runtime.arrived", static_cast<double>(m.arrived));
  add("runtime.processed", static_cast<double>(m.processed));
  add("runtime.dropped", static_cast<double>(m.dropped));
  add("runtime.expired", static_cast<double>(m.expired));
  add("runtime.queued", static_cast<double>(m.queue_depth));
}

/// Forward time of clones of the deployed models, all of them per call.
void AddForwardMicros(const std::vector<ps::ModelCheckpoint>& ckpts,
                      Outcome* out) {
  std::vector<rafiki::nn::Net> nets;
  int64_t dim = 0;
  for (const ps::ModelCheckpoint& ckpt : ckpts) {
    rafiki::Result<rafiki::nn::Net> net = api::BuildMlpFromCheckpoint(ckpt);
    RAFIKI_CHECK_OK(net.status());
    nets.push_back(net->Clone());
    for (const auto& [name, t] : ckpt.params) {
      if (name == "fc0/weight") dim = t.dim(0);
    }
  }
  out->per_layer.push_back(
      {"nn.forward_b1_us", ForwardMicros(nets, dim, 1), "us"});
  out->per_layer.push_back(
      {"nn.forward_b32_us", ForwardMicros(nets, dim, 32), "us"});
}

/// Per-layer figures of one traced phase.
void PerLayer(const ServeWorkload& w, const Phase& p, double window_s,
              Outcome* out) {
  std::vector<Span> spans = GlobalTracer().Collect();
  std::unordered_map<uint64_t, const Span*> client;
  std::vector<int64_t> decide, batch, feedback, dispatch, inbound, sent_to_reply;
  int64_t waits = 0;
  double batch_busy = 0.0;
  for (const Span& s : spans) {
    int64_t d = s.end_ns - s.start_ns;
    switch (s.name) {
      case SpanName::kClientRequest:
        client[s.rid] = &s;
        sent_to_reply.push_back(s.end_ns -
                                (s.start_ns + static_cast<int64_t>(s.value)));
        break;
      case SpanName::kHandler: dispatch.push_back(d); break;
      case SpanName::kDecide:
        decide.push_back(d);
        if (s.value == 0) ++waits;
        break;
      case SpanName::kBatch:
        batch.push_back(d);
        batch_busy += static_cast<double>(d);
        break;
      case SpanName::kFeedback: feedback.push_back(d); break;
      default: break;
    }
  }
  for (const Span& s : spans) {
    if (s.name != SpanName::kHandler) continue;
    auto it = client.find(s.rid);
    if (it == client.end()) continue;
    const Span& c = *it->second;
    inbound.push_back(s.start_ns - (c.start_ns + static_cast<int64_t>(c.value)));
  }
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::vector<int64_t> client_self;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == SpanName::kClientRequest) {
      client_self.push_back(self[i]);
    }
  }

  const serving::InferenceJobMetrics& a = p.after;
  const serving::InferenceJobMetrics& b = p.before;
  auto add = [&](const char* name, double v, const char* unit) {
    out->per_layer.push_back({name, v, unit});
  };
  double inbound_p50 = Quantile(ToMicros(inbound), 0.5);
  double dispatch_p50 = Quantile(ToMicros(dispatch), 0.5);
  double serving_p50 = a.p50_latency * 1e6;
  add("net.inbound_p50_us", inbound_p50, "us");
  add("net.inbound_p99_us", Quantile(ToMicros(inbound), 0.99), "us");
  // A difference of medians, not a per-request figure: client send -> reply
  // minus send -> handler entry, minus the handler, minus the runtime's own
  // submit -> completion.
  add("net.return_p50_us",
      Quantile(ToMicros(sent_to_reply), 0.5) - inbound_p50 - dispatch_p50 -
          serving_p50,
      "us");
  add("net.requests",
      static_cast<double>(p.server_after.requests_total -
                          p.server_before.requests_total),
      "count");
  add("net.responses",
      static_cast<double>(p.server_after.responses_total -
                          p.server_before.responses_total),
      "count");
  add("net.inflight_peak", static_cast<double>(p.server_after.inflight_peak),
      "count");
  add("rafiki.dispatch_p50_us", dispatch_p50, "us");
  add("rafiki.dispatch_p99_us", Quantile(ToMicros(dispatch), 0.99), "us");
  add("serving.latency_p50_us", serving_p50, "us");
  add("serving.latency_p99_us", a.p99_latency * 1e6, "us");
  int64_t batches = a.batches - b.batches;
  add("serving.mean_batch",
      batches > 0 ? static_cast<double>(a.processed - b.processed) /
                        static_cast<double>(batches)
                  : 0.0,
      "count");
  add("serving.batches", static_cast<double>(batches), "count");
  add("serving.expired", static_cast<double>(a.expired - b.expired), "count");
  add("serving.overdue", static_cast<double>(a.overdue - b.overdue), "count");
  add("serving.dropped", static_cast<double>(a.dropped - b.dropped), "count");
  add("serving.steals", static_cast<double>(a.steals - b.steals), "count");
  add("serving.learn_steps",
      static_cast<double>(a.learn_steps - b.learn_steps), "count");
  add("serving.queue_depth_mean", Mean(p.queue_depths), "count");
  add("serving.queue_depth_max", Quantile(p.queue_depths, 1.0), "count");
  add("serving.decide_us", Mean(ToMicros(decide)), "us");
  add("serving.decisions", static_cast<double>(decide.size()), "count");
  add("serving.wait_decisions_share",
      decide.empty() ? 0.0
                     : static_cast<double>(waits) /
                           static_cast<double>(decide.size()),
      "share");
  add("serving.batch_exec_p50_us", Quantile(ToMicros(batch), 0.5), "us");
  add("serving.batch_exec_p99_us", Quantile(ToMicros(batch), 0.99), "us");
  add("serving.dispatcher_busy_share",
      batch_busy / (window_s * 1e9 * w.replicas), "share");
  add("serving.feedback_us", Mean(ToMicros(feedback)), "us");
  add("proc.cpu_us_per_op",
      (p.usage_after.cpu_us - p.usage_before.cpu_us) /
          std::max<double>(1.0, static_cast<double>(p.load.correct)),
      "us/op");
  add("proc.ctx_switches_per_op",
      (p.usage_after.ctx_switches - p.usage_before.ctx_switches) /
          std::max<double>(1.0, static_cast<double>(p.load.correct)),
      "count/op");
  add("client.lag_p99_us", p.load.lag.P99() * 1e6, "us");
  add("trace.spans", static_cast<double>(spans.size()), "count");
  add("trace.client_self_p50_us", Quantile(ToMicros(client_self), 0.5), "us");
}

}  // namespace

bool IsServeWorkload(const std::string& name) {
  return name == "serve_closed_tiny" || name == "serve_sine_ensemble" ||
         name == "serve_sine_rl";
}

void RunServe(const RunOptions& o, Outcome* out) {
  const ServeWorkload w = Lookup(o.workload);
  std::vector<QueryRow> rows;
  uint64_t rid = 1;
  int64_t probe_stalled = 0;
  Stack stack;

  if (!o.trace) {
    std::vector<double> setups;
    for (int i = 0; i < w.setups; ++i) {
      stack.TearDown();
      setups.push_back(
          SetUp(w, o, false, &stack, &rows, &rid, &probe_stalled, out));
    }
    if (!w.warmup_counts) WarmUp(w, o, stack, rows, &rid, out);
    AnswerRule rule{static_cast<int>(stack.ckpts.size()), w.rl};
    LoadSpec spec = SpecFor(w, stack, o.seconds, o.seed);
    spec.first_rid = rid;
    Phase p = Measure(stack, spec, rows, rule, /*poll_queue=*/false);
    CheckPhase(p, out);
    AddLedger(p, CheckServerBalance(stack, out), probe_stalled, out);
    const LoadResult& l = p.load;
    double rps = static_cast<double>(l.correct) / l.window_s;
    double p50 = l.latency.P50() * 1e3;
    double p99 = l.latency.P99() * 1e3;
    double slo = static_cast<double>(l.correct_in_tau) /
                 std::max<double>(1.0, static_cast<double>(l.sent));
    double acc = static_cast<double>(l.truth_hits) /
                 std::max<double>(1.0, static_cast<double>(l.answered_200));
    double setup_s = Quantile(setups, 0.5);
    double rss = ReadProcUsage().max_rss_mb;
    SlotFigures med = MedianOverSlots(l);
    out->attempted = l.sent;
    out->failed = Failed(l);
    out->end_to_end = {
        {"setup_s", setup_s, "s"},
        {"throughput_per_s", med.rps, "1/s"},
        {"latency_p50_ms", med.p50_ms, "ms"},
        {"latency_p99_ms", med.p99_ms, "ms"},
        {"slo_attainment", med.slo, "share"},
        {"accuracy", acc, "share"},
        {"rss_mb", rss, "MB"},
    };
    out->detail.insert(
        out->detail.begin(),
        {{"setup_s", setup_s, "s"},
         {"query_rps", rps, "1/s"},
         {"query_p50_ms", p50, "ms"},
         {"query_p99_ms", p99, "ms"},
         {"latency_samples", static_cast<double>(l.latency.count()),
          "count"},
         {"slo_attainment", slo, "share"},
         {"served_accuracy", acc, "share"},
         {"failed_share",
          static_cast<double>(out->failed) /
              std::max<double>(1.0, static_cast<double>(l.sent)),
          "share"},
         {"rss_mb", rss, "MB"},
         {"query_rows", static_cast<double>(rows.size()), "count"},
         {"client.lag_p99_us", l.lag.P99() * 1e6, "us"},
         {"client.lag_max_us", l.lag.max() * 1e6, "us"}});
    return;
  }

  // Traced run: the first half of the window untraced on a plain stack,
  // the second half traced on a decorated one; the headline difference
  // between the halves is the tracing overhead.
  double half = o.seconds / 2.0;
  SetUp(w, o, false, &stack, &rows, &rid, &probe_stalled, out);
  if (!w.warmup_counts) WarmUp(w, o, stack, rows, &rid, out);
  AnswerRule rule{static_cast<int>(stack.ckpts.size()), w.rl};
  LoadSpec spec = SpecFor(w, stack, half, o.seed);
  spec.first_rid = rid;
  Phase plain = Measure(stack, spec, rows, rule, false);
  rid = plain.load.next_rid;
  CheckPhase(plain, out);
  CheckServerBalance(stack, out);
  stack.TearDown();

  SetUp(w, o, true, &stack, &rows, &rid, &probe_stalled, out);
  if (!w.warmup_counts) WarmUp(w, o, stack, rows, &rid, out);
  spec = SpecFor(w, stack, half, o.seed);  // the same arrivals
  spec.first_rid = rid;
  spec.trace_every = w.trace_every;
  Tracer& tracer = GlobalTracer();
  tracer.Clear();
  tracer.set_enabled(true);
  Phase traced = Measure(stack, spec, rows, rule, /*poll_queue=*/true);
  CheckPhase(traced, out);
  AddLedger(traced, CheckServerBalance(stack, out), probe_stalled, out);
  std::vector<ps::ModelCheckpoint> ckpts = stack.ckpts;
  stack.TearDown();  // joins the dispatchers that recorded spans
  tracer.set_enabled(false);
  out->Check(tracer.dropped() == 0, "span buffer full");
  out->attempted = plain.load.sent + traced.load.sent;
  out->failed = Failed(plain.load) + Failed(traced.load);

  PerLayer(w, traced, half, out);
  AddForwardMicros(ckpts, out);
  double overhead = 0.0;
  if (spec.open_loop) {
    double base = plain.load.latency.P50();
    overhead = base > 0 ? traced.load.latency.P50() / base - 1.0 : 0.0;
  } else {
    overhead = plain.load.correct > 0
                   ? 1.0 - static_cast<double>(traced.load.correct) /
                               static_cast<double>(plain.load.correct)
                   : 0.0;
  }
  out->per_layer.push_back({"trace.overhead_share", overhead, "share"});
  if (!o.trace_out.empty()) {
    out->Check(WriteSpans(tracer.Collect(), o.trace_out, 200000),
               "could not write " + o.trace_out);
  }
}

}  // namespace perfbench
