#include "rafiki/gateway.h"

#include <cerrno>
#include <cstdlib>
#include <optional>

#include "common/string_util.h"
#include "net/http.h"
#include "serving/rl_scheduler.h"

namespace rafiki::api {
namespace {

GatewayResponse Error(int status, const std::string& message) {
  return GatewayResponse{status, "error=" + message};
}

GatewayResponse FromStatus(const Status& status) {
  int code = 500;
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      code = 400;
      break;
    case StatusCode::kNotFound:
      code = 404;
      break;
    case StatusCode::kFailedPrecondition:
      code = 409;
      break;
    case StatusCode::kResourceExhausted:
      code = 429;  // bounded mailbox / quota overflow
      break;
    case StatusCode::kUnavailable:
      code = 503;  // retryable: queue full / shedding
      break;
    case StatusCode::kDeadlineExceeded:
      code = 504;  // queue wait exceeded the job's SLO tau
      break;
    default:
      code = 500;
  }
  return Error(code, status.ToString());
}

/// Parses the /query feature body ("v1,v2,...") into a [1, dim] tensor.
Result<Tensor> ParseFeatureBody(const GatewayRequest& request) {
  if (request.body.empty()) {
    return Status::InvalidArgument(
        "missing feature body (comma-separated floats)");
  }
  std::vector<float> values;
  for (const std::string& field : Split(request.body, ',')) {
    if (field.empty()) return Status::InvalidArgument("empty feature field");
    char* end = nullptr;
    float v = std::strtof(field.c_str(), &end);
    if (end == field.c_str()) {
      return Status::InvalidArgument(
          StrFormat("bad feature '%s'", field.c_str()));
    }
    values.push_back(v);
  }
  // Size must be read before the move: argument evaluation order is
  // unspecified and GCC moves the by-value parameter first.
  auto num_features = static_cast<int64_t>(values.size());
  return Tensor({1, num_features}, std::move(values));
}

GatewayResponse FormatPrediction(const Prediction& prediction) {
  std::vector<std::string> votes;
  votes.reserve(prediction.votes.size());
  for (int64_t v : prediction.votes) votes.push_back(std::to_string(v));
  return GatewayResponse{
      200, StrFormat("label=%lld&votes=%s",
                     static_cast<long long>(prediction.label),
                     Join(votes, ",").c_str())};
}

/// Job id of a "/jobs/<id>/query" path ("" when malformed).
std::string QueryRouteJobId(const std::string& path) {
  return path.size() > 6 + 6 ? path.substr(6, path.size() - 6 - 6)
                             : std::string();
}

}  // namespace

std::string GatewayResponse::ToString() const {
  return StrFormat("%d %s", status, body.c_str());
}

Gateway::Gateway(Rafiki* rafiki) : rafiki_(rafiki) {
  RAFIKI_CHECK(rafiki != nullptr);
  control_thread_ = std::thread([this] {
    while (std::optional<std::function<void()>> task = control_.Pop()) {
      (*task)();
    }
  });
}

Gateway::~Gateway() {
  control_.Close();  // Pop() still hands out what was queued before this
  control_thread_.join();
}

Result<GatewayRequest> Gateway::Parse(const std::string& raw_request) {
  // "METHOD /path[?|space]params\n body..."
  size_t newline = raw_request.find('\n');
  std::string head = raw_request.substr(0, newline);
  // Tolerate CRLF request lines (any real socket front-end sends them);
  // without this the path/params would carry an embedded '\r'.
  if (!head.empty() && head.back() == '\r') head.pop_back();
  GatewayRequest out;
  if (newline != std::string::npos) {
    out.body = raw_request.substr(newline + 1);
  }
  std::vector<std::string> parts = Split(head, ' ');
  if (parts.size() < 2 || parts[0].empty() || parts[1].empty()) {
    return Status::InvalidArgument("request must be 'METHOD /path [params]'");
  }
  out.method = parts[0];
  out.path = parts[1];
  if (out.path[0] != '/') {
    return Status::InvalidArgument("path must start with '/'");
  }
  std::string params;
  size_t qmark = out.path.find('?');
  if (qmark != std::string::npos) {
    params = out.path.substr(qmark + 1);
    out.path = out.path.substr(0, qmark);
  } else if (parts.size() >= 3) {
    params = parts[2];
  }
  if (!params.empty()) {
    for (const std::string& pair : Split(params, '&')) {
      if (pair.empty()) continue;
      size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument(
            StrFormat("malformed parameter '%s'", pair.c_str()));
      }
      // Real HTTP front-ends send percent-encoded query strings; decode so
      // "name=caf%C3%A9&note=a+b" means what the client wrote.
      out.params[net::PercentDecode(pair.substr(0, eq))] =
          net::PercentDecode(pair.substr(eq + 1), /*plus_as_space=*/true);
    }
  }
  return out;
}

GatewayResponse Gateway::Handle(const std::string& raw_request) {
  // Bounded buffering: a hostile or broken client must not make the
  // gateway swallow arbitrarily large request lines or bodies.
  size_t newline = raw_request.find('\n');
  size_t head_len = newline == std::string::npos ? raw_request.size()
                                                 : newline;
  if (head_len > kMaxRequestLine) {
    return Error(413, StrFormat("request line of %zu bytes exceeds %zu",
                                head_len, kMaxRequestLine));
  }
  if (newline != std::string::npos &&
      raw_request.size() - newline - 1 > kMaxBodyBytes) {
    return Error(413, StrFormat("body of %zu bytes exceeds %zu",
                                raw_request.size() - newline - 1,
                                kMaxBodyBytes));
  }
  Result<GatewayRequest> parsed = Parse(raw_request);
  if (!parsed.ok()) return FromStatus(parsed.status());
  return Dispatch(*parsed);
}

GatewayResponse Gateway::Dispatch(const GatewayRequest& request) {
  const std::string& path = request.path;
  // POST-only action routes.
  if (path == "/train" || path == "/deploy" || path == "/query" ||
      path == "/undeploy") {
    if (request.method != "POST") {
      return Error(405, StrFormat("use POST %s", path.c_str()));
    }
    if (path == "/train") return Train(request);
    if (path == "/deploy") return Deploy(request);
    if (path == "/query") return Query(request);
    return Undeploy(request);
  }
  if (path == "/cluster/metrics") {
    if (request.method != "GET") {
      return Error(405, "use GET /cluster/metrics");
    }
    return ClusterMetricsRoute();
  }
  // Job-scoped routes: POST /jobs/<id>/query (the data plane), GET for
  // status/metrics.
  if (StartsWith(path, "/jobs/")) {
    if (EndsWith(path, "/query")) {
      if (request.method != "POST") {
        return Error(405, StrFormat("use POST %s", path.c_str()));
      }
      std::string job_id = QueryRouteJobId(path);
      if (job_id.empty()) return Error(400, "missing job id in path");
      return QueryJob(job_id, request);
    }
    if (request.method != "GET") {
      return Error(405, StrFormat("use GET %s", path.c_str()));
    }
    if (EndsWith(path, "/metrics")) {
      std::string job_id = path.substr(6, path.size() - 6 - 8);
      if (!job_id.empty()) return InferMetrics(job_id);
    }
    return JobStatus(path.substr(6));
  }
  return Error(404, StrFormat("no route %s %s", request.method.c_str(),
                              path.c_str()));
}

void Gateway::DispatchAsync(const GatewayRequest& request,
                            AsyncCompletion done) {
  RAFIKI_CHECK(done != nullptr);
  const std::string& path = request.path;
  if (request.method != "POST") {
    done(Dispatch(request));
    return;
  }
  if (path == "/query") {
    auto it = request.params.find("job");
    if (it == request.params.end()) {
      done(Error(400, "missing job parameter"));
      return;
    }
    QueryAsync(it->second, request, std::move(done));
    return;
  }
  if (StartsWith(path, "/jobs/") && EndsWith(path, "/query")) {
    std::string job_id = QueryRouteJobId(path);
    if (job_id.empty()) {
      done(Error(400, "missing job id in path"));
      return;
    }
    QueryAsync(job_id, request, std::move(done));
    return;
  }
  control_.Push([this, request, done = std::move(done)] {
    done(Dispatch(request));
  });
}

GatewayResponse Gateway::Train(const GatewayRequest& request) {
  auto it = request.params.find("dataset");
  if (it == request.params.end()) {
    return Error(400, "missing dataset parameter");
  }
  TrainConfig config;
  config.dataset = it->second;
  // Strict integer parsing: the whole value must be consumed, so
  // "trials=abc" or "epochs=3x" is a 400 instead of silently becoming 0.
  Status parse_error = Status::OK();
  auto get_int = [&](const char* key, int64_t fallback) -> int64_t {
    auto p = request.params.find(key);
    if (p == request.params.end()) return fallback;
    const std::string& value = p->second;
    errno = 0;
    char* end = nullptr;
    long long parsed = std::strtoll(value.c_str(), &end, 10);
    if (value.empty() || end != value.c_str() + value.size() ||
        errno == ERANGE) {
      if (parse_error.ok()) {
        parse_error = Status::InvalidArgument(StrFormat(
            "parameter '%s' must be an integer, got '%s'", key,
            value.c_str()));
      }
      return fallback;
    }
    return parsed;
  };
  config.hyper.max_trials = get_int("trials", 8);
  config.hyper.max_epochs_per_trial =
      static_cast<int>(get_int("epochs", 10));
  config.num_workers = static_cast<int>(get_int("workers", 2));
  config.hyper.collaborative = get_int("collaborative", 0) != 0;
  config.seed = static_cast<uint64_t>(get_int("seed", 1));
  if (!parse_error.ok()) return FromStatus(parse_error);
  auto adv = request.params.find("advisor");
  if (adv != request.params.end()) {
    if (adv->second == "grid") {
      config.advisor = AdvisorKind::kGridSearch;
    } else if (adv->second == "bayes") {
      config.advisor = AdvisorKind::kBayesOpt;
    } else if (adv->second == "random") {
      config.advisor = AdvisorKind::kRandomSearch;
    } else {
      return Error(400, "advisor must be random|grid|bayes");
    }
  }
  if (config.hyper.max_trials <= 0 || config.num_workers <= 0) {
    return Error(400, "trials and workers must be positive");
  }
  if (config.hyper.max_epochs_per_trial < 1) {
    return Error(400, "epochs must be >= 1");
  }
  Result<std::string> job = rafiki_->Train(config);
  if (!job.ok()) return FromStatus(job.status());
  return GatewayResponse{200, "job_id=" + *job};
}

GatewayResponse Gateway::JobStatus(const std::string& job_id) {
  Result<JobInfo> info = rafiki_->GetJobInfo(job_id);
  if (!info.ok()) return FromStatus(info.status());
  return GatewayResponse{
      200, StrFormat("done=%d&best=%.6f&trials=%lld", info->done ? 1 : 0,
                     info->best_performance,
                     static_cast<long long>(info->trials_finished))};
}

GatewayResponse Gateway::Deploy(const GatewayRequest& request) {
  auto it = request.params.find("job");
  if (it == request.params.end()) return Error(400, "missing job parameter");
  // Per-job scheduling-policy selection; validated before the model lookup
  // so a bad policy is a 400 even for unknown jobs.
  serving::RuntimeOptions options;
  auto policy = request.params.find("policy");
  if (policy != request.params.end()) {
    if (policy->second == "rl") {
      options.policy_factory = serving::MakeRlSchedulerFactory();
    } else if (policy->second != "greedy") {
      return Error(400, "policy must be greedy|rl");
    }
  }
  // Replicated serving plane: `replicas=N` caps the job at N dispatcher
  // replicas. Static by default (all N start immediately); `autoscale=1`
  // instead starts at one replica and lets the ReplicaController grow and
  // shrink the set within [1, N] from queue pressure.
  auto get_int = [&](const char* key, long long fallback,
                     bool* ok) -> long long {
    auto p = request.params.find(key);
    if (p == request.params.end()) return fallback;
    const std::string& value = p->second;
    errno = 0;
    char* end = nullptr;
    long long parsed = std::strtoll(value.c_str(), &end, 10);
    if (value.empty() || end != value.c_str() + value.size() ||
        errno == ERANGE) {
      *ok = false;
      return fallback;
    }
    return parsed;
  };
  bool params_ok = true;
  long long replicas = get_int("replicas", 1, &params_ok);
  long long autoscale = get_int("autoscale", 0, &params_ok);
  if (!params_ok || replicas < 1 || replicas > 64) {
    return Error(400, "replicas must be an integer in [1, 64]");
  }
  options.max_replicas = static_cast<int>(replicas);
  if (autoscale != 0) {
    options.autoscale = true;
    options.replicas = 1;
    options.min_replicas = 1;
  } else {
    options.replicas = static_cast<int>(replicas);
  }
  Result<std::vector<ModelHandle>> models = rafiki_->GetModels(it->second);
  if (!models.ok()) return FromStatus(models.status());
  Result<std::string> deployed = rafiki_->Deploy(*models, options);
  if (!deployed.ok()) return FromStatus(deployed.status());
  return GatewayResponse{200, "job_id=" + *deployed};
}

GatewayResponse Gateway::Query(const GatewayRequest& request) {
  auto it = request.params.find("job");
  if (it == request.params.end()) return Error(400, "missing job parameter");
  return QueryJob(it->second, request);
}

GatewayResponse Gateway::QueryJob(const std::string& job_id,
                                  const GatewayRequest& request) {
  Result<Tensor> features = ParseFeatureBody(request);
  if (!features.ok()) return Error(400, features.status().message());
  Result<Prediction> prediction = rafiki_->Query(job_id, *features);
  if (!prediction.ok()) return FromStatus(prediction.status());
  return FormatPrediction(*prediction);
}

void Gateway::QueryAsync(const std::string& job_id,
                         const GatewayRequest& request,
                         AsyncCompletion done) {
  Result<Tensor> features = ParseFeatureBody(request);
  if (!features.ok()) {
    done(Error(400, features.status().message()));
    return;
  }
  Status submitted = rafiki_->QueryAsync(
      job_id, std::move(*features), [done](Result<Prediction> prediction) {
        if (!prediction.ok()) {
          done(FromStatus(prediction.status()));
          return;
        }
        done(FormatPrediction(*prediction));
      });
  // A rejected submission never runs the continuation: answer inline
  // (404 unknown job, 503 queue full, 400 bad dimension).
  if (!submitted.ok()) done(FromStatus(submitted));
}

GatewayResponse Gateway::InferMetrics(const std::string& job_id) {
  Result<serving::InferenceJobMetrics> metrics =
      rafiki_->InferenceMetrics(job_id);
  if (!metrics.ok()) return FromStatus(metrics.status());
  std::string body =
      StrFormat("arrived=%lld&processed=%lld&overdue=%lld&dropped=%lld&"
                "expired=%lld&batches=%lld&max_batch=%lld&mean_batch=%.3f&"
                "mean_latency=%.6f&queue=%lld&p50=%.6f&p95=%.6f&p99=%.6f&"
                "policy=%s&learn_steps=%lld&reward=%.6f&accuracy_sum=%.6f&"
                "reward_overdue=%lld&reward_pending=%lld",
                static_cast<long long>(metrics->arrived),
                static_cast<long long>(metrics->processed),
                static_cast<long long>(metrics->overdue),
                static_cast<long long>(metrics->dropped),
                static_cast<long long>(metrics->expired),
                static_cast<long long>(metrics->batches),
                static_cast<long long>(metrics->max_batch),
                metrics->mean_batch, metrics->mean_latency,
                static_cast<long long>(metrics->queue_depth),
                metrics->p50_latency, metrics->p95_latency,
                metrics->p99_latency, metrics->policy.c_str(),
                static_cast<long long>(metrics->learn_steps),
                metrics->reward_sum, metrics->accuracy_sum,
                static_cast<long long>(metrics->reward_overdue),
                static_cast<long long>(metrics->reward_pending_overdue));
  body += StrFormat(
      "&replicas=%lld&replicas_peak=%lld&scale_ups=%lld&scale_downs=%lld&"
      "variant_level=%lld&variant_shifts=%lld",
      static_cast<long long>(metrics->replicas),
      static_cast<long long>(metrics->replicas_peak),
      static_cast<long long>(metrics->scale_ups),
      static_cast<long long>(metrics->scale_downs),
      static_cast<long long>(metrics->variant_level),
      static_cast<long long>(metrics->variant_shifts));
  // One gauge row per replica slot ever activated; each row was read under
  // that replica's stats mutex, so inflight/processed are consistent.
  for (const serving::ReplicaGauges& g : metrics->replica_gauges) {
    body += StrFormat(
        "&r%lld_active=%d&r%lld_inflight=%lld&r%lld_processed=%lld",
        static_cast<long long>(g.replica), g.active ? 1 : 0,
        static_cast<long long>(g.replica),
        static_cast<long long>(g.inflight),
        static_cast<long long>(g.replica),
        static_cast<long long>(g.processed));
  }
  return GatewayResponse{200, std::move(body)};
}

GatewayResponse Gateway::ClusterMetricsRoute() {
  ClusterMetrics m = rafiki_->GetClusterMetrics();
  std::string body = StrFormat(
      "workers_alive=%lld&workers_total=%lld&worker_restarts=%lld&"
      "trials_proposed=%lld&trials_completed=%lld&trials_lost=%lld&"
      "trials_active=%lld",
      static_cast<long long>(m.workers_alive),
      static_cast<long long>(m.workers_total),
      static_cast<long long>(m.worker_restarts),
      static_cast<long long>(m.trials_proposed),
      static_cast<long long>(m.trials_completed),
      static_cast<long long>(m.trials_lost),
      static_cast<long long>(m.trials_active));
  body += StrFormat(
      "&bus_endpoints=%llu&bus_queued=%llu&bus_sent=%llu&"
      "bus_delivered=%llu&bus_send_errors=%llu&bus_frames_sent=%llu&"
      "bus_frames_received=%llu&bus_reconnects=%llu",
      static_cast<unsigned long long>(m.bus.endpoints),
      static_cast<unsigned long long>(m.bus.queued),
      static_cast<unsigned long long>(m.bus.messages_sent),
      static_cast<unsigned long long>(m.bus.messages_delivered),
      static_cast<unsigned long long>(m.bus.send_errors),
      static_cast<unsigned long long>(m.bus.frames_sent),
      static_cast<unsigned long long>(m.bus.frames_received),
      static_cast<unsigned long long>(m.bus.reconnects));
  return GatewayResponse{200, std::move(body)};
}

GatewayResponse Gateway::Undeploy(const GatewayRequest& request) {
  auto it = request.params.find("job");
  if (it == request.params.end()) return Error(400, "missing job parameter");
  Status status = rafiki_->Undeploy(it->second);
  if (!status.ok()) return FromStatus(status);
  return GatewayResponse{200, "ok"};
}

}  // namespace rafiki::api
