#include "rafiki/gateway.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <stdexcept>

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

GatewayResponse AnswerResponse(const Result<Prediction>& answer) {
  GatewayResponse response;
  Gateway::FormatAnswer(answer, &response.status, &response.body);
  return response;
}

/// Job id of a "/jobs/<id>/query" path ("" when malformed).
std::string_view QueryRouteJobId(std::string_view path) {
  return path.size() > 6 + 6 ? path.substr(6, path.size() - 6 - 6)
                             : std::string_view();
}

/// `text` itself when it holds nothing to decode, else its decoded copy
/// kept in `request`.
std::string_view Decoded(std::string_view text, bool plus_as_space,
                         GatewayRequest* request) {
  bool plain = text.find('%') == std::string_view::npos &&
               (!plus_as_space || text.find('+') == std::string_view::npos);
  if (plain) return text;
  return request->Keep(net::PercentDecode(text, plus_as_space));
}

/// A copy of `request` whose views all point into its own storage, for
/// work that outlives the caller's buffer.
GatewayRequest OwnedCopy(const GatewayRequest& request) {
  GatewayRequest out;
  out.method = out.Keep(std::string(request.method));
  out.path = out.Keep(std::string(request.path));
  out.body = out.Keep(std::string(request.body));
  for (const auto& [key, value] : request.params.pairs()) {
    out.params.Add(out.Keep(std::string(key)), out.Keep(std::string(value)));
  }
  return out;
}

/// The feature row a query route parses into, one per event-loop thread:
/// it keeps its capacity from query to query.
std::vector<float>& FeatureRow() {
  thread_local std::vector<float> row;
  return row;
}

/// Integer parameter `key`, strictly parsed: the whole value must be
/// consumed, so "trials=abc" or "epochs=3x" is an error instead of 0.
/// Returns `fallback` when the key is absent and sets `*ok` false on a bad
/// value.
long long IntParam(const GatewayRequest& request, std::string_view key,
                   long long fallback, bool* ok) {
  const std::string_view* found = request.params.Find(key);
  if (found == nullptr) return fallback;
  std::string value(*found);
  errno = 0;
  char* end = nullptr;
  long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() ||
      errno == ERANGE) {
    *ok = false;
    return fallback;
  }
  return parsed;
}

}  // namespace

std::string GatewayResponse::ToString() const {
  return StrFormat("%d %s", status, body.c_str());
}

const std::string_view* GatewayParams::Find(std::string_view key) const {
  for (auto it = pairs_.rbegin(); it != pairs_.rend(); ++it) {
    if (it->first == key) return &it->second;
  }
  return nullptr;
}

std::string_view GatewayParams::at(std::string_view key) const {
  const std::string_view* value = Find(key);
  if (value == nullptr) {
    throw std::out_of_range("no parameter '" + std::string(key) + "'");
  }
  return *value;
}

std::string_view GatewayRequest::Keep(std::string text) {
  if (storage == nullptr) storage = std::make_shared<std::list<std::string>>();
  return storage->emplace_back(std::move(text));
}

Status ParseParams(std::string_view query, GatewayRequest* request) {
  size_t start = 0;
  for (;;) {
    size_t amp = query.find('&', start);
    std::string_view pair = query.substr(
        start, amp == std::string_view::npos ? amp : amp - start);
    if (!pair.empty()) {
      size_t eq = pair.find('=');
      if (eq == std::string_view::npos) {
        return Status::InvalidArgument(StrFormat(
            "malformed parameter '%s'", std::string(pair).c_str()));
      }
      // Real HTTP front-ends send percent-encoded query strings; decode so
      // "name=caf%C3%A9&note=a+b" means what the client wrote.
      std::string_view key = Decoded(pair.substr(0, eq), false, request);
      request->params.Add(
          key, Decoded(pair.substr(eq + 1), /*plus_as_space=*/true, request));
    }
    if (amp == std::string_view::npos) return Status::OK();
    start = amp + 1;
  }
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
  GatewayRequest out;
  std::string_view raw = out.Keep(raw_request);
  size_t newline = raw.find('\n');
  std::string_view head = raw.substr(0, newline);
  // Tolerate CRLF request lines (any real socket front-end sends them);
  // without this the path/params would carry an embedded '\r'.
  if (!head.empty() && head.back() == '\r') head.remove_suffix(1);
  if (newline != std::string_view::npos) out.body = raw.substr(newline + 1);
  std::vector<std::string_view> parts;
  for (size_t start = 0;;) {
    size_t space = head.find(' ', start);
    parts.push_back(head.substr(
        start, space == std::string_view::npos ? space : space - start));
    if (space == std::string_view::npos) break;
    start = space + 1;
  }
  if (parts.size() < 2 || parts[0].empty() || parts[1].empty()) {
    return Status::InvalidArgument("request must be 'METHOD /path [params]'");
  }
  out.method = parts[0];
  out.path = parts[1];
  if (out.path[0] != '/') {
    return Status::InvalidArgument("path must start with '/'");
  }
  std::string_view params;
  size_t qmark = out.path.find('?');
  if (qmark != std::string_view::npos) {
    params = out.path.substr(qmark + 1);
    out.path = out.path.substr(0, qmark);
  } else if (parts.size() >= 3) {
    params = parts[2];
  }
  RAFIKI_RETURN_IF_ERROR(ParseParams(params, &out));
  return out;
}

Status Gateway::ParseFeatures(std::string_view body, std::vector<float>* out) {
  out->clear();
  if (body.empty()) {
    return Status::InvalidArgument(
        "missing feature body (comma-separated floats)");
  }
  for (size_t start = 0;;) {
    size_t comma = body.find(',', start);
    std::string_view field = body.substr(
        start, comma == std::string_view::npos ? comma : comma - start);
    if (field.empty()) return Status::InvalidArgument("empty feature field");
    float v = 0.0f;
    const char* end = field.data() + field.size();
    auto [ptr, ec] = std::from_chars(field.data(), end, v);
    if (ec != std::errc() || ptr != end || std::isnan(v)) {
      // Whatever from_chars does not read whole (a leading '+' or space,
      // hex floats, out-of-range values, trailing text) or reads as NaN
      // (whose payload it may drop) is strtof's to decide.
      std::string copy(field);
      char* stop = nullptr;
      v = std::strtof(copy.c_str(), &stop);
      if (stop == copy.c_str()) {
        return Status::InvalidArgument(
            StrFormat("bad feature '%s'", copy.c_str()));
      }
    }
    out->push_back(v);
    if (comma == std::string_view::npos) return Status::OK();
    start = comma + 1;
  }
}

void Gateway::FormatAnswer(const Result<Prediction>& answer, int* status,
                           std::string* body) {
  if (!answer.ok()) {
    GatewayResponse error = FromStatus(answer.status());
    *status = error.status;
    body->assign(error.body);
    return;
  }
  char digits[24];
  auto append = [&](int64_t v) {
    body->append(digits, std::to_chars(digits, digits + sizeof(digits), v).ptr);
  };
  *status = 200;
  body->assign("label=");
  append(answer->label);
  body->append("&votes=");
  for (size_t i = 0; i < answer->votes.size(); ++i) {
    if (i > 0) body->push_back(',');
    append(answer->votes[i]);
  }
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
  const std::string_view path = request.path;
  // POST-only action routes.
  if (path == "/train" || path == "/deploy" || path == "/query" ||
      path == "/undeploy") {
    if (request.method != "POST") {
      return Error(405, StrFormat("use POST %s", std::string(path).c_str()));
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
  if (path.starts_with("/jobs/")) {
    if (path.ends_with("/query")) {
      if (request.method != "POST") {
        return Error(405, StrFormat("use POST %s", std::string(path).c_str()));
      }
      std::string_view job_id = QueryRouteJobId(path);
      if (job_id.empty()) return Error(400, "missing job id in path");
      return QueryJob(job_id, request);
    }
    if (request.method != "GET") {
      return Error(405, StrFormat("use GET %s", std::string(path).c_str()));
    }
    if (path.ends_with("/metrics")) {
      std::string job_id(path.substr(6, path.size() - 6 - 8));
      if (!job_id.empty()) return InferMetrics(job_id);
    }
    return JobStatus(std::string(path.substr(6)));
  }
  return Error(404, StrFormat("no route %s %s",
                              std::string(request.method).c_str(),
                              std::string(path).c_str()));
}

void Gateway::DispatchAsync(const GatewayRequest& request,
                            AsyncCompletion done) {
  RAFIKI_CHECK(done != nullptr);
  QueryCompletion answered = [done](const Result<Prediction>& answer) {
    done(AnswerResponse(answer));
  };
  DispatchAsync(request, std::move(done), std::move(answered));
}

void Gateway::DispatchAsync(const GatewayRequest& request,
                            AsyncCompletion done, QueryCompletion answered) {
  RAFIKI_CHECK(done != nullptr);
  RAFIKI_CHECK(answered != nullptr);
  const std::string_view path = request.path;
  if (request.method != "POST") {
    done(Dispatch(request));
    return;
  }
  std::string_view job_id;
  if (path == "/query") {
    const std::string_view* job = request.params.Find("job");
    if (job == nullptr) {
      done(Error(400, "missing job parameter"));
      return;
    }
    job_id = *job;
  } else if (path.starts_with("/jobs/") && path.ends_with("/query")) {
    job_id = QueryRouteJobId(path);
    if (job_id.empty()) {
      done(Error(400, "missing job id in path"));
      return;
    }
  } else {
    control_.Push([this, request = OwnedCopy(request),
                   done = std::move(done)] { done(Dispatch(request)); });
    return;
  }
  // The query itself: parse the row on this thread and hand `answered`
  // to the runtime, which copies the row before SubmitAsync returns.
  std::vector<float>& row = FeatureRow();
  Status parsed = ParseFeatures(request.body, &row);
  if (!parsed.ok()) {
    done(Error(400, parsed.message()));
    return;
  }
  Status submitted = rafiki_->QueryAsync(job_id, row, std::move(answered));
  // A rejected submission never runs the continuation: answer inline
  // (404 unknown job, 503 queue full, 400 bad dimension).
  if (!submitted.ok()) done(FromStatus(submitted));
}

GatewayResponse Gateway::Train(const GatewayRequest& request) {
  const std::string_view* dataset = request.params.Find("dataset");
  if (dataset == nullptr) {
    return Error(400, "missing dataset parameter");
  }
  TrainConfig config;
  config.dataset = std::string(*dataset);
  Status parse_error = Status::OK();
  auto get_int = [&](const char* key, int64_t fallback) -> int64_t {
    bool ok = true;
    long long parsed = IntParam(request, key, fallback, &ok);
    if (!ok && parse_error.ok()) {
      parse_error = Status::InvalidArgument(StrFormat(
          "parameter '%s' must be an integer, got '%s'", key,
          std::string(request.params.at(key)).c_str()));
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
  if (const std::string_view* adv = request.params.Find("advisor")) {
    if (*adv == "grid") {
      config.advisor = AdvisorKind::kGridSearch;
    } else if (*adv == "bayes") {
      config.advisor = AdvisorKind::kBayesOpt;
    } else if (*adv == "random") {
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
  const std::string_view* job = request.params.Find("job");
  if (job == nullptr) return Error(400, "missing job parameter");
  // Per-job scheduling-policy selection; validated before the model lookup
  // so a bad policy is a 400 even for unknown jobs.
  serving::RuntimeOptions options;
  if (const std::string_view* policy = request.params.Find("policy")) {
    if (*policy == "rl") {
      options.policy_factory = serving::MakeRlSchedulerFactory();
    } else if (*policy != "greedy") {
      return Error(400, "policy must be greedy|rl");
    }
  }
  // Replicated serving plane: `replicas=N` caps the job at N dispatcher
  // replicas. Static by default (all N start immediately); `autoscale=1`
  // instead starts at one replica and lets the ReplicaController grow and
  // shrink the set within [1, N] from queue pressure.
  bool params_ok = true;
  long long replicas = IntParam(request, "replicas", 1, &params_ok);
  long long autoscale = IntParam(request, "autoscale", 0, &params_ok);
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
  Result<std::vector<ModelHandle>> models =
      rafiki_->GetModels(std::string(*job));
  if (!models.ok()) return FromStatus(models.status());
  Result<std::string> deployed = rafiki_->Deploy(*models, options);
  if (!deployed.ok()) return FromStatus(deployed.status());
  return GatewayResponse{200, "job_id=" + *deployed};
}

GatewayResponse Gateway::Query(const GatewayRequest& request) {
  const std::string_view* job = request.params.Find("job");
  if (job == nullptr) return Error(400, "missing job parameter");
  return QueryJob(*job, request);
}

GatewayResponse Gateway::QueryJob(std::string_view job_id,
                                  const GatewayRequest& request) {
  std::vector<float> row;
  Status parsed = ParseFeatures(request.body, &row);
  if (!parsed.ok()) return Error(400, parsed.message());
  auto dim = static_cast<int64_t>(row.size());
  return AnswerResponse(rafiki_->Query(job_id, Tensor({1, dim}, std::move(row))));
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
  const std::string_view* job = request.params.Find("job");
  if (job == nullptr) return Error(400, "missing job parameter");
  Status status = rafiki_->Undeploy(std::string(*job));
  if (!status.ok()) return FromStatus(status);
  return GatewayResponse{200, "ok"};
}

}  // namespace rafiki::api
