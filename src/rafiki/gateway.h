#ifndef RAFIKI_RAFIKI_GATEWAY_H_
#define RAFIKI_RAFIKI_GATEWAY_H_

#include <functional>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/blocking_queue.h"
#include "rafiki/rafiki.h"

namespace rafiki::api {

/// Request parameters in request order, keys and values percent-decoded. A
/// key given twice reads as its last value.
class GatewayParams {
 public:
  /// The value of `key`, or nullptr when absent.
  const std::string_view* Find(std::string_view key) const;
  /// The value of `key`; throws std::out_of_range when absent.
  std::string_view at(std::string_view key) const;
  void Add(std::string_view key, std::string_view value) {
    pairs_.emplace_back(key, value);
  }
  const std::vector<std::pair<std::string_view, std::string_view>>& pairs()
      const {
    return pairs_;
  }

 private:
  std::vector<std::pair<std::string_view, std::string_view>> pairs_;
};

/// A parsed gateway request: "METHOD /path key=value&key=value\nBODY".
/// Every field is a view, into the caller's buffer (FromHttp views the
/// HTTP request it was given, which must outlive this request) or into
/// `storage`.
struct GatewayRequest {
  std::string_view method;  // GET / POST
  std::string_view path;    // e.g. /train, /jobs/job0, /query
  GatewayParams params;
  std::string_view body;    // e.g. comma-separated feature floats for /query
  /// Text the views may point into besides the caller's buffer: Parse()'s
  /// copy of the raw request and percent-decoded text. Shared and made of
  /// list nodes, so moving or copying the request moves no byte a view
  /// points at (a short std::string moved with its owner would).
  std::shared_ptr<std::list<std::string>> storage;

  /// Keeps `text` in `storage` and returns a view of the kept copy.
  std::string_view Keep(std::string text);
};

/// Adds the parameters of a query string ("k=v&k2=v2") to `request`,
/// percent-decoded ('+' in a value decodes to space). Text with nothing to
/// decode is viewed where it lies. InvalidArgument on a parameter without
/// '='.
Status ParseParams(std::string_view query, GatewayRequest* request);

/// A gateway response: status code + compact key=value payload.
struct GatewayResponse {
  int status = 200;
  std::string body;

  std::string ToString() const;
};

/// The service front door of Figure 2 / Figure 18: application users
/// (mobile apps, SQL UDFs — `curl -F image.jpg http://rafiki/api`) talk to
/// Rafiki through a small request/response protocol rather than linking
/// the library. This gateway implements that surface as a deterministic
/// text protocol on top of the facade; the real socket front-end
/// (net::HttpServer via MakeGatewayAsyncHttpHandler) adapts HTTP requests
/// onto `DispatchAsync()` 1:1.
///
/// Endpoints:
///   POST /train    dataset=<name>&trials=N&workers=N&collaborative=0|1&
///                  advisor=random|grid|bayes   -> job_id=...
///   GET  /jobs/<job_id>                        -> done=0|1&best=...&trials=N
///   POST /deploy   job=<job_id>                -> job_id=infer...
///   POST /query    job=<infer_id>  body: "v1,v2,..." -> label=K&votes=...
///   POST /jobs/<infer_id>/query    body: "v1,v2,..." -> label=K&votes=...
///   GET  /jobs/<infer_id>/metrics              -> arrived=..&processed=..&
///                  overdue=..&dropped=..&expired=..&batches=..&
///                  max_batch=..&mean_batch=..&mean_latency=..&queue=..&
///                  p50=..&p95=..&p99=..   (live serving counters +
///                  latency percentiles)
///   POST /undeploy job=<infer_id>              -> ok
///   GET  /cluster/metrics                      -> workers_alive=..&
///                  workers_total=..&worker_restarts=..&trials_proposed=..&
///                  trials_completed=..&trials_lost=..&trials_active=..&
///                  bus_endpoints=..&bus_queued=..&bus_sent=..&
///                  bus_delivered=..&bus_send_errors=..&bus_frames_sent=..&
///                  bus_frames_received=..&bus_reconnects=..  (tuning-plane
///                  gauges across every training job)
///
/// Error mapping: unknown path -> 404; known path with the wrong method ->
/// 405; oversized request line or body -> 413; queue full -> 503; queue
/// deadline exceeded -> 504.
class Gateway {
 public:
  /// Request-line and body size caps enforced by Handle() (413 beyond).
  static constexpr size_t kMaxRequestLine = 8 * 1024;
  static constexpr size_t kMaxBodyBytes = 1 << 20;

  /// Starts the control thread. `rafiki` must outlive the gateway.
  explicit Gateway(Rafiki* rafiki);
  /// Runs the control requests already queued, then joins the control
  /// thread. Stop the server in front first.
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Parses and serves one request string; never throws, all errors map to
  /// 4xx/5xx responses.
  GatewayResponse Handle(const std::string& raw_request);

  /// Routes an already-parsed request and blocks until it is answered.
  /// Thread-safe: the facade synchronizes internally.
  GatewayResponse Dispatch(const GatewayRequest& request);

  /// Continuation invoked exactly once with the response. GET routes (and
  /// early query errors) run it on the calling thread before DispatchAsync
  /// returns; query completions run it later on the inference job's
  /// dispatcher thread, and control POSTs on the gateway's control thread.
  /// It must be cheap and thread-safe.
  using AsyncCompletion = std::function<void(GatewayResponse)>;
  /// A query route's continuation: the runtime's own callback, run once on
  /// the dispatcher thread with the answer (FormatAnswer renders it).
  using QueryCompletion = serving::InferenceRuntime::Callback;

  /// Never blocks the caller, which behind HTTP is an event loop:
  ///   * query routes (POST /query, POST /jobs/<id>/query) go through the
  ///     facade's continuation chain and return once the request is queued;
  ///   * every other POST (train / deploy / undeploy, and POST errors) is
  ///     control plane: /train splits the dataset and starts containers,
  ///     /deploy times forwards to calibrate, and /undeploy joins
  ///     dispatchers, so they run one at a time on the gateway's control
  ///     thread;
  ///   * GET routes (status, metrics) only read counters and are answered
  ///     via Dispatch before DispatchAsync returns.
  void DispatchAsync(const GatewayRequest& request, AsyncCompletion done);

  /// The same routing for a caller that renders query answers itself: a
  /// query route hands `answered` straight to the runtime, so nothing
  /// wraps it, and every other route, and a query refused before it was
  /// queued, completes `done`. Exactly one of the two runs, once.
  void DispatchAsync(const GatewayRequest& request, AsyncCompletion done,
                     QueryCompletion answered);

  /// A query route's response: "label=K&votes=a,b" with status 200, or the
  /// error status and "error=..." body the failure maps to. Replaces
  /// `*body`, keeping its capacity; the numbers go through std::to_chars.
  static void FormatAnswer(const Result<Prediction>& answer, int* status,
                           std::string* body);

  /// Request parser (exposed for tests). Parameter keys and values are
  /// percent-decoded ('+' in a value decodes to space), so real HTTP query
  /// strings round-trip through the text protocol unchanged.
  static Result<GatewayRequest> Parse(const std::string& raw_request);

  /// The /query feature parser (exposed for tests): "v1,v2,..." into
  /// `*out`, replacing its contents and keeping its capacity. Each field is
  /// read with std::from_chars; a field it does not consume whole, or reads
  /// as NaN, is read by std::strtof instead, so every body gets strtof's
  /// accept/reject decision and bit-identical values. Empty fields and
  /// fields strtof reads nothing from are rejected.
  static Status ParseFeatures(std::string_view body, std::vector<float>* out);

 private:
  GatewayResponse Train(const GatewayRequest& request);
  GatewayResponse JobStatus(const std::string& job_id);
  GatewayResponse InferMetrics(const std::string& job_id);
  GatewayResponse ClusterMetricsRoute();
  GatewayResponse Deploy(const GatewayRequest& request);
  GatewayResponse Query(const GatewayRequest& request);
  GatewayResponse QueryJob(std::string_view job_id,
                           const GatewayRequest& request);
  GatewayResponse Undeploy(const GatewayRequest& request);

  Rafiki* rafiki_;
  /// Control POSTs waiting for the control thread.
  BlockingQueue<std::function<void()>> control_;
  std::thread control_thread_;
};

}  // namespace rafiki::api

#endif  // RAFIKI_RAFIKI_GATEWAY_H_
