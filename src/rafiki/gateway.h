#ifndef RAFIKI_RAFIKI_GATEWAY_H_
#define RAFIKI_RAFIKI_GATEWAY_H_

#include <functional>
#include <map>
#include <string>
#include <thread>

#include "common/blocking_queue.h"
#include "rafiki/rafiki.h"

namespace rafiki::api {

/// A parsed gateway request: "METHOD /path key=value&key=value\nBODY".
struct GatewayRequest {
  std::string method;  // GET / POST
  std::string path;    // e.g. /train, /jobs/job0, /query
  std::map<std::string, std::string> params;
  std::string body;    // e.g. comma-separated feature floats for /query
};

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

  /// Request parser (exposed for tests). Parameter keys and values are
  /// percent-decoded ('+' in a value decodes to space), so real HTTP query
  /// strings round-trip through the text protocol unchanged.
  static Result<GatewayRequest> Parse(const std::string& raw_request);

 private:
  GatewayResponse Train(const GatewayRequest& request);
  GatewayResponse JobStatus(const std::string& job_id);
  GatewayResponse InferMetrics(const std::string& job_id);
  GatewayResponse ClusterMetricsRoute();
  GatewayResponse Deploy(const GatewayRequest& request);
  GatewayResponse Query(const GatewayRequest& request);
  GatewayResponse QueryJob(const std::string& job_id,
                           const GatewayRequest& request);
  void QueryAsync(const std::string& job_id, const GatewayRequest& request,
                  AsyncCompletion done);
  GatewayResponse Undeploy(const GatewayRequest& request);

  Rafiki* rafiki_;
  /// Control POSTs waiting for the control thread.
  BlockingQueue<std::function<void()>> control_;
  std::thread control_thread_;
};

}  // namespace rafiki::api

#endif  // RAFIKI_RAFIKI_GATEWAY_H_
