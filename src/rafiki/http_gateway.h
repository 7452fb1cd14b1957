#ifndef RAFIKI_RAFIKI_HTTP_GATEWAY_H_
#define RAFIKI_RAFIKI_HTTP_GATEWAY_H_

#include <functional>

#include "net/http.h"
#include "net/http_server.h"
#include "rafiki/gateway.h"

namespace rafiki::api {

/// Optional front-door gauge source for the metrics route. When provided,
/// successful `GET /jobs/<id>/metrics` responses are extended with
/// `inflight=&inflight_peak=&async_pending=` so admitted and parked
/// responses are observable independently of the job-level queue. Must be
/// callable from any event-loop thread.
using ServerStatsFn = std::function<net::HttpServerStats()>;

/// Maps one parsed HTTP request onto the gateway's request form:
/// percent-decoded path, query parameters decoded key/value ('+' in values
/// becomes space), body passed through verbatim.
Result<GatewayRequest> FromHttp(const net::HttpRequest& http);

/// Maps a gateway response onto HTTP (status + key=value text body).
net::HttpResponse ToHttp(const GatewayResponse& response);

/// The net::HttpServer handler that serves `gateway` — the glue between the
/// epoll front door and the routing layer. It never blocks its event loop:
/// the ResponseWriter rides Gateway::DispatchAsync's continuation, so query
/// routes complete from the inference dispatcher and control POSTs from
/// the gateway's control thread; GET routes complete inline. In-flight
/// queries are bounded by the server's max_inflight. `gateway` must
/// outlive the server.
net::HttpServer::AsyncHandler MakeGatewayAsyncHttpHandler(
    Gateway* gateway, ServerStatsFn server_stats = nullptr);

}  // namespace rafiki::api

#endif  // RAFIKI_RAFIKI_HTTP_GATEWAY_H_
